"""Permutation feature importance and the feature mask it produces.

Importance of feature i is the drop in a chosen metric when column i is
randomly permuted across samples, which severs the feature-target
relationship while preserving the column's marginal distribution:

    importance(i) = E_base - mean over repeats of E(permuted_i)

A feature is kept iff its importance strictly exceeds ``keep_threshold``;
at the default, a feature whose permutation does not hurt the model is
dropped, since it carries no usable signal. A single repeat reproduces the plain algorithm; more
repeats average out permutation luck.

Every (feature, repeat) pair derives its own RNG,
``make_rng((seed, feature, repeat))``, so results do not depend on
the order in which features are evaluated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import FeatureMask, write_csv
from .errors import DataError, EmptyMaskError, ShapeError, check_fields, choice, integer, real
from .evaluation import SCORE_METRICS, confusion, metrics
from .kernels import make_rng
from .model import ModelParams, predict_proba


@dataclass(frozen=True)
class PfiConfig:
    metric: str = choice("f1", SCORE_METRICS)
    n_repeats: int = integer(5, "[1, inf)")
    seed: int = integer(0, "[0, inf)")
    keep_threshold: float = real(0.0)
    threshold: float = real(0.5, "(0, 1)")  # probability cut for class decisions

    def __post_init__(self):
        check_fields(self, "pfi.")


@dataclass
class PfiReport:
    importances: np.ndarray  # (feature_dim,) E_base - mean(E_perm)
    kept: np.ndarray  # (feature_dim,) bool
    e_base: float
    metric: str
    n_repeats: int
    seed: int

    def write_csv(self, path, comment: str | None = None) -> None:
        rows = (
            [i, repr(float(imp)), int(keep)]
            for i, (imp, keep) in enumerate(zip(self.importances, self.kept))
        )
        write_csv(path, ["feature_index", "importance", "kept"], rows, comment)


def _score(params: ModelParams, X, y, cfg: PfiConfig) -> float:
    return metrics(confusion(predict_proba(params, X), y, cfg.threshold)).score(cfg.metric)


def column_importance(
    params: ModelParams, X_work: np.ndarray, y, col: int, cfg: PfiConfig, e_base: float
) -> float:
    """Importance of one column, mutating X_work in place and restoring it.

    Depends only on (params, data, col, cfg), not on evaluation order.
    """
    orig = X_work[:, col].copy()
    total = 0.0
    for rep in range(cfg.n_repeats):
        X_work[:, col] = make_rng((cfg.seed, col, rep)).permutation(orig)
        total += _score(params, X_work, y, cfg)
    X_work[:, col] = orig
    return e_base - total / cfg.n_repeats


def run_pfi(
    params: ModelParams, X: np.ndarray, y, cfg: PfiConfig
) -> tuple[FeatureMask, PfiReport]:
    """Score every feature and return (mask of kept features, full report).

    Neither the model nor X is modified. When no feature clears the keep
    threshold an EmptyMaskError is raised with the report attached, since
    a mask must keep at least one feature.
    """
    # the one float64 working copy: scored as it is, then permuted column
    # by column, each column restored before the next
    X_work = np.array(X, dtype=np.float64, order="C")
    if X_work.ndim != 2 or X_work.shape[0] == 0:
        raise DataError("PFI needs a non-empty 2-D evaluation matrix")
    # a width the model does not take fails in the first scoring
    n, d = X_work.shape
    y = np.asarray(y)
    if y.shape != (n,):
        raise ShapeError("labels length must match sample count")

    e_base = _score(params, X_work, y, cfg)
    importances = np.array(
        [column_importance(params, X_work, y, col, cfg, e_base) for col in range(d)]
    )
    kept = importances > cfg.keep_threshold
    report = PfiReport(importances, kept, e_base, cfg.metric, cfg.n_repeats, cfg.seed)
    if not kept.any():
        raise EmptyMaskError("no feature importance exceeded the keep threshold", report)
    mask = FeatureMask(tuple(np.flatnonzero(kept)), d)
    return mask, report
