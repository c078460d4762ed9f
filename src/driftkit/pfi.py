"""Permutation feature importance and the feature mask it produces.

Importance of feature i is the drop in a chosen metric when column i is
randomly permuted across samples, which severs the feature-target
relationship while preserving the column's marginal distribution:

    importance(i) = E_base - mean over repeats of E(permuted_i)

A feature is kept iff its importance strictly exceeds ``keep_threshold``;
at the default, a feature whose permutation does not hurt the model is
dropped, since it carries no usable signal. A single repeat reproduces the plain algorithm; more
repeats average out permutation luck.

Every (feature, repeat) pair derives its own RNG from
``SeedSequence((seed, feature, repeat))``, so results do not depend on
the order in which features are evaluated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import FeatureMask, write_csv
from .errors import ConfigError, DataError, EmptyMaskError, ShapeError, require_ints
from .evaluation import confusion, metrics
from .model import ModelParams, predict_proba

PFI_METRICS = ("f1", "accuracy")


@dataclass(frozen=True)
class PfiConfig:
    metric: str = "f1"
    n_repeats: int = 5
    seed: int = 0
    keep_threshold: float = 0.0
    threshold: float = 0.5  # probability cut for class decisions

    def __post_init__(self):
        require_ints(self, "n_repeats", "seed")
        if self.metric not in PFI_METRICS:
            raise ConfigError(f"unknown importance metric {self.metric!r}")
        if self.n_repeats < 1:
            raise ConfigError("n_repeats must be >= 1")
        if not math.isfinite(self.keep_threshold):
            raise ConfigError(f"keep_threshold must be finite, got {self.keep_threshold}")
        if not 0.0 < self.threshold < 1.0:
            raise ConfigError(f"pfi.threshold must be in (0, 1), got {self.threshold}")


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
    m = metrics(confusion(predict_proba(params, X), y, cfg.threshold))
    v = m.f1 if cfg.metric == "f1" else m.acc
    return v if v is not None else 0.0


def column_importance(
    params: ModelParams, X_work: np.ndarray, y, col: int, cfg: PfiConfig, e_base: float
) -> float:
    """Importance of one column, mutating X_work in place and restoring it.

    Depends only on (params, data, col, cfg), not on evaluation order.
    """
    orig = X_work[:, col].copy()
    total = 0.0
    for rep in range(cfg.n_repeats):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((cfg.seed, col, rep))))
        X_work[:, col] = rng.permutation(orig)
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
    n, d = X_work.shape
    if d != params.cfg.input_dim:
        raise ShapeError(f"matrix has {d} features, model expects {params.cfg.input_dim}")
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
    mask = FeatureMask(tuple(int(i) for i in np.flatnonzero(kept)), d)
    return mask, report
