"""Seeded generator of labeled binary streams with controlled covariate
drift, for desk-scale verification of the full pipeline.

Samples are class-conditional Gaussians. A chosen subset of feature
columns is informative: label-0 samples center at -informative_scale and
label-1 samples at +informative_scale on those columns; every other
column is pure N(0, 1) noise for both classes. From ``drift_month``
onward the positive-class cluster mean moves a Euclidean distance of
``drift_magnitude`` toward (and past) the negative cluster, following one
of four time profiles:

  sudden       full shift from drift_month on
  incremental  mean interpolates linearly, reaching the full shift in the
               final month
  gradual      each positive sample draws old or new concept at random,
               with the new-concept probability ramping linearly to 1
  recurrent    full shift alternating on/off in blocks of
               ``recurrent_period`` months

Only the input distribution moves; the label rule never changes. Months
are generated from per-month derived seeds, so the stream is reproducible
sample-for-sample regardless of generation order.
"""

from __future__ import annotations

import re
from dataclasses import asdict, dataclass
from datetime import datetime, timezone

import numpy as np

from .data import FIRST_MONTH, LAST_MONTH, Dataset, month_label
from .errors import ConfigError, check_fields, choice, integer, real
from .kernels import make_rng

DRIFT_SHAPES = ("sudden", "gradual", "incremental", "recurrent")

# tag mixed into the seed stream that picks the informative column subset
_IDX_STREAM = 101


@dataclass(frozen=True)
class DriftSpec:
    shape: str = choice("sudden", DRIFT_SHAPES)
    n_months: int = integer(12, "[1, inf)")
    samples_per_month: int = integer(500, "[1, inf)")
    feature_dim: int = integer(30, "[1, inf)")
    n_informative: int = integer(6, "[1, inf)")
    drift_month: int = integer(6, "[0, inf)")
    drift_magnitude: float = real(2.5, "[0, inf)")
    class_balance: float = real(0.5, "(0, 1)")  # P(label == 1)
    seed: int = integer(0, "[0, inf)")
    informative_scale: float = real(1.0)
    recurrent_period: int = integer(2, "[1, inf)")
    start_month: str = "2021-01"

    def __post_init__(self):
        check_fields(self)
        if self.n_informative > self.feature_dim:
            raise ConfigError("need 1 <= n_informative <= feature_dim")
        if 4 * self.n_months * self.samples_per_month * self.feature_dim > np.iinfo(np.intp).max:
            raise _too_large(self, "more than numpy can address")
        if self.drift_month >= self.n_months:
            raise ConfigError("drift_month must lie in [0, n_months)")
        first = _first_month(self.start_month)
        if not FIRST_MONTH <= first <= LAST_MONTH - self.n_months + 1:
            raise ConfigError(
                f"start_month {self.start_month!r} with n_months {self.n_months} "
                "reaches outside the years 1-9999"
            )

    @classmethod
    def from_dict(cls, d: dict) -> "DriftSpec":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(d) - known
        if unknown:
            raise ConfigError(f"unknown drift spec keys: {sorted(unknown)}")
        return cls(**d)


def _too_large(spec: DriftSpec, why: str) -> ConfigError:
    n = spec.n_months * spec.samples_per_month * spec.feature_dim
    return ConfigError(
        f"n_months {spec.n_months} x samples_per_month {spec.samples_per_month} x "
        f"feature_dim {spec.feature_dim} make {n} float32 features, {4 * n} bytes: {why}"
    )


def _first_month(s: str) -> int:
    """``start_month`` 'YYYY-MM' (four ASCII digits, a dash, two) as
    months since 1970-01."""
    if not isinstance(s, str) or not re.fullmatch(r"[0-9]{4}-[0-9]{2}", s):
        raise ConfigError(f"start_month must look like 'YYYY-MM', got {s!r}")
    y, m = int(s[:4]), int(s[5:])
    if not 1 <= m <= 12:
        raise ConfigError(f"start_month month out of range in {s!r}")
    return (y - 1970) * 12 + m - 1


def _year_month(spec: DriftSpec, month: int) -> tuple[int, int]:
    """(year, month) of the stream's ``month``-th month."""
    idx = _first_month(spec.start_month) + month
    return 1970 + idx // 12, idx % 12 + 1


def informative_indices(spec: DriftSpec) -> np.ndarray:
    """Seed-determined informative column subset, sorted ascending."""
    rng = make_rng((spec.seed, _IDX_STREAM))
    return np.sort(rng.choice(spec.feature_dim, size=spec.n_informative, replace=False))


def concept_weight(spec: DriftSpec, month: int) -> float:
    """Fraction of the full mean shift in effect during ``month``.

    For the gradual shape this is the probability a positive sample draws
    the new concept rather than a partial shift.
    """
    if month < spec.drift_month or spec.drift_magnitude == 0:
        return 0.0
    if spec.shape == "sudden":
        return 1.0
    if spec.shape in ("incremental", "gradual"):
        span = spec.n_months - spec.drift_month
        return (month - spec.drift_month + 1) / span
    # recurrent: alternate in blocks, starting shifted
    block = (month - spec.drift_month) // spec.recurrent_period
    return 1.0 if block % 2 == 0 else 0.0


def _month_timestamps(spec: DriftSpec, month: int) -> np.ndarray:
    mid = datetime(*_year_month(spec, month), 15, tzinfo=timezone.utc)
    base = int(mid.timestamp())
    return base + np.arange(spec.samples_per_month, dtype=np.int64)


def generate_stream(spec: DriftSpec) -> Dataset:
    """Generate the full stream, timestamped mid-month, months ascending,
    with float32 features, the precision a ``.dset`` file stores."""
    info = informative_indices(spec)
    shift_per_dim = (
        spec.drift_magnitude / np.sqrt(spec.n_informative) if spec.drift_magnitude else 0.0
    )
    n = spec.samples_per_month
    rows = spec.n_months * n
    try:
        feats = np.empty((rows, spec.feature_dim), dtype=np.float32)
        labels = np.empty(rows, dtype=np.uint8)
        stamps = np.empty(rows, dtype=np.int64)
        block = np.empty((n, spec.feature_dim))
    except MemoryError:
        raise _too_large(spec, "more than this machine can allocate") from None
    for month in range(spec.n_months):
        part = slice(month * n, (month + 1) * n)
        rng = make_rng((spec.seed, month))
        y = labels[part]
        y[...] = rng.random(n) < spec.class_balance
        # one reused float64 block: the same draws, in the same order, as a
        # new matrix per month
        X = rng.standard_normal(out=block)
        w = concept_weight(spec, month)
        if spec.shape == "gradual" and 0.0 < w:
            # per-sample concept choice: old mean or fully shifted mean
            shift = (rng.random(n) < w).astype(np.float64)
        else:
            shift = np.full(n, w)
        pos = y == 1
        X[np.ix_(pos, info)] += spec.informative_scale - np.outer(
            shift[pos], np.full(spec.n_informative, shift_per_dim)
        )
        X[np.ix_(~pos, info)] -= spec.informative_scale
        # rounded to float32 by the cast a .dset save applies, so the
        # stream in memory equals its saved file bit for bit
        feats[part] = X
        stamps[part] = _month_timestamps(spec, month)
    return Dataset(feats, labels, stamps, name=f"synth-{spec.shape}")


def concept_truth(spec: DriftSpec) -> dict:
    """Ground-truth sidecar: informative columns and per-month concept
    parameters, for oracle tests against the generated stream."""
    info = informative_indices(spec)
    months = []
    for month in range(spec.n_months):
        w = concept_weight(spec, month)
        months.append(
            {
                "label": month_label(*_year_month(spec, month)),
                "n": spec.samples_per_month,
                "new_concept_weight": w,
                "mixing": spec.shape == "gradual",
                "pos_mean_shift_distance": w * spec.drift_magnitude
                if spec.shape != "gradual"
                else None,
            }
        )
    return {
        "spec": asdict(spec),
        "informative_indices": [int(i) for i in info],
        "negative_mean": -spec.informative_scale,
        "positive_mean_base": spec.informative_scale,
        "months": months,
    }
