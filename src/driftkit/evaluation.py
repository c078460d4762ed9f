"""Classification metrics, time-bucketed evaluation, and the error-series
drift detector.

Metrics with an undefined denominator (e.g. FPR on a bucket with no
negatives) are reported as None, never coerced to 0. CSV output leaves
those cells empty; JSON uses null.

Drift is declared when the per-bucket error series rises to or above a
threshold ``epsilon`` and stays there for at least ``persistence``
consecutive buckets. The onset is the earliest bucket that starts such a
run; shorter spikes neither count as onset nor block a later one. The
verdict also records whether the exceedance persisted through the end of
the evaluated window.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .data import write_csv
from .errors import ConfigError, DataError, ShapeError
from .model import ModelParams, predict_proba


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int = 0
    fp: int = 0
    tn: int = 0
    fn: int = 0

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn

    def __add__(self, other: "ConfusionCounts") -> "ConfusionCounts":
        return ConfusionCounts(
            self.tp + other.tp, self.fp + other.fp, self.tn + other.tn, self.fn + other.fn
        )


@dataclass(frozen=True)
class Metrics:
    acc: float
    f1: float | None
    fnr: float | None
    fpr: float | None


def confusion(probs, labels, threshold: float = 0.5) -> ConfusionCounts:
    """Count outcomes at the given threshold; predicted positive iff
    prob >= threshold (ties go to the positive class)."""
    if not 0.0 < threshold < 1.0:
        raise ConfigError(f"threshold must be in (0, 1), got {threshold}")
    p = np.asarray(probs, dtype=np.float64).ravel()
    y = np.asarray(labels).ravel()
    if p.shape != y.shape:
        raise ShapeError(f"probs/labels length mismatch: {p.size} vs {y.size}")
    pred = p >= threshold
    pos = y == 1
    return ConfusionCounts(
        tp=int(np.sum(pred & pos)),
        fp=int(np.sum(pred & ~pos)),
        tn=int(np.sum(~pred & ~pos)),
        fn=int(np.sum(~pred & pos)),
    )


def metrics(c: ConfusionCounts) -> Metrics:
    """Accuracy, F1, FNR, FPR from counts; None where the denominator is 0."""
    if c.total == 0:
        raise DataError("cannot compute metrics of an empty confusion")
    acc = (c.tp + c.tn) / c.total
    f1_den = 2 * c.tp + c.fp + c.fn
    f1 = (2 * c.tp / f1_den) if f1_den > 0 else None
    fnr = (c.fn / (c.fn + c.tp)) if (c.fn + c.tp) > 0 else None
    fpr = (c.fp / (c.fp + c.tn)) if (c.fp + c.tn) > 0 else None
    return Metrics(acc, f1, fnr, fpr)


@dataclass(frozen=True)
class BucketRow:
    bucket: str
    n: int
    n_pos: int
    acc: float | None
    f1: float | None
    fnr: float | None
    fpr: float | None
    err: float | None  # 1 - acc


def _row_from_confusion(label: str, c: ConfusionCounts) -> BucketRow:
    if c.total == 0:
        return BucketRow(label, 0, 0, None, None, None, None, None)
    m = metrics(c)
    return BucketRow(label, c.total, c.tp + c.fn, m.acc, m.f1, m.fnr, m.fpr, 1.0 - m.acc)


@dataclass
class MetricsReport:
    """Per-bucket metric rows in time order plus one pooled aggregate row."""

    rows: list
    aggregate: BucketRow
    threshold: float

    def error_series(self, metric: str = "err") -> list:
        if metric not in ("err", "fnr"):
            raise ConfigError(f"unknown error metric {metric!r}")
        return [getattr(r, metric) for r in self.rows]

    def to_json(self) -> dict:
        return {
            "threshold": self.threshold,
            "buckets": [asdict(r) for r in self.rows],
            "aggregate": asdict(self.aggregate),
        }

    def write_csv(self, path, comment: str | None = None) -> None:
        rows = (
            [r.bucket, r.n, r.n_pos]
            + [None if v is None else f"{v:.6f}" for v in (r.acc, r.f1, r.fnr, r.fpr, r.err)]
            for r in [*self.rows, self.aggregate]
        )
        write_csv(path, ["bucket", "n", "n_pos", "acc", "f1", "fnr", "fpr", "err"], rows, comment)


def evaluate_buckets(
    params: ModelParams, buckets: list, threshold: float = 0.5
) -> MetricsReport:
    """Evaluate the model on each (label, Dataset) bucket in order.

    Empty buckets produce a row of undefined metrics rather than an error.
    The aggregate row pools the per-bucket confusions.
    """
    rows = []
    pooled = ConfusionCounts()
    for label, ds in buckets:
        if len(ds) == 0:
            rows.append(_row_from_confusion(label, ConfusionCounts()))
            continue
        probs = predict_proba(params, ds.features)
        c = confusion(probs, ds.labels, threshold)
        pooled = pooled + c
        rows.append(_row_from_confusion(label, c))
    rows_nonempty = pooled.total > 0
    if not rows_nonempty:
        raise DataError("all evaluation buckets are empty")
    return MetricsReport(rows, _row_from_confusion("all", pooled), threshold)


@dataclass(frozen=True)
class DriftVerdict:
    epsilon: float
    onset: int | None
    persisted: bool


def detect_drift(error_series, epsilon: float, persistence: int = 2) -> DriftVerdict:
    """Find the first bucket index starting ``persistence`` consecutive
    buckets with error >= epsilon. Undefined entries (None) never satisfy
    the exceedance condition."""
    if persistence < 1:
        raise ConfigError(f"persistence must be >= 1, got {persistence}")
    series = list(error_series)
    if not series:
        raise DataError("error series must be non-empty")
    exceeds = [e is not None and e >= epsilon for e in series]
    onset = None
    for t0 in range(len(series) - persistence + 1):
        if all(exceeds[t0 : t0 + persistence]):
            onset = t0
            break
    persisted = onset is not None and all(exceeds[onset:])
    return DriftVerdict(epsilon, onset, persisted)
