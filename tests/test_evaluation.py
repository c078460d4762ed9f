import json
from dataclasses import asdict
from fractions import Fraction

import numpy as np
import pytest

from driftkit.data import Dataset, bucket_by_month, write_json
from driftkit.errors import DataError, ShapeError
from driftkit.evaluation import (
    BucketRow,
    ConfusionCounts,
    DriftVerdict,
    MetricsReport,
    confusion,
    detect_drift,
    evaluate_buckets,
    metrics,
)


def brute_confusion(probs, labels, threshold):
    tp = fp = tn = fn = 0
    for p, y in zip(probs, labels):
        pred = p >= threshold
        if pred and y == 1:
            tp += 1
        elif pred and y == 0:
            fp += 1
        elif not pred and y == 0:
            tn += 1
        else:
            fn += 1
    return ConfusionCounts(tp, fp, tn, fn)


def test_confusion_matches_brute_force():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = int(rng.integers(1, 40))
        probs = rng.random(n)
        labels = (rng.random(n) < 0.5).astype(np.uint8)
        thr = float(rng.uniform(0.05, 0.95))
        assert confusion(probs, labels, thr) == brute_confusion(probs, labels, thr)


def test_confusion_threshold_tie_predicts_positive():
    c = confusion(np.array([0.5, 0.49999]), np.array([1, 1]), 0.5)
    assert (c.tp, c.fn) == (1, 1)


def test_confusion_validation():
    with pytest.raises(ShapeError):
        confusion(np.array([0.5, 0.5]), np.array([1]))


def test_confusion_addition():
    a = ConfusionCounts(1, 2, 3, 4)
    b = ConfusionCounts(10, 20, 30, 40)
    assert a + b == ConfusionCounts(11, 22, 33, 44)
    assert a.total == 10


def exact(frac):
    return float(frac) if frac is not None else None


def test_metrics_exact_hand_table():
    # (tp, fp, tn, fn) -> (acc, f1, fnr, fpr) as exact fractions
    table = [
        ((5, 0, 5, 0), (1, 1, 0, 0)),
        ((0, 5, 0, 5), (0, 0, 1, 1)),
        ((3, 1, 4, 2), (Fraction(7, 10), Fraction(6, 9), Fraction(2, 5), Fraction(1, 5))),
        ((1, 1, 1, 1), (Fraction(1, 2), Fraction(1, 2), Fraction(1, 2), Fraction(1, 2))),
        ((10, 0, 0, 0), (1, 1, 0, None)),      # positives only, all caught
        ((0, 0, 0, 10), (0, 0, 1, None)),      # positives only, all missed
        ((0, 0, 10, 0), (1, None, None, 0)),   # negatives only, all correct
        ((0, 10, 0, 0), (0, 0, None, 1)),
        ((7, 2, 0, 1), (Fraction(7, 10), Fraction(14, 17), Fraction(1, 8), 1)),
        ((2, 3, 5, 0), (Fraction(7, 10), Fraction(4, 7), 0, Fraction(3, 8))),
    ]
    for (tp, fp, tn, fn), (acc, f1, fnr, fpr) in table:
        m = metrics(ConfusionCounts(tp, fp, tn, fn))
        assert m.acc == exact(acc)
        assert m.f1 == exact(f1)
        assert m.fnr == exact(fnr)
        assert m.fpr == exact(fpr)


def test_score_is_f1_or_accuracy_with_undefined_f1_as_zero():
    """The one selection and importance score, which training and PFI share."""
    m = metrics(ConfusionCounts(3, 1, 4, 2))
    assert (m.score("f1"), m.score("accuracy")) == (6 / 9, 0.7)
    negatives_only = metrics(ConfusionCounts(0, 0, 10, 0))
    assert negatives_only.f1 is None
    assert (negatives_only.score("f1"), negatives_only.score("accuracy")) == (0.0, 1.0)


def make_report():
    rows = [
        BucketRow("2021-01", 10, 5, 0.9, 0.9, 0.1, 0.1, 0.1),
        BucketRow("2021-02", 0, 0, None, None, None, None, None),
        BucketRow("2021-03", 10, 10, 0.6, 0.75, 0.4, None, 0.4),
    ]
    agg = BucketRow("all", 20, 15, 0.75, 0.8, 0.25, 0.1, 0.25)
    return MetricsReport(rows, agg, threshold=0.5)


def test_error_series():
    r = make_report()
    assert r.error_series() == [0.1, None, 0.4]
    assert r.error_series("fnr") == [0.1, None, 0.4]


def test_report_csv_and_json(tmp_path):
    r = make_report()
    p = tmp_path / "metrics.csv"
    r.write_csv(p, comment="config_hash=abc seed=1")
    lines = p.read_text().splitlines()
    assert lines[0] == "# config_hash=abc seed=1"
    assert lines[1].split(",") == ["bucket", "n", "n_pos", "acc", "f1", "fnr", "fpr", "err"]
    row2 = lines[3].split(",")
    assert row2 == ["2021-02", "0", "0", "", "", "", "", ""]
    assert len(lines) == 2 + 4  # comment, header, 3 buckets, aggregate

    doc = r.to_json()
    assert [b["bucket"] for b in doc["buckets"]] == ["2021-01", "2021-02", "2021-03"]
    assert doc["aggregate"]["f1"] == 0.8
    out = tmp_path / "metrics.json"
    write_json(out, {**doc, "drift": asdict(DriftVerdict(0.3, 2, True)), "seed": 5})
    loaded = json.loads(out.read_text())
    assert loaded["drift"] == {"epsilon": 0.3, "onset": 2, "persisted": True}
    assert loaded["seed"] == 5
    assert loaded["buckets"][1]["acc"] is None


def saturated_params():
    """Model whose prediction is driven by feature 0's sign."""
    from driftkit.model import ModelConfig, ModelParams, param_count

    cfg = ModelConfig(input_dim=2, trunk_width=2, n_residual_blocks=0,
                      dropout_rate=0.0, head_widths=())
    # relu pair encodes identity of feature 0: h = [relu(x0), relu(-x0)]
    params = ModelParams(cfg, np.zeros(param_count(cfg)))
    params.tensors["entry.W"][0] = [30.0, -30.0]
    params.tensors["out.W"][:, 0] = [1.0, -1.0]
    return params


def labeled_months(spec):
    """spec: list of (month_start_ts, [(x0, label), ...])"""
    feats, labels, ts = [], [], []
    for base, pairs in spec:
        for i, (x0, y) in enumerate(pairs):
            feats.append([x0, 0.0])
            labels.append(y)
            ts.append(base + i)
    return Dataset(np.array(feats), np.array(labels, dtype=np.uint8),
                   np.array(ts, dtype=np.int64))


JAN = 1609459200  # 2021-01-01
FEB = 1612137600
MAR = 1614556800


def test_evaluate_buckets_counts_and_aggregate():
    params = saturated_params()
    # jan: perfect; feb: empty; mar: one false negative out of two
    ds = labeled_months([
        (JAN, [(1.0, 1), (-1.0, 0), (1.0, 1)]),
        (MAR, [(-1.0, 1), (1.0, 1)]),
    ])
    report = evaluate_buckets(params, bucket_by_month(ds))
    assert [r.bucket for r in report.rows] == ["2021-01", "2021-02", "2021-03"]
    jan, feb, mar = report.rows
    assert (jan.n, jan.n_pos, jan.acc, jan.err) == (3, 2, 1.0, 0.0)
    assert feb.n == 0 and feb.acc is None
    assert mar.acc == 0.5 and mar.fnr == 0.5 and mar.fpr is None
    # aggregate pools the confusion counts: 4 correct of 5
    assert report.aggregate.n == 5
    assert report.aggregate.acc == pytest.approx(0.8)
    assert report.aggregate.fnr == pytest.approx(0.25)


def test_evaluate_buckets_all_empty():
    params = saturated_params()
    with pytest.raises(DataError):
        evaluate_buckets(params, [])


def test_detect_drift_example():
    v = detect_drift([0.02, 0.12, 0.03, 0.2, 0.25], epsilon=0.1, persistence=2)
    assert v.onset == 3
    assert v.persisted is True


def test_detect_drift_no_onset():
    v = detect_drift([0.01, 0.02, 0.03], epsilon=0.5)
    assert v.onset is None and v.persisted is False


def test_detect_drift_spike_does_not_count():
    # single exceedance shorter than persistence is not an onset
    v = detect_drift([0.9, 0.1, 0.1, 0.1], epsilon=0.5, persistence=2)
    assert v.onset is None


def test_detect_drift_recovery_clears_persistence():
    v = detect_drift([0.1, 0.9, 0.9, 0.1, 0.1], epsilon=0.5, persistence=2)
    assert v.onset == 1
    assert v.persisted is False


def test_detect_drift_exceedance_is_inclusive():
    v = detect_drift([0.0, 0.5, 0.5], epsilon=0.5, persistence=2)
    assert v.onset == 1


def test_detect_drift_none_entries_never_exceed():
    v = detect_drift([0.9, None, 0.9, 0.9], epsilon=0.5, persistence=2)
    assert v.onset == 2
    v = detect_drift([None, None], epsilon=0.1, persistence=1)
    assert v.onset is None


def test_detect_drift_persistence_one():
    v = detect_drift([0.1, 0.9, 0.1], epsilon=0.5, persistence=1)
    assert v.onset == 1 and v.persisted is False


def test_detect_drift_validation():
    with pytest.raises(DataError):
        detect_drift([], 0.5)


def test_detect_drift_matches_exhaustive_scan():
    rng = np.random.default_rng(3)
    for _ in range(200):
        n = int(rng.integers(1, 25))
        series = rng.random(n).round(2).tolist()
        eps = float(rng.uniform(0.2, 0.8))
        pers = int(rng.integers(1, 4))
        got = detect_drift(series, eps, pers)
        want = None
        for t0 in range(n - pers + 1):
            if all(series[t] >= eps for t in range(t0, t0 + pers)):
                want = t0
                break
        assert got.onset == want
        if want is not None:
            assert got.persisted == all(e >= eps for e in series[want:])
