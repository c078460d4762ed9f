import json
from dataclasses import asdict

import numpy as np
import pytest

from driftkit.data import bucket_by_month, write_json
from driftkit.errors import ConfigError
from driftkit.synthdrift import (
    DRIFT_SHAPES,
    DriftSpec,
    concept_truth,
    concept_weight,
    generate_stream,
    informative_indices,
)

SMALL = dict(n_months=4, samples_per_month=200, feature_dim=8, n_informative=3,
             drift_month=2, drift_magnitude=2.0, seed=0)


def test_generation_is_deterministic():
    spec = DriftSpec(**SMALL)
    a = generate_stream(spec)
    b = generate_stream(spec)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)
    assert np.array_equal(a.timestamps, b.timestamps)


def test_seed_changes_stream():
    a = generate_stream(DriftSpec(**SMALL))
    b = generate_stream(DriftSpec(**{**SMALL, "seed": 1}))
    assert not np.array_equal(a.features, b.features)


def test_shape_and_monthly_counts():
    spec = DriftSpec(**SMALL)
    ds = generate_stream(spec)
    assert len(ds) == 4 * 200
    assert ds.feature_dim == 8
    assert ds.name == "synth-sudden"
    buckets = bucket_by_month(ds)
    assert [label for label, _ in buckets] == ["2021-01", "2021-02", "2021-03", "2021-04"]
    assert all(len(b) == 200 for _, b in buckets)


def test_timestamps_mid_month_and_ordered():
    spec = DriftSpec(**SMALL)
    ds = generate_stream(spec)
    # 2021-01-15 00:00:00 UTC
    assert ds.timestamps[0] == 1610668800
    assert np.all(np.diff(ds.timestamps) > 0)


def test_start_month_rollover():
    spec = DriftSpec(**{**SMALL, "start_month": "2020-11"})
    labels = [m["label"] for m in concept_truth(spec)["months"]]
    assert labels == ["2020-11", "2020-12", "2021-01", "2021-02"]


def test_informative_indices_properties():
    spec = DriftSpec(**SMALL)
    idx = informative_indices(spec)
    assert idx.shape == (3,)
    assert np.array_equal(idx, np.unique(idx))  # sorted, no repeats
    assert idx.min() >= 0 and idx.max() < 8
    assert np.array_equal(idx, informative_indices(spec))
    other = informative_indices(DriftSpec(**{**SMALL, "seed": 99, "feature_dim": 40,
                                             "n_informative": 5}))
    assert other.shape == (5,) and other.max() < 40


def test_class_balance_respected():
    spec = DriftSpec(**{**SMALL, "class_balance": 0.3, "samples_per_month": 600})
    ds = generate_stream(spec)
    assert abs(ds.labels.mean() - 0.3) < 0.04


def test_class_conditional_means_without_drift():
    spec = DriftSpec(**{**SMALL, "drift_magnitude": 0.0, "samples_per_month": 2000,
                        "n_months": 1, "drift_month": 0, "informative_scale": 1.5})
    ds = generate_stream(spec)
    info = informative_indices(spec)
    noise = np.setdiff1d(np.arange(8), info)
    pos, neg = ds.labels == 1, ds.labels == 0
    tol = 0.15  # about 4.7 sigma at roughly 1000 per class
    assert np.all(np.abs(ds.features[np.ix_(pos, info)].mean(axis=0) - 1.5) < tol)
    assert np.all(np.abs(ds.features[np.ix_(neg, info)].mean(axis=0) + 1.5) < tol)
    assert np.all(np.abs(ds.features[:, noise].mean(axis=0)) < tol)


def monthly_class_means(spec):
    ds = generate_stream(spec)
    info = informative_indices(spec)
    out = []
    for _, b in bucket_by_month(ds):
        pos, neg = b.labels == 1, b.labels == 0
        out.append((b.features[np.ix_(pos, info)].mean(),
                    b.features[np.ix_(neg, info)].mean()))
    return out


def test_sudden_drift_moves_only_positives():
    spec = DriftSpec(**{**SMALL, "samples_per_month": 3000, "n_informative": 4})
    per_dim = 2.0 / np.sqrt(4)
    tol = 0.1
    for month, (pos_mean, neg_mean) in enumerate(monthly_class_means(spec)):
        expected = 1.0 - (per_dim if month >= 2 else 0.0)
        assert abs(pos_mean - expected) < tol, month
        assert abs(neg_mean + 1.0) < tol, month


def test_incremental_drift_interpolates():
    spec = DriftSpec(**{**SMALL, "shape": "incremental", "n_months": 5,
                        "drift_month": 1, "samples_per_month": 3000,
                        "n_informative": 4})
    per_dim = 2.0 / np.sqrt(4)
    for month, (pos_mean, _) in enumerate(monthly_class_means(spec)):
        w = concept_weight(spec, month)
        assert abs(pos_mean - (1.0 - w * per_dim)) < 0.1, month
    # final month carries the full shift
    assert concept_weight(spec, 4) == 1.0


def test_gradual_drift_mixes_two_concepts():
    # large per-dim shift so the two concepts separate cleanly
    spec = DriftSpec(**{**SMALL, "shape": "gradual", "n_months": 4, "drift_month": 2,
                        "samples_per_month": 3000, "feature_dim": 16,
                        "n_informative": 16, "drift_magnitude": 16.0})
    per_dim = 16.0 / np.sqrt(16)  # 4.0: concepts sit at +1 and -3 per column
    ds = generate_stream(spec)
    info = informative_indices(spec)
    for month, (_, b) in enumerate(bucket_by_month(ds)):
        w = concept_weight(spec, month)
        pos_rows = b.features[np.ix_(b.labels == 1, info)]
        row_means = pos_rows.mean(axis=1)  # sd 1/4 around either concept mean
        frac_new = float((row_means < 1.0 - per_dim / 2).mean())
        assert abs(frac_new - w) < 0.05, month
        # every sample sits at one concept or the other, never in between
        assert not np.any((row_means > -0.5) & (row_means < 0.0))


def test_concept_weight_sudden():
    spec = DriftSpec(**SMALL)
    assert [concept_weight(spec, m) for m in range(4)] == [0.0, 0.0, 1.0, 1.0]


def test_concept_weight_incremental_ramp():
    spec = DriftSpec(shape="incremental", n_months=12, drift_month=6,
                     drift_magnitude=1.0)
    weights = [concept_weight(spec, m) for m in range(12)]
    assert weights[:6] == [0.0] * 6
    assert weights[6:] == pytest.approx([1 / 6, 2 / 6, 3 / 6, 4 / 6, 5 / 6, 1.0])


def test_concept_weight_gradual_matches_incremental():
    inc = DriftSpec(shape="incremental", n_months=10, drift_month=4)
    gra = DriftSpec(shape="gradual", n_months=10, drift_month=4)
    for m in range(10):
        assert concept_weight(inc, m) == concept_weight(gra, m)


def test_concept_weight_recurrent_alternates():
    spec = DriftSpec(shape="recurrent", n_months=10, drift_month=2,
                     recurrent_period=2)
    weights = [concept_weight(spec, m) for m in range(10)]
    assert weights == [0, 0, 1, 1, 0, 0, 1, 1, 0, 0]
    spec3 = DriftSpec(shape="recurrent", n_months=9, drift_month=0,
                      recurrent_period=3)
    assert [concept_weight(spec3, m) for m in range(9)] == [1, 1, 1, 0, 0, 0, 1, 1, 1]


def test_zero_magnitude_never_drifts():
    for shape in DRIFT_SHAPES:
        spec = DriftSpec(shape=shape, drift_magnitude=0.0)
        assert all(concept_weight(spec, m) == 0.0 for m in range(spec.n_months))


def test_truth_sidecar_consistency(tmp_path):
    spec = DriftSpec(**{**SMALL, "shape": "gradual"})
    truth = concept_truth(spec)
    assert truth["spec"] == asdict(spec)
    assert truth["informative_indices"] == [int(i) for i in informative_indices(spec)]
    assert truth["negative_mean"] == -1.0
    assert truth["positive_mean_base"] == 1.0
    assert len(truth["months"]) == 4
    assert all(m["mixing"] for m in truth["months"])
    assert all(m["pos_mean_shift_distance"] is None for m in truth["months"])

    sudden = concept_truth(DriftSpec(**SMALL))
    dists = [m["pos_mean_shift_distance"] for m in sudden["months"]]
    assert dists == [0.0, 0.0, 2.0, 2.0]

    out = tmp_path / "truth.json"
    write_json(out, concept_truth(spec))
    assert json.loads(out.read_text()) == truth


def test_from_dict_round_trip_and_unknown_keys():
    spec = DriftSpec(**SMALL)
    assert DriftSpec.from_dict(asdict(spec)) == spec
    with pytest.raises(ConfigError, match="typo_key"):
        DriftSpec.from_dict({**SMALL, "typo_key": 1})


def test_spec_validation():
    with pytest.raises(ConfigError):
        DriftSpec(shape="linear")
    with pytest.raises(ConfigError):
        DriftSpec(n_months=0)
    with pytest.raises(ConfigError):
        DriftSpec(feature_dim=4, n_informative=5)
    with pytest.raises(ConfigError):
        DriftSpec(n_informative=0)
    with pytest.raises(ConfigError):
        DriftSpec(n_months=6, drift_month=6)
    with pytest.raises(ConfigError):
        DriftSpec(drift_magnitude=-1.0)
    with pytest.raises(ConfigError):
        DriftSpec(class_balance=1.0)
    with pytest.raises(ConfigError):
        DriftSpec(recurrent_period=0)
    with pytest.raises(ConfigError, match="seed"):
        DriftSpec(seed=-1)  # was a ValueError from numpy's SeedSequence
    for bad in ("2021", "2021-13", "garbage", "2021-00"):
        with pytest.raises(ConfigError):
            DriftSpec(start_month=bad)


def test_spec_rejects_a_stream_numpy_cannot_address():
    # checked when the spec is built, before any allocation
    with pytest.raises(ConfigError, match="samples_per_month 1099511627776 x feature_dim "
                                          "1099511627776 .* bytes: more than numpy can address"):
        DriftSpec(samples_per_month=2**40, feature_dim=2**40)


def test_generate_stream_reports_a_failed_allocation(monkeypatch):
    # 12 x 2**40 x 30 float32 values need 1.6 PB, which numpy refuses
    # without allocating
    with pytest.raises(ConfigError, match="samples_per_month 1099511627776 x feature_dim 30 .*"
                                          "more than this machine can allocate"):
        generate_stream(DriftSpec(samples_per_month=2**40))

    # a stream this machine cannot hold, mocked at a small size
    empty = np.empty

    def refuse(shape, dtype=float, *args, **kwargs):
        if dtype == np.float32:
            raise MemoryError
        return empty(shape, dtype, *args, **kwargs)
    monkeypatch.setattr(np, "empty", refuse)
    with pytest.raises(ConfigError, match="n_months 4 x samples_per_month 200 x feature_dim 8"):
        generate_stream(DriftSpec(**SMALL))
