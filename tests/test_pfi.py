import numpy as np
import pytest

from driftkit.data import Dataset
from driftkit.errors import ConfigError, EmptyMaskError, ShapeError
from driftkit.model import ModelConfig, ModelParams, init_model, param_count, predict_proba
from driftkit.pfi import (
    PfiConfig,
    column_importance,
    run_pfi,
)
from driftkit.training import TrainConfig, train

from conftest import make_dataset


def single_feature_model():
    """Prediction = sign of feature 0; features 1.. are ignored."""
    cfg = ModelConfig(input_dim=3, trunk_width=2, n_residual_blocks=0,
                      dropout_rate=0.0, head_widths=())
    params = ModelParams(cfg, np.zeros(param_count(cfg)))
    params.tensors["entry.W"][0] = [8.0, -8.0]
    params.tensors["out.W"][:, 0] = [1.0, -1.0]
    return params


def signal_data(n=60, seed=0):
    rng = np.random.default_rng(seed)
    y = (rng.random(n) < 0.5).astype(np.uint8)
    X = rng.standard_normal((n, 3))
    X[:, 0] = np.where(y == 1, 1.0, -1.0)
    return X, y


def test_ignored_feature_has_zero_importance():
    params = single_feature_model()
    X, y = signal_data()
    cfg = PfiConfig(n_repeats=3)
    e_base = 1.0
    for col in (1, 2):
        X_work = X.copy()
        assert column_importance(params, X_work, y, col, cfg, e_base) == 0.0
        assert np.array_equal(X_work, X)  # restored in place


def test_informative_feature_scores_high():
    params = single_feature_model()
    X, y = signal_data()
    mask, report = run_pfi(params, X, y, PfiConfig(n_repeats=5))
    assert report.e_base == 1.0
    assert report.importances[0] > 0.3
    assert report.importances[1] == 0.0 and report.importances[2] == 0.0
    assert mask.kept_indices == (0,)
    assert mask.original_dim == 3


def test_importance_independent_of_evaluation_order():
    params = single_feature_model()
    X, y = signal_data(seed=5)
    cfg = PfiConfig(n_repeats=4, seed=9)
    e_base = 1.0
    forward_order = [column_importance(params, X.copy(), y, c, cfg, e_base)
                     for c in range(3)]
    reverse_order = []
    X_work = X.copy()
    for c in (2, 1, 0):
        reverse_order.append(column_importance(params, X_work, y, c, cfg, e_base))
    assert forward_order == list(reversed(reverse_order))


def test_run_pfi_leaves_inputs_untouched():
    params = single_feature_model()
    X, y = signal_data(seed=3)
    X_orig = X.copy()
    probs_before = predict_proba(params, X)
    run_pfi(params, X, y, PfiConfig(n_repeats=2))
    assert np.array_equal(X, X_orig)
    assert np.array_equal(predict_proba(params, X), probs_before)


def test_empty_mask_error_carries_report():
    params = single_feature_model()
    rng = np.random.default_rng(11)
    # labels independent of every feature: nothing can clear the threshold
    X = rng.standard_normal((40, 3))
    X[:, 0] = 0.0
    y = (rng.random(40) < 0.5).astype(np.uint8)
    with pytest.raises(EmptyMaskError) as exc:
        run_pfi(params, X, y, PfiConfig(n_repeats=2))
    report = exc.value.report
    assert report.importances.shape == (3,)
    assert not report.kept.any()


def test_keep_threshold_filters():
    params = single_feature_model()
    X, y = signal_data(seed=6)
    mask, report = run_pfi(params, X, y, PfiConfig(n_repeats=3, keep_threshold=0.1))
    assert mask.kept_indices == (0,)
    with pytest.raises(EmptyMaskError):
        run_pfi(params, X, y, PfiConfig(n_repeats=3, keep_threshold=2.0))


def test_on_trained_model_informative_beats_noise():
    ds = make_dataset(n=200, dim=5, separation=2.5, seed=1)
    model_cfg = ModelConfig(input_dim=5, trunk_width=16, n_residual_blocks=1,
                            dropout_rate=0.0, head_widths=(8,))
    train_cfg = TrainConfig(n_val=40, batch_size=32, max_epochs=12,
                            patience=12, lr=1e-2, seed=0)
    params, hist = train(ds, model_cfg, train_cfg)
    assert hist.best_score > 0.8  # sanity: the signal was learned
    _, report = run_pfi(params, ds.features, ds.labels, PfiConfig(n_repeats=5))
    # column 0 carries the class signal that make_dataset injects
    assert report.importances[0] > max(abs(report.importances[i]) for i in range(1, 5))


def test_run_pfi_validation():
    params = single_feature_model()
    X, y = signal_data()
    with pytest.raises(ShapeError):
        run_pfi(params, X[:, :2], y, PfiConfig())
    with pytest.raises(ShapeError):
        run_pfi(params, X, y[:-1], PfiConfig())


def test_config_validation():
    with pytest.raises(ConfigError):
        PfiConfig(metric="precision")
    with pytest.raises(ConfigError):
        PfiConfig(n_repeats=0)
    with pytest.raises(ConfigError):
        PfiConfig(threshold=0.0)


def test_report_csv_round_trip(tmp_path):
    params = single_feature_model()
    X, y = signal_data()
    _, report = run_pfi(params, X, y, PfiConfig(n_repeats=2))
    out = tmp_path / "pfi_report.csv"
    report.write_csv(out, comment="config_hash=ff seed=0")
    lines = out.read_text().splitlines()
    assert lines[0] == "# config_hash=ff seed=0"
    assert lines[1] == "feature_index,importance,kept"
    parsed = [row.split(",") for row in lines[2:]]
    assert [r[0] for r in parsed] == ["0", "1", "2"]
    # repr round-trips float64 exactly
    assert [float(r[1]) for r in parsed] == list(report.importances)
    assert [int(r[2]) for r in parsed] == list(report.kept.astype(int))
