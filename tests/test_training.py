import json
from dataclasses import asdict

import numpy as np
import pytest

from driftkit.data import split_recent, write_json
from driftkit.errors import ConfigError, NumericError
from driftkit.evaluation import confusion, metrics
from driftkit.losses import LossConfig
from driftkit.model import ModelConfig, forward
from driftkit.kernels import sigmoid
from driftkit.training import TrainConfig, TrainHistory, train

from conftest import make_dataset


def small_model(dim=4):
    return ModelConfig(input_dim=dim, trunk_width=8, n_residual_blocks=1,
                       dropout_rate=0.1, head_widths=(6,))


def quick_cfg(**kw):
    base = dict(validation="recent", n_val=12, batch_size=16,
                max_epochs=6, patience=10, seed=0, lr=5e-3)
    base.update(kw)
    return TrainConfig(**base)


def params_equal(a, b):
    return a.tensors.keys() == b.tensors.keys() and all(
        np.array_equal(a.tensors[k], b.tensors[k]) for k in a.tensors
    )


def test_train_is_deterministic(toy_dataset):
    p1, h1 = train(toy_dataset, small_model(), quick_cfg())
    p2, h2 = train(toy_dataset, small_model(), quick_cfg())
    assert params_equal(p1, p2)
    assert asdict(h1) == asdict(h2)


def test_seed_changes_initialization(toy_dataset):
    p1, _ = train(toy_dataset, small_model(), quick_cfg(seed=0))
    p2, _ = train(toy_dataset, small_model(), quick_cfg(seed=1))
    assert not params_equal(p1, p2)


def test_history_bookkeeping(toy_dataset):
    _, hist = train(toy_dataset, small_model(), quick_cfg())
    assert hist.n_train == len(toy_dataset) - 12
    assert hist.n_val == 12
    assert hist.epochs_run == len(hist.train_loss) == len(hist.val_f1)
    assert 0 <= hist.best_epoch < hist.epochs_run
    assert all(np.isfinite(v) for v in hist.train_loss)


def test_class_weights_come_from_train_split_only():
    # chronologically last 10 samples are all positive; with the recent
    # split they land in validation, leaving a balanced 10/10 train set
    ds = make_dataset(n=30, seed=3)
    labels = ds.labels.copy()
    labels[:10] = 0
    labels[10:20] = 1
    labels[20:] = 1
    ds = type(ds)(ds.features, labels, ds.timestamps)
    _, hist = train(ds, small_model(), quick_cfg(n_val=10, max_epochs=1))
    assert hist.resolved_w0 == 0.5
    assert hist.resolved_w1 == 0.5
    # weights over the full dataset would have been (1/3, 2/3)


def test_bce_variant_resolves_to_unit_weights(toy_dataset):
    cfg = quick_cfg(max_epochs=1, loss=LossConfig(variant="bce"))
    _, hist = train(toy_dataset, small_model(), cfg)
    assert hist.resolved_w0 == 1.0 and hist.resolved_w1 == 1.0


def test_best_score_matches_f1_history(toy_dataset):
    _, hist = train(toy_dataset, small_model(), quick_cfg())
    scores = [v if v is not None else 0.0 for v in hist.val_f1]
    assert hist.best_score == max(scores)
    assert hist.best_epoch == scores.index(max(scores))


def test_selection_metric_accuracy(toy_dataset):
    _, hist = train(toy_dataset, small_model(),
                    quick_cfg(selection_metric="accuracy"))
    scores = [v if v is not None else 0.0 for v in hist.val_acc]
    assert hist.best_score == max(scores)


def test_returned_params_are_best_epoch_snapshot():
    ds = make_dataset(n=80, separation=3.0, seed=7)
    cfg = quick_cfg(n_val=20, max_epochs=8, lr=1e-2)
    params, hist = train(ds, small_model(), cfg)
    # re-derive the validation split and score the returned parameters;
    # they must reproduce the recorded best score exactly
    _, val = split_recent(ds, cfg.n_val)
    z, _ = forward(params, val.features, mode="eval")
    m = metrics(confusion(sigmoid(z), val.labels, cfg.threshold))
    score = m.f1 if m.f1 is not None else 0.0
    assert score == hist.best_score


def test_early_stopping_with_stalled_training(toy_dataset):
    # lr so small that predictions never move: epoch 0 sets the best
    # score, every later epoch ties, and ties do not count as progress
    cfg = quick_cfg(lr=1e-30, max_epochs=50, patience=3)
    _, hist = train(toy_dataset, small_model(), cfg)
    assert hist.stopped_early is True
    assert hist.best_epoch == 0
    assert hist.epochs_run == 1 + 3


def test_patience_zero_stops_at_first_plateau(toy_dataset):
    cfg = quick_cfg(lr=1e-30, max_epochs=50, patience=0)
    _, hist = train(toy_dataset, small_model(), cfg)
    assert hist.stopped_early is True
    assert hist.epochs_run == 2


def test_runs_all_epochs_without_trigger(toy_dataset):
    cfg = quick_cfg(max_epochs=4, patience=100)
    _, hist = train(toy_dataset, small_model(), cfg)
    assert hist.epochs_run == 4
    assert hist.stopped_early is False


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_divergence_raises_numeric_error(toy_dataset):
    cfg = quick_cfg(lr=1e10, max_epochs=50,
                    loss=LossConfig(variant="drbce", lam=0.1))
    with pytest.raises(NumericError, match="diverged"):
        train(toy_dataset, small_model(), cfg)


def test_dimension_mismatch(toy_dataset):
    with pytest.raises(ConfigError, match="input_dim"):
        train(toy_dataset, small_model(dim=5), quick_cfg())


def test_n_val_must_leave_training_data(toy_dataset):
    with pytest.raises(ConfigError, match="n_val"):
        train(toy_dataset, small_model(), quick_cfg(n_val=len(toy_dataset)))


def test_random_split_sizes(toy_dataset):
    _, hist = train(toy_dataset, small_model(),
                    quick_cfg(validation="random", max_epochs=1))
    assert hist.n_train == len(toy_dataset) - 12
    assert hist.n_val == 12


def test_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(validation="holdout")
    with pytest.raises(ConfigError):
        TrainConfig(selection_metric="auc")
    with pytest.raises(ConfigError):
        TrainConfig(batch_size=0)
    with pytest.raises(ConfigError):
        TrainConfig(max_epochs=0)
    with pytest.raises(ConfigError):
        TrainConfig(patience=-1)
    with pytest.raises(ConfigError):
        TrainConfig(n_val=0)
    with pytest.raises(ConfigError):
        TrainConfig(threshold=1.0)


def test_history_save_with_extras(tmp_path):
    hist = TrainHistory(train_loss=[1.0, 0.5], best_epoch=1, best_score=0.9)
    out = tmp_path / "history.json"
    write_json(out, {**asdict(hist), "config_hash": "deadbeef"})
    doc = json.loads(out.read_text())
    assert doc["train_loss"] == [1.0, 0.5]
    assert doc["config_hash"] == "deadbeef"
    assert doc["best_epoch"] == 1
