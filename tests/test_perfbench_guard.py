"""The benchmark tracer (``perfbench/spans.py``) rebinds driftkit names
from outside. If a refactor renames one of them, or calls a traced
function in a form its wrapper does not accept, tracing breaks; these
tests catch that here instead of in a benchmark run. The benchmark
itself is not run.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from driftkit import kernels, model, training
from driftkit.model import ModelConfig
from driftkit.pfi import PfiConfig, run_pfi
from driftkit.training import TrainConfig

from conftest import make_dataset

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


@pytest.fixture
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    t = spans.Tracer()
    yield t
    t.uninstall()


def test_tracer_installs_and_uninstalls(tracer):
    originals = (kernels.adamw_update, kernels.sigmoid, model.matmul, training.forward)
    tracer.install()
    assert kernels.adamw_update is not originals[0]
    tracer.uninstall()
    assert (kernels.adamw_update, kernels.sigmoid, model.matmul, training.forward) == originals
    assert isinstance(kernels.backend(), str)


def _train_plain_then_traced(tracer, cfg):
    """Same bytes with and without the tracer; one AdamW kernel call, one
    dropout draw and one loss-gradient call per step; validation scored
    through the traced ``forward``, once per epoch, in the ``train_val``
    matmul context, and its probabilities through the traced
    ``kernels.sigmoid``, which a name bound at import would bypass."""
    ds = make_dataset(n=60, dim=4)
    tcfg = TrainConfig(n_val=20, batch_size=16, max_epochs=2, patience=2, lr=1e-2)
    plain, _ = training.train(ds, cfg, tcfg)
    tracer.install()
    traced, history = training.train(ds, cfg, tcfg)
    tracer.uninstall()
    assert np.array_equal(plain.flat, traced.flat)
    calls = tracer.aggregate(0)
    steps = calls["model.adamw_step"]["calls"]
    assert steps == 2 * 3
    assert calls["kernels.adamw_update"]["calls"] == steps
    assert calls["numerics.matmul.train_bwd"]["calls"] > 0
    # one dropout draw per train-mode forward, one gradient call per step
    assert calls["numerics.dropout_mask"]["calls"] == calls["model.forward.train"]["calls"]
    assert calls["losses.loss_grad"]["calls"] == steps
    assert calls["model.forward.val"]["calls"] == history.epochs_run
    assert calls["kernels.sigmoid"]["calls"] == history.epochs_run
    assert calls["numerics.matmul.train_val"]["calls"] > 0


def test_training_runs_under_the_tracer(tracer):
    cfg = ModelConfig(input_dim=4, trunk_width=8, n_residual_blocks=1, head_widths=(4,))
    _train_plain_then_traced(tracer, cfg)


def test_training_over_several_adamw_slices_runs_under_the_tracer(tracer):
    cfg = ModelConfig(input_dim=4, trunk_width=512, n_residual_blocks=1, head_widths=(4,))
    assert model.param_count(cfg) > 2 * kernels.ADAMW_SLICE
    _train_plain_then_traced(tracer, cfg)


def test_pfi_under_the_tracer_keeps_bytes_and_counts_every_flop(tracer):
    """Blocked inference splits each scored matrix into several traced
    matmul calls; the importances must not change, and the summed FLOP
    count must still be that of one unblocked pass per scored matrix."""
    ds = make_dataset(n=700, dim=8, seed=4)
    cfg = ModelConfig(input_dim=8, trunk_width=512, n_residual_blocks=1, head_widths=(8,))
    params = model.init_model(cfg, seed=5)
    pcfg = PfiConfig(n_repeats=2, keep_threshold=-1.0)
    _, plain = run_pfi(params, ds.features, ds.labels, pcfg)
    tracer.install()
    _, traced = run_pfi(params, ds.features, ds.labels, pcfg)
    tracer.uninstall()
    assert plain.importances.tobytes() == traced.importances.tobytes()

    passes = 1 + cfg.input_dim * pcfg.n_repeats
    weights = [shape for name, shape in model.layer_shapes(cfg) if ".W" in name]
    flops_per_pass = sum(2.0 * len(ds) * k * m for k, m in weights)
    calls = tracer.aggregate(0)
    # one traced sigmoid per scored matrix, through model.predict_proba
    assert calls["kernels.sigmoid"]["calls"] == passes
    span = calls["numerics.matmul.pfi"]
    assert span["count"] == passes * flops_per_pass
    # 700 rows are two blocks here, so each pass makes more calls than layers
    assert span["calls"] > passes * len(weights)
