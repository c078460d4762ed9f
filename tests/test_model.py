import json
import os
import re
import struct
import time
import tracemalloc
import types
from dataclasses import asdict, replace

import numpy as np
import pytest

from driftkit.data import FeatureMask
from driftkit.errors import ConfigError, FormatError, ShapeError, StateError
from driftkit.losses import LossConfig, loss_grad, loss_value
from driftkit.model import (
    ModelConfig,
    ModelParams,
    adamw_step,
    backward,
    forward,
    init_model,
    init_optimizer,
    layer_shapes,
    load_model,
    param_count,
    predict_logits,
    predict_proba,
    save_model,
    tensor_views,
)
from driftkit.kernels import dropout_mask, make_rng, sigmoid

from conftest import tiny_model


def reference_forward(params, X):
    """Independent eval-mode forward pass written with plain numpy."""
    t = params.tensors
    cfg = params.cfg
    h = np.maximum(X @ t["entry.W"] + t["entry.b"], 0.0)
    for k in range(cfg.n_residual_blocks):
        u = np.maximum(h @ t[f"block{k}.W1"] + t[f"block{k}.b1"], 0.0)
        v = u @ t[f"block{k}.W2"] + t[f"block{k}.b2"]
        h = np.maximum(v + h, 0.0)
    for j in range(len(cfg.head_widths)):
        h = np.maximum(h @ t[f"head{j}.W"] + t[f"head{j}.b"], 0.0)
    return (h @ t["out.W"] + t["out.b"]).ravel()


def test_layer_shapes_topology():
    cfg = ModelConfig(input_dim=5, trunk_width=7, n_residual_blocks=2, head_widths=(3,))
    shapes = dict(layer_shapes(cfg))
    assert shapes["entry.W"] == (5, 7)
    assert shapes["entry.b"] == (7,)
    assert shapes["block0.W1"] == (7, 7)
    assert shapes["block1.W2"] == (7, 7)
    assert shapes["head0.W"] == (7, 3)
    assert shapes["out.W"] == (3, 1)
    assert shapes["out.b"] == (1,)
    names = [n for n, _ in layer_shapes(cfg)]
    assert names.index("entry.W") < names.index("block0.W1") < names.index("out.W")


def test_layer_shapes_no_heads():
    cfg = ModelConfig(input_dim=4, trunk_width=6, n_residual_blocks=0, head_widths=())
    shapes = dict(layer_shapes(cfg))
    assert shapes["out.W"] == (6, 1)
    assert set(shapes) == {"entry.W", "entry.b", "out.W", "out.b"}


def test_model_config_validation():
    with pytest.raises(ConfigError):
        ModelConfig(input_dim=0)
    with pytest.raises(ConfigError):
        ModelConfig(input_dim=3, trunk_width=0)
    with pytest.raises(ConfigError):
        ModelConfig(input_dim=3, n_residual_blocks=-1)
    with pytest.raises(ConfigError):
        ModelConfig(input_dim=3, dropout_rate=1.0)
    with pytest.raises(ConfigError):
        ModelConfig(input_dim=3, head_widths=(0,))
    with pytest.raises(ConfigError, match="head widths must be integers"):
        ModelConfig(input_dim=3, head_widths=(128.7,))
    with pytest.raises(ConfigError, match="head widths must be integers"):
        ModelConfig(input_dim=3, head_widths=(True,))


def test_param_count_is_the_sum_of_the_layer_shapes():
    for blocks in (0, 1, 3):
        for heads in ((), (5,), (7, 2)):
            cfg = ModelConfig(input_dim=3, trunk_width=4, n_residual_blocks=blocks,
                              head_widths=heads)
            assert param_count(cfg) == sum(int(np.prod(s)) for _, s in layer_shapes(cfg))


@pytest.mark.parametrize("field, value, named", [
    ("trunk_width", 2**40, "trunk_width 1099511627776"),
    ("n_residual_blocks", 2**62, "4611686018427387904 residual blocks"),
    ("head_widths", (2**62,), r"head_widths \[4611686018427387904\]"),
])
def test_model_config_rejects_a_model_numpy_cannot_address(field, value, named):
    """Checked at config time, in closed form: nothing is allocated."""
    with pytest.raises(ConfigError, match=f"{named}.*bytes of float64: more than numpy can address"):
        ModelConfig(**{"input_dim": 3, field: value})


def test_init_model_reports_a_failed_allocation(monkeypatch):
    # 2**40 head units need 4.5 PB, which numpy refuses without allocating
    with pytest.raises(ConfigError, match=r"head_widths \[1099511627776\].*"
                                          "more than this machine can allocate"):
        init_model(ModelConfig(input_dim=3, head_widths=(2**40,)), seed=0)

    # a parameter vector this machine cannot hold, mocked at a tiny size
    cfg = tiny_model().cfg
    zeros = np.zeros

    def refuse(shape, *args, **kwargs):
        if shape == param_count(cfg):
            raise MemoryError
        return zeros(shape, *args, **kwargs)
    monkeypatch.setattr(np, "zeros", refuse)
    with pytest.raises(ConfigError, match="trunk_width 8, 1 residual blocks"):
        init_model(cfg, seed=0)


@pytest.mark.parametrize("field, value", [
    ("input_dim", 3.0), ("input_dim", True), ("input_dim", "3"),
    ("trunk_width", 8.7), ("trunk_width", False),
    ("n_residual_blocks", True), ("n_residual_blocks", 1.0), ("n_residual_blocks", None),
])
def test_model_config_rejects_non_integer_sizes(field, value):
    message = rf"^model\.{field} must be an integer in \[[01], inf\), got "
    with pytest.raises(ConfigError, match=message):
        ModelConfig(**{"input_dim": 3, field: value})


@pytest.mark.parametrize("value", [True, "0.2", None, [0.2]])
def test_model_config_rejects_non_numeric_dropout(value):
    with pytest.raises(ConfigError, match="dropout_rate"):
        ModelConfig(input_dim=3, dropout_rate=value)


def test_model_config_stores_python_ints_and_a_float_dropout():
    cfg = ModelConfig(input_dim=np.int64(4), trunk_width=np.int32(6), n_residual_blocks=np.uint8(1),
                      dropout_rate=0, head_widths=(np.int64(3),))
    assert asdict(cfg) == {"input_dim": 4, "trunk_width": 6, "n_residual_blocks": 1,
                           "dropout_rate": 0.0, "head_widths": (3,)}
    assert [type(v) for v in asdict(cfg).values()] == [int, int, int, float, tuple]
    assert type(cfg.head_widths[0]) is int


def test_model_config_round_trip():
    cfg = ModelConfig(input_dim=9, trunk_width=12, n_residual_blocks=3,
                      dropout_rate=0.25, head_widths=(8, 4))
    assert ModelConfig(**asdict(cfg)) == cfg


def test_init_he_uniform_bounds_and_zero_biases():
    cfg = ModelConfig(input_dim=50, trunk_width=80, n_residual_blocks=1, head_widths=(20,))
    params = init_model(cfg, seed=0)
    for name, shape in layer_shapes(cfg):
        t = params.tensors[name]
        assert t.shape == shape
        leaf = name.rsplit(".", 1)[1]
        if leaf.startswith("W"):
            limit = np.sqrt(6.0 / shape[0])
            assert np.all(np.abs(t) <= limit)
            # uniform on (-limit, limit) has variance limit^2/3 = 2/fan_in
            assert t.var() == pytest.approx(2.0 / shape[0], rel=0.2)
        else:
            assert np.all(t == 0.0)


def test_init_deterministic_by_seed():
    cfg = ModelConfig(input_dim=4, trunk_width=8, n_residual_blocks=1, head_widths=(4,))
    a = init_model(cfg, seed=7)
    b = init_model(cfg, seed=7)
    c = init_model(cfg, seed=8)
    for name in a.tensors:
        assert np.array_equal(a.tensors[name], b.tensors[name])
    assert any(not np.array_equal(a.tensors[n], c.tensors[n]) for n in a.tensors)


def test_forward_matches_reference_implementation():
    rng = make_rng(0)
    for blocks in (0, 1, 2):
        for heads in ((), (6,), (6, 3)):
            params = tiny_model(input_dim=4, trunk=8, blocks=blocks, heads=heads,
                                seed=int(rng.integers(100)))
            X = rng.standard_normal((9, 4))
            z, _ = forward(params, X, mode="eval")
            assert z.shape == (9,)
            np.testing.assert_allclose(z, reference_forward(params, X), rtol=1e-12)


def test_forward_single_linear_path_hand_computed():
    # 1 input, trunk 1, no blocks/heads: z = relu(x*w + b)*w_out + b_out
    cfg = ModelConfig(input_dim=1, trunk_width=1, n_residual_blocks=0,
                      dropout_rate=0.0, head_widths=())
    params = ModelParams(cfg, np.empty(param_count(cfg)))
    t = params.tensors
    t["entry.W"][...] = 2.0
    t["entry.b"][...] = 0.5
    t["out.W"][...] = -3.0
    t["out.b"][...] = 1.0
    X = np.array([[1.0], [-1.0]])
    z, _ = forward(params, X)
    # x=1: relu(2.5)*-3 + 1 = -6.5 ; x=-1: relu(-1.5)=0 -> 1.0
    assert z.tolist() == [-6.5, 1.0]


def test_relu_and_grad():
    # a one-layer net whose pre-activations are x shows the ReLU that
    # forward applies and the gradient that backward takes through it: the
    # kink at exactly zero takes gradient 0, so finite-difference checks
    # must avoid evaluating there
    x = np.array([[-2.0, -0.0, 0.0, 3.5]])
    cfg = ModelConfig(input_dim=1, trunk_width=4, n_residual_blocks=0,
                      dropout_rate=0.0, head_widths=())
    params = ModelParams(cfg, np.zeros(param_count(cfg)))
    params.tensors["entry.b"][...] = x[0]
    params.tensors["out.W"][...] = -1.0
    _, cache = forward(params, np.zeros((1, 1)), mode="train")
    assert np.array_equal(cache["entry"][0], [[0.0, 0.0, 0.0, 3.5]])
    grads = backward(params, cache, np.ones(1))
    assert np.array_equal(grads["entry.b"], [0.0, 0.0, 0.0, -1.0])


def test_forward_validates_input():
    params = tiny_model()
    with pytest.raises(ShapeError):
        forward(params, np.zeros((3, 5)))
    with pytest.raises(ConfigError):
        forward(params, np.zeros((3, 4)), mode="predict")


def test_forward_train_mode_needs_rng_only_with_dropout():
    params = tiny_model(dropout=0.5)
    with pytest.raises(ConfigError):
        forward(params, np.zeros((2, 4)), mode="train")
    z, _ = forward(params, np.zeros((2, 4)), mode="train", rng=make_rng(0))
    assert z.shape == (2,)
    nodrop = tiny_model(dropout=0.0)
    z2, _ = forward(nodrop, np.zeros((2, 4)), mode="train")  # fine without rng
    assert z2.shape == (2,)


def test_eval_mode_ignores_dropout_and_is_deterministic():
    params = tiny_model(dropout=0.9, seed=3)
    X = make_rng(1).standard_normal((5, 4))
    z1, _ = forward(params, X, mode="eval")
    z2, _ = forward(params, X, mode="eval")
    assert np.array_equal(z1, z2)
    zt, _ = forward(params, X, mode="train", rng=make_rng(0))
    assert not np.array_equal(z1, zt)


def test_train_mode_dropout_seed_reproducible():
    params = tiny_model(dropout=0.4, seed=3)
    X = make_rng(1).standard_normal((5, 4))
    z1, _ = forward(params, X, mode="train", rng=make_rng(11))
    z2, _ = forward(params, X, mode="train", rng=make_rng(11))
    z3, _ = forward(params, X, mode="train", rng=make_rng(12))
    assert np.array_equal(z1, z2)
    assert not np.array_equal(z1, z3)


@pytest.mark.parametrize("rate", [0.0, 0.3])
@pytest.mark.parametrize("blocks", [0, 1, 2])
def test_one_mask_draw_equals_a_draw_per_layer(blocks, rate):
    """Train mode draws every trunk mask of a step at once; the cached
    masks equal the masks drawn layer by layer from the same seed, also
    for a short last batch, and the generator ends in the same state.
    Without dropout no mask is drawn and no state consumed."""
    cfg = ModelConfig(input_dim=4, trunk_width=6, n_residual_blocks=blocks,
                      dropout_rate=rate, head_widths=(3,))
    params = init_model(cfg, seed=2)
    X = make_rng(1).standard_normal((13, 4))
    rng, ref = make_rng(9), make_rng(9)
    for lo, hi in ((0, 8), (8, 13)):
        _, cache = forward(params, X[lo:hi], mode="train", rng=rng)
        masks = [cache["entry"][1]] + [block[3] for block in cache["blocks"]]
        assert len(masks) == 1 + blocks
        for m in masks:
            if rate == 0.0:
                assert m is None
            else:
                assert np.array_equal(m, dropout_mask((hi - lo, 6), rate, ref))
    assert rng.bit_generator.state == ref.bit_generator.state


def numeric_grad(params, X, y, cfg, name, h=1e-5):
    t = params.tensors[name]
    g = np.zeros_like(t)
    flat = t.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        zp, _ = forward(params, X, mode="eval")
        fp = loss_value(zp, y, cfg)
        flat[i] = orig - h
        zm, _ = forward(params, X, mode="eval")
        fm = loss_value(zm, y, cfg)
        flat[i] = orig
        gflat[i] = (fp - fm) / (2 * h)
    return g


def test_backward_matches_finite_differences():
    params = tiny_model(input_dim=3, trunk=5, blocks=1, heads=(4,), seed=2)
    rng = make_rng(5)
    X = rng.standard_normal((6, 3))
    y = (rng.random(6) < 0.5).astype(np.float64)
    cfg = LossConfig(variant="drbce", lam=0.1, p_fn=5.0, p_fp=1.0, w1=0.5, w0=0.5)
    z, cache = forward(params, X, mode="train")  # no dropout: no mask drawn
    grads = backward(params, cache, loss_grad(z, y, cfg))
    assert set(grads) == set(params.tensors)
    for name in params.tensors:
        fd = numeric_grad(params, X, y, cfg, name)
        err = np.abs(grads[name] - fd) / np.maximum.reduce(
            [np.abs(grads[name]), np.abs(fd), np.full_like(fd, 1e-6)]
        )
        assert err.max() < 1e-4, name


def test_backward_through_train_mode_dropout():
    # gradient of the dropped-out network must match FD with the same mask
    params = tiny_model(input_dim=3, trunk=6, blocks=1, heads=(), dropout=0.5, seed=4)
    rng = make_rng(8)
    X = rng.standard_normal((4, 3))
    y = np.array([1.0, 0.0, 1.0, 0.0])
    cfg = LossConfig(variant="bce")
    z, cache = forward(params, X, mode="train", rng=make_rng(99))
    grads = backward(params, cache, loss_grad(z, y, cfg))

    name = "entry.W"
    t = params.tensors[name]
    fd = np.zeros_like(t)
    h = 1e-6
    flat, fdflat = t.reshape(-1), fd.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        zp, _ = forward(params, X, mode="train", rng=make_rng(99))
        fp = loss_value(zp, y, cfg)
        flat[i] = orig - h
        zm, _ = forward(params, X, mode="train", rng=make_rng(99))
        fm = loss_value(zm, y, cfg)
        flat[i] = orig
        fdflat[i] = (fp - fm) / (2 * h)
    np.testing.assert_allclose(grads[name], fd, rtol=1e-3, atol=1e-8)


def _cached_arrays(cache):
    """Every array the cache holds, once: a layer's output is also the
    next layer's cached input."""
    parts = [cache["X"], cache["h_last"], *cache["entry"]]
    for group in cache["blocks"] + cache["heads"]:
        parts += group
    return list({id(a): a for a in parts if a is not None}.values())


def test_backward_leaves_the_forward_cache_intact():
    """forward and backward work in place on their own temporaries; the
    cached activations and masks must survive, so a second backward on
    the same cache gives the same bits."""
    params = tiny_model(input_dim=4, trunk=7, blocks=2, heads=(5, 3), dropout=0.4, seed=6)
    X = make_rng(2).standard_normal((9, 4))
    z, cache = forward(params, X, mode="train", rng=make_rng(3))
    before = [a.copy() for a in _cached_arrays(cache)]
    first = {n: g.copy() for n, g in backward(params, cache, z).items()}
    assert all(np.array_equal(a, b) for a, b in zip(_cached_arrays(cache), before))
    second = backward(params, cache, z)
    assert all(np.array_equal(first[n], second[n]) for n in params.tensors)


def test_backward_rejects_foreign_cache():
    params = tiny_model()
    other = tiny_model(seed=1)
    X = np.zeros((2, 4))
    z, cache = forward(params, X, mode="train")
    with pytest.raises(StateError):
        backward(other, cache, np.zeros(2))
    with pytest.raises(StateError):
        backward(params, cache, np.zeros(3))


def test_eval_forward_is_predict_logits_and_its_cache_is_refused():
    """Eval-mode logits have one path: ``forward(..., "eval")`` returns the
    bytes of ``predict_logits`` and an empty cache, which ``backward``
    refuses."""
    params = tiny_model(dropout=0.5, seed=2)
    X = make_rng(4).standard_normal((300, 4))
    z, cache = forward(params, X, mode="eval")
    assert z.tobytes() == predict_logits(params, X).tobytes()
    assert cache == {}
    with pytest.raises(StateError, match="train-mode forward"):
        backward(params, cache, z)


def test_predict_proba_is_sigmoid_of_logits():
    params = tiny_model(seed=6)
    X = make_rng(2).standard_normal((7, 4))
    np.testing.assert_array_equal(predict_proba(params, X), sigmoid(predict_logits(params, X)))


# (input_dim, trunk_width, n_residual_blocks, head_widths)
INFERENCE_TOPOLOGIES = {
    "pipeline_default": (30, 512, 2, (128,)),
    "train_small_batch": (30, 64, 2, (32,)),
    "score_wide": (120, 256, 1, (64,)),
    "tiny": (4, 8, 1, (6,)),
    "no_blocks_no_heads": (7, 16, 0, ()),
    "two_heads": (9, 32, 1, (24, 12)),
}


@pytest.mark.parametrize("n", [0, 1, 5, 255, 256, 257, 511, 512, 513, 1500, 3000, 4000])
@pytest.mark.parametrize("topology", list(INFERENCE_TOPOLOGIES))
def test_blocked_inference_is_bit_identical_to_forward(topology, n):
    """The row-blocked, cache-free ``predict_logits`` must give exactly the
    bits of one unblocked ``forward`` pass, on block edges and remainders:
    a train-mode pass of the same parameters without dropout, which draws
    no mask.

    Equality holds on the OpenBLAS float64 build the benchmark uses. A BLAS
    that rounds a row block's product differently from the whole product
    could break it, as it would the digest in ``tests/test_golden.py``.
    """
    d, width, blocks, heads = INFERENCE_TOPOLOGIES[topology]
    cfg = ModelConfig(input_dim=d, trunk_width=width, n_residual_blocks=blocks,
                      head_widths=heads)
    params = init_model(cfg, seed=3)
    rng = make_rng(n)
    for name, t in params.tensors.items():
        if ".b" in name:  # init leaves biases at zero; make the bias adds count
            t[...] = 0.1 * rng.standard_normal(t.shape)
    X = rng.standard_normal((n, d))
    z = predict_logits(params, X)
    assert z.shape == (n,)
    unblocked = ModelParams(replace(cfg, dropout_rate=0.0), params.flat)
    assert np.array_equal(z, forward(unblocked, X, "train")[0])


def reference_adamw(p, g, m, v, t, lr, b1, b2, eps, wd):
    """Scalar-loop AdamW reference used to cross-check the kernel path."""
    p, g, m, v = (np.array(a, dtype=np.float64) for a in (p, g, m, v))
    m = b1 * m + (1 - b1) * g
    v = b2 * v + (1 - b2) * g * g
    mhat = m / (1 - b1**t)
    vhat = v / (1 - b2**t)
    p = p - lr * mhat / (np.sqrt(vhat) + eps)
    if wd:
        p = p - lr * wd * p
    return p, m, v


def test_adamw_step_matches_reference_and_skips_bias_decay():
    params = tiny_model(input_dim=2, trunk=3, blocks=0, heads=(), seed=1)
    state = init_optimizer(params, lr=0.01, weight_decay=0.1)
    rng = make_rng(3)
    grads = ModelParams(params.cfg, rng.standard_normal(params.flat.size))
    before = params.copy()
    adamw_step(params, grads, state)
    assert state.t == 1
    m, v = tensor_views(params.cfg, state.m), tensor_views(params.cfg, state.v)
    for name in params.tensors:
        wd = 0.1 if name.rsplit(".", 1)[1].startswith("W") else 0.0
        want_p, want_m, want_v = reference_adamw(
            before.tensors[name], grads.tensors[name],
            np.zeros_like(before.tensors[name]), np.zeros_like(before.tensors[name]),
            1, 0.01, 0.9, 0.999, 1e-8, wd,
        )
        np.testing.assert_allclose(params.tensors[name], want_p, rtol=1e-14)
        np.testing.assert_allclose(m[name], want_m, rtol=1e-14)
        np.testing.assert_allclose(v[name], want_v, rtol=1e-14)


def test_adamw_step_validates_gradients():
    params = tiny_model()
    state = init_optimizer(params, lr=1e-4, weight_decay=1e-4)
    # only a gradient buffer of the same topology is taken, never a dict
    as_dict = {n: np.zeros_like(t) for n, t in params.tensors.items()}
    for grads in ({}, as_dict, tiny_model(trunk=9)):
        with pytest.raises(ShapeError):
            adamw_step(params, grads, state)
    assert state.t == 0


def test_save_load_round_trip(tmp_path):
    params = tiny_model(input_dim=4, trunk=6, blocks=2, heads=(5,), dropout=0.3, seed=9)
    mask = FeatureMask((0, 1, 2, 5), 6)
    meta = {"config_hash": "deadbeef", "seed": 3}
    path = tmp_path / "model.dnet"
    save_model(params, path, mask=mask, meta=meta)
    loaded = load_model(path)
    assert loaded.params.cfg == params.cfg
    assert loaded.mask == mask
    assert loaded.meta == meta
    for name in params.tensors:
        assert np.array_equal(loaded.params.tensors[name], params.tensors[name])


def test_save_load_with_optimizer(tmp_path):
    """Checkpoints hold no optimizer state: the header keeps a null
    ``optimizer`` key, and a file that claims optimizer state is refused."""
    params = tiny_model(seed=2)
    path = tmp_path / "model.dnet"
    save_model(params, path)
    raw = path.read_bytes()
    (hlen,) = struct.unpack_from("<I", raw, 5)
    header = json.loads(raw[9 : 9 + hlen])
    assert header["optimizer"] is None
    assert len(raw) == 9 + hlen + 8 * params.flat.size
    header["optimizer"] = {"lr": 0.02, "t": 1}
    hb = json.dumps(header).encode()
    path.write_bytes(raw[:5] + struct.pack("<I", len(hb)) + hb + raw[9 + hlen :])
    with pytest.raises(FormatError, match="optimizer state"):
        load_model(path)


def test_tensors_are_views_of_one_flat_vector_in_layer_order(tmp_path):
    params = tiny_model(input_dim=3, trunk=5, blocks=1, heads=(4,), seed=3)
    assert np.array_equal(
        params.flat, np.concatenate([params.tensors[n].ravel() for n, _ in
                                     layer_shapes(params.cfg)]))
    params.tensors["head0.b"][2] = 7.5
    assert 7.5 in params.flat
    copy = params.copy()
    copy.tensors["entry.W"][0, 0] += 1.0
    assert copy.flat[0] != params.flat[0]
    # the checkpoint blob is the flat vector's bytes
    path = tmp_path / "m.dnet"
    save_model(params, path)
    assert path.read_bytes().endswith(params.flat.astype("<f8").tobytes())
    with pytest.raises(ShapeError):
        ModelParams(params.cfg, params.flat[:-1])


def test_backward_writes_into_gradient_buffer():
    params = tiny_model(seed=4)
    X = make_rng(0).standard_normal((5, 4))
    z, cache = forward(params, X, mode="train")
    fresh = backward(params, cache, z)
    buf = ModelParams(params.cfg, np.full_like(params.flat, np.nan))
    grads = backward(params, cache, z, out=buf)
    for name in params.tensors:
        assert np.shares_memory(grads[name], buf.flat)
        assert np.array_equal(grads[name], fresh[name])
    packed = ModelParams(params.cfg, np.concatenate([g.ravel() for g in fresh.values()]))
    before = params.copy()
    state = init_optimizer(params, lr=0.01, weight_decay=0.1)
    adamw_step(params, buf, state)
    adamw_step(before, packed, init_optimizer(before, lr=0.01, weight_decay=0.1))
    assert np.array_equal(params.flat, before.flat)


def test_save_is_byte_deterministic(tmp_path):
    params = tiny_model(seed=5)
    p1, p2 = tmp_path / "a.dnet", tmp_path / "b.dnet"
    save_model(params, p1, meta={"seed": 1})
    save_model(params, p2, meta={"seed": 1})
    assert p1.read_bytes() == p2.read_bytes()


def test_load_rejects_corrupt_files(tmp_path):
    p = tmp_path / "bad.dnet"
    p.write_bytes(b"JUNKJUNKJUNK")
    with pytest.raises(FormatError, match="magic"):
        load_model(p)

    params = tiny_model()
    good = tmp_path / "good.dnet"
    save_model(params, good)
    raw = good.read_bytes()

    trunc = tmp_path / "trunc.dnet"
    trunc.write_bytes(raw[:-8])
    with pytest.raises(FormatError, match="bytes"):
        load_model(trunc)

    badver = tmp_path / "badver.dnet"
    badver.write_bytes(raw[:4] + bytes([7]) + raw[5:])
    with pytest.raises(FormatError, match="version"):
        load_model(badver)


def test_load_reports_a_checkpoint_that_shrinks_while_read(tmp_path, monkeypatch):
    """A file whose size check passed but whose tensors then come up short
    (it shrank between the size check and the read) is a FormatError."""
    path = tmp_path / "model.dnet"
    save_model(tiny_model(), path)
    full = path.stat().st_size
    path.write_bytes(path.read_bytes()[:-8])
    monkeypatch.setattr(os, "fstat", lambda fd: types.SimpleNamespace(st_size=full))
    with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: expected {full} bytes, the file shrank"):
        load_model(path)


def test_load_rejects_tampered_layer_list(tmp_path):
    params = tiny_model()
    path = tmp_path / "model.dnet"
    save_model(params, path)
    raw = path.read_bytes()
    (hlen,) = struct.unpack_from("<I", raw, 5)
    header = json.loads(raw[9 : 9 + hlen])
    header["layers"] = header["layers"][::-1]
    hb = json.dumps(header).encode()
    path.write_bytes(raw[:5] + struct.pack("<I", len(hb)) + hb + raw[9 + hlen :])
    with pytest.raises(FormatError, match="layer"):
        load_model(path)


def test_load_rejects_a_huge_block_count_before_walking_the_blocks(tmp_path):
    """A header claiming 2**40 residual blocks passes ModelConfig (the
    parameter bytes stay addressable) but not the size check, which runs
    before anything that grows with the block count."""
    path = tmp_path / "model.dnet"
    save_model(tiny_model(), path)
    raw = path.read_bytes()
    (hlen,) = struct.unpack_from("<I", raw, 5)
    header = json.loads(raw[9 : 9 + hlen])
    header["config"]["n_residual_blocks"] = 2**40
    hb = json.dumps(header).encode()
    path.write_bytes(raw[:5] + struct.pack("<I", len(hb)) + hb + raw[9 + hlen :])
    tracemalloc.start()
    t0 = time.perf_counter()
    try:
        with pytest.raises(FormatError, match="expected .* bytes"):
            load_model(path)
        elapsed = time.perf_counter() - t0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 0.5
    assert peak < 1 << 20
