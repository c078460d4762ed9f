import mpmath
import numpy as np
import pytest

from driftkit.errors import ConfigError, ShapeError
from driftkit.model import ModelConfig, ModelParams, backward, forward
from driftkit.kernels import (
    dropout_mask,
    make_rng,
    matmul,
    sigmoid,
)

mpmath.mp.dps = 50


def test_make_rng_reproducible():
    a = make_rng(123).random(5)
    b = make_rng(123).random(5)
    assert np.array_equal(a, b)
    c = make_rng(124).random(5)
    assert not np.array_equal(a, c)


def test_sigmoid_against_high_precision():
    zs = [-700.0, -30.0, -5.0, -1e-8, 0.0, 1e-8, 0.5, 5.0, 30.0, 700.0]
    for z in zs:
        want = float(1 / (1 + mpmath.e ** (-mpmath.mpf(z))))
        got = sigmoid(z)
        assert got == pytest.approx(want, rel=1e-15, abs=1e-300), z


def test_sigmoid_array_matches_scalar():
    z = np.linspace(-40, 40, 17)
    arr = sigmoid(z)
    assert arr.shape == z.shape
    for i, zi in enumerate(z):
        assert arr[i] == sigmoid(float(zi))


def test_sigmoid_saturates_without_overflow():
    z = np.array([-1e8, 1e8])
    p = sigmoid(z)
    assert p[0] == 0.0 and p[1] == 1.0
    assert np.all(np.isfinite(p))


def test_sigmoid_preserves_shape():
    z = np.linspace(-9, 9, 15).reshape(3, 5)
    for arr in (z, z.T):  # C and Fortran order
        p = sigmoid(arr)
        assert p.shape == arr.shape
        assert p.ravel().tobytes() == sigmoid(arr.ravel()).tobytes()


def test_sigmoid_of_float32_and_integers_is_that_of_their_float64_values():
    z32 = np.linspace(-30, 30, 101, dtype=np.float32)
    assert sigmoid(z32).dtype == np.float64
    assert sigmoid(z32).tobytes() == sigmoid(z32.astype(np.float64)).tobytes()
    ints = np.arange(-40, 41)
    assert sigmoid(ints).tobytes() == sigmoid(ints.astype(np.float64)).tobytes()
    assert sigmoid(3) == sigmoid(3.0) and sigmoid(np.int8(-3)) == sigmoid(-3.0)


def test_sigmoid_of_a_scalar_or_0d_array_is_a_float():
    for z in (0.3, -2, np.float64(0.3), np.float32(-0.5), np.array(0.3), np.array(-700.0)):
        p = sigmoid(z)
        assert isinstance(p, float) and np.ndim(p) == 0, type(p)
    assert sigmoid(np.array(0.3)) == sigmoid(np.array([0.3]))[0]


def test_relu_and_grad():
    # a one-layer net whose pre-activations are x shows the ReLU that
    # forward applies and the gradient that backward takes through it: the
    # kink at exactly zero takes gradient 0, so finite-difference checks
    # must avoid evaluating there
    x = np.array([[-2.0, -0.0, 0.0, 3.5]])
    cfg = ModelConfig(input_dim=1, trunk_width=4, n_residual_blocks=0,
                      dropout_rate=0.0, head_widths=())
    params = ModelParams.from_tensors(cfg, {
        "entry.W": np.zeros((1, 4)), "entry.b": x[0],
        "out.W": np.full((4, 1), -1.0), "out.b": np.zeros(1),
    })
    _, cache = forward(params, np.zeros((1, 1)))
    assert np.array_equal(cache["entry"][0], [[0.0, 0.0, 0.0, 3.5]])
    grads = backward(params, cache, np.ones(1))
    assert np.array_equal(grads["entry.b"], [0.0, 0.0, 0.0, -1.0])


def test_matmul_matches_numpy_and_checks_shapes():
    rng = make_rng(0)
    a = rng.standard_normal((3, 4))
    b = rng.standard_normal((4, 2))
    assert np.array_equal(matmul(a, b), a @ b)
    with pytest.raises(ShapeError):
        matmul(a, a)
    with pytest.raises(ShapeError):
        matmul(a, rng.standard_normal(4))


def test_dropout_mask_values_and_rate():
    rng = make_rng(7)
    mask = dropout_mask((200, 50), 0.3, rng)
    kept = mask > 0
    assert set(np.unique(mask)) <= {0.0, 1.0 / 0.7}
    # empirical keep rate close to 1 - rate
    assert abs(kept.mean() - 0.7) < 0.02
    # inverted scaling keeps the mask mean near 1
    assert abs(mask.mean() - 1.0) < 0.05


def test_dropout_mask_equals_boolean_keep_formula():
    # the mask is built in one buffer; same draws, same bits as
    # (u >= rate) cast to float and divided by 1 - rate
    for rate in (0.2, 0.5, 0.9):
        mask = dropout_mask((37, 11), rate, make_rng(4))
        keep = make_rng(4).random((37, 11)) >= rate
        expected = keep.astype(np.float64) / (1.0 - rate)
        assert mask.dtype == np.float64
        assert mask.tobytes() == expected.tobytes()


def test_dropout_mask_rate_zero_is_identity_and_skips_rng():
    rng = make_rng(3)
    before = rng.bit_generator.state
    mask = dropout_mask((4, 4), 0.0, rng)
    assert np.array_equal(mask, np.ones((4, 4)))
    assert rng.bit_generator.state == before


def test_dropout_mask_rejects_bad_rate():
    with pytest.raises(ConfigError):
        dropout_mask((2, 2), 1.0, make_rng(0))
    with pytest.raises(ConfigError):
        dropout_mask((2, 2), -0.1, make_rng(0))

