"""The vectorized kernels against scalar reference loops written with the
``math`` module, one element at a time, and the numeric helpers (seeded
RNG, sigmoid, dropout masks) against numpy and mpmath."""

import math

import mpmath
import numpy as np
import pytest

from driftkit import kernels
from driftkit.kernels import dropout_mask, make_rng, sigmoid

mpmath.mp.dps = 50


def batches(n_batches=200, max_n=64, zmax=12.0, seed=0):
    rng = np.random.default_rng(seed)
    for _ in range(n_batches):
        n = int(rng.integers(1, max_n + 1))
        z = rng.uniform(-zmax, zmax, size=n)
        y = (rng.random(n) < rng.random()).astype(np.float64)
        a1 = float(rng.uniform(0.05, 25.0))
        a0 = float(rng.uniform(0.05, 25.0))
        lam = float(rng.choice([0.0, 0.001, 0.01, 0.1, 0.5]))
        yield z, y, a1, a0, lam


def ref_sigmoid(z):
    if z >= 0.0:
        return 1.0 / (1.0 + math.exp(-z))
    ez = math.exp(z)
    return ez / (1.0 + ez)


def ref_softplus(z):
    if z > 0.0:
        return z + math.log1p(math.exp(-z))
    return math.log1p(math.exp(z))


def ref_loss_forward(z, y, a1, a0, lam):
    total = 0.0
    for zi, yi in zip(z, y):
        total += a1 * yi * ref_softplus(-zi)
        total += a0 * (1.0 - yi) * ref_softplus(zi)
        total += 0.5 * lam * zi * zi
    return total / len(z)


def ref_loss_grad(z, y, a1, a0, lam):
    return np.array([
        (-a1 * yi * ref_sigmoid(-zi) + a0 * (1.0 - yi) * ref_sigmoid(zi) + lam * zi) / len(z)
        for zi, yi in zip(z, y)
    ])


def ref_adamw(p, g, m, v, c1, c2, lr, beta1, beta2, eps, wd):
    for i in range(p.size):
        m[i] = beta1 * m[i] + (1.0 - beta1) * g[i]
        v[i] = beta2 * v[i] + (1.0 - beta2) * g[i] * g[i]
        p[i] -= lr * ((m[i] / c1) / (math.sqrt(v[i] / c2) + eps))
        if wd != 0.0:
            p[i] -= lr * wd * p[i]


def test_sigmoid_matches_scalar_reference_within_ulps():
    # numpy's vectorized exp and libm's exp may round the last bit
    # differently, so agreement is within a couple of ulp, not bitwise
    rng = np.random.default_rng(1)
    z = np.concatenate([rng.uniform(-40, 40, 5000), [-750.0, 750.0, 0.0]])
    a = kernels.sigmoid(z)
    b = np.array([ref_sigmoid(x) for x in z])
    ulps = np.abs(a - b) / np.spacing(np.maximum(np.abs(a), np.abs(b)))
    assert ulps.max() <= 4.0


def test_loss_grad_matches_scalar_reference():
    for z, y, a1, a0, lam in batches():
        np.testing.assert_allclose(kernels.loss_grad(z, y, a1, a0, lam),
                                   ref_loss_grad(z, y, a1, a0, lam), rtol=1e-12, atol=1e-300)


def test_loss_forward_matches_scalar_reference():
    # numpy sums pairwise, the reference loop serially: equal to ~1e-15 relative
    for z, y, a1, a0, lam in batches():
        assert kernels.loss_forward(z, y, a1, a0, lam) == pytest.approx(
            ref_loss_forward(z, y, a1, a0, lam), rel=1e-12)


def test_adamw_matches_scalar_reference_bit_identical():
    rng = np.random.default_rng(2)
    n = 257
    p1 = rng.standard_normal(n)
    p2 = p1.copy()
    m1, m2, v1, v2 = (np.zeros(n) for _ in range(4))
    for t in range(1, 20):
        g = rng.standard_normal(n)
        wd = 0.0 if t % 3 == 0 else 1e-2
        c1 = 1.0 - 0.9**t
        c2 = 1.0 - 0.999**t
        kernels.adamw_update(p1, g, m1, v1, c1, c2, 1e-3, 0.9, 0.999, 1e-8, wd)
        ref_adamw(p2, g, m2, v2, c1, c2, 1e-3, 0.9, 0.999, 1e-8, wd)
        assert np.array_equal(p1, p2) and np.array_equal(m1, m2) and np.array_equal(v1, v2)


def test_adamw_one_call_equals_per_segment_calls(monkeypatch):
    """One call over a concatenation, exempting some segments from decay and
    reusing scratch, gives the same bits as one scalar-wd call per segment.
    Run at the default slice size (one slice here) and at 7 entries, where
    slices cut through segments and the last slice is short."""
    sizes, decayed = [40, 8, 64, 8, 1], [True, False, True, False, False]
    bounds = np.cumsum([0] + sizes)
    n = int(bounds[-1])
    no_decay = np.flatnonzero(~np.repeat(decayed, sizes))
    for slice_size in (kernels.ADAMW_SLICE, 7):
        monkeypatch.setattr(kernels, "ADAMW_SLICE", slice_size)
        rng = np.random.default_rng(3)
        p1 = rng.standard_normal(n)
        p2 = p1.copy()
        m1, m2, v1, v2 = (np.zeros(n) for _ in range(4))
        scratch = (np.empty(min(n, slice_size)), np.empty(min(n, slice_size)))
        for t in range(1, 30):
            g = rng.standard_normal(n)
            c1, c2 = 1.0 - 0.9**t, 1.0 - 0.999**t
            kernels.adamw_update(p1, g, m1, v1, c1, c2, 1e-2, 0.9, 0.999, 1e-8, 0.1,
                                 no_decay=no_decay, scratch=scratch)
            for lo, hi, dec in zip(bounds[:-1], bounds[1:], decayed):
                kernels.adamw_update(p2[lo:hi], g[lo:hi], m2[lo:hi], v2[lo:hi], c1, c2,
                                     1e-2, 0.9, 0.999, 1e-8, 0.1 if dec else 0.0)
            assert np.array_equal(p1, p2) and np.array_equal(m1, m2) and np.array_equal(v1, v2)


def test_loss_forward_extreme_logits_finite():
    z = np.array([-1e300, -1e6, 1e6, 1e300])
    y = np.array([1.0, 0.0, 1.0, 0.0])
    assert np.isfinite(kernels.loss_forward(z, y, 1.0, 1.0, 0.0))


def test_backend_is_numpy():
    assert kernels.backend() == "numpy"


def masked_sigmoid(z):
    """The former two-branch kernel, with boolean-mask fancy indexing."""
    out = np.empty_like(z)
    pos = z >= 0.0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def two_sigmoid_loss_grad(z, y, a1, a0, lam):
    """The former gradient kernel: one masked sigmoid call per sign."""
    p = masked_sigmoid(z)
    q = masked_sigmoid(-z)
    return (-a1 * y * q + a0 * (1.0 - y) * p + lam * z) / z.size


def np_mean_loss_forward(z, y, a1, a0, lam):
    """The former loss-value kernel, averaging with ``np.mean``."""
    core = a1 * y * np.logaddexp(0.0, -z) + a0 * (1.0 - y) * np.logaddexp(0.0, z)
    return float(np.mean(core + 0.5 * lam * z * z))


EDGE_LOGITS = np.array([0.0, 5e-324, 36.7, 709.7, 745.0, 746.0, 1e300, np.inf])
EDGE_LOGITS = np.concatenate([EDGE_LOGITS, -EDGE_LOGITS])


def differing_bits(a, b):
    return int(np.count_nonzero(a.view(np.int64) != b.view(np.int64)))


def test_sigmoid_bit_identical_to_masked_branches():
    rng = np.random.default_rng(7)
    for scale in (1.0, 30.0, 300.0):
        z = rng.standard_normal(200_000) * scale
        assert differing_bits(kernels.sigmoid(z), masked_sigmoid(z)) == 0
    assert differing_bits(kernels.sigmoid(EDGE_LOGITS), masked_sigmoid(EDGE_LOGITS)) == 0
    # the sign of zero is kept out of the choice: both zeros give exactly 1/2
    assert kernels.sigmoid(np.array([-0.0]))[0] == 0.5


def test_loss_kernels_bit_identical_to_former_formulas():
    rng = np.random.default_rng(8)
    finite = EDGE_LOGITS[np.isfinite(EDGE_LOGITS)]
    for scale in (1.0, 30.0, 300.0):
        z = np.concatenate([rng.standard_normal(50_000) * scale, finite])
        y = (rng.random(z.size) < 0.5).astype(np.float64)
        for a1, a0, lam in ((1.0, 1.0, 0.0), (2.5, 0.7, 0.1), (5.0, 0.35, 0.5)):
            assert differing_bits(kernels.loss_grad(z, y, a1, a0, lam),
                                  two_sigmoid_loss_grad(z, y, a1, a0, lam)) == 0
            # lam * z * z overflows to inf at the largest edge logits, on both sides
            with np.errstate(over="ignore"):
                for n in (1, 16, 1000, z.size):
                    assert kernels.loss_forward(z[:n], y[:n], a1, a0, lam) == \
                        np_mean_loss_forward(z[:n], y[:n], a1, a0, lam)


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
