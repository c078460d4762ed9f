"""Loss values against 50-digit reference arithmetic, gradient against
central finite differences, and the variant-reduction identities."""

from dataclasses import replace

import mpmath
import numpy as np
import pytest

from driftkit.errors import ConfigError, DataError, ShapeError
from driftkit.losses import LossConfig, class_weights, loss_grad, loss_value

mpmath.mp.dps = 50

NEUTRAL = LossConfig(
    variant="drbce", lam=0.0, p_fn=1.0, p_fp=1.0, w1=1.0, w0=1.0, weight_mode="uniform"
)
BCE = LossConfig(variant="bce")


def sd_bce(lam):
    return LossConfig(variant="sd_bce", lam=lam)


def mp_sigmoid(z):
    return 1 / (1 + mpmath.e ** (-z))


def mp_drbce(z, y, w1, w0, p_fn, p_fp, lam):
    total = mpmath.mpf(0)
    for zi, yi in zip(z, y):
        if not isinstance(zi, mpmath.mpf):
            zi = mpmath.mpf(float(zi))
        p = mp_sigmoid(zi)
        if yi == 1:
            total += -w1 * p_fn * mpmath.log(p)
        else:
            total += -w0 * p_fp * mpmath.log(1 - p)
        total += mpmath.mpf(lam) / 2 * zi * zi
    return total / len(z)


def random_batch(rng, max_n=32, zmax=12.0):
    n = int(rng.integers(1, max_n + 1))
    z = rng.uniform(-zmax, zmax, size=n)
    y = (rng.random(n) < rng.random()).astype(np.float64)
    return z, y


def test_bce_matches_high_precision():
    rng = np.random.default_rng(0)
    for _ in range(50):
        z, y = random_batch(rng)
        want = float(mp_drbce(z, y, 1, 1, 1, 1, 0.0))
        assert loss_value(z, y, BCE) == pytest.approx(want, rel=1e-13)


def test_bce_known_value():
    # z=0 gives p=1/2; each term is log 2 regardless of label
    z = np.zeros(4)
    y = np.array([0.0, 1.0, 1.0, 0.0])
    assert loss_value(z, y, BCE) == pytest.approx(float(mpmath.log(2)), rel=1e-15)


def test_sd_bce_matches_high_precision():
    rng = np.random.default_rng(1)
    for lam in (0.0, 0.001, 0.1, 0.5):
        z, y = random_batch(rng)
        want = float(mp_drbce(z, y, 1, 1, 1, 1, lam))
        assert loss_value(z, y, sd_bce(lam)) == pytest.approx(want, rel=1e-13)


def test_drbce_matches_high_precision():
    rng = np.random.default_rng(2)
    for _ in range(50):
        z, y = random_batch(rng)
        w1, w0 = rng.uniform(0.05, 1.0, size=2)
        p_fn, p_fp = rng.uniform(0.5, 8.0, size=2)
        lam = float(rng.choice([0.0, 0.01, 0.1]))
        cfg = LossConfig(
            variant="drbce", lam=lam, p_fn=p_fn, p_fp=p_fp, w1=w1, w0=w0,
            weight_mode="uniform",
        )
        want = float(mp_drbce(z, y, w1, w0, p_fn, p_fp, lam))
        assert loss_value(z, y, cfg) == pytest.approx(want, rel=1e-13)


def test_neutral_drbce_equals_bce_exactly():
    rng = np.random.default_rng(3)
    for _ in range(200):
        z, y = random_batch(rng)
        assert loss_value(z, y, NEUTRAL) == loss_value(z, y, BCE)


def test_sd_bce_equals_drbce_with_neutral_penalties_exactly():
    rng = np.random.default_rng(4)
    for lam in (0.001, 0.1, 0.5):
        for _ in range(50):
            z, y = random_batch(rng)
            cfg = LossConfig(
                variant="drbce", lam=lam, p_fn=1.0, p_fp=1.0, w1=1.0, w0=1.0,
                weight_mode="uniform",
            )
            assert loss_value(z, y, sd_bce(lam)) == loss_value(z, y, cfg)


def test_gradient_matches_high_precision_finite_differences():
    rng = np.random.default_rng(5)
    h = mpmath.mpf("1e-12")
    for _ in range(20):
        z, y = random_batch(rng, max_n=8)
        cfg = LossConfig(
            variant="drbce", lam=0.1, p_fn=5.0, p_fp=1.0, w1=0.6, w0=0.4,
            weight_mode="uniform",
        )
        g = loss_grad(z, y, cfg)
        for i in range(z.size):
            zp = [mpmath.mpf(float(v)) for v in z]
            zm = list(zp)
            zp[i] += h
            zm[i] -= h
            f_p = mp_drbce(zp, y, 0.6, 0.4, 5.0, 1.0, 0.1)
            f_m = mp_drbce(zm, y, 0.6, 0.4, 5.0, 1.0, 0.1)
            fd = float((f_p - f_m) / (2 * h))
            assert g[i] == pytest.approx(fd, rel=1e-9, abs=2e-15)


def test_gradient_extreme_logits_no_overflow():
    z = np.array([-500.0, 500.0])
    y = np.array([1.0, 0.0])
    g = loss_grad(z, y, LossConfig())
    assert np.all(np.isfinite(g))
    # saturated-wrong-side gradient approaches the full penalty slope
    cfg = LossConfig(variant="drbce", lam=0.0, p_fn=5.0, p_fp=1.0, w1=1.0, w0=1.0)
    g = loss_grad(np.array([-500.0]), np.array([1.0]), cfg)
    assert g[0] == pytest.approx(-5.0, rel=1e-12)


def test_gradient_descent_direction():
    # stepping against the gradient must not increase the loss
    rng = np.random.default_rng(6)
    cfg = LossConfig(variant="drbce", lam=0.1, p_fn=5.0, p_fp=1.0, w1=0.5, w0=0.5)
    for _ in range(20):
        z, y = random_batch(rng)
        g = loss_grad(z, y, cfg)
        before = loss_value(z, y, cfg)
        after = loss_value(z - 1e-3 * g, y, cfg)
        assert after <= before + 1e-15


def test_class_weights_modes():
    assert class_weights(30, 10, "frequency") == (0.75, 0.25)
    assert class_weights(30, 10, "inverse_frequency") == (0.25, 0.75)
    assert class_weights(30, 10, "uniform") == (1.0, 1.0)
    w0, w1 = class_weights(50, 50, "frequency")
    assert w0 == w1 == 0.5
    with pytest.raises(DataError):
        class_weights(0, 0, "frequency")


def test_with_weights_from_counts():
    cfg = LossConfig(weight_mode="frequency").with_weights_from_counts(10, 30)
    assert (cfg.w0, cfg.w1) == (0.25, 0.75)
    cfg = LossConfig(weight_mode="uniform").with_weights_from_counts(10, 30)
    assert (cfg.w0, cfg.w1) == (1.0, 1.0)


def test_effective_reductions():
    full = LossConfig(variant="bce", lam=0.3, p_fn=4.0, p_fp=2.0, w1=0.2, w0=0.8)
    eff = full.effective()
    assert (eff.lam, eff.p_fn, eff.p_fp, eff.w1, eff.w0) == (0.0, 1.0, 1.0, 1.0, 1.0)
    sd = LossConfig(variant="sd_bce", lam=0.3, p_fn=4.0, p_fp=2.0, w1=0.2, w0=0.8).effective()
    assert (sd.lam, sd.p_fn, sd.p_fp, sd.w1, sd.w0) == (0.3, 1.0, 1.0, 1.0, 1.0)
    dr = LossConfig(variant="drbce", lam=0.3, p_fn=4.0, p_fp=2.0, w1=0.2, w0=0.8).effective()
    assert dr == LossConfig(variant="drbce", lam=0.3, p_fn=4.0, p_fp=2.0, w1=0.2, w0=0.8)
    # reduced once, a config is its own reduction: training builds none per step
    for reduced in (eff, sd, dr):
        assert reduced.effective() is reduced


def test_variant_dispatch():
    z = np.array([0.5, -0.5])
    y = np.array([1.0, 0.0])
    # each variant is the drift-resilient loss with its effective coefficients
    assert loss_value(z, y, BCE) == loss_value(z, y, NEUTRAL)
    unit = replace(NEUTRAL, lam=0.2)
    assert loss_value(z, y, sd_bce(0.2)) == loss_value(z, y, unit)
    assert np.array_equal(loss_grad(z, y, sd_bce(0.2)), loss_grad(z, y, unit))


def test_config_validation():
    with pytest.raises(ConfigError):
        LossConfig(variant="nope")
    with pytest.raises(ConfigError):
        LossConfig(lam=-0.1)
    with pytest.raises(ConfigError):
        LossConfig(p_fn=0.0)
    with pytest.raises(ConfigError):
        LossConfig(w1=1.5)
    with pytest.raises(ConfigError):
        LossConfig(weight_mode="nope")


def test_batch_validation():
    for fn in (loss_value, loss_grad):
        with pytest.raises(ShapeError):
            fn(np.zeros(3), np.zeros(2), BCE)
        with pytest.raises(DataError):
            fn(np.zeros(0), np.zeros(0), BCE)
        with pytest.raises(DataError):
            fn(np.array([np.inf]), np.array([1.0]), BCE)
        with pytest.raises(DataError):
            fn(np.array([0.0]), np.array([2.0]), BCE)
    with pytest.raises(ConfigError):
        LossConfig(variant="sd_bce", lam=-1.0)
