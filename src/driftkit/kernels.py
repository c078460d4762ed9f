"""The numeric core, in numpy: seeded RNG, dropout masks and the hot
elementwise kernels (sigmoid, loss, AdamW).

Compute is float64 end to end (gradient-check tolerances depend on it);
loss kernels take labels as float64 0.0/1.0. Products stay on numpy's
BLAS (``np.matmul``, called through ``model.matmul``); randomness flows
through explicit PCG64 generators (``make_rng``).
"""

import numpy as np


def backend() -> str:
    """Name of the kernel backend; numpy is the only one."""
    return "numpy"


def make_rng(seed) -> np.random.Generator:
    """Seeded PCG64 generator from an int, a tuple of ints or a SeedSequence.
    Same seed, same sequence, everywhere."""
    return np.random.Generator(np.random.PCG64(seed))


def dropout_mask(shape, rate: float, rng: np.random.Generator) -> np.ndarray:
    """Inverted-dropout mask: 0 with probability ``rate``, else 1/(1-rate).

    Scaling happens at mask time, so eval-mode inference needs no
    compensation. ``rate`` is a validated ``ModelConfig.dropout_rate`` in
    (0, 1): the one caller draws no mask at rate 0.
    """
    mask = rng.random(shape)
    np.greater_equal(mask, rate, out=mask)
    # the buffer holds 0.0 and 1.0, so multiplying by the rounded
    # 1/(1-rate) gives the bits of dividing each entry by 1-rate
    mask *= 1.0 / (1.0 - rate)
    return mask


def sigmoid(z):
    """Stable logistic function, exact for any finite input magnitude.

    Takes scalars or arrays of any shape and dtype, as their float64
    values; a scalar or 0-d input gives a float, an array one of its shape.
    One exp serves both signs: with e = exp(-|z|), sigmoid(z) is 1/(1+e)
    for z >= 0 and e/(1+e) below. These are the very operations of the
    textbook branches 1/(1+exp(-z)) and exp(z)/(1+exp(z)), on the same
    operands (-|z| is exactly -z or z), so the bits equal a per-sign
    evaluation; only the selection is done with ``np.where``.
    """
    z = np.asarray(z, dtype=np.float64)
    e = np.exp(-np.abs(z))
    return np.divide(np.where(z >= 0.0, 1.0, e), 1.0 + e)


def loss_forward(z, y, a1, a0, lam) -> float:
    """Mean weighted logistic loss plus mean (lam/2)*z^2 logit penalty.

    a1 scales the positive-label term, a0 the negative-label term. The
    log-sigmoid terms are computed in logit space as softplus,
    log(1 + e^z) = logaddexp(0, z), which cannot overflow; so with
    lam = 0 the value stays finite for |z| up to ~1e300. With lam > 0 the
    penalty overflows to inf once |z| passes ~1.9e154 / sqrt(lam), which
    training reports as a NumericError.
    """
    core = a1 * y * np.logaddexp(0.0, -z) + a0 * (1.0 - y) * np.logaddexp(0.0, z)
    # np.mean's reduction and division, without its Python-level wrapper
    return float(np.add.reduce(core + 0.5 * lam * z * z) / z.size)


def loss_grad(z, y, a1, a0, lam) -> np.ndarray:
    """d(loss_forward)/dz, one entry per logit (the 1/N is folded in).

    1 - sigmoid(z) is computed as sigmoid(-z) so the positive-label term
    keeps full relative precision for large positive z, where the naive
    subtraction would leave only a few significant bits. Both come from
    one e = exp(-|z|): sigmoid(z) and sigmoid(-z) are 1/(1+e) and
    e/(1+e), swapped by the sign of z, with the bits of two ``sigmoid``
    calls (see there; at z = ±0 both are 1/2).
    """
    e = np.exp(-np.abs(z))
    d = 1.0 + e
    pos = z >= 0.0
    p = np.divide(np.where(pos, 1.0, e), d)
    q = np.divide(np.where(pos, e, 1.0), d)
    return (-a1 * y * q + a0 * (1.0 - y) * p + lam * z) / z.size


# Entries per AdamW slice. The update makes ~17 passes over its vectors;
# at this size one slice of p, g, m, v and both scratch vectors (3 MiB)
# stays in cache across them, instead of every pass streaming from memory.
ADAMW_SLICE = 65536


def adamw_update(p, g, m, v, c1, c2, lr, beta1, beta2, eps, wd,
                 no_decay=None, scratch=None) -> None:
    """One AdamW step, in place on flat float64 vectors:

        m <- beta1*m + (1-beta1)*g
        v <- beta2*v + (1-beta2)*g*g
        p <- p - lr*((m/c1) / (sqrt(v/c2) + eps))
        p <- p - (lr*wd)*p            (decoupled weight decay)

    c1/c2 are the bias corrections 1 - beta**t, precomputed by the caller.
    The decay step is skipped when wd == 0, and for the entries that
    ``no_decay`` (sorted) indexes, the biases: they subtract an exact +0.0,
    which leaves every float unchanged.

    The vectors are walked in slices of ``ADAMW_SLICE`` entries, each
    taken through the whole sequence above before the next. Every entry
    depends on that entry alone and sees the same operations in the same
    order, so the bits equal one pass over the whole vectors, or one call
    per tensor. ``scratch``, two float64 vectors of at least
    min(p.size, ADAMW_SLICE) entries, avoids allocating on every call.
    """
    n = p.size
    if scratch is None:
        scratch = (np.empty(min(n, ADAMW_SLICE)), np.empty(min(n, ADAMW_SLICE)))
    starts = range(0, n, ADAMW_SLICE)
    if no_decay is None or len(starts) == 1:
        skips = [no_decay] * len(starts)
    else:
        cuts = np.searchsorted(no_decay, starts[1:])
        skips = [part - lo for part, lo in zip(np.split(no_decay, cuts), starts)]
    ga, gb, decay = 1.0 - beta1, 1.0 - beta2, lr * wd
    for lo, skip in zip(starts, skips):
        hi = min(lo + ADAMW_SLICE, n)
        ps, gs, ms, vs = p[lo:hi], g[lo:hi], m[lo:hi], v[lo:hi]
        a, b = scratch[0][: hi - lo], scratch[1][: hi - lo]
        ms *= beta1
        np.multiply(gs, ga, out=a)
        ms += a
        vs *= beta2
        np.multiply(gs, gb, out=a)
        a *= gs
        vs += a
        np.divide(vs, c2, out=a)
        np.sqrt(a, out=a)
        a += eps
        np.divide(ms, c1, out=b)
        b /= a
        b *= lr
        ps -= b
        if wd != 0.0:
            np.multiply(ps, decay, out=a)
            if skip is not None:
                a[skip] = 0.0
            ps -= a
