"""Dense linear algebra and elementwise primitives for the model and losses.

Matrices are plain 2-D C-order float64 ``numpy.ndarray``s; this module only
adds contract checking on top. Randomness always flows through an explicit
``numpy.random.Generator`` seeded with PCG64, so any seed reproduces the
same stream on every platform.

Compute is float64 end to end; gradient-check tolerances depend on it.
"""

from __future__ import annotations

import numpy as np

from . import kernels
from .errors import ConfigError, ShapeError

Matrix = np.ndarray


def make_rng(seed: int) -> np.random.Generator:
    """Seeded PCG64 generator. Same seed, same sequence, everywhere."""
    return np.random.Generator(np.random.PCG64(seed))


def matmul(a: Matrix, b: Matrix) -> Matrix:
    """Standard matrix product with explicit inner-dimension checking."""
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError("matmul expects 2-D operands")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(
            f"inner dimensions disagree: {a.shape[0]}x{a.shape[1]} @ "
            f"{b.shape[0]}x{b.shape[1]}"
        )
    return a @ b


def sigmoid(z):
    """1/(1+exp(-z)) for scalars or arrays; saturates without overflow."""
    if np.isscalar(z) or np.ndim(z) == 0:
        z = float(z)
        if z >= 0.0:
            return 1.0 / (1.0 + np.exp(-z))
        ez = np.exp(z)
        return ez / (1.0 + ez)
    z = np.ascontiguousarray(z, dtype=np.float64)
    return kernels.sigmoid(z.ravel()).reshape(z.shape)


def dropout_mask(shape, rate: float, rng: np.random.Generator) -> Matrix:
    """Inverted-dropout mask: 0 with probability ``rate``, else 1/(1-rate).

    Scaling happens at mask time, so the eval-mode forward pass needs no
    compensation. rate=0 returns an all-ones mask without consuming rng state.
    """
    if not 0.0 <= rate < 1.0:
        raise ConfigError(f"dropout rate must be in [0, 1), got {rate}")
    if rate == 0.0:
        return np.ones(shape, dtype=np.float64)
    mask = rng.random(shape)
    np.greater_equal(mask, rate, out=mask)
    # the buffer holds 0.0 and 1.0, so multiplying by the rounded
    # 1/(1-rate) gives the bits of dividing each entry by 1-rate
    mask *= 1.0 / (1.0 - rate)
    return mask
