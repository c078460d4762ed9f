"""Binary cross-entropy family: plain BCE, BCE with a logit-norm penalty,
and the drift-resilient variant with class weights and error-type penalties.

All losses are functions of raw logits, never of clipped probabilities;
log-sigmoid terms are evaluated as negative softplus so gradients, and
values with lam = 0, stay finite for |z| up to about 1e300. With lam > 0
the penalty overflows to inf once |z| passes about 1.9e154 / sqrt(lam),
and training then stops with a NumericError.

The drift-resilient loss over a batch of N (logit z_i, label y_i) pairs is

    L = -(1/N) * sum_i [ w1 * p_fn * y_i * log(sigmoid(z_i))
                       + w0 * p_fp * (1 - y_i) * log(1 - sigmoid(z_i)) ]
      + (1/N) * sum_i (lam/2) * z_i^2

so the logit penalty is averaged per sample like the data term. Setting
w0 = w1 = p_fn = p_fp = 1 and lam = 0 recovers plain BCE exactly (same
code path, same rounding).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import kernels
from .errors import ConfigError, DataError, ShapeError

VARIANTS = ("bce", "sd_bce", "drbce")
WEIGHT_MODES = ("frequency", "inverse_frequency", "uniform")


@dataclass(frozen=True)
class LossConfig:
    """Loss variant plus its coefficients.

    lam      logit-norm (spectral decoupling) coefficient, >= 0
    p_fn     penalty on missed positives (false negatives), > 0
    p_fp     penalty on false alarms (false positives), > 0
    w1, w0   class weights for labels 1 and 0, in [0, 1]
    weight_mode  how training derives w0/w1 from train-split class counts:
        "frequency"          w1 = N1/N, w0 = N0/N (majority class weighted up)
        "inverse_frequency"  w1 = N0/N, w0 = N1/N
        "uniform"            w1 = w0 = 1

    The "bce" variant ignores every coefficient; "sd_bce" uses only lam.
    The defaults are the tuned operating point.
    """

    variant: str = "drbce"
    lam: float = 0.1
    p_fn: float = 5.0
    p_fp: float = 1.0
    w1: float = 1.0
    w0: float = 1.0
    weight_mode: str = "frequency"

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown loss variant {self.variant!r}")
        # written as ranges so that NaN, which fails every comparison, fails them too
        if not 0.0 <= self.lam < math.inf:
            raise ConfigError(f"lam must be finite and >= 0, got {self.lam}")
        if not (0.0 < self.p_fn < math.inf and 0.0 < self.p_fp < math.inf):
            raise ConfigError(
                f"p_fn and p_fp must be finite and > 0, got {self.p_fn} and {self.p_fp}"
            )
        if not (0 <= self.w0 <= 1 and 0 <= self.w1 <= 1):
            raise ConfigError("class weights must lie in [0, 1]")
        if self.weight_mode not in WEIGHT_MODES:
            raise ConfigError(f"unknown weight_mode {self.weight_mode!r}")

    def effective(self) -> "LossConfig":
        """Coefficients actually applied, after variant reductions."""
        if self.variant == "bce":
            return replace(self, lam=0.0, p_fn=1.0, p_fp=1.0, w1=1.0, w0=1.0)
        if self.variant == "sd_bce":
            return replace(self, p_fn=1.0, p_fp=1.0, w1=1.0, w0=1.0)
        return self

    def with_weights_from_counts(self, n0: int, n1: int) -> "LossConfig":
        w0, w1 = class_weights(n0, n1, self.weight_mode)
        return replace(self, w0=w0, w1=w1)


def class_weights(n0: int, n1: int, mode: str = "frequency") -> tuple[float, float]:
    """(w0, w1) from class counts, per the configured mode."""
    if mode not in WEIGHT_MODES:
        raise ConfigError(f"unknown weight_mode {mode!r}")
    if mode == "uniform":
        return 1.0, 1.0
    n = n0 + n1
    if n == 0:
        raise DataError("cannot compute class weights of an empty dataset")
    if mode == "frequency":
        return n0 / n, n1 / n
    return n1 / n, n0 / n


def _validate_batch(logits, labels) -> tuple[np.ndarray, np.ndarray]:
    z = np.ascontiguousarray(logits, dtype=np.float64).ravel()
    y = np.ascontiguousarray(labels, dtype=np.float64).ravel()
    if z.shape != y.shape:
        raise ShapeError(f"logits/labels length mismatch: {z.size} vs {y.size}")
    if z.size == 0:
        raise DataError("loss batch must contain at least one sample")
    if not np.isfinite(z).all():
        raise DataError("logits must be finite")
    if not ((y == 0.0) | (y == 1.0)).all():
        raise DataError("labels must be 0 or 1")
    return z, y


def loss_value(logits, labels, cfg: LossConfig) -> float:
    """Loss of any variant (see module docs); all variants share one kernel."""
    z, y = _validate_batch(logits, labels)
    c = cfg.effective()
    return kernels.loss_forward(z, y, c.w1 * c.p_fn, c.w0 * c.p_fp, c.lam)


def loss_grad(logits, labels, cfg: LossConfig) -> np.ndarray:
    """Analytic dL/dz_i of any variant, with its effective coefficients:

        (1/N) * [ -w1*p_fn*y_i*(1-p_i) + w0*p_fp*(1-y_i)*p_i + lam*z_i ]
    """
    z, y = _validate_batch(logits, labels)
    c = cfg.effective()
    return kernels.loss_grad(z, y, c.w1 * c.p_fn, c.w0 * c.p_fp, c.lam)
