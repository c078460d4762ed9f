"""Mini-batch training loop: configurable loss, random or recent
validation split, early stopping, best-epoch model selection.

Class weights are derived from the training split only, after the split,
so no validation information leaks into the loss. With the "recent"
strategy the validation set is the chronologically latest slice, which is
the protocol this toolkit exists to support: validate on the newest data
you have, then measure decay on data from after the training window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .data import Dataset, class_counts, split_random, split_recent
from .errors import ConfigError, NumericError, require_ints
from .evaluation import confusion, metrics
from .losses import LossConfig, loss_grad, loss_value
from .model import (
    ModelConfig,
    ModelParams,
    backward,
    forward,
    init_model,
    init_optimizer,
    adamw_step,
)

VALIDATION_STRATEGIES = ("random", "recent")
SELECTION_METRICS = ("f1", "accuracy")


@dataclass(frozen=True)
class TrainConfig:
    loss: LossConfig = field(default_factory=LossConfig)
    validation: str = "recent"
    n_val: int = 1000
    batch_size: int = 256
    max_epochs: int = 100
    patience: int = 10
    seed: int = 0
    selection_metric: str = "f1"
    threshold: float = 0.5
    lr: float = 1e-4
    weight_decay: float = 1e-4

    def __post_init__(self):
        require_ints(self, "n_val", "batch_size", "max_epochs", "patience", "seed")
        if self.validation not in VALIDATION_STRATEGIES:
            raise ConfigError(f"unknown validation strategy {self.validation!r}")
        if self.selection_metric not in SELECTION_METRICS:
            raise ConfigError(f"unknown selection metric {self.selection_metric!r}")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.max_epochs < 1:
            raise ConfigError("max_epochs must be >= 1")
        if self.patience < 0:
            raise ConfigError("patience must be >= 0")
        if self.n_val < 1:
            raise ConfigError("n_val must be >= 1")
        if not 0.0 < self.threshold < 1.0:
            raise ConfigError("threshold must be in (0, 1)")
        # written as ranges so that NaN, which fails every comparison, fails them too
        if not 0.0 < self.lr < math.inf:
            raise ConfigError(f"lr must be finite and > 0, got {self.lr}")
        if not 0.0 <= self.weight_decay < math.inf:
            raise ConfigError(f"weight_decay must be finite and >= 0, got {self.weight_decay}")


@dataclass
class TrainHistory:
    """Per-epoch trace plus the selection outcome."""

    train_loss: list = field(default_factory=list)
    val_loss: list = field(default_factory=list)
    val_acc: list = field(default_factory=list)
    val_f1: list = field(default_factory=list)
    val_fnr: list = field(default_factory=list)
    val_fpr: list = field(default_factory=list)
    best_epoch: int = -1
    best_score: float = float("-inf")
    stopped_early: bool = False
    n_train: int = 0
    n_val: int = 0
    resolved_w0: float = 1.0
    resolved_w1: float = 1.0

    @property
    def epochs_run(self) -> int:
        return len(self.train_loss)


def _selection_score(m, metric: str) -> float:
    v = m.f1 if metric == "f1" else m.acc
    return v if v is not None else 0.0


def train(
    ds: Dataset, model_cfg: ModelConfig, train_cfg: TrainConfig
) -> tuple[ModelParams, TrainHistory]:
    """Train on ``ds`` and return the parameters of the epoch with the
    best validation selection metric, together with the full history.

    Deterministic per (ds, configs): the seed drives the split, the
    initialization, the per-epoch shuffles, and the dropout masks, in a
    fixed order. Early stopping triggers after ``patience`` consecutive
    epochs without strict improvement (patience=0 stops at the first
    non-improving epoch).
    """
    if ds.feature_dim != model_cfg.input_dim:
        raise ConfigError(
            f"dataset feature_dim {ds.feature_dim} != model input_dim {model_cfg.input_dim}"
        )
    if train_cfg.n_val >= len(ds):
        raise ConfigError(f"n_val {train_cfg.n_val} must be < dataset size {len(ds)}")

    ss = np.random.SeedSequence(train_cfg.seed)
    ss_split, ss_init, ss_loop = ss.spawn(3)
    split_seed = int(ss_split.generate_state(1, dtype=np.uint64)[0])
    init_seed = int(ss_init.generate_state(1, dtype=np.uint64)[0])

    if train_cfg.validation == "random":
        train_ds, val_ds = split_random(ds, train_cfg.n_val, split_seed)
    else:
        train_ds, val_ds = split_recent(ds, train_cfg.n_val)

    n0, n1 = class_counts(train_ds)
    loss_cfg = train_cfg.loss.with_weights_from_counts(n0, n1).effective()

    params = init_model(model_cfg, init_seed)
    opt = init_optimizer(params, lr=train_cfg.lr, weight_decay=train_cfg.weight_decay)
    rng = np.random.Generator(np.random.PCG64(ss_loop))

    hist = TrainHistory(
        n_train=len(train_ds),
        n_val=len(val_ds),
        resolved_w0=loss_cfg.w0,
        resolved_w1=loss_cfg.w1,
    )
    best_params = params.copy()
    bad_epochs = 0
    # float64 labels once, so that each loss call's conversion copies nothing
    Xtr, ytr = train_ds.features, train_ds.labels.astype(np.float64)
    Xval, yval = val_ds.features, val_ds.labels

    for epoch in range(train_cfg.max_epochs):
        order = rng.permutation(len(train_ds))
        epoch_loss = 0.0
        # the gradient buffer lives for the steps only, so that it is not
        # held beside the validation pass's cache
        grads = ModelParams(model_cfg, np.empty_like(params.flat))
        for start in range(0, len(order), train_cfg.batch_size):
            idx = order[start : start + train_cfg.batch_size]
            Xb, yb = Xtr[idx], ytr[idx]
            z, cache = forward(params, Xb, mode="train", rng=rng)
            if not np.isfinite(z).all():
                raise NumericError(
                    f"training diverged: non-finite logits at epoch {epoch}, "
                    f"batch {start // train_cfg.batch_size}"
                )
            value = loss_value(z, yb, loss_cfg)
            if not math.isfinite(value):
                raise NumericError(
                    f"training diverged: non-finite loss at epoch {epoch}, "
                    f"batch {start // train_cfg.batch_size}"
                )
            epoch_loss += value * len(idx)
            dz = loss_grad(z, yb, loss_cfg)
            backward(params, cache, dz, out=grads)
            del cache  # so that two steps' activations never coexist
            adamw_step(params, grads, opt)
        del grads
        hist.train_loss.append(epoch_loss / len(train_ds))

        zval = forward(params, Xval, mode="eval")[0]  # its cache is dropped at once
        if not np.isfinite(zval).all():
            raise NumericError(
                f"training diverged: non-finite validation logits at epoch {epoch}"
            )
        hist.val_loss.append(loss_value(zval, yval, loss_cfg))
        m = metrics(confusion(kernels.sigmoid(zval), yval, train_cfg.threshold))
        hist.val_acc.append(m.acc)
        hist.val_f1.append(m.f1)
        hist.val_fnr.append(m.fnr)
        hist.val_fpr.append(m.fpr)

        score = _selection_score(m, train_cfg.selection_metric)
        if score > hist.best_score:
            hist.best_score = score
            hist.best_epoch = epoch
            np.copyto(best_params.flat, params.flat)
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs >= max(train_cfg.patience, 1):
                hist.stopped_early = True
                break

    return best_params, hist
