"""Residual feed-forward binary classifier with hand-derived backprop,
AdamW, and a self-describing binary checkpoint format.

Topology (all widths configurable):

    input -> dense(trunk_width) -> relu -> dropout
          -> n_residual_blocks * [ dense -> relu -> dense, + skip, relu,
                                   dropout ]
          -> per head width: dense -> relu
          -> dense(1)  -> raw logit

Residual blocks keep the trunk width, so the skip path is a plain
identity add. Dropout is inverted (scaled at train time) and active only
in train mode; eval-mode forward is a pure function of (params, X).

Checkpoint format: magic ``DNET``, version byte 1, little-endian u32
header length, a JSON header (config, optional feature mask, metadata,
layer order, and an ``optimizer`` key that is always null), then every
parameter tensor raveled as little-endian float64 in layer order.
"""

from __future__ import annotations

import json
import math
import numbers
import os
import struct
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import kernels
from .data import FeatureMask, atomic_open
from .errors import (ConfigError, DataError, DriftkitError, FormatError, ShapeError,
                     StateError, require_ints)
from .kernels import dropout_mask, make_rng, matmul

_MAGIC = b"DNET"
_VERSION = 1


@dataclass(frozen=True)
class ModelConfig:
    input_dim: int
    trunk_width: int = 512
    n_residual_blocks: int = 2
    dropout_rate: float = 0.2
    head_widths: tuple = (128,)

    def __post_init__(self):
        require_ints(self, "input_dim", "trunk_width", "n_residual_blocks")
        if self.input_dim < 1:
            raise ConfigError(f"input_dim must be >= 1, got {self.input_dim}")
        if self.trunk_width < 1:
            raise ConfigError(f"trunk_width must be >= 1, got {self.trunk_width}")
        if self.n_residual_blocks < 0:
            raise ConfigError("n_residual_blocks must be >= 0")
        rate = self.dropout_rate
        if isinstance(rate, bool) or not isinstance(rate, numbers.Real) or not 0.0 <= rate < 1.0:
            raise ConfigError(f"dropout_rate must be in [0, 1), got {rate!r}")
        object.__setattr__(self, "dropout_rate", float(rate))
        widths = tuple(self.head_widths)
        if any(isinstance(w, bool) or not isinstance(w, numbers.Integral) for w in widths):
            raise ConfigError(f"head widths must be integers, got {list(widths)!r}")
        if any(w < 1 for w in widths):
            raise ConfigError("head widths must be >= 1")
        object.__setattr__(self, "head_widths", tuple(int(w) for w in widths))
        if 8 * param_count(self) > np.iinfo(np.intp).max:
            raise _too_large(self, "more than numpy can address")


def layer_shapes(cfg: ModelConfig) -> list[tuple[str, tuple]]:
    """Ordered (name, shape) pairs; this order defines the checkpoint blob."""
    w = cfg.trunk_width
    shapes = [("entry.W", (cfg.input_dim, w)), ("entry.b", (w,))]
    for k in range(cfg.n_residual_blocks):
        shapes += [
            (f"block{k}.W1", (w, w)),
            (f"block{k}.b1", (w,)),
            (f"block{k}.W2", (w, w)),
            (f"block{k}.b2", (w,)),
        ]
    prev = w
    for j, hw in enumerate(cfg.head_widths):
        shapes += [(f"head{j}.W", (prev, hw)), (f"head{j}.b", (hw,))]
        prev = hw
    shapes += [("out.W", (prev, 1)), ("out.b", (1,))]
    return shapes


def _is_weight(name: str) -> bool:
    return name.rsplit(".", 1)[1].startswith("W")


def param_count(cfg: ModelConfig) -> int:
    """The summed sizes of ``layer_shapes``, in closed form, so that a
    huge ``n_residual_blocks`` is counted without a loop over blocks."""
    w = prev = cfg.trunk_width
    n = (cfg.input_dim + 1) * w + cfg.n_residual_blocks * 2 * (w + 1) * w
    for hw in cfg.head_widths:
        n += (prev + 1) * hw
        prev = hw
    return n + prev + 1


def _too_large(cfg: ModelConfig, why: str) -> ConfigError:
    n = param_count(cfg)
    return ConfigError(
        f"input_dim {cfg.input_dim}, trunk_width {cfg.trunk_width}, {cfg.n_residual_blocks} "
        f"residual blocks and head_widths {list(cfg.head_widths)} make {n} parameters, "
        f"{8 * n} bytes of float64: {why}"
    )


def tensor_views(cfg: ModelConfig, flat: np.ndarray) -> dict:
    """name -> view of ``flat`` with the tensor's shape, in layer order."""
    views, start = {}, 0
    for name, shape in layer_shapes(cfg):
        stop = start + math.prod(shape)
        views[name] = flat[start:stop].reshape(shape)
        start = stop
    return views


def bias_indices(cfg: ModelConfig) -> np.ndarray:
    """Positions of the bias entries in the flat layout."""
    positions = tensor_views(cfg, np.arange(param_count(cfg)))
    return np.concatenate([v for name, v in positions.items() if not _is_weight(name)])


class ModelParams:
    """All weight/bias tensors of one network, stored contiguously.

    ``flat`` is one float64 vector holding every tensor raveled in
    ``layer_shapes`` order, which is also the checkpoint blob order.
    ``tensors[name]`` is a view into it: update tensors in place, since
    rebinding an entry detaches it from ``flat``. Gradients use the same
    layout, so a ModelParams also serves as a gradient buffer.
    """

    def __init__(self, cfg: ModelConfig, flat: np.ndarray):
        if (
            not isinstance(flat, np.ndarray)
            or flat.dtype != np.float64
            or flat.shape != (param_count(cfg),)
            or not flat.flags.c_contiguous
        ):
            raise ShapeError(
                f"parameters must be a contiguous float64 vector of {param_count(cfg)} entries"
            )
        self.cfg = cfg
        self.flat = flat
        self.tensors = tensor_views(cfg, flat)

    def copy(self) -> "ModelParams":
        return ModelParams(self.cfg, self.flat.copy())


def init_model(cfg: ModelConfig, seed: int) -> ModelParams:
    """He-uniform weights (variance 2/fan_in), zero biases, seed-determined."""
    rng = make_rng(seed)
    try:
        flat = np.zeros(param_count(cfg))
    except MemoryError:
        raise _too_large(cfg, "more than this machine can allocate") from None
    params = ModelParams(cfg, flat)
    for name, t in params.tensors.items():
        if _is_weight(name):
            limit = np.sqrt(6.0 / t.shape[0])
            t[...] = rng.uniform(-limit, limit, size=t.shape)
    return params


def _dense_relu(h: np.ndarray, W: np.ndarray, b: np.ndarray) -> np.ndarray:
    a = matmul(h, W)
    a += b
    return np.maximum(a, 0.0, out=a)


def _rows(cfg: ModelConfig, X) -> np.ndarray:
    """``X`` as a contiguous float64 (batch, input_dim) matrix."""
    X = np.ascontiguousarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != cfg.input_dim:
        raise ShapeError(f"input must be (batch, {cfg.input_dim}), got {X.shape}")
    return X


def _hidden(params: ModelParams, X: np.ndarray, masks, cache: dict | None) -> np.ndarray:
    """The last hidden layer's output for rows ``X``: entry, residual
    blocks and heads, in order. ``masks`` holds one dropout mask or None
    per trunk layer. Biases, ReLUs and masks are applied in place, to fresh
    products; with a ``cache``, each layer's output is recorded there in
    its final, activated state (see ``forward``)."""
    cfg = params.cfg
    t = params.tensors
    h = _dense_relu(X, t["entry.W"], t["entry.b"])
    m0 = masks[0]
    if m0 is not None:
        h *= m0
    if cache is not None:
        cache["entry"] = (h, m0)

    for k in range(cfg.n_residual_blocks):
        h_in = h
        u = _dense_relu(h_in, t[f"block{k}.W1"], t[f"block{k}.b1"])
        h = matmul(u, t[f"block{k}.W2"])
        h += t[f"block{k}.b2"]
        h += h_in
        np.maximum(h, 0.0, out=h)
        mk = masks[k + 1]
        if mk is not None:
            h *= mk
        if cache is not None:
            cache["blocks"].append((h_in, u, h, mk))

    for j in range(len(cfg.head_widths)):
        h_in = h
        h = _dense_relu(h_in, t[f"head{j}.W"], t[f"head{j}.b"])
        if cache is not None:
            cache["heads"].append((h_in, h))
    return h


def forward(
    params: ModelParams,
    X: np.ndarray,
    mode: str = "eval",
    rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, dict]:
    """Run the network; returns (logits[batch], cache for backward).

    Train mode draws fresh dropout masks from ``rng``, one call for all
    trunk layers; eval mode is deterministic. The cache, tied to this
    exact params object, holds X, the masks and each layer's output after
    its in-place ReLU and dropout, never a pre-activation: entry
    ``(h, m0)``, residual blocks ``(h_in, u, h, mk)``, heads ``(h_in, h)``.
    """
    if mode not in ("train", "eval"):
        raise ConfigError(f"mode must be 'train' or 'eval', got {mode!r}")
    cfg = params.cfg
    X = _rows(cfg, X)
    masks = [None] * (1 + cfg.n_residual_blocks)
    if mode == "train" and cfg.dropout_rate > 0.0:
        if rng is None:
            raise ConfigError("train-mode forward with dropout needs an rng")
        # all trunk masks of the step in one draw; PCG64 fills the doubles
        # in order, so each slice equals a separate draw per layer
        masks = dropout_mask(
            (len(masks), X.shape[0], cfg.trunk_width), cfg.dropout_rate, rng
        )
    cache: dict = {"params_id": id(params), "X": X, "blocks": [], "heads": []}
    h = cache["h_last"] = _hidden(params, X, masks, cache)
    z = matmul(h, params.tensors["out.W"])
    z += params.tensors["out.b"]
    return z.ravel(), cache


def backward(
    params: ModelParams, cache: dict, dz: np.ndarray, out: ModelParams | None = None
) -> dict:
    """Gradients of the scalar loss for every tensor, given dL/dlogit.

    The gradients are written into ``out``, a buffer with the parameters'
    layout (a new one when None), and returned as its name -> view dict.
    The cache must come from a forward call on this same params object;
    anything else raises StateError.

    Each ReLU mask is ``output > 0``: ``max(p, 0) > 0`` holds exactly when
    ``p > 0`` (NaN fails both), and where dropout zeroed an output the
    gradient is already +-0, which either mask keeps.
    """
    if cache.get("params_id") != id(params):
        raise StateError("cache does not belong to these parameters")
    dz = np.asarray(dz, dtype=np.float64).ravel()
    n = cache["X"].shape[0]
    if dz.shape != (n,):
        raise StateError(f"upstream gradient length {dz.size} != cached batch {n}")
    if out is None:
        out = ModelParams(params.cfg, np.empty_like(params.flat))
    elif out.flat.shape != params.flat.shape:
        raise ShapeError("gradient buffer does not match the parameters")

    cfg = params.cfg
    t = params.tensors
    grads = out.tensors
    dZ = dz.reshape(-1, 1)

    h_last = cache["h_last"]
    grads["out.W"][...] = matmul(h_last.T, dZ)
    np.add.reduce(dZ, axis=0, out=grads["out.b"])
    dh = matmul(dZ, t["out.W"].T)

    # every dh below is a fresh product that nothing else holds, so the
    # dropout and ReLU masks multiply it in place. A boolean mask counts
    # as 0.0/1.0; the kink at exactly 0 takes gradient 0.
    for j in reversed(range(len(cfg.head_widths))):
        h_in, h = cache["heads"][j]
        dtpre = np.multiply(dh, h > 0.0, out=dh)
        grads[f"head{j}.W"][...] = matmul(h_in.T, dtpre)
        np.add.reduce(dtpre, axis=0, out=grads[f"head{j}.b"])
        dh = matmul(dtpre, t[f"head{j}.W"].T)

    for k in reversed(range(cfg.n_residual_blocks)):
        h_in, u, h, mk = cache["blocks"][k]
        if mk is not None:
            dh *= mk
        dspre = np.multiply(dh, h > 0.0, out=dh)
        grads[f"block{k}.W2"][...] = matmul(u.T, dspre)
        np.add.reduce(dspre, axis=0, out=grads[f"block{k}.b2"])
        du = matmul(dspre, t[f"block{k}.W2"].T)
        dupre = np.multiply(du, u > 0.0, out=du)
        grads[f"block{k}.W1"][...] = matmul(h_in.T, dupre)
        np.add.reduce(dupre, axis=0, out=grads[f"block{k}.b1"])
        # skip connection: gradient re-enters the block input directly
        dh = matmul(dupre, t[f"block{k}.W1"].T)
        dh += dspre

    h0, m0 = cache["entry"]
    if m0 is not None:
        dh *= m0
    dpre0 = np.multiply(dh, h0 > 0.0, out=dh)
    grads["entry.W"][...] = matmul(cache["X"].T, dpre0)
    np.add.reduce(dpre0, axis=0, out=grads["entry.b"])
    return grads


# Rows per inference block: big enough for BLAS to run at full speed, small
# enough that each block's activations stay resident instead of being
# allocated and page-faulted afresh on every call.
_BLOCK_ROWS = 256
# OpenBLAS multiplies a product of at most this many multiply-adds with a
# small-matrix kernel whose summation order can differ from its blocked
# GEMM, so a row block must stay above it wherever the whole product does.
_SMALL_GEMM = 100**3


def predict_logits(params: ModelParams, X: np.ndarray) -> np.ndarray:
    """Eval-mode logits, equal bit for bit to ``forward(params, X, "eval")[0]``.

    Builds no cache and walks the rows in blocks of at least
    ``_BLOCK_ROWS``, with biases and ReLUs applied in place. Three rules
    keep the bits equal to the unblocked ``forward`` on OpenBLAS:
    - the last block absorbs the remainder, so no block is smaller than
      the block size;
    - the block size grows, for narrow layers, until every hidden product
      of a block exceeds ``_SMALL_GEMM`` multiply-adds;
    - the single-column output product runs once over all rows.
    Holds no state, so threads may call it at once.
    """
    cfg = params.cfg
    X = _rows(cfg, X)
    t = params.tensors
    n = X.shape[0]
    narrowest = min(W.size for name, W in t.items() if _is_weight(name) and name != "out.W")
    rows = max(_BLOCK_ROWS, _SMALL_GEMM // narrowest + 1)
    bounds = [i * rows for i in range(max(1, n // rows))] + [n]
    masks = [None] * (1 + cfg.n_residual_blocks)
    H = np.empty((n, t["out.W"].shape[0]))
    for lo, hi in zip(bounds, bounds[1:]):
        H[lo:hi] = _hidden(params, X[lo:hi], masks, None)
    return (matmul(H, t["out.W"]) + t["out.b"]).ravel()


def predict_proba(params: ModelParams, X: np.ndarray) -> np.ndarray:
    return kernels.sigmoid(predict_logits(params, X))


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

# AdamW's moment decay rates and denominator guard
_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8


@dataclass
class OptimizerState:
    """AdamW hyper-parameters and moments. Weight decay skips biases.

    ``lr`` and ``weight_decay`` come from the run's ``TrainConfig``.
    ``m`` and ``v`` are flat vectors in the parameters' layout, ``biases``
    the bias positions in it and ``scratch`` the kernel's two work vectors.
    """

    lr: float
    weight_decay: float
    m: np.ndarray
    v: np.ndarray
    biases: np.ndarray = field(repr=False, compare=False)
    scratch: tuple = field(repr=False, compare=False)
    t: int = 0


def init_optimizer(params: ModelParams, lr: float, weight_decay: float) -> OptimizerState:
    p, size = params.flat, min(params.flat.size, kernels.ADAMW_SLICE)
    return OptimizerState(lr, weight_decay, np.zeros_like(p), np.zeros_like(p),
                          bias_indices(params.cfg), (np.empty(size), np.empty(size)))


def adamw_step(params: ModelParams, grads, state: OptimizerState) -> None:
    """One decoupled-weight-decay Adam update of every tensor, in place:

        p <- p - lr * m_hat / (sqrt(v_hat) + eps) - lr * wd * p

    ``grads`` is a gradient buffer (a ModelParams, as ``backward`` fills).
    The whole model is updated in one kernel call.
    """
    p = params.flat
    if not isinstance(grads, ModelParams):
        raise ShapeError(f"gradients must be a ModelParams buffer, got {type(grads).__name__}")
    if grads.flat.shape != p.shape or state.m.shape != p.shape or state.v.shape != p.shape:
        raise ShapeError("gradients or optimizer moments do not match the parameters")
    state.t += 1
    kernels.adamw_update(
        p, grads.flat, state.m, state.v, 1.0 - _BETA1**state.t, 1.0 - _BETA2**state.t,
        state.lr, _BETA1, _BETA2, _EPS, state.weight_decay,
        no_decay=state.biases, scratch=state.scratch,
    )


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

@dataclass
class LoadedModel:
    params: ModelParams
    mask: FeatureMask | None
    meta: dict


def save_model(
    params: ModelParams, path, mask: FeatureMask | None = None, meta: dict | None = None
) -> None:
    """Write a DNET checkpoint: config, optional mask, metadata, tensors.

    Written through ``atomic_open``, so a failed write leaves any previous
    checkpoint intact.
    """
    header = {
        "config": asdict(params.cfg),
        "mask": mask.to_dict() if mask is not None else None,
        "meta": meta or {},
        "layers": list(params.tensors),
        "optimizer": None,
    }
    header_bytes = json.dumps(header).encode("utf-8")
    with atomic_open(path, "wb") as fh:
        fh.write(_MAGIC + bytes([_VERSION]) + struct.pack("<I", len(header_bytes)))
        fh.write(header_bytes)
        fh.write(np.ascontiguousarray(params.flat, dtype="<f8"))


def _parse_header(header) -> tuple:
    """(config, mask or None, meta) from a DNET header; raises KeyError,
    TypeError, ValueError or a DriftkitError if it is malformed."""
    cfg = ModelConfig(**{f.name: header["config"][f.name] for f in fields(ModelConfig)})
    if header["layers"] != [name for name, _ in layer_shapes(cfg)]:
        raise ValueError("layer list does not match config topology")
    if header.get("optimizer") is not None:
        raise ValueError("optimizer state is not supported")
    mask = FeatureMask.from_dict(header["mask"]) if header.get("mask") else None
    return cfg, mask, header.get("meta", {})


def load_model(path) -> LoadedModel:
    """Read and validate a DNET checkpoint. A missing path or a directory
    raises DataError; anything malformed, including non-finite stored
    values, raises FormatError naming ``path``. The tensors are read
    straight into the parameter vector."""
    if not os.path.isfile(path):
        raise DataError(f"model file not found: {path}")
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        prefix = fh.read(9)
        if len(prefix) < 9 or prefix[:4] != _MAGIC:
            raise FormatError(f"{path}: bad magic, not a DNET model file")
        if prefix[4] != _VERSION:
            raise FormatError(f"{path}: unsupported DNET version {prefix[4]}")
        (hlen,) = struct.unpack_from("<I", prefix, 5)
        if 9 + hlen > size:
            raise FormatError(f"{path}: corrupt header: {hlen} bytes long in a {size}-byte file")
        try:
            header = json.loads(fh.read(hlen).decode("utf-8"))
        except ValueError as e:  # bad UTF-8 or JSON, or an integer past the digit limit
            raise FormatError(f"{path}: corrupt header: {e}") from None
        if not isinstance(header, dict):
            raise FormatError(f"{path}: header is not a JSON object")
        try:
            cfg, mask, meta = _parse_header(header)
        except KeyError as e:
            raise FormatError(f"{path}: header is missing key {e}") from None
        except (TypeError, ValueError, DriftkitError) as e:
            raise FormatError(f"{path}: malformed header: {e}") from None

        expected = 9 + hlen + 8 * param_count(cfg)
        if size != expected:
            raise FormatError(f"{path}: expected {expected} bytes, got {size}")
        stored = np.empty(param_count(cfg), dtype="<f8")
        if fh.readinto(stored) != stored.nbytes:
            raise FormatError(f"{path}: expected {expected} bytes, the file shrank while being read")
    # min and max propagate NaN and reach any infinity: no boolean temporary
    if not (np.isfinite(stored.min()) and np.isfinite(stored.max())):
        raise FormatError(f"{path}: stored tensors hold NaN or infinite values")
    # a no-op on little-endian machines, where "<f8" is the native float64
    return LoadedModel(ModelParams(cfg, stored.astype(np.float64, copy=False)), mask, meta)
