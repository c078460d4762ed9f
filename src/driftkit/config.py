"""Run configuration: one strict JSON document describing a full run.

Besides ``seed``, ``out_dir`` and a ``data`` section of input paths
(``train``, ``eval``, ``pfi``, ``mask``), the document has one section
per typed config; its keys, defaults and rules are the dataclass fields:

    "model"  ModelConfig   (driftkit.model; input_dim null = inferred
                            from the masked data)
    "loss"   LossConfig    (driftkit.losses)
    "train"  TrainConfig   (driftkit.training)
    "pfi"    PfiConfig     (driftkit.pfi)
    "eval"   EvalSettings  (below)

Fields a run sets itself (``seed``, ``TrainConfig.loss``,
``LossConfig.w0``/``w1``) are not keys. All keys are optional; unknown
keys are rejected so typos fail loudly instead of silently using a
default.

``config_hash`` is the first 16 hex digits of the SHA-256 of the fully
resolved config serialized as canonical JSON (sorted keys, no spaces),
with ``out_dir`` excluded: it identifies the computation, not where the
artifacts land, so the same run into two directories hashes the same.
Every artifact a command writes embeds this hash plus the seed, the pair
``RunConfig.stamp`` returns.
"""

from __future__ import annotations

import copy
import hashlib
import json
from dataclasses import MISSING, dataclass, fields

from .data import read_json
from .errors import ConfigError, bounded, check_fields, choice, integer, real
from .evaluation import ERROR_METRICS
from .losses import LossConfig
from .model import ModelConfig
from .pfi import PfiConfig
from .training import TrainConfig


@dataclass(frozen=True)
class EvalSettings:
    threshold: float = real(0.5, "(0, 1)")
    epsilon: float = real(0.1, "[0, inf)")
    persistence: int = integer(2, "[1, inf)")
    error_metric: str = choice("err", ERROR_METRICS)

    def __post_init__(self):
        check_fields(self, "eval.")


# fields every run sets itself, so they are not config keys
_RUN_SET = ("seed", "loss", "w0", "w1")
_SECTIONS = {
    "model": ModelConfig,
    "loss": LossConfig,
    "train": TrainConfig,
    "pfi": PfiConfig,
    "eval": EvalSettings,
}


def _defaults(cls) -> dict:
    """A section's keys and JSON defaults from its dataclass fields: a
    field without a default is null, a tuple default a list."""
    out = {}
    for f in fields(cls):
        if f.name not in _RUN_SET:
            value = None if f.default is MISSING else f.default
            out[f.name] = list(value) if isinstance(value, tuple) else value
    return out


_SCHEMA = {
    "seed": 0,
    "out_dir": "run",
    "data": {"train": None, "eval": None, "pfi": None, "mask": None},
    **{name: _defaults(cls) for name, cls in _SECTIONS.items()},
}


def _coerce(default, value, where: str):
    """A user leaf in its default's JSON type, so that equal configs
    serialize (and therefore hash) identically: a JSON integer for a real
    field becomes a float (5 vs 5.0), a list default takes a list. The
    value itself, null included where the default is not null, is
    checked by its section's dataclass."""
    if isinstance(default, list):
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{where} must be a list, got {value!r}")
        return list(value)
    if isinstance(default, float) and type(value) is int:
        try:
            return float(value)
        except OverflowError:  # beyond float64, which the field's rule refuses
            pass
    return value


def _merge(defaults: dict, user: dict, path: str = "") -> dict:
    if not isinstance(user, dict):
        where = path.rstrip(".") or "top level"
        raise ConfigError(f"expected a JSON object at {where}")
    unknown = set(user) - set(defaults)
    if unknown:
        raise ConfigError(f"unknown config key: {path}{sorted(unknown)[0]}")
    out = {}
    for key, dval in defaults.items():
        if isinstance(dval, dict):
            out[key] = _merge(dval, user.get(key, {}), f"{path}{key}.")
        elif key in user:
            out[key] = _coerce(dval, user[key], f"{path}{key}")
        else:
            out[key] = copy.deepcopy(dval)
    return out


@dataclass(frozen=True)
class RunConfig:
    """Validated, fully-resolved run configuration."""

    resolved: dict

    def __post_init__(self):
        # seed first: the sections copy it into train.seed and pfi.seed
        bounded("integer", "[0, inf)").check(self.seed, "seed")
        if not isinstance(self.out_dir, str) or not self.out_dir:
            raise ConfigError("out_dir must be a non-empty string")
        for role, path in self.resolved["data"].items():
            if path is not None and not isinstance(path, str):
                raise ConfigError(f"data.{role} must be a path string or null")
        # instantiate every typed section eagerly so bad values fail at
        # load time, each named with its section, not mid-run
        self.loss_config()
        self.train_config()
        self.pfi_config()
        self.eval_settings()
        self.model_config(input_dim=1)  # ModelConfig checks a set input_dim

    @property
    def seed(self) -> int:
        return self.resolved["seed"]

    @property
    def out_dir(self) -> str:
        return self.resolved["out_dir"]

    def data_path(self, role: str) -> str | None:
        return self.resolved["data"][role]

    def model_config(self, input_dim: int) -> ModelConfig:
        m = self.resolved["model"]
        dim = m["input_dim"] if m["input_dim"] is not None else input_dim
        return ModelConfig(**{**m, "input_dim": dim})

    def loss_config(self) -> LossConfig:
        return LossConfig(**self.resolved["loss"])

    def train_config(self) -> TrainConfig:
        return TrainConfig(**self.resolved["train"], loss=self.loss_config(), seed=self.seed)

    def pfi_config(self) -> PfiConfig:
        return PfiConfig(**self.resolved["pfi"], seed=self.seed)

    def eval_settings(self) -> EvalSettings:
        return EvalSettings(**self.resolved["eval"])

    @property
    def config_hash(self) -> str:
        hashed = {k: v for k, v in self.resolved.items() if k != "out_dir"}
        canon = json.dumps(hashed, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]

    @property
    def stamp(self) -> dict:
        """The keys every artifact of this run carries."""
        return {"config_hash": self.config_hash, "seed": self.seed}

    def with_overrides(
        self, seed: int | None = None, out_dir: str | None = None, loss: dict | None = None
    ) -> "RunConfig":
        """New config with flag/sweep overrides applied: ``loss`` holds
        replacement leaves of the loss section, e.g. ``{"lam": 0.5}``."""
        d = {**self.resolved, "loss": {**self.resolved["loss"], **(loss or {})}}
        if seed is not None:
            d["seed"] = seed
        if out_dir is not None:
            d["out_dir"] = out_dir
        # re-merge so overridden leaves get the same checks and type
        # coercion as file-loaded values and hash identically
        return RunConfig.from_dict(d)

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        return cls(_merge(_SCHEMA, d))

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        """The config in ``path``; every ConfigError names the file."""
        doc = read_json(path, ConfigError)
        try:
            return cls.from_dict(doc)
        except ConfigError as exc:
            raise ConfigError(f"{path}: {exc}") from None
