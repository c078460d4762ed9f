"""Run configuration: one strict JSON document describing a full run.

Schema (all keys optional, defaults shown; unknown keys are rejected so
typos fail loudly instead of silently using a default):

    {
      "seed": 0,
      "out_dir": "run",
      "data": {
        "train": null,        # path to the training stream
        "eval": null,         # path to the evaluation stream
        "pfi": null,          # path to the importance-scoring set
        "mask": null          # optional feature-mask JSON applied on load
      },
      "model": {
        "input_dim": null,    # null = inferred from the (masked) data
        "trunk_width": 512,
        "n_residual_blocks": 2,
        "dropout_rate": 0.2,
        "head_widths": [128]
      },
      "loss": {
        "variant": "drbce",   # bce | sd_bce | drbce
        "lam": 0.1,
        "p_fn": 5.0,
        "p_fp": 1.0,
        "weight_mode": "frequency"
      },
      "train": {
        "validation": "recent",   # recent | random
        "n_val": 1000,
        "batch_size": 256,
        "max_epochs": 100,
        "patience": 10,
        "selection_metric": "f1", # f1 | accuracy
        "threshold": 0.5,
        "lr": 1e-4,
        "weight_decay": 1e-4
      },
      "pfi": {
        "metric": "f1",
        "n_repeats": 5,
        "keep_threshold": 0.0,
        "threshold": 0.5
      },
      "eval": {
        "threshold": 0.5,
        "epsilon": 0.1,
        "persistence": 2,
        "error_metric": "err"     # err | fnr
      }
    }

``config_hash`` is the first 16 hex digits of the SHA-256 of the fully
resolved config serialized as canonical JSON (sorted keys, no spaces),
with ``out_dir`` excluded: it identifies the computation, not where the
artifacts land, so the same run into two directories hashes the same.
Every artifact a command writes embeds this hash plus the seed.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigError
from .losses import LossConfig
from .model import ModelConfig
from .pfi import PfiConfig
from .training import TrainConfig

ERROR_METRICS = ("err", "fnr")

_SCHEMA = {
    "seed": 0,
    "out_dir": "run",
    "data": {"train": None, "eval": None, "pfi": None, "mask": None},
    "model": {
        "input_dim": None,
        "trunk_width": 512,
        "n_residual_blocks": 2,
        "dropout_rate": 0.2,
        "head_widths": [128],
    },
    "loss": {
        "variant": "drbce",
        "lam": 0.1,
        "p_fn": 5.0,
        "p_fp": 1.0,
        "weight_mode": "frequency",
    },
    "train": {
        "validation": "recent",
        "n_val": 1000,
        "batch_size": 256,
        "max_epochs": 100,
        "patience": 10,
        "selection_metric": "f1",
        "threshold": 0.5,
        "lr": 1e-4,
        "weight_decay": 1e-4,
    },
    "pfi": {
        "metric": "f1",
        "n_repeats": 5,
        "keep_threshold": 0.0,
        "threshold": 0.5,
    },
    "eval": {
        "threshold": 0.5,
        "epsilon": 0.1,
        "persistence": 2,
        "error_metric": "err",
    },
}


def _coerce(default, value, where: str):
    """Match a user leaf to its default's JSON type so equal configs
    serialize (and therefore hash) identically, e.g. 5 vs 5.0."""
    if default is None or value is None:
        return value
    if isinstance(default, bool) or isinstance(value, bool):
        raise ConfigError(f"bad type for {where}: {value!r}")
    if isinstance(default, float):
        if not isinstance(value, (int, float)):
            raise ConfigError(f"{where} must be a number, got {value!r}")
        return float(value)
    if isinstance(default, int):
        if not isinstance(value, int):
            raise ConfigError(f"{where} must be an integer, got {value!r}")
        return value
    if isinstance(default, str):
        if not isinstance(value, str):
            raise ConfigError(f"{where} must be a string, got {value!r}")
        return value
    if isinstance(default, list):
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{where} must be a list, got {value!r}")
        return list(value)
    return copy.deepcopy(value)


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
class EvalSettings:
    threshold: float = 0.5
    epsilon: float = 0.1
    persistence: int = 2
    error_metric: str = "err"

    def __post_init__(self):
        if not 0.0 < self.threshold < 1.0:
            raise ConfigError("eval.threshold must be in (0, 1)")
        if not 0.0 <= self.epsilon < math.inf:
            raise ConfigError(f"eval.epsilon must be finite and >= 0, got {self.epsilon}")
        if self.persistence < 1:
            raise ConfigError("eval.persistence must be >= 1")
        if self.error_metric not in ERROR_METRICS:
            raise ConfigError(f"eval.error_metric must be one of {ERROR_METRICS}")


@dataclass(frozen=True)
class RunConfig:
    """Validated, fully-resolved run configuration."""

    resolved: dict

    def __post_init__(self):
        # instantiate every typed section eagerly so bad values fail at
        # load time with the section name in the message, not mid-run
        try:
            self.loss_config()
            self.train_config()
            self.pfi_config()
            self.eval_settings()
            self.model_config(input_dim=self.resolved["model"]["input_dim"] or 1)
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from exc
        if not isinstance(self.seed, int) or isinstance(self.seed, bool) or self.seed < 0:
            raise ConfigError("seed must be a non-negative integer")
        if not isinstance(self.out_dir, str) or not self.out_dir:
            raise ConfigError("out_dir must be a non-empty string")
        for role, path in self.resolved["data"].items():
            if path is not None and not isinstance(path, str):
                raise ConfigError(f"data.{role} must be a path string or null")
        dim = self.resolved["model"]["input_dim"]
        if dim is not None and (not isinstance(dim, int) or isinstance(dim, bool)):
            raise ConfigError("model.input_dim must be an integer or null")

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
        return ModelConfig(
            input_dim=int(m["input_dim"]) if m["input_dim"] is not None else int(input_dim),
            trunk_width=m["trunk_width"],
            n_residual_blocks=m["n_residual_blocks"],
            dropout_rate=m["dropout_rate"],
            head_widths=tuple(m["head_widths"]),
        )

    def loss_config(self) -> LossConfig:
        s = self.resolved["loss"]
        return LossConfig(
            variant=s["variant"],
            lam=s["lam"],
            p_fn=s["p_fn"],
            p_fp=s["p_fp"],
            weight_mode=s["weight_mode"],
        )

    def train_config(self) -> TrainConfig:
        s = self.resolved["train"]
        return TrainConfig(
            loss=self.loss_config(),
            validation=s["validation"],
            n_val=s["n_val"],
            batch_size=s["batch_size"],
            max_epochs=s["max_epochs"],
            patience=s["patience"],
            seed=self.seed,
            selection_metric=s["selection_metric"],
            threshold=s["threshold"],
            lr=s["lr"],
            weight_decay=s["weight_decay"],
        )

    def pfi_config(self) -> PfiConfig:
        s = self.resolved["pfi"]
        return PfiConfig(
            metric=s["metric"],
            n_repeats=s["n_repeats"],
            seed=self.seed,
            keep_threshold=s["keep_threshold"],
            threshold=s["threshold"],
        )

    def eval_settings(self) -> EvalSettings:
        s = self.resolved["eval"]
        return EvalSettings(
            threshold=s["threshold"],
            epsilon=s["epsilon"],
            persistence=s["persistence"],
            error_metric=s["error_metric"],
        )

    @property
    def config_hash(self) -> str:
        hashed = {k: v for k, v in self.resolved.items() if k != "out_dir"}
        canon = json.dumps(hashed, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]

    def with_overrides(
        self, seed: int | None = None, out_dir: str | None = None, **sections
    ) -> "RunConfig":
        """New config with flag/sweep overrides applied.

        ``sections`` maps section name to a dict of replacement leaves,
        e.g. ``loss={"lam": 0.5}``.
        """
        d = copy.deepcopy(self.resolved)
        if seed is not None:
            d["seed"] = seed
        if out_dir is not None:
            d["out_dir"] = out_dir
        for name, leaves in sections.items():
            if name not in d or not isinstance(d[name], dict):
                raise ConfigError(f"unknown config section: {name}")
            for key, val in leaves.items():
                if key not in d[name]:
                    raise ConfigError(f"unknown config key: {name}.{key}")
                d[name][key] = val
        # re-merge so overridden leaves get the same type coercion as
        # file-loaded values and hash identically
        return RunConfig.from_dict(d)

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        return cls(_merge(_SCHEMA, d))

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        p = Path(path)
        try:
            raw = json.loads(p.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON in {p}: {exc}") from exc
        return cls.from_dict(raw)

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.resolved, indent=2, sort_keys=True) + "\n")


def default_config() -> RunConfig:
    return RunConfig.from_dict({})
