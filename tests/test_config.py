import json

import numpy as np
import pytest

from driftkit.config import EvalSettings, RunConfig
from driftkit.data import write_json
from driftkit.errors import ConfigError
from driftkit.pfi import PfiConfig
from driftkit.training import TrainConfig


def test_defaults():
    cfg = RunConfig.from_dict({})
    assert cfg.seed == 0
    assert cfg.out_dir == "run"
    assert cfg.data_path("train") is None
    m = cfg.model_config(input_dim=7)
    assert (m.input_dim, m.trunk_width, m.n_residual_blocks) == (7, 512, 2)
    assert m.dropout_rate == 0.2 and m.head_widths == (128,)
    l = cfg.loss_config()
    assert (l.variant, l.lam, l.p_fn, l.p_fp) == ("drbce", 0.1, 5.0, 1.0)
    assert l.weight_mode == "frequency"
    t = cfg.train_config()
    assert (t.validation, t.n_val, t.batch_size) == ("recent", 1000, 256)
    assert (t.max_epochs, t.patience, t.selection_metric) == (100, 10, "f1")
    assert (t.lr, t.weight_decay) == (1e-4, 1e-4)
    p = cfg.pfi_config()
    assert (p.metric, p.n_repeats, p.keep_threshold) == ("f1", 5, 0.0)
    e = cfg.eval_settings()
    assert (e.threshold, e.epsilon, e.persistence, e.error_metric) == (0.5, 0.1, 2, "err")


def test_partial_override_keeps_other_defaults():
    cfg = RunConfig.from_dict({"loss": {"lam": 0.5}, "seed": 3})
    assert cfg.loss_config().lam == 0.5
    assert cfg.loss_config().p_fn == 5.0
    assert cfg.seed == 3
    assert cfg.train_config().seed == 3
    assert cfg.pfi_config().seed == 3


def test_explicit_input_dim_wins():
    cfg = RunConfig.from_dict({"model": {"input_dim": 12}})
    assert cfg.model_config(input_dim=99).input_dim == 12


def test_unknown_keys_rejected_with_path():
    with pytest.raises(ConfigError, match="unknown config key: lambda"):
        RunConfig.from_dict({"lambda": 0.1})
    with pytest.raises(ConfigError, match="loss.lamda"):
        RunConfig.from_dict({"loss": {"lamda": 0.1}})
    with pytest.raises(ConfigError, match="train.n_vals"):
        RunConfig.from_dict({"train": {"n_vals": 10}})


def test_section_must_be_object():
    with pytest.raises(ConfigError, match="expected a JSON object at loss"):
        RunConfig.from_dict({"loss": 0.1})
    with pytest.raises(ConfigError, match="top level"):
        RunConfig.from_dict([1, 2])


def test_type_coercion_stabilizes_hash():
    a = RunConfig.from_dict({"loss": {"p_fn": 5}})
    b = RunConfig.from_dict({"loss": {"p_fn": 5.0}})
    assert a.resolved == b.resolved
    assert a.config_hash == b.config_hash
    assert isinstance(a.resolved["loss"]["p_fn"], float)


def test_type_errors():
    with pytest.raises(ConfigError, match="loss.lam"):
        RunConfig.from_dict({"loss": {"lam": "high"}})
    with pytest.raises(ConfigError, match="train.n_val"):
        RunConfig.from_dict({"train": {"n_val": 9.5}})
    with pytest.raises(ConfigError, match="loss.variant"):
        RunConfig.from_dict({"loss": {"variant": 3}})
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"train": {"n_val": True}})
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"model": {"head_widths": 128}})
    with pytest.raises(ConfigError, match="head widths must be integers"):
        RunConfig.from_dict({"model": {"head_widths": [128.7]}})
    with pytest.raises(ConfigError, match="head widths must be integers"):
        RunConfig.from_dict({"model": {"head_widths": [True]}})
    for dim in ("abc", [3]):
        with pytest.raises(ConfigError, match="^model.input_dim must be an integer or null$"):
            RunConfig.from_dict({"model": {"input_dim": dim}})


def test_value_validation_happens_at_load():
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"loss": {"variant": "hinge"}})
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"train": {"validation": "holdout"}})
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"eval": {"persistence": 0}})
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"seed": -1})
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"out_dir": ""})
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"model": {"dropout_rate": 1.5}})
    with pytest.raises(ConfigError, match="threshold must be in"):
        RunConfig.from_dict({"pfi": {"threshold": 1.5}})
    with pytest.raises(ConfigError, match="threshold must be in"):
        RunConfig.from_dict({"pfi": {"threshold": float("nan")}})


def test_hash_ignores_out_dir():
    a = RunConfig.from_dict({"out_dir": "a"})
    b = RunConfig.from_dict({"out_dir": "b"})
    assert a.config_hash == b.config_hash
    assert len(a.config_hash) == 16
    int(a.config_hash, 16)  # hex digits only


def test_hash_tracks_computation_changes():
    base = RunConfig.from_dict({})
    assert RunConfig.from_dict({"seed": 1}).config_hash != base.config_hash
    assert RunConfig.from_dict({"loss": {"lam": 0.2}}).config_hash != base.config_hash
    # stable across processes and releases: pin the default hash
    assert base.config_hash == "6c75eebcf0206a28"
    assert base.stamp == {"config_hash": "6c75eebcf0206a28", "seed": 0}
    seeded = base.with_overrides(seed=3)
    assert seeded.stamp == {"config_hash": seeded.config_hash, "seed": 3}
    again = json.loads(json.dumps(base.resolved))
    assert RunConfig.from_dict(again).config_hash == base.config_hash


def test_with_overrides():
    base = RunConfig.from_dict({})
    cfg = base.with_overrides(seed=7, out_dir="elsewhere", loss={"lam": 0.01, "p_fn": 3})
    assert cfg.seed == 7
    assert cfg.out_dir == "elsewhere"
    assert cfg.loss_config().lam == 0.01
    assert cfg.loss_config().p_fn == 3.0
    assert isinstance(cfg.resolved["loss"]["p_fn"], float)  # coerced like file input
    # original untouched
    assert base.seed == 0 and base.loss_config().lam == 0.1
    # hash matches a config built the same way from scratch
    direct = RunConfig.from_dict({"seed": 7, "loss": {"lam": 0.01, "p_fn": 3.0}})
    assert cfg.config_hash == direct.config_hash


def test_with_overrides_rejects_unknowns():
    base = RunConfig.from_dict({})
    # loss is the one section a run overrides
    with pytest.raises(TypeError, match="optimizer"):
        base.with_overrides(optimizer={"lr": 1.0})
    with pytest.raises(ConfigError, match="loss.gamma"):
        base.with_overrides(loss={"gamma": 2.0})


def test_save_and_from_file(tmp_path):
    cfg = RunConfig.from_dict({"seed": 5, "data": {"train": "x.dset"}})
    p = tmp_path / "config.json"
    write_json(p, cfg.resolved, sort_keys=True)
    loaded = RunConfig.from_file(p)
    assert loaded.resolved == cfg.resolved
    assert loaded.config_hash == cfg.config_hash


def test_from_file_bad_json(tmp_path):
    p = tmp_path / "config.json"
    p.write_text("{not json")
    with pytest.raises(ConfigError, match="invalid JSON"):
        RunConfig.from_file(p)


def test_eval_settings_validation():
    with pytest.raises(ConfigError):
        EvalSettings(threshold=0.0)
    with pytest.raises(ConfigError):
        EvalSettings(epsilon=-0.1)
    with pytest.raises(ConfigError):
        EvalSettings(persistence=0)
    with pytest.raises(ConfigError):
        EvalSettings(error_metric="acc")
    e = EvalSettings(epsilon=0.0)
    assert e.epsilon == 0.0


@pytest.mark.parametrize("cls, field, value", [
    (TrainConfig, "batch_size", 2.5), (TrainConfig, "max_epochs", 1.5),
    (TrainConfig, "n_val", 10.5), (TrainConfig, "patience", True), (TrainConfig, "seed", 1.5),
    (TrainConfig, "batch_size", "16"), (PfiConfig, "n_repeats", 1.5), (PfiConfig, "seed", None),
    (EvalSettings, "persistence", 1.5), (EvalSettings, "persistence", False),
])
def test_integer_fields_reject_floats_and_bools(cls, field, value):
    with pytest.raises(ConfigError, match=f"^{field} must be an integer, got {value!r}$"):
        cls(**{field: value})


def test_integer_fields_are_stored_as_python_ints():
    t = TrainConfig(batch_size=np.int64(16), n_val=np.uint16(20), seed=np.int32(3))
    assert [type(v) for v in (t.batch_size, t.n_val, t.seed)] == [int, int, int]
    assert type(PfiConfig(n_repeats=np.int8(2)).n_repeats) is int
    assert type(EvalSettings(persistence=np.int64(3)).persistence) is int
