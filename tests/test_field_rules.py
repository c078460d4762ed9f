"""The field rules of the config dataclasses.

Every field of the six config dataclasses states its type and range once,
as a ``Rule`` in its metadata, or is named in ``UNRULED``. Each ruled field
is driven through its dataclass and through the JSON path that builds it
(``RunConfig.from_dict`` for the run-config sections, ``DriftSpec.from_dict``
for the drift spec) with a bool, NaN, +-inf, a wrong JSON type, one step
outside each finite end of its interval and, for a real or choice field,
10**400. Each must fail with the one message form, naming the key with its
section. An integer field's interval has no upper end, so 10**400 is in
range there; sizes numpy cannot address are refused by cross-field checks
(``test_model.py``, ``test_synthdrift.py``).
"""

import math
from dataclasses import fields

import pytest

from driftkit.config import _SCHEMA, _SECTIONS, EvalSettings, RunConfig
from driftkit.errors import ConfigError
from driftkit.losses import LossConfig
from driftkit.model import ModelConfig
from driftkit.pfi import PfiConfig
from driftkit.synthdrift import DriftSpec
from driftkit.training import TrainConfig

CLASSES = [*_SECTIONS.values(), DriftSpec]
PREFIX = {**{cls: f"{name}." for name, cls in _SECTIONS.items()}, DriftSpec: ""}
# rules that stay code: a nested config, a list of widths, and a 'YYYY-MM'
# string whose years depend on n_months
UNRULED = {("TrainConfig", "loss"), ("ModelConfig", "head_widths"),
           ("DriftSpec", "start_month")}
RULED = [(cls, f.name) for cls in CLASSES for f in fields(cls) if "rule" in f.metadata]


def _rule(cls, key):
    return next(f.metadata["rule"] for f in fields(cls) if f.name == key)


def _bad_values(rule) -> list:
    values = [True, False, math.nan, math.inf, -math.inf]
    if rule.kind == "choice":
        return values + [1, 10**400, rule.choices[0].upper()]
    values += ["1", [1]] + ([1.5] if rule.kind == "integer" else [10**400])
    for end, is_open, away in ((rule.lo, rule.lo_open, -math.inf), (rule.hi, rule.hi_open, math.inf)):
        if not math.isfinite(end):
            continue
        if is_open:
            values.append(end)
        elif rule.kind == "integer":
            values.append(int(end) + (1 if away > 0 else -1))
        else:
            values.append(math.nextafter(end, away))
    return values


def _outcome(build, value) -> str:
    try:
        build(value)
    except ConfigError as exc:
        return str(exc)
    return "accepted"


def _json_path(cls, key):
    """How a JSON document sets ``key``, or None if it is no config key."""
    if cls is DriftSpec:
        return lambda value: DriftSpec.from_dict({key: value})
    section = PREFIX[cls][:-1]
    if key in _SCHEMA[section]:
        return lambda value: RunConfig.from_dict({section: {key: value}})
    return None


def test_every_field_states_its_rule_or_is_named_here():
    unruled = {(cls.__name__, f.name) for cls in CLASSES for f in fields(cls)
               if "rule" not in f.metadata}
    assert unruled == UNRULED


@pytest.mark.parametrize("cls, key", RULED, ids=[f"{c.__name__}.{k}" for c, k in RULED])
def test_ruled_field_refuses_by_name_in_dataclass_and_json(cls, key):
    rule = _rule(cls, key)
    values = _bad_values(rule)
    expected = {repr(v): f"{PREFIX[cls]}{key} must be {rule}, got {v!r}" for v in values}
    base = {"input_dim": 3} if cls is ModelConfig else {}
    built = {repr(v): _outcome(lambda v: cls(**{**base, key: v}), v) for v in values}
    assert built == expected
    from_json = _json_path(cls, key)
    if from_json is not None:
        assert {repr(v): _outcome(from_json, v) for v in values} == expected


@pytest.mark.parametrize("cls, key, value", [
    # accepted once, as each field's check had its own spelling
    (LossConfig, "lam", True), (LossConfig, "lam", 10**400), (TrainConfig, "lr", True),
    (PfiConfig, "keep_threshold", True), (EvalSettings, "epsilon", 10**400),
    # a bare TypeError or OverflowError once
    (LossConfig, "lam", "x"), (TrainConfig, "threshold", "a"),
    (PfiConfig, "keep_threshold", 10**400),
])
def test_values_that_slipped_past_the_old_checks(cls, key, value):
    with pytest.raises(ConfigError, match=f"^{PREFIX[cls]}{key} must be "):
        cls(**{key: value})


@pytest.mark.parametrize("cls", list(_SECTIONS.values()), ids=lambda cls: cls.__name__)
def test_closed_ends_are_accepted(cls):
    base = {"input_dim": 3} if cls is ModelConfig else {}
    for f in fields(cls):
        rule = f.metadata.get("rule")
        if rule is None or rule.kind == "choice":
            continue
        for end in [e for e, is_open in ((rule.lo, rule.lo_open), (rule.hi, rule.hi_open))
                    if math.isfinite(e) and not is_open]:
            value = int(end) if rule.kind == "integer" else end
            assert getattr(cls(**{**base, f.name: value}), f.name) == value
