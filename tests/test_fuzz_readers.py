"""Seeded mutation fuzz of the dataset and checkpoint readers.

Binary readers (``.dset`` and ``model.dnet``): each case starts from a
valid file, mutates it (truncation at every chunk or section boundary +-1,
header byte flips, extreme header fields) and runs ``driftkit eval`` in
process on it. Every case must exit 0, or exit 3 with a message naming the
mutated file; any other exception is a reader bug. The ``.dset`` chunk is
shrunk so a small file spans several chunks.

Text reader (``.csv``): the same harness, with text mutations drawn
from PCG64 (truncation, byte flips, NaN, huge and negative integers,
non-numbers, short rows, quotes). A row-width or header fault is a
ShapeError (exit 2); so every case exits 0, 2 or 3, and a failing one
names the file: by its path, or, for a timestamp past the year 9999, by
the dataset name the loader takes from it (its stem).

Feature mask (``data.mask``): the same text mutations of a mask JSON
file, run through ``driftkit train``. A mask of the wrong width is a
ShapeError (exit 2); every case exits 0, 2 or 3, and a failing one names
the mask file.

Run files (``history.json`` and ``metrics.json``): the same document
mutations, below, of a trained and evaluated run, run through ``driftkit
report``. Every case exits 0 or 3, and a failing one names the file.

Run config, drift spec and sweep grid: every value of a valid document
(sections and lists too) swapped for JSON values drawn from the list
above and wrapped one level deeper, and every object given an unknown
key, plus seeded truncations and byte flips; run through ``eval``,
``synth`` and ``sweep``. Every case exits 0, 2 or 3, and a failing one names the file.
The config's ``data`` paths are left alone, since another path is
another file, whose own reader names it. Huge spec sizes are left out
too: one the generator cannot allocate is a ConfigError, but a smaller
one could really allocate; ``tests/test_synthdrift.py`` covers both
with sizes refused before any allocation.
"""

import copy
import json
import math
import struct
from dataclasses import asdict

import numpy as np
import pytest

from driftkit import data
from driftkit.cli import main
from driftkit.config import RunConfig
from driftkit.data import FeatureMask, save_dataset
from driftkit.model import ModelConfig, init_model, layer_shapes, load_model, save_model
from driftkit.synthdrift import DriftSpec, generate_stream

_CHUNK = 4096
_MAX_DIM = (2**31 - 1 - 9) // 4


@pytest.fixture
def run(tmp_path, monkeypatch):
    """A valid stream and model, and an ``eval`` config reading them."""
    monkeypatch.setattr(data, "_CHUNK_BYTES", _CHUNK)
    spec = DriftSpec(n_months=4, samples_per_month=150, feature_dim=6, n_informative=2,
                     drift_month=2, seed=0)
    stream = tmp_path / "stream.dset"
    save_dataset(generate_stream(spec), stream)
    out = tmp_path / "run"
    out.mkdir()
    cfg = ModelConfig(input_dim=6, trunk_width=8, n_residual_blocks=1, head_widths=(4,))
    save_model(init_model(cfg, seed=0), out / "model.dnet", meta={"seed": 0})
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"out_dir": str(out), "data": {"eval": str(stream)}}))
    return {"stream": stream, "model": out / "model.dnet", "config": config, "cfg": cfg}


def _check(run, target, cases, capsys, codes=(0, 3), named=None, argv=("eval",)):
    """Write each (name, bytes) case over ``target`` and run ``argv``, by
    default with the run's ``--config``; a failing case's message must
    hold ``named``, by default the path."""
    named = str(target) if named is None else named
    if len(argv) == 1:
        argv = [*argv, "--config", str(run["config"])]
    for name, raw in cases:
        target.write_bytes(raw)
        try:
            code = main(list(argv))
        except Exception as exc:  # a traceback at the command line
            pytest.fail(f"{target.name} case {name}: {type(exc).__name__}: {exc}")
        err = capsys.readouterr().err
        assert code in codes, f"{target.name} case {name}: exit {code}: {err}"
        if code != 0:
            assert named in err, f"{target.name} case {name}: {err}"


def _truncations(raw, boundaries):
    cuts = sorted({c for b in boundaries for c in (b - 1, b, b + 1) if 0 <= c < len(raw)})
    return [(f"cut@{c}", raw[:c]) for c in cuts]


def _flips(raw, end, rng, n):
    out = []
    for pos in rng.integers(0, end, size=n):
        b = bytearray(raw)
        b[pos] ^= int(rng.integers(1, 256))
        out.append((f"flip@{pos}", bytes(b)))
    return out


def test_dset_reader_mutations(run, capsys):
    raw = run["stream"].read_bytes()
    dim, count = struct.unpack_from("<IQ", raw, 5)
    itemsize = 8 + 1 + 4 * dim
    step = _CHUNK // itemsize
    assert count > 3 * step
    rng = np.random.Generator(np.random.PCG64(1701))
    cases = _truncations(raw, [17 + k * step * itemsize for k in range(count // step + 1)]
                         + list(range(18)) + [len(raw)])
    cases += _flips(raw, 17, rng, 40)
    for d in (0, 1, dim - 1, dim + 1, _MAX_DIM, _MAX_DIM + 1, 2**31, 2**32 - 1):
        cases.append((f"dim={d}", raw[:5] + struct.pack("<I", d) + raw[9:]))
    for c in (0, 1, count - 1, count + 1, 2**63, 2**64 - 1):
        cases.append((f"count={c}", raw[:9] + struct.pack("<Q", c) + raw[17:]))
    cases.append(("valid", raw))
    _check(run, run["stream"], cases, capsys)


def test_dnet_reader_mutations(run, capsys):
    raw = run["model"].read_bytes()
    (hlen,) = struct.unpack_from("<I", raw, 5)
    sections = [0, 4, 5, 9, 9 + hlen]
    for _, shape in layer_shapes(run["cfg"]):
        sections.append(sections[-1] + 8 * math.prod(shape))
    assert sections[-1] == len(raw)
    rng = np.random.Generator(np.random.PCG64(1702))
    cases = _truncations(raw, sections + list(range(10)))
    cases += _flips(raw, 9 + hlen, rng, 80)
    for h in (0, 1, hlen - 1, hlen + 1, len(raw) - 9, len(raw) - 8, 2**31, 2**32 - 1):
        cases.append((f"hlen={h}", raw[:5] + struct.pack("<I", h) + raw[9:]))
    cases.append(("valid", raw))
    _check(run, run["model"], cases, capsys)


# values a mutation swaps in for a text field: NaN, infinities, huge and
# negative integers, labels off {0, 1}, non-numbers
_TEXT_VALUES = ["nan", "NaN", "inf", "-inf", "1e999", "", "x", "0.5", "-1", "2", "256",
                "-255", "9223372036854775807", "9223372036854775808",
                "-9223372036854775809", "99999999999999999999", "1" * 400]
# values a mutation swaps in for a JSON field, by type: each is a JSON
# literal json.loads accepts
_JSON_VALUES = ["null", "true", "false", '"1"', '""', "[]", "{}", "[[0.5]]", '{"ts": 1}',
                "0.5", "NaN", "Infinity", "-Infinity", "-1", "2", "256", "1e999",
                "9223372036854775808", "-9223372036854775809", "1" + "0" * 400]


def _text_stream(run, tmp_path):
    """Every tenth row of the fuzz stream as CSV text; eval reads it."""
    target = tmp_path / "fuzzed.csv"
    save_dataset(data.load_dataset(run["stream"]).subset(slice(None, None, 10)), target)
    cfg = json.loads(run["config"].read_text())
    cfg["data"]["eval"] = str(target)
    run["config"].write_text(json.dumps(cfg))
    return target


def _byte_cases(raw, rng, n):
    cases = [(f"cut@{c}", raw[:c]) for c in rng.integers(0, len(raw), size=n)]
    return cases + _flips(raw, len(raw), rng, n)


def test_csv_reader_mutations(run, tmp_path, capsys):
    target = _text_stream(run, tmp_path)
    raw = target.read_bytes()
    rows = [line.split(",") for line in raw.decode().splitlines()]
    rng = np.random.Generator(np.random.PCG64(1703))
    cases = _byte_cases(raw, rng, 25)
    for value in _TEXT_VALUES:
        # a data row's timestamp and label, and any cell, the header's too
        r = int(rng.integers(1, len(rows)))
        anywhere = (int(rng.integers(0, len(rows))), int(rng.integers(0, len(rows[0]))))
        for row, col in ((r, 0), (r, 1), anywhere):
            mutated = [list(line) for line in rows]
            mutated[row][col] = value
            text = "\n".join(",".join(line) for line in mutated) + "\n"
            cases.append((f"row{row}col{col}={value[:24]}", text.encode()))
    for name, text in [("no-header", "\n".join(",".join(row) for row in rows[1:])),
                       ("short-row", "\n".join(",".join(row) for row in rows) + "\n1,0\n"),
                       ("quote", raw.decode().replace(",", ',"', 1)),
                       ("nul", raw.decode().replace(",", "\0", 3))]:
        cases.append((name, text.encode()))
    cases.append(("valid", raw))
    _check(run, target, cases, capsys, codes=(0, 2, 3), named=target.stem)


# inputs the mask reader mishandled, each a named case: an infinite index
# and an integer past Python's digit limit ended in tracebacks, which this
# harness catches; "12", 1.7, true and 6.9 were read as indices (1, 2), 1
# and 1 and as original_dim 6, which the exit-3 cases of test_cli.py catch
_MASK_REGRESSIONS = [
    ("index-1e400", '{"original_dim": 6, "kept_indices": [1e400]}'),
    ("indices-string", '{"original_dim": 6, "kept_indices": "12"}'),
    ("index-float", '{"original_dim": 6, "kept_indices": [1.7]}'),
    ("index-bool", '{"original_dim": 6, "kept_indices": [true]}'),
    ("dim-float", '{"original_dim": 6.9, "kept_indices": [0, 1]}'),
    ("dim-digits", '{"original_dim": ' + "1" * 5000 + ', "kept_indices": [0]}'),
]


def test_mask_reader_mutations(run, tmp_path, capsys):
    target = tmp_path / "mask.json"
    mask = {"original_dim": 6, "kept_indices": [0, 2, 5]}
    raw = json.dumps(mask).encode()
    config = {"out_dir": str(tmp_path / "trained"),
              "data": {"train": str(run["stream"]), "mask": str(target)},
              "model": {"trunk_width": 4, "n_residual_blocks": 0, "head_widths": [2]},
              "train": {"n_val": 100, "batch_size": 500, "max_epochs": 1}}
    run["config"].write_text(json.dumps(config))
    rng = np.random.Generator(np.random.PCG64(1905))
    cases = _byte_cases(raw, rng, 8)
    for value in _JSON_VALUES:
        for key in ("original_dim", "kept_indices"):
            doc = json.dumps({**mask, key: "@"}).replace('"@"', value)
            cases.append((f"{key}={value[:24]}", doc.encode()))
        k = int(rng.integers(0, len(mask["kept_indices"])))
        kept = json.dumps(mask["kept_indices"][:k] + ["@"] + mask["kept_indices"][k + 1:])
        doc = json.dumps({**mask, "kept_indices": "#"}).replace('"#"', kept.replace('"@"', value))
        cases.append((f"kept_indices[{k}]={value[:24]}", doc.encode()))
    cases += [(name, doc.encode()) for name, doc in _MASK_REGRESSIONS]
    cases.append(("valid", raw))
    _check(run, target, cases, capsys, codes=(0, 2, 3), argv=("train",))
    # the valid case ran last, so the model it trained is the one on disk
    assert load_model(tmp_path / "trained" / "model.dnet").mask == FeatureMask((0, 2, 5), 6)


def _nodes(doc, path=()):
    """The path of every value under ``doc``, lists and objects too."""
    if isinstance(doc, (dict, list)):
        for key, value in doc.items() if isinstance(doc, dict) else enumerate(doc):
            yield path + (key,)
            yield from _nodes(value, path + (key,))


def _node(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _replaced(doc, path, literal):
    """``doc`` as JSON bytes, with the value at ``path`` (the whole document
    for ``()``) replaced by the JSON text ``literal``."""
    if not path:
        return literal.encode()
    doc = copy.deepcopy(doc)
    _node(doc, path[:-1])[path[-1]] = "@"
    return json.dumps(doc).replace('"@"', literal).encode()


def _document_cases(doc, rng, per_value, keep=lambda path, value: True, flip_end=None):
    """Mutations of the JSON document ``doc``: truncations and byte flips
    (before ``flip_end``), each value swapped for ``per_value`` of
    ``_JSON_VALUES`` drawn at random (those ``keep`` allows), wrapped in a
    list and in an object, and an unknown key in every object."""
    raw = json.dumps(doc).encode()
    cases = [(f"cut@{c}", raw[:c]) for c in rng.integers(0, len(raw), size=10)]
    cases += _flips(raw, flip_end or len(raw), rng, 30)
    for path in list(_nodes(doc)):
        where = ".".join(map(str, path))
        drawn = rng.choice(len(_JSON_VALUES), size=per_value, replace=False)
        cases += [(f"{where}={value[:24]}", _replaced(doc, path, value))
                  for value in (_JSON_VALUES[i] for i in sorted(drawn)) if keep(path, value)]
        node = json.dumps(_node(doc, path))
        cases += [(f"{where}=[...]", _replaced(doc, path, f"[{node}]")),
                  (f"{where}={{...}}", _replaced(doc, path, f'{{"{path[-1]}": {node}}}'))]
    for path in [()] + [p for p in _nodes(doc) if isinstance(_node(doc, p), dict)]:
        node = {**_node(doc, path), "colour": 1}
        cases.append((f"{'.'.join(map(str, path))}+colour", _replaced(doc, path, json.dumps(node))))
    return cases + [("valid", raw)]


def test_run_config_mutations(run, tmp_path, capsys):
    """Through ``eval``, which allocates nothing by the config's sizes."""
    doc = RunConfig.from_dict({}).resolved
    del doc["out_dir"]  # --out names the run directory
    doc["data"] = doc.pop("data")  # last, so the flips before it leave it alone
    doc["data"]["eval"] = str(run["stream"])
    target = run["config"]
    rng = np.random.Generator(np.random.PCG64(2001))
    cases = _document_cases(doc, rng, 6, keep=lambda path, value: path[0] != "data",
                            flip_end=json.dumps(doc).index('"data"'))
    # ended in an OverflowError traceback before this fuzz
    cases += [(f"{section}.{key}=10**400", _replaced(doc, (section, key), "1" + "0" * 400))
              for section, key in (("loss", "lam"), ("train", "lr"))]
    _check(run, target, cases, capsys, codes=(0, 2, 3),
           argv=["eval", "--config", str(target), "--out", str(run["model"].parent)])


# the drift spec's sizes: a huge value could really allocate, so none is drawn
_SPEC_SIZES = {"n_months", "samples_per_month", "feature_dim"}


def test_drift_spec_mutations(tmp_path, capsys):
    doc = asdict(DriftSpec(n_months=3, samples_per_month=20, feature_dim=4, n_informative=2,
                           drift_month=1))
    target = tmp_path / "spec.json"
    rng = np.random.Generator(np.random.PCG64(2002))
    cases = _document_cases(doc, rng, 10, keep=lambda path, value: not (
        path[0] in _SPEC_SIZES and value.lstrip("-").isdigit() and len(value) > 3))
    # ended in tracebacks before this fuzz: an OverflowError, numpy's
    # ValueError for a negative seed, and a year past 9999
    cases += [("drift_magnitude=10**400", _replaced(doc, ("drift_magnitude",), "1" + "0" * 400)),
              ("seed=-1", _replaced(doc, ("seed",), "-1")),
              ("start_month=9999-12", _replaced(doc, ("start_month",), '"9999-12"'))]
    _check(None, target, cases, capsys, codes=(0, 2, 3),
           argv=["synth", "--config", str(target), "--out", str(tmp_path / "synth")])


def test_sweep_grid_mutations(run, tmp_path, capsys):
    config = {"data": {"train": str(run["stream"])},
              "model": {"trunk_width": 4, "n_residual_blocks": 0, "head_widths": [2]},
              "train": {"n_val": 100, "batch_size": 500, "max_epochs": 1}}
    run["config"].write_text(json.dumps(config))
    doc = {"lambdas": [0.1], "penalty_pairs": [[5, 1]]}
    target = tmp_path / "grid.json"
    rng = np.random.Generator(np.random.PCG64(2003))
    cases = _document_cases(doc, rng, len(_JSON_VALUES))
    # ended in an OverflowError traceback, from the cell name, before this fuzz
    cases.append(("lambdas=[10**400]", _replaced(doc, ("lambdas",), "[1" + "0" * 400 + "]")))
    _check(run, target, cases, capsys, codes=(0, 2, 3),
           argv=["sweep", "--config", str(run["config"]), "--grid", str(target),
                 "--out", str(tmp_path / "sweep")])


@pytest.fixture
def evaluated(run, tmp_path):
    """A run directory with the history.json and metrics.json that a
    tiny ``train`` and ``eval`` wrote."""
    out = tmp_path / "evaluated"
    config = {"out_dir": str(out),
              "data": {"train": str(run["stream"]), "eval": str(run["stream"])},
              "model": {"trunk_width": 4, "n_residual_blocks": 0, "head_widths": [2]},
              "train": {"n_val": 100, "batch_size": 500, "max_epochs": 2}}
    run["config"].write_text(json.dumps(config))
    assert main(["train", "--config", str(run["config"])]) == 0
    assert main(["eval", "--config", str(run["config"])]) == 0
    return out


@pytest.mark.parametrize("name, seed", [("history.json", 2004), ("metrics.json", 2005)])
def test_run_file_mutations(evaluated, capsys, name, seed):
    target = evaluated / name
    doc = json.loads(target.read_text())
    rng = np.random.Generator(np.random.PCG64(seed))
    cases = _document_cases(doc, rng, 3)
    _check(None, target, cases, capsys, argv=["report", "--out", str(evaluated)])
