"""Every artifact reaches disk through ``data.atomic_open``: a write that
fails half-way leaves the previous file byte for byte and no temporary
behind, and no other code in the package opens a file for writing."""

import ast
import json
from pathlib import Path

import pytest

import driftkit
import driftkit.data as data_module
from driftkit.cli import main
from driftkit.data import save_dataset
from driftkit.model import save_model

from conftest import make_dataset, tiny_model

real_open = open


class DiskFull:
    """File that accepts 64 bytes and then fails, like a full disk."""

    def __init__(self, *args, **kwargs):
        self.fh = real_open(*args, **kwargs)
        self.room = 64

    def write(self, data):
        n = len(data.encode()) if isinstance(data, str) else memoryview(data).nbytes
        if n > self.room:
            raise OSError(28, "No space left on device")
        self.room -= n
        return self.fh.write(data)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


def disk_full_for(name):
    """``open`` that hands out a DiskFull for ``name`` (or its temporary)
    and a real file for everything else."""

    def open_(file, *args, **kwargs):
        full = Path(file).name.lstrip(".").startswith(name)
        return (DiskFull if full else real_open)(file, *args, **kwargs)

    return open_


SPEC = {"shape": "sudden", "n_months": 4, "samples_per_month": 100, "feature_dim": 5,
        "n_informative": 2, "drift_month": 2, "informative_scale": 2.0}
RUN = {"model": {"trunk_width": 8, "n_residual_blocks": 1, "dropout_rate": 0.0,
                 "head_widths": [4]},
       "train": {"n_val": 50, "batch_size": 64, "max_epochs": 2, "lr": 5e-3},
       "pfi": {"n_repeats": 1, "keep_threshold": -1.0}}


def write_dataset(ext):
    def write(root, seed):
        path = root / f"stream{ext}"
        save_dataset(make_dataset(n=30, seed=seed), path)
        return path

    return write


def write_model(root, seed):
    path = root / "model.dnet"
    save_model(tiny_model(seed=seed), path)
    return path


def run_cli(name, commands):
    """Run ``commands`` on one synthetic run with ``seed``; each seed gives
    other bytes, since every artifact carries it."""

    def write(root, seed):
        spec = root / "spec.json"
        spec.write_text(json.dumps({**SPEC, "seed": seed}))
        run = root / "run"
        stream = str(root / "stream.dset")
        cfg = root / "run.json"
        cfg.write_text(json.dumps({**RUN, "seed": seed, "out_dir": str(run),
                                   "data": {"train": stream, "pfi": stream, "eval": stream}}))
        if not (root / "stream.dset").exists():
            save_dataset(make_dataset(n=200, dim=5), root / "stream.dset")
        for command in commands:
            if command == "synth":
                argv = ["synth", "--config", str(spec), "--out", str(root / "synth")]
            elif command == "report":
                argv = ["report", "--out", str(run)]
            elif command == "sweep":
                grid = root / "grid.json"
                grid.write_text(json.dumps({"lambdas": [0.1], "penalty_pairs": [[5, 1]]}))
                argv = ["sweep", "--config", str(cfg), "--grid", str(grid)]
            else:
                argv = [command, "--config", str(cfg)]
            assert main(argv) == 0
        return (root / "synth" if commands == ["synth"] else run) / name

    return write


ARTIFACTS = {
    "model.dnet": write_model,
    "stream.dset": write_dataset(".dset"),
    "stream.csv": write_dataset(".csv"),
    "mask.json": run_cli("mask.json", ["train", "pfi"]),
    "history.json": run_cli("history.json", ["train"]),
    "metrics.json": run_cli("metrics.json", ["train", "eval"]),
    "config.json": run_cli("config.json", ["train"]),
    "truth.json": run_cli("truth.json", ["synth"]),
    "pfi_report.csv": run_cli("pfi_report.csv", ["train", "pfi"]),
    "metrics.csv": run_cli("metrics.csv", ["train", "eval"]),
    "report.csv": run_cli("report.csv", ["train", "report"]),
    "f1_over_time.csv": run_cli("f1_over_time.csv", ["train", "eval", "report"]),
    "sweep.csv": run_cli("sweep.csv", ["sweep"]),
}


@pytest.mark.parametrize("name", list(ARTIFACTS))
def test_failed_write_leaves_previous_artifact_intact(tmp_path, monkeypatch, name):
    write = ARTIFACTS[name]
    path = write(tmp_path, 1)
    assert path.name == name
    good = path.read_bytes()

    monkeypatch.setattr(data_module, "open", disk_full_for(name), raising=False)
    with pytest.raises(OSError, match="No space"):
        write(tmp_path, 2)
    monkeypatch.undo()
    assert path.read_bytes() == good
    assert [p.name for p in path.parent.iterdir() if p.name.startswith(".")] == []
    # the write that failed would have changed the file
    write(tmp_path, 2)
    assert path.read_bytes() != good


WRITE_MODE = set("wax+")


def file_writes(tree, allowed=None):
    """Line numbers of every call in ``tree``, outside the ``allowed``
    function, that may write a file: ``.write_text``/``.write_bytes``, a
    method ``.open``, or ``open`` with a mode that is not a read-only
    literal."""
    skip = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == allowed:
            skip.update(id(n) for n in ast.walk(node))
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or id(node) in skip:
            continue
        func = node.func
        if isinstance(func, ast.Attribute):
            if func.attr in ("write_text", "write_bytes", "open"):
                lines.append(node.lineno)
        elif isinstance(func, ast.Name) and func.id == "open":
            modes = node.args[1:2] + [k.value for k in node.keywords if k.arg == "mode"]
            if any(not (isinstance(m, ast.Constant) and isinstance(m.value, str))
                   or WRITE_MODE & set(m.value) for m in modes):
                lines.append(node.lineno)
    return lines


def test_guard_sees_every_kind_of_write():
    writes = "open(p, 'w')\nopen(p, mode)\nopen(p, mode='ab')\nopen(p, 'r+')\n" \
             "Path(p).write_text('x')\nq.write_bytes(b'')\nPath(p).open('x')\n"
    assert file_writes(ast.parse(writes)) == [1, 2, 3, 4, 5, 6, 7]
    reads = "open(p)\nopen(p, 'rb')\nopen(p, newline='')\nopen(p, mode='r')\n"
    assert file_writes(ast.parse(reads)) == []
    wrapped = "def atomic_open(p):\n    open(p, 'w')\n"
    assert file_writes(ast.parse(wrapped), allowed="atomic_open") == []


def test_only_atomic_open_opens_files_for_writing():
    sources = sorted(Path(driftkit.__file__).parent.glob("*.py"))
    assert len(sources) > 10
    offenders = {}
    for src in sources:
        tree = ast.parse(src.read_text(), filename=str(src))
        lines = file_writes(tree, allowed="atomic_open" if src.name == "data.py" else None)
        if lines:
            offenders[src.name] = lines
    assert offenders == {}
    # the one writer is seen when it is not exempt
    assert len(file_writes(ast.parse((sources[0].parent / "data.py").read_text()))) == 1


def test_only_data_imports_csv():
    """CSV artifacts are laid out in one place, ``data.write_csv``."""
    importers = []
    for src in sorted(Path(driftkit.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(src.read_text(), filename=str(src))):
            names = []
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module]
            if "csv" in names:
                importers.append(src.name)
    assert importers == ["data.py"]
