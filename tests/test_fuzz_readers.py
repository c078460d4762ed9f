"""Seeded mutation fuzz of the binary readers (``.dset`` and ``model.dnet``).

Each case starts from a valid file, mutates it (truncation at every chunk
or section boundary +-1, header byte flips, extreme header fields) and runs
``driftkit eval`` in process on it. Every case must exit 0, or exit 3 with
a message naming the mutated file; any other exception is a reader bug.
The ``.dset`` chunk is shrunk so a small file spans several chunks.
"""

import json
import math
import struct

import numpy as np
import pytest

from driftkit import data
from driftkit.cli import main
from driftkit.data import save_dataset
from driftkit.model import ModelConfig, init_model, layer_shapes, save_model
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


def _check(run, target, cases, capsys):
    """Write each (name, bytes) case over ``target`` and run eval on it."""
    for name, raw in cases:
        target.write_bytes(raw)
        try:
            code = main(["eval", "--config", str(run["config"])])
        except Exception as exc:  # a traceback at the command line
            pytest.fail(f"{target.name} case {name}: {type(exc).__name__}: {exc}")
        err = capsys.readouterr().err
        assert code in (0, 3), f"{target.name} case {name}: exit {code}: {err}"
        if code == 3:
            assert str(target) in err, f"{target.name} case {name}: {err}"


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
