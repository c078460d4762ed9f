"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py

For every workload, an untraced and a traced run must print every metric
that ``BENCHMARK.json`` names, with its unit, pass every output check, and
report the same artifact digests (tracing must not change model bytes).
Without driftkit sources next to it, the benchmark must fail and print no
result.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SECTIONS = {0: "end_to_end", 1: "per_layer"}


def _run(cwd: Path, workload: str, trace: int, scale: str = "tiny"):
    cmd = SPEC["command"] + ["--workload", workload, "--seed", "3", "--seconds", "1",
                             "--trace", str(trace), "--scale", scale]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def _digests(stdout: str) -> dict:
    return {line.split()[1]: line.split()[2] for line in stdout.splitlines()
            if line.startswith("sha256 ")}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_reports_every_metric_and_passes_checks(workload):
    digests = {}
    for trace, section in SECTIONS.items():
        proc = _run(ROOT, workload, trace)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True, proc.stdout
        assert result["failed"] == 0 and result["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in SPEC[section]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == expected
        digests[trace] = _digests(proc.stdout)
    assert set(digests[0]) == {"model.dnet", "mask.json", "pfi_report.csv", "metrics.json"}
    assert digests[0] == digests[1]


def test_fails_without_driftkit_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, SPEC["workloads"][0]["name"], 0, scale="full")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
