"""One workload's pipeline, driven through the public driftkit CLI in
process: set-up (``synth`` plus the train/pfi inputs and the run config),
then cycles of ``train`` -> ``pfi`` -> ``eval``, one client, each stage
started after the previous one ends.

Every stage is one operation. It fails when the CLI does not exit 0 or
when its outputs fail a check:

* train: ``model.dnet`` loads, every tensor is finite, every epoch ran;
* pfi:   ``mask.json`` keeps every informative column of ``truth.json``;
* eval:  one bucket per month, pooled ``n`` equals the stream's rows, and
         the drift onset is null or at/after ``drift_month`` (exactly
         ``drift_month`` where the workload says so);
* all:   the sha256 of each artifact equals the one from the first cycle,
         since one seed and one config must give the same bytes.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import shutil
from pathlib import Path
from time import perf_counter

import numpy as np

from driftkit import cli
from driftkit.model import load_model

from workloads import Workload

ARTIFACTS = {
    "train": ("model.dnet",),
    "pfi": ("mask.json", "pfi_report.csv"),
    "eval": ("metrics.json",),
}


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Pipeline:
    """Set-up and stage cycles of one workload in ``workdir``."""

    def __init__(self, workload: Workload, seed: int, workdir: Path, tracer=None):
        self.w = workload
        self.seed = seed
        self.tracer = tracer
        self.data = workdir / "data"
        self.out = workdir / "run"
        self.spec_path = self.data / "driftspec.json"
        self.config_path = self.data / "run.json"
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.digests: dict[str, str] = {}
        self.informative: list[int] = []
        if workdir.exists():
            shutil.rmtree(workdir)
        workdir.mkdir(parents=True)

    # -- operations -----------------------------------------------------

    def check(self, what: str, problems: list) -> bool:
        """Count one operation; it failed if ``problems`` is not empty."""
        self.attempted += 1
        self.failed += bool(problems)
        self.failures += [f"{what}: {p}" for p in problems]
        return not problems

    def _span(self, name: str):
        return self.tracer.span(name) if self.tracer else contextlib.nullcontext()

    def _cli(self, *argv: str):
        """Run one CLI command in process; returns (exit code, seconds, stderr)."""
        err = io.StringIO()
        t0 = perf_counter()
        with self._span(f"cli.{argv[0]}"), contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            try:
                code = cli.main(list(argv))
            except Exception as exc:  # a traceback is a failed operation, not a crash
                code = f"{type(exc).__name__}: {exc}"
        return code, perf_counter() - t0, err.getvalue().strip()

    def _digest_problems(self, stage: str) -> list:
        problems = []
        for name in ARTIFACTS[stage]:
            digest = sha256(self.out / name)
            if self.digests.setdefault(name, digest) != digest:
                problems.append(f"{name} sha256 {digest} differs from the first cycle's")
        return problems

    # -- set-up ---------------------------------------------------------

    def setup(self) -> float:
        """synth, then the train/pfi inputs and the run config; seconds.

        Each set-up starts from an empty directory. Rewriting a file in
        place is slower on file systems that flush a truncated file on
        close (ext4), and a fresh directory is what a new run sees.
        """
        shutil.rmtree(self.data, ignore_errors=True)
        self.data.mkdir()
        with self._span("setup"):
            t0 = perf_counter()
            self.spec_path.write_text(json.dumps(self.w.spec))
            code, _, err = self._cli("synth", "--config", str(self.spec_path),
                                     "--out", str(self.data), "--seed", str(self.seed))
            problems = [] if code == 0 else [f"exit {code} {err}"]
            if not problems:
                stream = cli.load_dataset(self.data / "stream.dset")
                for role, months in (("train", self.w.train_months), ("pfi", self.w.pfi_months)):
                    rows = self.w.rows(months)
                    cli.save_dataset(stream.subset(np.arange(rows.start, rows.stop)),
                                     self.data / f"{role}.dset")
                config = {
                    "seed": self.seed,
                    "out_dir": str(self.out),
                    "data": {"train": str(self.data / "train.dset"),
                             "pfi": str(self.data / "pfi.dset"),
                             "eval": str(self.data / "stream.dset")},
                    **self.w.run,
                }
                self.config_path.write_text(json.dumps(config, indent=2))
            seconds = perf_counter() - t0
        if not problems:
            if len(stream) != self.w.n_rows:
                problems.append(f"stream has {len(stream)} rows, expected {self.w.n_rows}")
            truth = json.loads((self.data / "truth.json").read_text())
            self.informative = truth["informative_indices"]
        self.check("setup", problems)
        return seconds

    # -- stages ---------------------------------------------------------

    def train(self) -> tuple[bool, float, dict]:
        code, seconds, err = self._cli("train", "--config", str(self.config_path))
        if code != 0:
            return self.check("train", [f"exit {code} {err}"]), seconds, {}
        problems = []
        loaded = load_model(self.out / "model.dnet")
        bad = [n for n, t in loaded.params.tensors.items() if not np.all(np.isfinite(t))]
        if bad:
            problems.append(f"non-finite tensors in model.dnet: {bad}")
        history = json.loads((self.out / "history.json").read_text())
        epochs = len(history["train_loss"])
        if epochs != self.w.run["train"]["max_epochs"]:
            problems.append(f"ran {epochs} epochs, expected {self.w.run['train']['max_epochs']}")
        info = {"epochs_run": epochs, "best_epoch": history["best_epoch"],
                "n_train": history["n_train"]}
        problems += self._digest_problems("train")
        return self.check("train", problems), seconds, info

    def pfi(self) -> tuple[bool, float, dict]:
        code, seconds, err = self._cli("pfi", "--config", str(self.config_path))
        if code != 0:
            return self.check("pfi", [f"exit {code} {err}"]), seconds, {}
        mask = json.loads((self.out / "mask.json").read_text())
        kept = set(mask["kept_indices"])
        problems = [f"mask drops informative column {i}" for i in self.informative
                    if i not in kept]
        with open(self.out / "pfi_report.csv", newline="") as fh:
            rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
        if len(rows) - 1 != self.w.spec["feature_dim"]:
            problems.append(f"pfi_report.csv has {len(rows) - 1} feature rows")
        problems += self._digest_problems("pfi")
        return self.check("pfi", problems), seconds, {"kept": len(kept)}

    def eval(self) -> tuple[bool, float, dict]:
        code, seconds, err = self._cli("eval", "--config", str(self.config_path))
        if code != 0:
            return self.check("eval", [f"exit {code} {err}"]), seconds, {}
        m = json.loads((self.out / "metrics.json").read_text())
        problems = []
        if len(m["buckets"]) != self.w.spec["n_months"]:
            problems.append(f"{len(m['buckets'])} buckets for {self.w.spec['n_months']} months")
        if m["aggregate"]["n"] != self.w.n_rows:
            problems.append(f"pooled n {m['aggregate']['n']} != {self.w.n_rows} rows")
        onset, drift_month = m["drift"]["onset"], self.w.spec["drift_month"]
        if onset is not None and onset < drift_month:
            problems.append(f"drift onset {onset} before drift_month {drift_month}")
        if self.w.onset_exact and onset != drift_month:
            problems.append(f"drift onset {onset} != drift_month {drift_month}")
        problems += self._digest_problems("eval")
        return self.check("eval", problems), seconds, {"onset": onset}

    def cycle(self) -> dict | None:
        """train -> pfi -> eval into an empty run directory; stage seconds
        and details, or None on a failure."""
        shutil.rmtree(self.out, ignore_errors=True)
        record = {}
        for stage in (self.train, self.pfi, self.eval):
            ok, seconds, info = stage()
            if not ok:
                return None
            record[f"{stage.__name__}_s"] = seconds
            record.update(info)
        record["pipeline_s"] = record["train_s"] + record["pfi_s"] + record["eval_s"]
        return record
