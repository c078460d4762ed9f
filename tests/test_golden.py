"""Golden bytes: a fixed tiny training run must write the exact same
checkpoint and history, under the same config hash. Any change to
initialization, the forward/backward arithmetic, the optimizer's
operation order, the loss or the DNET layout shows up here as a
different digest; a change to the config schema or its hashing shows up
as a different ``config_hash``.

The digests were recorded with float64 numpy on OpenBLAS; a BLAS build that
rounds matrix products differently gives different bytes, so on such a
platform re-record them from an unmodified checkout before using them as a
gate.
"""

import hashlib
import json
from pathlib import Path

from driftkit.cli import main

GOLDEN_MODEL_SHA256 = "b8e9f14754ffc9ff72ac9bae50454509af110550534711d192ab154ce81bd3f7"
# per-epoch train/val loss, accuracy, F1, FNR, FPR and the selection outcome
GOLDEN_HISTORY_SHA256 = "ce2e8883ceb620fd4598854d8ece3b014e2145583f76c430b4a1ed6ce04f9ded"
GOLDEN_CONFIG_HASH = "be67f0d2eb8264c5"

SPEC = {
    "shape": "sudden",
    "n_months": 4,
    "samples_per_month": 120,
    "feature_dim": 5,
    "n_informative": 2,
    "drift_month": 2,
    "seed": 11,
}

RUN = {
    "seed": 5,
    "model": {"trunk_width": 12, "n_residual_blocks": 1,
              "dropout_rate": 0.2, "head_widths": [6]},
    "loss": {"lam": 0.05},
    "train": {"n_val": 80, "batch_size": 32, "max_epochs": 4, "patience": 4,
              "lr": 5e-3, "weight_decay": 1e-2},
}


def digest(name):
    return hashlib.sha256(Path("run", name).read_bytes()).hexdigest()


def test_fixed_run_writes_golden_model_bytes(tmp_path, monkeypatch):
    # relative paths: the data path is part of the config hash in the header
    monkeypatch.chdir(tmp_path)
    Path("spec.json").write_text(json.dumps(SPEC))
    assert main(["synth", "--config", "spec.json", "--out", "synth"]) == 0
    Path("run.json").write_text(
        json.dumps(dict(RUN, out_dir="run", data={"train": "synth/stream.dset"})))
    assert main(["train", "--config", "run.json"]) == 0
    assert digest("model.dnet") == GOLDEN_MODEL_SHA256
    assert digest("history.json") == GOLDEN_HISTORY_SHA256
    assert json.loads(Path("run/history.json").read_text())["config_hash"] == GOLDEN_CONFIG_HASH
