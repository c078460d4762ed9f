"""The benchmark's named workloads.

Each workload is one drift spec (what ``driftkit synth`` generates) plus
one run config (what ``train``, ``pfi`` and ``eval`` read). The row,
feature, epoch and repeat counts are fixed, and ``patience`` equals
``max_epochs`` so training never stops early: the work done in a run does
not depend on the seed, only the generated values do.

``tiny`` scales every workload down to a size the smoke test can run in
about a second; it keeps the same shapes of stream and model.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    spec: dict  # DriftSpec fields, without the seed
    train_months: tuple  # [first, last) months written to train.dset
    pfi_months: tuple  # [first, last) months written to pfi.dset
    run: dict  # run config sections, without seed, out_dir and data
    setup_repeats: int  # set-ups per run; setup_s is their median
    onset_exact: bool  # drift onset must equal drift_month, not just >= it

    @property
    def n_rows(self) -> int:
        return self.spec["n_months"] * self.spec["samples_per_month"]

    def rows(self, months: tuple) -> range:
        spm = self.spec["samples_per_month"]
        return range(months[0] * spm, months[1] * spm)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="pipeline_default",
            why="ROADMAP baseline: default model, sudden drift; BLAS-bound training and PFI, 9 MB checkpoint",
            spec=dict(shape="sudden", n_months=12, samples_per_month=2000, feature_dim=30,
                      n_informative=6, drift_month=6),
            train_months=(0, 6),
            pfi_months=(6, 8),
            run={
                "model": {"trunk_width": 512, "n_residual_blocks": 2, "head_widths": [128]},
                "train": {"n_val": 1000, "batch_size": 256, "max_epochs": 3, "patience": 3,
                          "lr": 1e-3},
                "pfi": {"n_repeats": 2},
            },
            setup_repeats=11,
            onset_exact=True,
        ),
        Workload(
            name="train_small_batch",
            why="narrow model, batch 16, ~5.5k steps: per-call Python overhead (AdamW, glue) dominates, not BLAS",
            spec=dict(shape="gradual", n_months=12, samples_per_month=2000, feature_dim=30,
                      n_informative=6, drift_month=6),
            train_months=(0, 6),
            pfi_months=(6, 8),
            run={
                "model": {"trunk_width": 64, "n_residual_blocks": 2, "head_widths": [32]},
                "train": {"n_val": 1000, "batch_size": 16, "max_epochs": 8, "patience": 8,
                          "lr": 1e-3},
                "pfi": {"n_repeats": 2},
            },
            setup_repeats=11,
            onset_exact=False,
        ),
        Workload(
            name="score_wide",
            why="120 features, 48 months: inference-only model use (PFI, eval, bucketing); training is negligible",
            spec=dict(shape="recurrent", n_months=48, samples_per_month=1500, feature_dim=120,
                      n_informative=6, drift_month=24),
            train_months=(0, 3),
            pfi_months=(3, 5),
            run={
                "model": {"trunk_width": 256, "n_residual_blocks": 1, "head_widths": [64]},
                "train": {"n_val": 500, "batch_size": 64, "max_epochs": 1, "patience": 1,
                          "lr": 3e-3},
                "pfi": {"n_repeats": 3},
            },
            setup_repeats=7,
            onset_exact=False,
        ),
    )
}


def tiny(w: Workload) -> Workload:
    """The same workload at smoke-test size."""
    spec = dict(w.spec, samples_per_month=400, feature_dim=min(w.spec["feature_dim"], 12))
    run = copy.deepcopy(w.run)
    run["model"].update(trunk_width=16, head_widths=[8])
    run["train"].update(n_val=100, batch_size=32, max_epochs=3, patience=3, lr=1e-2)
    return Workload(
        name=w.name,
        why=w.why,
        spec=spec,
        train_months=w.train_months,
        pfi_months=w.pfi_months,
        run=run,
        setup_repeats=2,
        onset_exact=False,
    )
