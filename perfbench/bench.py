"""One benchmark run of one workload: measure, check, report (see run.py)."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
from pathlib import Path
from time import perf_counter

import numpy as np

from driftkit import kernels

from pipeline import Pipeline
from spans import MATMUL_CONTEXTS, Tracer
from workloads import WORKLOADS, tiny

OUT = Path(".perfbench_out")  # under the checkout root, the working directory
MIN_CYCLES = 3

END_TO_END = {
    "setup_s": "s",
    "train_s": "s",
    "pfi_s": "s",
    "eval_s": "s",
    "pipeline_s": "s",
    "peak_rss_mb": "MiB",
}

# counts that depend only on the workload, never on the seed or the timing
EXACT_COUNTS = (
    ["training.steps", "pfi.permuted_rows", "kernels.adamw_update.calls"]
    + [f"numerics.matmul.{c}.gflop" for c in MATMUL_CONTEXTS]
)


def _per_layer_units() -> dict:
    units = {
        "synthdrift.generate_stream.s": "s",
        "data.save_dataset.s": "s",
        "data.save_dataset.bytes": "bytes",
        "data.load_dataset.s": "s",
        "data.load_dataset.bytes": "bytes",
        "data.bucket_by_month.s": "s",
        "training.train.s": "s",
        "training.self_s": "s",
        "training.steps": "count",
        "training.epochs_run": "count",
        "training.useful_epoch_ratio": "ratio",
        "model.forward.train.s": "s",
        "model.forward.train.self_s": "s",
        "model.forward.val.s": "s",
        "model.backward.s": "s",
        "model.backward.self_s": "s",
        "model.adamw_step.s": "s",
        "model.adamw_step.ms_per_step": "ms",
        "model.predict_proba.pfi.s": "s",
        "model.predict_proba.pfi.rows": "count",
        "model.predict_proba.eval.s": "s",
        "model.predict_proba.eval.rows": "count",
        "model.save_model.s": "s",
        "model.save_model.bytes": "bytes",
        "model.load_model.s": "s",
    }
    for c in MATMUL_CONTEXTS:
        units.update({
            f"numerics.matmul.{c}.s": "s",
            f"numerics.matmul.{c}.calls": "count",
            f"numerics.matmul.{c}.gflop": "GFLOP",
            f"numerics.matmul.{c}.gflops": "GFLOP/s",
            f"numerics.matmul.{c}.peak_frac": "ratio",
        })
    units.update({
        "numerics.dropout_mask.s": "s",
        "numerics.dropout_mask.calls": "count",
        "blas.dgemm_peak_gflops": "GFLOP/s",
        "kernels.adamw_update.s": "s",
        "kernels.adamw_update.calls": "count",
        "kernels.sigmoid.s": "s",
        "kernels.sigmoid.calls": "count",
        "losses.loss_value.s": "s",
        "losses.loss_grad.s": "s",
        "losses.calls": "count",
        "pfi.run_pfi.s": "s",
        "pfi.run_pfi.self_s": "s",
        "pfi.permuted_rows": "count",
        "evaluation.evaluate_buckets.s": "s",
        "evaluation.evaluate_buckets.self_s": "s",
        "evaluation.confusion.s": "s",
        "cli.train.self_s": "s",
        "cli.pfi.self_s": "s",
        "cli.eval.self_s": "s",
        "trace.pipeline_s": "s",
        "trace.overhead_s": "s",
        "trace.overhead_frac": "ratio",
        "trace.spans_per_cycle": "count",
    })
    return units


PER_LAYER = _per_layer_units()


def environment(root: Path) -> dict:
    files = sorted((root / "src").rglob("*.py"))
    digest, lines = hashlib.sha256(), 0
    for p in files:
        data = p.read_bytes()
        digest.update(p.relative_to(root).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    git_sha = None
    if (root / ".git").exists():
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                           text=True, timeout=60)
        git_sha = r.stdout.strip() or None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    return {
        "git_sha": git_sha,
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "kernels_backend": kernels.backend(),
        "threads": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "DRIFTKIT_THREADS", "DRIFTKIT_NUMBA")},
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def dgemm_peak_gflops(n: int = 2048, repeats: int = 3) -> float:
    """Best of ``repeats`` float64 n x n products, in GFLOP/s."""
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((n, n)), rng.standard_normal((n, n))
    a @ b
    best = float("inf")
    for _ in range(repeats):
        t0 = perf_counter()
        a @ b
        best = min(best, perf_counter() - t0)
    return 2.0 * n**3 / best / 1e9


def _get(agg: dict, name: str, key: str):
    return agg.get(name, {}).get(key, 0)


def _cycle_layers(agg: dict, record: dict, peak: float) -> dict:
    def s(name, key="s"):
        return _get(agg, name, key)

    def calls(name):
        return _get(agg, name, "calls")

    def count(name):
        return _get(agg, name, "count")

    m = {
        "data.load_dataset.s": s("data.load_dataset"),
        "data.load_dataset.bytes": count("data.load_dataset"),
        "data.bucket_by_month.s": s("data.bucket_by_month"),
        "training.train.s": s("training.train"),
        "training.self_s": s("training.train", "self_s"),
        "training.steps": calls("model.adamw_step"),
        "training.epochs_run": record["epochs_run"],
        "training.useful_epoch_ratio": (record["best_epoch"] + 1) / record["epochs_run"],
        "model.forward.train.s": s("model.forward.train"),
        "model.forward.train.self_s": s("model.forward.train", "self_s"),
        "model.forward.val.s": s("model.forward.val"),
        "model.backward.s": s("model.backward"),
        "model.backward.self_s": s("model.backward", "self_s"),
        "model.adamw_step.s": s("model.adamw_step"),
        "model.adamw_step.ms_per_step": 1e3 * s("model.adamw_step") / calls("model.adamw_step"),
        "model.predict_proba.pfi.s": s("model.predict_proba.pfi"),
        "model.predict_proba.pfi.rows": count("model.predict_proba.pfi"),
        "model.predict_proba.eval.s": s("model.predict_proba.eval"),
        "model.predict_proba.eval.rows": count("model.predict_proba.eval"),
        "model.save_model.s": s("model.save_model"),
        "model.save_model.bytes": count("model.save_model"),
        "model.load_model.s": s("model.load_model"),
        "numerics.dropout_mask.s": s("numerics.dropout_mask"),
        "numerics.dropout_mask.calls": calls("numerics.dropout_mask"),
        "blas.dgemm_peak_gflops": peak,
        "kernels.adamw_update.s": s("kernels.adamw_update"),
        "kernels.adamw_update.calls": calls("kernels.adamw_update"),
        "kernels.sigmoid.s": s("kernels.sigmoid"),
        "kernels.sigmoid.calls": calls("kernels.sigmoid"),
        "losses.loss_value.s": s("losses.loss_value"),
        "losses.loss_grad.s": s("losses.loss_grad"),
        "losses.calls": calls("losses.loss_value") + calls("losses.loss_grad"),
        "pfi.run_pfi.s": s("pfi.run_pfi"),
        "pfi.run_pfi.self_s": s("pfi.run_pfi", "self_s"),
        "pfi.permuted_rows": count("pfi.run_pfi"),
        "evaluation.evaluate_buckets.s": s("evaluation.evaluate_buckets"),
        "evaluation.evaluate_buckets.self_s": s("evaluation.evaluate_buckets", "self_s"),
        "evaluation.confusion.s": s("evaluation.confusion"),
        "cli.train.self_s": s("cli.train", "self_s"),
        "cli.pfi.self_s": s("cli.pfi", "self_s"),
        "cli.eval.self_s": s("cli.eval", "self_s"),
        "trace.spans_per_cycle": sum(v["calls"] for v in agg.values()),
    }
    for c in MATMUL_CONTEXTS:
        name = f"numerics.matmul.{c}"
        secs, gflop = s(name), count(name) / 1e9
        gflops = gflop / secs if secs > 0 else 0.0
        m.update({
            f"{name}.s": secs,
            f"{name}.calls": calls(name),
            f"{name}.gflop": gflop,
            f"{name}.gflops": gflops,
            f"{name}.peak_frac": gflops / peak,
        })
    return m


def _setup_layers(agg: dict) -> dict:
    return {
        "synthdrift.generate_stream.s": _get(agg, "synthdrift.generate_stream", "s"),
        "data.save_dataset.s": _get(agg, "data.save_dataset", "s"),
        "data.save_dataset.bytes": _get(agg, "data.save_dataset", "count"),
    }


def _medians(rows: list) -> dict:
    return {k: statistics.median(r[k] for r in rows) for k in rows[0]}


def _roadmap_rows(layers: dict, traced: list, n_train: int, epochs: int) -> list:
    """Rows of the ROADMAP baseline table, from the traced medians."""
    train = layers["training.train.s"]
    matmul = sum(layers[f"numerics.matmul.{c}.s"] for c in ("train_fwd", "train_bwd", "train_val"))
    flop = sum(layers[f"numerics.matmul.{c}.gflop"] for c in ("train_fwd", "train_bwd", "train_val"))
    glue = layers["model.forward.train.self_s"] + layers["model.backward.self_s"]
    pfi_s = statistics.median(r["pfi_s"] for r in traced)
    eval_s = statistics.median(r["eval_s"] for r in traced)

    def share(x):
        return f"{100 * x / train:.0f}%"

    return [
        ("train, total", train, "100%", f"{n_train * epochs / train:.0f} samples/s"),
        ("train, matmul", matmul, share(matmul),
         f"{flop / matmul:.0f} GFLOP/s; dgemm peak {layers['blas.dgemm_peak_gflops']:.0f}"),
        ("train, AdamW", layers["model.adamw_step.s"], share(layers["model.adamw_step.s"]), ""),
        ("train, dropout masks", layers["numerics.dropout_mask.s"],
         share(layers["numerics.dropout_mask.s"]), ""),
        ("train, forward/backward glue", glue, share(glue), ""),
        ("PFI", pfi_s, "-",
         f"{layers['numerics.matmul.pfi.gflop'] / pfi_s:.0f} GFLOP/s over the stage; "
         f"matmul {layers['numerics.matmul.pfi.gflops']:.0f} GFLOP/s"),
        ("eval", eval_s, "-", f"{layers['model.predict_proba.eval.rows']:.0f} rows"),
    ]


def run(args) -> int:
    """Set up, measure and check one workload; print the report and the
    result line. Returns the exit code."""
    w = WORKLOADS[args.workload]
    if args.scale == "tiny":
        w = tiny(w)
    root = Path.cwd()
    tracer = Tracer() if args.trace else None
    pipe = Pipeline(w, args.seed, OUT / "work" / w.name, tracer)
    env = environment(root)
    peak = dgemm_peak_gflops() if tracer else None

    setups, setup_layers = [], []
    for _ in range(w.setup_repeats):
        if tracer:
            tracer.install()
            mark = tracer.mark()
        setups.append(pipe.setup())
        if tracer:
            tracer.uninstall()
            setup_layers.append(_setup_layers(tracer.aggregate(mark)))
        if pipe.failures:
            break

    untraced, traced = [], []
    deadline = perf_counter() + args.seconds
    needed = MIN_CYCLES + 1 if tracer else MIN_CYCLES
    while not pipe.failures:
        trace_this = tracer is not None and len(untraced) > len(traced)
        if trace_this:
            tracer.install()
            mark = tracer.mark()
        t0 = perf_counter()
        record = pipe.cycle()
        wall = perf_counter() - t0
        if trace_this:
            tracer.uninstall()
        if record is None:
            break
        if trace_this:
            record["layers"] = _cycle_layers(tracer.aggregate(mark), record, peak)
            traced.append(record)
        else:
            untraced.append(record)
        record["wall_s"] = wall
        done = len(untraced) + len(traced)
        typical = statistics.median(r["wall_s"] for r in untraced + traced)
        if done >= needed and perf_counter() + typical > deadline:
            break

    if traced:
        for name in EXACT_COUNTS:
            seen = sorted({r["layers"][name] for r in traced})
            pipe.check(f"count {name}", [] if len(seen) == 1 else [f"differs across cycles: {seen}"])
    measured = untraced + traced

    result = {
        "workload": w.name,
        "scale": args.scale,
        "seed": args.seed,
        "trace": args.trace,
        "environment": env,
        "setups_s": setups,
        "cycles": measured,
        "digests": pipe.digests,
        "failures": pipe.failures,
    }
    if tracer:
        result["trace_id"] = tracer.trace_id
    metrics = {}
    if measured and not tracer:
        e2e = _medians([{k: r[k] for k in ("train_s", "pfi_s", "eval_s", "pipeline_s")}
                        for r in untraced])
        e2e["setup_s"] = statistics.median(setups)
        e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END.items()}
    elif traced:
        layers = _medians([r["layers"] for r in traced])
        layers.update(_medians(setup_layers))
        traced_s = statistics.median(r["pipeline_s"] for r in traced)
        untraced_s = statistics.median(r["pipeline_s"] for r in untraced)
        layers["trace.pipeline_s"] = traced_s
        layers["trace.overhead_s"] = traced_s - untraced_s
        layers["trace.overhead_frac"] = (traced_s - untraced_s) / untraced_s
        metrics = {k: {"value": layers[k], "unit": u} for k, u in PER_LAYER.items()}
        result["roadmap_table"] = _roadmap_rows(layers, traced, traced[0]["n_train"],
                                                traced[0]["epochs_run"])
        trace_dir = OUT / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        tracer.write(trace_dir / f"{w.name}.npz")
    result["metrics"] = metrics

    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    result_path = results_dir / f"{w.name}-{args.scale}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(result, indent=1) + "\n")

    _report(result, result_path)
    if not metrics:
        return 1
    print(json.dumps({"correct": pipe.failed == 0, "attempted": pipe.attempted,
                      "failed": pipe.failed, "metrics": metrics}))
    return 0


def _report(result: dict, path: Path) -> None:
    print(f"workload {result['workload']} ({result['scale']}) seed {result['seed']} "
          f"trace {result['trace']}: {len(result['cycles'])} cycles, "
          f"{len(result['setups_s'])} set-ups")
    print("environment " + json.dumps(result["environment"], sort_keys=True))
    for name, digest in sorted(result["digests"].items()):
        print(f"sha256 {name} {digest}")
    for f in result["failures"]:
        print(f"FAILED {f}")
    for name, m in result["metrics"].items():
        print(f"{name:<40} {m['value']:>14.6g} {m['unit']}")
    for row in result.get("roadmap_table", []):
        print(f"roadmap | {row[0]:<28} | {row[1]:8.3f} s | {row[2]:>4} | {row[3]}")
    print(f"result record: {path}")
