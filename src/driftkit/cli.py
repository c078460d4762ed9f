"""driftkit command line.

Subcommands:

  synth    generate a synthetic drifting stream from a drift-spec JSON
  train    train a model on data.train, write model.dnet + history.json
  pfi      score feature importance on data.pfi, write mask.json +
           pfi_report.csv
  eval     evaluate out_dir/model.dnet on data.eval by calendar month,
           write metrics.csv + metrics.json (model file is never touched)
  sweep    grid of training runs over lam and (p_fn, p_fp) pairs, one
           subdirectory per cell, consolidated sweep.csv
  report   consolidate histories/metrics under a run directory into
           report.csv + f1_over_time.csv

Shared flags: ``--config <file>`` (run config JSON; for synth it is the
drift-spec JSON), ``--seed <int>`` and ``--out <dir>`` override the file
values.

Exit codes: 0 success, 2 configuration problem, 3 data problem (missing
or malformed input, empty mask), 4 numeric divergence, 1 other failure.
"""

from __future__ import annotations

import argparse
import csv
import sys
from contextlib import contextmanager
from dataclasses import asdict
from pathlib import Path

from .config import RunConfig
from .data import (
    FeatureMask,
    apply_mask,
    atomic_open,
    bucket_by_month,
    compose_masks,
    load_dataset,
    read_json,
    save_dataset,
    write_json,
)
from .errors import (
    ConfigError,
    DataError,
    DriftkitError,
    EmptyMaskError,
    NumericError,
    ShapeError,
)
from .evaluation import detect_drift, evaluate_buckets
from .model import LoadedModel, load_model, save_model
from .pfi import run_pfi
from .synthdrift import DriftSpec, concept_truth, generate_stream
from .training import train

DEFAULT_LAMBDAS = (0.5, 0.1, 0.05, 0.01, 0.001)
DEFAULT_PENALTY_PAIRS = ((1.0, 1.0), (1.0, 3.0), (3.0, 1.0), (5.0, 1.0))


def _require_file(path, what: str) -> Path:
    p = Path(path)
    if not p.is_file():
        raise DataError(f"{what} not found: {p}")
    return p


def _load_run_config(args) -> RunConfig:
    if not args.config:
        raise ConfigError("--config is required for this command")
    p = Path(args.config)
    if not p.is_file():
        raise ConfigError(f"config file not found: {p}")
    cfg = RunConfig.from_file(p)
    return cfg.with_overrides(seed=args.seed, out_dir=args.out)


def _stamp(cfg: RunConfig) -> str:
    """The run stamp as the ``# ...`` comment line of a CSV artifact."""
    return " ".join(f"{key}={value}" for key, value in cfg.stamp.items())


def _out_dir(cfg: RunConfig) -> Path:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_input(cfg: RunConfig, role: str) -> "Dataset":
    path = cfg.data_path(role)
    if not path:
        raise ConfigError(f"data.{role} is required for this command")
    return load_dataset(_require_file(path, f"data.{role}"))


def _model_path(cfg: RunConfig) -> Path:
    return Path(cfg.out_dir) / "model.dnet"


def _load_run_model(cfg: RunConfig) -> LoadedModel:
    return load_model(_require_file(_model_path(cfg), "model file"))


def _apply_mask(cfg: RunConfig, role: str, ds, mask: FeatureMask, source: str):
    """``ds``, read from ``data.<role>``, with ``mask`` from ``source``
    applied; a width mismatch raises ShapeError naming both."""
    try:
        return apply_mask(ds, mask)
    except ShapeError as exc:
        raise ShapeError(
            f"data.{role} {cfg.data_path(role)}: {exc} (mask from {source})"
        ) from None


def _load_masked_input(cfg: RunConfig, model: LoadedModel, role: str):
    ds = _load_input(cfg, role)
    if model.mask is not None:
        ds = _apply_mask(cfg, role, ds, model.mask, f"model file {_model_path(cfg)}")
    if ds.feature_dim != model.params.cfg.input_dim:
        raise ConfigError(
            f"data.{role} {cfg.data_path(role)} has {ds.feature_dim} features after masking, "
            f"model expects {model.params.cfg.input_dim}"
        )
    return ds


def _wrote(path: Path) -> None:
    print(f"wrote {path}")


def cmd_synth(args) -> int:
    if not args.config:
        raise ConfigError("--config <drift-spec JSON> is required")
    if not args.out:
        raise ConfigError("--out <dir> is required")
    p = Path(args.config)
    if not p.is_file():
        raise ConfigError(f"drift spec file not found: {p}")
    raw = read_json(p, ConfigError)
    if args.seed is not None:
        raw["seed"] = args.seed
    try:
        spec = DriftSpec.from_dict(raw)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    ds = generate_stream(spec)
    save_dataset(ds, out / "stream.dset")
    write_json(out / "truth.json", concept_truth(spec))
    _wrote(out / "stream.dset")
    _wrote(out / "truth.json")
    return 0


def _run_train(cfg: RunConfig) -> "TrainHistory":
    ds = _load_input(cfg, "train")
    mask = None
    mask_path = cfg.data_path("mask")
    if mask_path:
        mask = FeatureMask.load(_require_file(mask_path, "data.mask"))
        ds = _apply_mask(cfg, "train", ds, mask, f"data.mask {mask_path}")
    model_cfg = cfg.model_config(input_dim=ds.feature_dim)
    params, history = train(ds, model_cfg, cfg.train_config())
    out = _out_dir(cfg)
    meta = {
        **cfg.stamp,
        "best_epoch": history.best_epoch,
        "best_score": history.best_score,
        "selection_metric": cfg.train_config().selection_metric,
        "n_train": history.n_train,
        "n_val": history.n_val,
    }
    save_model(params, out / "model.dnet", mask=mask, meta=meta)
    write_json(out / "history.json", {**asdict(history), **cfg.stamp})
    write_json(out / "config.json", cfg.resolved, sort_keys=True)
    return history


def cmd_train(args) -> int:
    cfg = _load_run_config(args)
    _run_train(cfg)
    out = Path(cfg.out_dir)
    for name in ("model.dnet", "history.json", "config.json"):
        _wrote(out / name)
    return 0


def cmd_pfi(args) -> int:
    cfg = _load_run_config(args)
    model = _load_run_model(cfg)
    ds = _load_masked_input(cfg, model, "pfi")
    out = _out_dir(cfg)
    try:
        mask, report = run_pfi(model.params, ds.features, ds.labels, cfg.pfi_config())
    except EmptyMaskError as exc:
        if exc.report is not None:
            exc.report.write_csv(out / "pfi_report.csv", comment=_stamp(cfg))
            _wrote(out / "pfi_report.csv")
        raise
    if model.mask is not None:
        mask = compose_masks(model.mask, mask)
    write_json(out / "mask.json", {**mask.to_dict(), **cfg.stamp})
    report.write_csv(out / "pfi_report.csv", comment=_stamp(cfg))
    _wrote(out / "mask.json")
    _wrote(out / "pfi_report.csv")
    return 0


def _run_eval(cfg: RunConfig) -> tuple:
    model = _load_run_model(cfg)
    ds = _load_masked_input(cfg, model, "eval")
    settings = cfg.eval_settings()
    report = evaluate_buckets(model.params, bucket_by_month(ds), threshold=settings.threshold)
    verdict = detect_drift(
        report.error_series(settings.error_metric),
        epsilon=settings.epsilon,
        persistence=settings.persistence,
    )
    out = _out_dir(cfg)
    report.write_csv(out / "metrics.csv", comment=_stamp(cfg))
    write_json(out / "metrics.json", {**report.to_json(), "drift": asdict(verdict), **cfg.stamp})
    return report, verdict


def cmd_eval(args) -> int:
    cfg = _load_run_config(args)
    _report, verdict = _run_eval(cfg)
    out = Path(cfg.out_dir)
    _wrote(out / "metrics.csv")
    _wrote(out / "metrics.json")
    onset = "none" if verdict.onset is None else str(verdict.onset)
    print(f"drift onset: {onset} (epsilon={verdict.epsilon}, persisted={verdict.persisted})")
    return 0


def _load_grid(path) -> tuple[list, list]:
    if path is None:
        return list(DEFAULT_LAMBDAS), [list(p) for p in DEFAULT_PENALTY_PAIRS]
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"grid file not found: {p}")
    raw = read_json(p, ConfigError)
    unknown = set(raw) - {"lambdas", "penalty_pairs"}
    if unknown:
        raise ConfigError(f"unknown grid key: {sorted(unknown)[0]}")
    lambdas = raw.get("lambdas", list(DEFAULT_LAMBDAS))
    pairs = raw.get("penalty_pairs", [list(p) for p in DEFAULT_PENALTY_PAIRS])
    if not _numbers(lambdas):
        raise ConfigError(f"grid lambdas must be a non-empty list of numbers, got {lambdas!r}")
    if not (isinstance(pairs, list) and pairs and all(_numbers(p, 2) for p in pairs)):
        raise ConfigError(
            f"grid penalty_pairs must be a non-empty list of [p_fn, p_fp], got {pairs!r}"
        )
    return lambdas, pairs


def _numbers(value, length: int | None = None) -> bool:
    """Whether ``value`` is a non-empty list of numbers, ``length`` long if given."""
    if not isinstance(value, list) or not value or length not in (None, len(value)):
        return False
    return all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in value)


def _cell_name(lam: float, p_fn: float, p_fp: float) -> str:
    return f"lam{lam:g}_fn{p_fn:g}_fp{p_fp:g}"


def cmd_sweep(args) -> int:
    cfg = _load_run_config(args)
    lambdas, pairs = _load_grid(args.grid)
    base_out = _out_dir(cfg)
    rows = []
    for lam in lambdas:
        for p_fn, p_fp in pairs:
            cell = _cell_name(lam, p_fn, p_fp)
            cell_cfg = cfg.with_overrides(
                out_dir=str(base_out / cell),
                loss={"lam": lam, "p_fn": p_fn, "p_fp": p_fp},
            )
            history = _run_train(cell_cfg)
            cell_loss = cell_cfg.loss_config()
            row = {
                "cell": cell,
                "lam": cell_loss.lam,
                "p_fn": cell_loss.p_fn,
                "p_fp": cell_loss.p_fp,
                "config_hash": cell_cfg.config_hash,
                "best_epoch": history.best_epoch,
                "best_score": history.best_score,
                "agg_acc": "",
                "agg_f1": "",
                "agg_fnr": "",
                "drift_onset": "",
            }
            if cfg.data_path("eval"):
                report, verdict = _run_eval(cell_cfg)
                agg = report.aggregate
                row["agg_acc"] = agg.acc
                row["agg_f1"] = "" if agg.f1 is None else agg.f1
                row["agg_fnr"] = "" if agg.fnr is None else agg.fnr
                row["drift_onset"] = "" if verdict.onset is None else verdict.onset
            rows.append(row)
            print(f"cell {cell}: best_score={history.best_score:.4f}")
    sweep_csv = base_out / "sweep.csv"
    with atomic_open(sweep_csv, newline="") as fh:
        fh.write(f"# {_stamp(cfg)}\n")
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    _wrote(sweep_csv)
    return 0


REPORT_FIELDS = (
    "model",
    "config_hash",
    "seed",
    "epochs_run",
    "best_epoch",
    "best_score",
    "agg_acc",
    "agg_f1",
    "agg_fnr",
    "drift_onset",
    "drift_persisted",
)


@contextmanager
def _run_file(path: Path):
    """The JSON object in a run's ``path``; malformed content, read or
    used inside the block, raises DataError naming the file."""
    try:
        yield read_json(path, DataError)
    except (OSError, ValueError, AttributeError, KeyError, TypeError) as exc:
        raise DataError(f"{path}: malformed run file: {exc}") from None


def _report_rows(run_dir: Path) -> tuple[list, list]:
    """Rows of report.csv and f1_over_time.csv for every run under
    ``run_dir``, all read before anything is written."""
    rows, over_time = [], []
    for hist_path in sorted(run_dir.rglob("history.json")):
        name = str(hist_path.parent.relative_to(run_dir)) or "."
        row = dict.fromkeys(REPORT_FIELDS, "")
        with _run_file(hist_path) as h:
            row.update(
                model=name,
                config_hash=h.get("config_hash", ""),
                seed=h.get("seed", ""),
                epochs_run=len(h.get("train_loss", [])),
                best_epoch=h.get("best_epoch", ""),
                best_score=h.get("best_score", ""),
            )
        metrics_path = hist_path.parent / "metrics.json"
        if metrics_path.is_file():
            with _run_file(metrics_path) as m:
                agg = m.get("aggregate", {})
                verdict = m.get("drift") or {}
                row.update(
                    agg_acc=_blank_none(agg.get("acc")),
                    agg_f1=_blank_none(agg.get("f1")),
                    agg_fnr=_blank_none(agg.get("fnr")),
                    drift_onset=_blank_none(verdict.get("onset")),
                    drift_persisted=_blank_none(verdict.get("persisted")),
                )
                for b in m.get("buckets", []):
                    for metric in ("f1", "acc", "err"):
                        over_time.append([name, b["bucket"], metric, _blank_none(b.get(metric))])
        rows.append(row)
    return rows, over_time


def cmd_report(args) -> int:
    if not args.out:
        raise ConfigError("--out <run-dir> is required")
    run_dir = Path(args.out)
    if not run_dir.is_dir():
        raise DataError(f"run directory not found: {run_dir}")
    rows, over_time = _report_rows(run_dir)
    if not rows:
        raise DataError(f"no history.json found under {run_dir}")

    report_csv = run_dir / "report.csv"
    with atomic_open(report_csv, newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=REPORT_FIELDS)
        writer.writeheader()
        writer.writerows(rows)
    over_time_csv = run_dir / "f1_over_time.csv"
    with atomic_open(over_time_csv, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["model", "bucket", "metric", "value"])
        writer.writerows(over_time)
    _wrote(report_csv)
    _wrote(over_time_csv)
    return 0


def _blank_none(v):
    return "" if v is None else v


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="driftkit",
        description="Train, prune, and evaluate drift-resilient binary classifiers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = [
        ("synth", cmd_synth, "generate a synthetic drifting stream"),
        ("train", cmd_train, "train a model"),
        ("pfi", cmd_pfi, "permutation feature importance and mask"),
        ("eval", cmd_eval, "monthly evaluation and drift detection"),
        ("sweep", cmd_sweep, "grid of training runs over loss settings"),
        ("report", cmd_report, "consolidate run artifacts"),
    ]
    for name, func, help_text in commands:
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", help="config JSON (drift spec for synth)")
        sp.add_argument("--seed", type=int, default=None, help="override the config seed")
        sp.add_argument("--out", default=None, help="override the output directory")
        if name == "sweep":
            sp.add_argument("--grid", default=None, help="grid JSON file")
        sp.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ShapeError) as exc:
        return _fail(exc, 2)
    except NumericError as exc:
        return _fail(exc, 4)
    except DataError as exc:
        return _fail(exc, 3)
    except DriftkitError as exc:
        return _fail(exc, 1)


def _fail(exc: Exception, code: int) -> int:
    print(f"driftkit: error: {exc}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
