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
import sys
from contextlib import contextmanager
from dataclasses import asdict
from pathlib import Path

from .config import RunConfig
from .data import (
    FeatureMask,
    apply_mask,
    bucket_by_month,
    compose_masks,
    load_dataset,
    read_json,
    save_dataset,
    write_csv,
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


def _load_run_config(args) -> RunConfig:
    if not args.config:
        raise ConfigError("--config is required for this command")
    return RunConfig.from_file(args.config).with_overrides(seed=args.seed, out_dir=args.out)


@contextmanager
def _naming_config(args):
    """A ConfigError raised in the block, found after the run config was
    read (a missing data path, an n_val beyond the data), names that file.
    The path stays out of the resolved config, so no hash moves."""
    try:
        yield
    except ConfigError as exc:
        raise ConfigError(f"{args.config}: {exc}") from None


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
    return load_dataset(path)


def _model_path(cfg: RunConfig) -> Path:
    return Path(cfg.out_dir) / "model.dnet"


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
    raw = read_json(args.config, ConfigError)
    if args.seed is not None:
        raw["seed"] = args.seed
    try:
        spec = DriftSpec.from_dict(raw)
    except (ConfigError, TypeError) as exc:
        raise ConfigError(f"{args.config}: {exc}") from None
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with _naming_config(args):
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
        mask = FeatureMask.load(mask_path)
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
    with _naming_config(args):
        _run_train(cfg)
    out = Path(cfg.out_dir)
    for name in ("model.dnet", "history.json", "config.json"):
        _wrote(out / name)
    return 0


def cmd_pfi(args) -> int:
    cfg = _load_run_config(args)
    model = load_model(_model_path(cfg))
    with _naming_config(args):
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


def _run_eval(cfg: RunConfig) -> dict:
    """Evaluate the run's model on data.eval; the metrics.json document."""
    model = load_model(_model_path(cfg))
    ds = _load_masked_input(cfg, model, "eval")
    settings = cfg.eval_settings()
    report = evaluate_buckets(model.params, bucket_by_month(ds), threshold=settings.threshold)
    verdict = detect_drift(
        report.error_series(settings.error_metric),
        epsilon=settings.epsilon,
        persistence=settings.persistence,
    )
    out = _out_dir(cfg)
    doc = {**report.to_json(), "drift": asdict(verdict), **cfg.stamp}
    report.write_csv(out / "metrics.csv", comment=_stamp(cfg))
    write_json(out / "metrics.json", doc)
    return doc


def cmd_eval(args) -> int:
    cfg = _load_run_config(args)
    with _naming_config(args):
        drift = _run_eval(cfg)["drift"]
    out = Path(cfg.out_dir)
    _wrote(out / "metrics.csv")
    _wrote(out / "metrics.json")
    onset = "none" if drift["onset"] is None else str(drift["onset"])
    print(f"drift onset: {onset} (epsilon={drift['epsilon']}, persisted={drift['persisted']})")
    return 0


def _load_grid(path) -> tuple[list, list]:
    if path is None:
        return list(DEFAULT_LAMBDAS), [list(p) for p in DEFAULT_PENALTY_PAIRS]
    raw = read_json(path, ConfigError)
    unknown = set(raw) - {"lambdas", "penalty_pairs"}
    if unknown:
        raise ConfigError(f"{path}: unknown grid key: {sorted(unknown)[0]}")
    lambdas = raw.get("lambdas", list(DEFAULT_LAMBDAS))
    pairs = raw.get("penalty_pairs", [list(p) for p in DEFAULT_PENALTY_PAIRS])
    if not _numbers(lambdas):
        raise ConfigError(
            f"{path}: grid lambdas must be a non-empty list of finite numbers, got {lambdas!r}"
        )
    if not (isinstance(pairs, list) and pairs and all(_numbers(p, 2) for p in pairs)):
        raise ConfigError(
            f"{path}: grid penalty_pairs must be a non-empty list of [p_fn, p_fp], got {pairs!r}"
        )
    return lambdas, pairs


def _numbers(value, length: int | None = None) -> bool:
    """Whether ``value`` is a non-empty list of finite numbers, ``length``
    long if given (abs() <= max fails NaN, inf and integers beyond float64)."""
    if not isinstance(value, list) or not value or length not in (None, len(value)):
        return False
    return all(
        isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= sys.float_info.max
        for v in value
    )


def _cell_name(lam: float, p_fn: float, p_fp: float) -> str:
    return f"lam{lam:g}_fn{p_fn:g}_fp{p_fp:g}"


# the cells _eval_columns fills, in sweep.csv and report.csv alike
EVAL_FIELDS = ("agg_acc", "agg_f1", "agg_fnr", "drift_onset")
SWEEP_FIELDS = ("cell", "lam", "p_fn", "p_fp", "config_hash", "best_epoch", "best_score",
                *EVAL_FIELDS)
REPORT_FIELDS = ("model", "config_hash", "seed", "epochs_run", "best_epoch", "best_score",
                 *EVAL_FIELDS, "drift_persisted")


def _eval_columns(doc: dict) -> list:
    """The EVAL_FIELDS cells of a metrics.json document; None is an empty cell."""
    agg, drift = doc.get("aggregate", {}), doc.get("drift") or {}
    return [agg.get("acc"), agg.get("f1"), agg.get("fnr"), drift.get("onset")]


def cmd_sweep(args) -> int:
    cfg = _load_run_config(args)
    lambdas, pairs = _load_grid(args.grid)
    # every cell's config is built, and so checked, before any cell trains
    cells = []
    for lam in lambdas:
        for p_fn, p_fp in pairs:
            name = _cell_name(lam, p_fn, p_fp)
            try:
                cell_cfg = cfg.with_overrides(
                    out_dir=str(Path(cfg.out_dir) / name),
                    loss={"lam": lam, "p_fn": p_fn, "p_fp": p_fp},
                )
            except ConfigError as exc:
                raise ConfigError(f"{args.grid}: cell {name}: {exc}") from None
            cells.append((name, cell_cfg))
    base_out = _out_dir(cfg)
    rows = []
    for name, cell_cfg in cells:
        with _naming_config(args):
            history = _run_train(cell_cfg)
            metrics = _run_eval(cell_cfg) if cfg.data_path("eval") else {}
        loss = cell_cfg.loss_config()
        rows.append([name, loss.lam, loss.p_fn, loss.p_fp, cell_cfg.config_hash,
                     history.best_epoch, history.best_score, *_eval_columns(metrics)])
        print(f"cell {name}: best_score={history.best_score:.4f}")
    write_csv(base_out / "sweep.csv", SWEEP_FIELDS, rows, comment=_stamp(cfg))
    _wrote(base_out / "sweep.csv")
    return 0


@contextmanager
def _run_file(path: Path):
    """The JSON object in a run's ``path``; malformed content, read or
    used inside the block, raises DataError naming the file."""
    try:
        yield read_json(path, DataError)
    except (ValueError, AttributeError, KeyError, TypeError) as exc:
        raise DataError(f"{path}: malformed run file: {exc}") from None


def _report_rows(run_dir: Path) -> tuple[list, list]:
    """Rows of report.csv and f1_over_time.csv for every run under
    ``run_dir``, all read before anything is written."""
    rows, over_time = [], []
    for hist_path in sorted(run_dir.rglob("history.json")):
        name = str(hist_path.parent.relative_to(run_dir)) or "."
        with _run_file(hist_path) as h:
            row = [name, h.get("config_hash"), h.get("seed"), len(h.get("train_loss", [])),
                   h.get("best_epoch"), h.get("best_score")]
        metrics_path = hist_path.parent / "metrics.json"
        if not metrics_path.is_file():
            rows.append(row + _eval_columns({}) + [None])
            continue
        with _run_file(metrics_path) as m:
            rows.append(row + [*_eval_columns(m), (m.get("drift") or {}).get("persisted")])
            for b in m.get("buckets", []):
                for metric in ("f1", "acc", "err"):
                    over_time.append([name, b["bucket"], metric, b.get(metric)])
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

    write_csv(run_dir / "report.csv", REPORT_FIELDS, rows)
    write_csv(run_dir / "f1_over_time.csv", ["model", "bucket", "metric", "value"], over_time)
    _wrote(run_dir / "report.csv")
    _wrote(run_dir / "f1_over_time.csv")
    return 0


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
