import json
import shutil
import struct
import subprocess

import pytest

from driftkit.cli import main
from driftkit.data import Dataset, FeatureMask, bucket_by_month, load_dataset, save_dataset
from driftkit.errors import ConfigError
from driftkit.model import load_model
from driftkit.synthdrift import DriftSpec

DRIFT_SPEC = {
    "shape": "sudden",
    "n_months": 4,
    "samples_per_month": 150,
    "feature_dim": 6,
    "n_informative": 2,
    "drift_month": 2,
    "drift_magnitude": 1.0,
    "informative_scale": 2.0,
    "seed": 0,
}

RUN_CONFIG = {
    "seed": 0,
    "model": {"trunk_width": 16, "n_residual_blocks": 1,
              "dropout_rate": 0.1, "head_widths": [8]},
    "train": {"n_val": 100, "batch_size": 64, "max_epochs": 6,
              "patience": 6, "lr": 5e-3},
    "pfi": {"n_repeats": 3},
    "eval": {"epsilon": 0.25, "persistence": 2},
}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """synth + train + pfi + eval executed once; tests inspect the artifacts."""
    root = tmp_path_factory.mktemp("cli")
    spec_path = root / "spec.json"
    spec_path.write_text(json.dumps(DRIFT_SPEC))
    assert main(["synth", "--config", str(spec_path), "--out", str(root / "synth")]) == 0

    stream = str(root / "synth" / "stream.dset")
    cfg = dict(RUN_CONFIG)
    cfg["out_dir"] = str(root / "run1")
    cfg["data"] = {"train": stream, "eval": stream, "pfi": stream, "mask": None}
    cfg_path = root / "run.json"
    cfg_path.write_text(json.dumps(cfg))

    assert main(["train", "--config", str(cfg_path)]) == 0
    assert main(["pfi", "--config", str(cfg_path)]) == 0
    model_before_eval = (root / "run1" / "model.dnet").read_bytes()
    assert main(["eval", "--config", str(cfg_path)]) == 0
    return {"root": root, "spec_path": spec_path, "cfg_path": cfg_path,
            "cfg": cfg, "run": root / "run1", "stream": stream,
            "model_before_eval": model_before_eval}


def test_synth_outputs(workdir):
    synth = workdir["root"] / "synth"
    ds = load_dataset(synth / "stream.dset")
    assert len(ds) == 600 and ds.feature_dim == 6
    truth = json.loads((synth / "truth.json").read_text())
    assert len(truth["informative_indices"]) == 2
    assert [m["label"] for m in truth["months"]][0] == "2021-01"


def test_train_artifacts(workdir):
    run = workdir["run"]
    model = load_model(run / "model.dnet")
    assert model.params.cfg.input_dim == 6
    assert model.mask is None
    hist = json.loads((run / "history.json").read_text())
    assert hist["seed"] == 0
    assert len(hist["config_hash"]) == 16
    assert model.meta["config_hash"] == hist["config_hash"]
    assert 1 <= len(hist["train_loss"]) <= 6
    saved_cfg = json.loads((run / "config.json").read_text())
    assert saved_cfg["train"]["n_val"] == 100


def test_pfi_artifacts(workdir):
    run = workdir["run"]
    mask = FeatureMask.load(run / "mask.json")
    assert mask.original_dim == 6
    truth = json.loads((workdir["root"] / "synth" / "truth.json").read_text())
    # the two genuinely informative columns must survive the cut
    assert set(truth["informative_indices"]) <= set(mask.kept_indices)
    lines = (run / "pfi_report.csv").read_text().splitlines()
    assert lines[0].startswith("# config_hash=")
    assert lines[1] == "feature_index,importance,kept"
    assert len(lines) == 2 + 6


def test_eval_artifacts_and_model_untouched(workdir):
    run = workdir["run"]
    metrics = json.loads((run / "metrics.json").read_text())
    assert [b["bucket"] for b in metrics["buckets"]] == [
        "2021-01", "2021-02", "2021-03", "2021-04"]
    assert "drift" in metrics and "onset" in metrics["drift"]
    # the stream is cleanly separable, so self-evaluation scores high
    assert metrics["aggregate"]["acc"] >= 0.8
    assert (run / "model.dnet").read_bytes() == workdir["model_before_eval"]
    head = (run / "metrics.csv").read_text().splitlines()
    assert head[0].startswith("# config_hash=")
    assert head[1].startswith("bucket,")


def test_eval_prints_onset(workdir, capsys):
    assert main(["eval", "--config", str(workdir["cfg_path"])]) == 0
    out = capsys.readouterr().out
    assert "drift onset:" in out


def test_seed_and_out_overrides(workdir):
    out2 = workdir["root"] / "run_seed1"
    rc = main(["train", "--config", str(workdir["cfg_path"]),
               "--seed", "1", "--out", str(out2)])
    assert rc == 0
    hist = json.loads((out2 / "history.json").read_text())
    assert hist["seed"] == 1
    base_hist = json.loads((workdir["run"] / "history.json").read_text())
    assert hist["config_hash"] != base_hist["config_hash"]


def test_sweep_single_cell_reproduces_train(workdir):
    root = workdir["root"]
    grid = root / "grid.json"
    grid.write_text(json.dumps({"lambdas": [0.1], "penalty_pairs": [[5, 1]]}))
    sweep_out = root / "sweeprun"
    rc = main(["sweep", "--config", str(workdir["cfg_path"]),
               "--out", str(sweep_out), "--grid", str(grid)])
    assert rc == 0
    cell = sweep_out / "lam0.1_fn5_fp1"
    # the cell re-states the config defaults, so its model and history
    # must be byte-identical to the plain train run
    assert (cell / "model.dnet").read_bytes() == (workdir["run"] / "model.dnet").read_bytes()
    assert (cell / "history.json").read_bytes() == (workdir["run"] / "history.json").read_bytes()
    lines = (sweep_out / "sweep.csv").read_text().splitlines()
    assert lines[0].startswith("# config_hash=")
    assert lines[1].split(",")[:5] == ["cell", "lam", "p_fn", "p_fp", "config_hash"]
    assert len(lines) == 3
    assert lines[2].startswith("lam0.1_fn5_fp1,0.1,5.0,1.0,")


def test_sweep_rejects_bad_grid(workdir, tmp_path, capsys):
    bad = tmp_path / "grid.json"
    cases = [
        ({"lambdas": [0.1], "pairs": [[1, 1]]}, "pairs"),
        ({"penalty_pairs": [[1, 2, 3]]}, "penalty_pairs"),
        ({"lambdas": 5}, "lambdas"),
        ({"lambdas": [0.1, True]}, "lambdas"),
        ({"penalty_pairs": [["a", 1]]}, "penalty_pairs"),
        # each cell's config is checked before the first cell trains
        ({"lambdas": [0.1, -1]},
         "cell lam-1_fn1_fp1: loss.lam must be a finite number in [0, inf)"),
        ({"penalty_pairs": [[0, 1]]},
         "cell lam0.5_fn0_fp1: loss.p_fn must be a finite number in (0, inf)"),
        ({"lambdas": [10**400]}, "lambdas"),
    ]
    for grid, message in cases:
        bad.write_text(json.dumps(grid))
        assert main(["sweep", "--config", str(workdir["cfg_path"]),
                     "--out", str(tmp_path / "s"), "--grid", str(bad)]) == 2, grid
        err = capsys.readouterr().err
        assert str(bad) in err and message in err, err
        assert not (tmp_path / "s").exists()


def test_report_consolidates(workdir, tmp_path):
    """Builds the runs it counts: run1 (trained and evaluated), a bare
    train run and a one-cell sweep with its evaluation."""
    root = tmp_path / "runs"
    shutil.copytree(workdir["run"], root / "run1")
    cfg_path = str(workdir["cfg_path"])
    assert main(["train", "--config", cfg_path, "--seed", "1",
                 "--out", str(root / "run_seed1")]) == 0
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"lambdas": [0.1], "penalty_pairs": [[5, 1]]}))
    assert main(["sweep", "--config", cfg_path, "--out", str(root / "sweep"),
                 "--grid", str(grid)]) == 0
    assert main(["report", "--out", str(root)]) == 0
    rows = (root / "report.csv").read_text().splitlines()
    header = rows[0].split(",")
    assert header[:3] == ["model", "config_hash", "seed"]
    names = [r.split(",")[0] for r in rows[1:]]
    assert names == ["run1", "run_seed1", "sweep/lam0.1_fn5_fp1"]
    long_rows = (root / "f1_over_time.csv").read_text().splitlines()
    assert long_rows[0] == "model,bucket,metric,value"
    # run1 has metrics.json: 4 buckets x 3 metrics
    assert sum(r.startswith("run1,") for r in long_rows[1:]) == 12


def test_retrain_with_mask_roundtrip(workdir):
    root = workdir["root"]
    cfg = json.loads(json.dumps(workdir["cfg"]))
    cfg["out_dir"] = str(root / "run_masked")
    cfg["data"]["mask"] = str(workdir["run"] / "mask.json")
    cfg_path = root / "run_masked.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["train", "--config", str(cfg_path)]) == 0
    model = load_model(root / "run_masked" / "model.dnet")
    mask = FeatureMask.load(workdir["run"] / "mask.json")
    assert model.mask == mask
    assert model.params.cfg.input_dim == len(mask)
    # eval applies the stored mask to the full-width stream
    assert main(["eval", "--config", str(cfg_path)]) == 0


def test_missing_config_flag():
    assert main(["train"]) == 2
    assert main(["synth", "--out", "x"]) == 2


def test_config_file_errors(tmp_path):
    assert main(["train", "--config", str(tmp_path / "nope.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    assert main(["train", "--config", str(bad)]) == 2
    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps({"optimiser": {}}))
    assert main(["train", "--config", str(unknown)]) == 2


def test_train_requires_data(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"out_dir": str(tmp_path / "o")}))
    assert main(["train", "--config", str(cfg)]) == 2
    assert "data.train" in capsys.readouterr().err

    cfg.write_text(json.dumps({"out_dir": str(tmp_path / "o"),
                               "data": {"train": str(tmp_path / "missing.dset")}}))
    assert main(["train", "--config", str(cfg)]) == 3


def test_config_errors_found_after_reading_name_the_file(workdir, tmp_path, capsys):
    """Errors found once the data is read name the run config too."""
    p = tmp_path / "c.json"
    p.write_text(json.dumps({"out_dir": str(tmp_path / "o")}))
    assert main(["train", "--config", str(p)]) == 2
    err = capsys.readouterr().err
    assert f"{p}: data.train is required for this command" in err

    cfg = dict(workdir["cfg"], out_dir=str(tmp_path / "o"))
    cfg["train"] = dict(cfg["train"], n_val=50000)
    p.write_text(json.dumps(cfg))
    assert main(["train", "--config", str(p)]) == 2
    err = capsys.readouterr().err
    assert f"{p}: n_val 50000 must be < dataset size 600" in err
    assert not (tmp_path / "o" / "model.dnet").exists()


@pytest.mark.parametrize("setting", [
    {"trunk_width": 2**40}, {"n_residual_blocks": 2**62}, {"head_widths": [2**40]},
])
def test_huge_model_size_exits_2_naming_the_file(workdir, tmp_path, capsys, setting):
    """Sizes numpy refuses before it allocates: checked at config time,
    or, for 2**40 head units (4.5 PB), a refused allocation."""
    cfg = dict(workdir["cfg"], out_dir=str(tmp_path / "o"))
    cfg["model"] = dict(cfg["model"], **setting)
    p = tmp_path / "c.json"
    p.write_text(json.dumps(cfg))
    assert main(["train", "--config", str(p)]) == 2
    err = capsys.readouterr().err
    assert str(p) in err and "bytes of float64" in err
    assert not (tmp_path / "o" / "model.dnet").exists()


def test_huge_stream_size_exits_2_naming_the_spec(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    # spec-time check, then a 1.6 PB stream numpy refuses to allocate
    for setting in ({"samples_per_month": 2**40, "feature_dim": 2**40},
                    {"samples_per_month": 2**40}):
        spec.write_text(json.dumps({**DRIFT_SPEC, **setting}))
        assert main(["synth", "--config", str(spec), "--out", str(tmp_path / "s")]) == 2
        err = capsys.readouterr().err
        assert str(spec) in err and "samples_per_month 1099511627776" in err
    assert not (tmp_path / "s" / "stream.dset").exists()


def test_eval_without_model(workdir, tmp_path, capsys):
    cfg = dict(workdir["cfg"])
    cfg["out_dir"] = str(tmp_path / "empty")
    p = tmp_path / "c.json"
    p.write_text(json.dumps(cfg))
    assert main(["eval", "--config", str(p)]) == 3
    assert "model file not found" in capsys.readouterr().err


def test_malformed_dataset(workdir, tmp_path):
    garbage = tmp_path / "garbage.dset"
    garbage.write_bytes(b"NOTD" + b"\x00" * 40)
    cfg = dict(workdir["cfg"])
    cfg["out_dir"] = str(tmp_path / "o")
    cfg["data"] = {"train": str(garbage), "eval": None, "pfi": None, "mask": None}
    p = tmp_path / "c.json"
    p.write_text(json.dumps(cfg))
    assert main(["train", "--config", str(p)]) == 3


def test_jsonl_dataset_is_an_unknown_format(tmp_path, capsys):
    """JSONL is not a dataset format: its extension is a config error."""
    rows = tmp_path / "x.jsonl"
    rows.write_text('{"ts": 1609459200, "label": 0, "features": [0.0]}\n')
    p = tmp_path / "c.json"
    p.write_text(json.dumps({"out_dir": str(tmp_path / "o"), "data": {"train": str(rows)}}))
    assert main(["train", "--config", str(p)]) == 2
    err = capsys.readouterr().err
    assert "cannot infer format" in err and str(rows) in err
    assert not (tmp_path / "o" / "model.dnet").exists()


@pytest.mark.parametrize("dim", [0, 2**31, 2**32 - 1, (2**31 - 1 - 9) // 4 + 1])
def test_dataset_header_with_impossible_feature_dim(workdir, tmp_path, capsys, dim):
    """A feature_dim numpy cannot build a record for, or 0, is a format
    error naming the file, not a traceback."""
    bad = tmp_path / "huge.dset"
    bad.write_bytes(b"DSET\x01" + struct.pack("<IQ", dim, 0))
    cfg = dict(workdir["cfg"], out_dir=str(tmp_path / "o"))
    cfg["data"] = {"train": str(bad), "eval": None, "pfi": None, "mask": None}
    p = tmp_path / "c.json"
    p.write_text(json.dumps(cfg))
    assert main(["train", "--config", str(p)]) == 3
    err = capsys.readouterr().err
    assert str(bad) in err and f"feature_dim {dim} out of range" in err


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_divergence_exit_code(workdir, tmp_path, capsys):
    cfg = json.loads(json.dumps(workdir["cfg"]))
    cfg["out_dir"] = str(tmp_path / "o")
    cfg["train"]["lr"] = 1e10
    cfg["train"]["max_epochs"] = 50
    p = tmp_path / "c.json"
    p.write_text(json.dumps(cfg))
    assert main(["train", "--config", str(p)]) == 4
    assert "diverged" in capsys.readouterr().err


def test_empty_mask_exit_code_still_writes_report(workdir, tmp_path, capsys):
    cfg = json.loads(json.dumps(workdir["cfg"]))
    out = tmp_path / "o"
    cfg["out_dir"] = str(out)
    cfg["pfi"]["keep_threshold"] = 10.0  # impossible: importance <= 1
    p = tmp_path / "c.json"
    p.write_text(json.dumps(cfg))
    assert main(["train", "--config", str(p)]) == 0
    assert main(["pfi", "--config", str(p)]) == 3
    assert "keep threshold" in capsys.readouterr().err
    assert (out / "pfi_report.csv").is_file()
    assert not (out / "mask.json").exists()


def _split_dnet(raw):
    (hlen,) = struct.unpack_from("<I", raw, 5)
    return json.loads(raw[9 : 9 + hlen]), raw[9 + hlen :]


def _join_dnet(raw, header, payload):
    hb = json.dumps(header).encode()
    return raw[:5] + struct.pack("<I", len(hb)) + hb + payload


def _with_header(edit):
    def corrupt(raw):
        header, payload = _split_dnet(raw)
        return _join_dnet(raw, edit(header), payload)
    return corrupt


def _digits_in_header(raw):
    """A header whose meta is an integer past Python's 4300-digit limit."""
    header, payload = _split_dnet(raw)
    hb = json.dumps({**header, "meta": "@"}).replace('"@"', "1" * 5000).encode()
    return raw[:5] + struct.pack("<I", len(hb)) + hb + payload


def _drop_config_key(header):
    del header["config"]["trunk_width"]
    return header


def _poke_tensor(index, value):
    def corrupt(raw):
        header, payload = _split_dnet(raw)
        stored = bytearray(payload)
        struct.pack_into("<d", stored, 8 * index, value)
        return _join_dnet(raw, header, bytes(stored))
    return corrupt


@pytest.mark.parametrize("corrupt, message", [
    (_with_header(lambda h: [h]), "not a JSON object"),
    (_with_header(_drop_config_key), "trunk_width"),
    (_with_header(lambda h: {k: v for k, v in h.items() if k != "config"}), "config"),
    (_with_header(lambda h: {**h, "mask": [0, 1]}), "malformed header"),
    (_with_header(lambda h: {**h, "config": {**h["config"], "trunk_width": "wide"}}),
     "malformed header"),
    (_poke_tensor(0, float("nan")), "NaN or infinite"),
    (_poke_tensor(-1, float("inf")), "NaN or infinite"),
    (_poke_tensor(7, float("-inf")), "NaN or infinite"),
    (_with_header(lambda h: {**h, "optimizer": {"lr": 1e-3, "t": 1}}), "optimizer state"),
    (_with_header(lambda h: {**h, "config": {**h["config"], "trunk_width": 16.0}}),
     "trunk_width must be an integer"),
    (_with_header(lambda h: {**h, "config": {**h["config"], "n_residual_blocks": True}}),
     "n_residual_blocks must be an integer"),
    (_with_header(lambda h: {**h, "config": {**h["config"], "dropout_rate": "0.1"}}),
     "dropout_rate"),
    (lambda raw: raw[:5] + struct.pack("<I", 2**32 - 1) + raw[9:], "corrupt header"),
    (lambda raw: raw[:5] + struct.pack("<I", len(raw) - 8) + raw[9:], "corrupt header"),
    (_with_header(lambda h: {**h, "mask": {"original_dim": 6, "kept_indices": [1.5]}}),
     "kept_indices must be a list of integers"),
    (_with_header(lambda h: {**h, "mask": {"original_dim": 6, "kept_indices": [float("inf")]}}),
     "kept_indices must be a list of integers"),
    (_digits_in_header, "corrupt header"),
], ids=["header-list", "missing-config-key", "missing-config", "mask-list",
        "bad-config-value", "nan-first-weight", "inf-last-bias", "neg-inf-weight",
        "optimizer-state", "float-trunk-width", "bool-blocks", "string-dropout",
        "huge-header-length", "header-one-past-end", "mask-float-index",
        "mask-infinite-index", "meta-int-over-digit-limit"])
def test_eval_rejects_malformed_checkpoint(workdir, tmp_path, capsys, corrupt, message):
    out = tmp_path / "o"
    out.mkdir()
    model_path = out / "model.dnet"
    model_path.write_bytes(corrupt((workdir["run"] / "model.dnet").read_bytes()))
    cfg = dict(workdir["cfg"], out_dir=str(out))
    p = tmp_path / "c.json"
    p.write_text(json.dumps(cfg))
    assert main(["eval", "--config", str(p)]) == 3
    err = capsys.readouterr().err
    assert str(model_path) in err and message in err
    assert not (out / "metrics.json").exists()


@pytest.mark.parametrize("section, key, value", [
    ("train", "lr", 0.0),
    ("train", "lr", -1e-3),
    ("train", "lr", float("nan")),
    ("train", "lr", float("inf")),
    ("train", "weight_decay", -1e-4),
    ("train", "weight_decay", float("nan")),
    ("train", "weight_decay", float("inf")),
    ("loss", "lam", float("nan")),
    ("loss", "lam", float("inf")),
    ("loss", "p_fn", float("nan")),
    ("eval", "epsilon", float("nan")),
    ("eval", "epsilon", float("inf")),
    ("pfi", "keep_threshold", float("nan")),
    pytest.param("loss", "lam", 10**400, id="loss-lam-beyond-float64"),
    pytest.param("train", "lr", 10**400, id="train-lr-beyond-float64"),
])
def test_train_rejects_bad_hyperparameter_at_config_time(
    workdir, tmp_path, capsys, section, key, value
):
    cfg = json.loads(json.dumps(workdir["cfg"]))
    cfg["out_dir"] = str(tmp_path / "o")
    cfg.setdefault(section, {})[key] = value
    p = tmp_path / "c.json"
    p.write_text(json.dumps(cfg))  # NaN/Infinity literals, which json.loads accepts
    assert main(["train", "--config", str(p)]) == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "o" / "model.dnet").exists()


def _csv_train(bad_row):
    """data.train is a CSV file whose third row is ``bad_row``."""
    def setup(cfg, tmp_path):
        good = "1609459200,0," + ",".join(["0.0"] * 6)
        path = tmp_path / "rows.csv"
        path.write_text("\n".join(["timestamp,label," + ",".join(f"f{i}" for i in range(6)),
                                   good, good, bad_row]) + "\n")
        cfg["data"]["train"] = str(path)
        return path
    return setup


def _mask_file(doc):
    def setup(cfg, tmp_path):
        path = tmp_path / "mask.json"
        path.write_text(json.dumps(doc))
        cfg["data"]["mask"] = str(path)
        return path
    return setup


def _eval_stream_with_timestamp(ts):
    def setup(cfg, tmp_path):
        ds = load_dataset(cfg["data"]["eval"])
        stamps = ds.timestamps.copy()
        stamps[-1] = ts
        path = tmp_path / "far_future.dset"
        save_dataset(Dataset(ds.features, ds.labels, stamps), path)
        cfg["data"]["eval"] = str(path)
        return "far_future"
    return setup


@pytest.mark.parametrize("command, setup, message", [
    ("train", _mask_file([0, 1]), "not a JSON object"),
    ("eval", _eval_stream_with_timestamp(253_402_300_800),
     "timestamp 253402300800 lies outside the years 1-9999"),
    ("train", _csv_train("1609459200,-1," + ",".join(["0.0"] * 6)), "labels must be 0 or 1"),
    ("train", _csv_train("99999999999999999999,1," + ",".join(["0.0"] * 6)),
     "timestamps must be integers within int64"),
    ("train", _mask_file({"original_dim": 6, "kept_indices": [float("inf")]}),
     "kept_indices must be a list of integers"),
    ("train", _mask_file({"original_dim": 6, "kept_indices": "12"}),
     "kept_indices must be a list of integers"),
    ("train", _mask_file({"original_dim": 6, "kept_indices": [1.7]}),
     "kept_indices must be a list of integers"),
    ("train", _mask_file({"original_dim": 6, "kept_indices": [True]}),
     "kept_indices must be a list of integers"),
    ("train", _mask_file({"original_dim": 6.9, "kept_indices": [0, 1]}),
     "original_dim must be an integer"),
    ("train", _mask_file({"original_dim": 6, "kept_indices": []}), "at least one index"),
], ids=["mask-list", "eval-year-10000", "csv-label-minus-1", "csv-timestamp-beyond-int64",
        "mask-infinite-index", "mask-string-indices", "mask-float-index", "mask-bool-index",
        "mask-float-dim", "mask-empty"])
def test_malformed_input_exits_3_naming_it(workdir, tmp_path, capsys, command, setup, message):
    cfg = json.loads(json.dumps(workdir["cfg"]))
    out = tmp_path / "o"
    out.mkdir()
    shutil.copy(workdir["run"] / "model.dnet", out / "model.dnet")
    cfg["out_dir"] = str(out)
    named = setup(cfg, tmp_path)
    p = tmp_path / "c.json"
    p.write_text(json.dumps(cfg))
    assert main([command, "--config", str(p)]) == 3
    err = capsys.readouterr().err
    assert str(named) in err and message in err


def test_mask_width_mismatch_exits_2_naming_data_and_mask(workdir, tmp_path, capsys):
    cfg = json.loads(json.dumps(workdir["cfg"]))
    cfg["out_dir"] = str(tmp_path / "o")
    mask = tmp_path / "mask.json"
    mask.write_text(json.dumps({"original_dim": 7, "kept_indices": [0, 2]}))
    cfg["data"]["mask"] = str(mask)
    p = tmp_path / "c.json"
    p.write_text(json.dumps(cfg))
    assert main(["train", "--config", str(p)]) == 2
    err = capsys.readouterr().err
    assert f"data.train {workdir['stream']}" in err and f"data.mask {mask}" in err
    assert "mask built for 7 features, dataset has 6" in err

    # a masked model, evaluated on data one column narrower than its mask
    mask.write_text(json.dumps({"original_dim": 6, "kept_indices": [0, 2]}))
    assert main(["train", "--config", str(p)]) == 0
    ds = load_dataset(workdir["stream"])
    narrow = tmp_path / "narrow.dset"
    save_dataset(Dataset(ds.features[:, :5], ds.labels, ds.timestamps), narrow)
    cfg["data"]["eval"] = str(narrow)
    p.write_text(json.dumps(cfg))
    capsys.readouterr()
    assert main(["eval", "--config", str(p)]) == 2
    err = capsys.readouterr().err
    model = tmp_path / "o" / "model.dnet"
    assert f"data.eval {narrow}" in err and f"model file {model}" in err
    assert "mask built for 6 features, dataset has 5" in err


@pytest.mark.parametrize("key, value", [
    ("n_informative", "3"),
    ("seed", 1.5),
    ("drift_magnitude", float("nan")),
    ("start_month", 202101),
    # a lenient int() read the next six as 2021-01; start_month is four
    # ASCII digits, a dash and two, and a month past 12 names the field too
    ("start_month", "2_021-01"),
    ("start_month", " 2021-1"),
    ("start_month", "+2021-01"),
    ("start_month", "2021-1 "),
    ("start_month", "2021-1"),
    ("start_month", "\u0662\u0660\u0662\u0661-01"),
    ("start_month", "2021-13"),
    ("drift_magnitude", True),
    ("informative_scale", True),
    pytest.param("drift_magnitude", 10**400, id="drift_magnitude-beyond-float64"),
])
def test_synth_rejects_wrongly_typed_spec_field(tmp_path, capsys, key, value):
    with pytest.raises(ConfigError, match=key):
        DriftSpec(**{key: value})
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({**DRIFT_SPEC, key: value}))
    assert main(["synth", "--config", str(spec), "--out", str(tmp_path / "s")]) == 2
    err = capsys.readouterr().err
    assert key in err and str(spec) in err
    assert not (tmp_path / "s").exists()


@pytest.mark.parametrize("start_month, n_months", [("9999-12", 2), ("0000-01", 4),
                                                   ("10000-01", 4)])
def test_synth_rejects_months_outside_years_1_to_9999(tmp_path, capsys, start_month, n_months):
    """The bound bucket_by_month enforces; at the edges the stream fits."""
    spec = tmp_path / "spec.json"
    doc = {**DRIFT_SPEC, "start_month": start_month, "n_months": n_months, "drift_month": 0}
    spec.write_text(json.dumps(doc))
    assert main(["synth", "--config", str(spec), "--out", str(tmp_path / "s")]) == 2
    err = capsys.readouterr().err
    assert "start_month" in err and str(spec) in err
    for edge in ({"start_month": "9999-12", "n_months": 1}, {"start_month": "0001-01"}):
        spec.write_text(json.dumps({**doc, **edge}))
        assert main(["synth", "--config", str(spec), "--out", str(tmp_path / "s")]) == 0
        truth = json.loads((tmp_path / "s" / "truth.json").read_text())
        ds = load_dataset(tmp_path / "s" / "stream.dset")
        labels = [label for label, _ in bucket_by_month(ds)]
        assert labels == [m["label"] for m in truth["months"]]
        assert labels[0] == edge["start_month"]


def _non_utf8(command, role):
    """``command`` with the input ``role`` replaced by non-UTF-8 bytes."""
    def setup(workdir, tmp_path):
        bad = tmp_path / {"spec": "spec.json", "config": "run.json", "grid": "grid.json",
                          "mask": "mask.json", "csv": "rows.csv",
                          "history": "runs/a/history.json"}[role]
        bad.parent.mkdir(parents=True, exist_ok=True)
        bad.write_bytes(b"\xff\xfe{}")
        cfg = json.loads(json.dumps(workdir["cfg"]))
        cfg["out_dir"] = str(tmp_path / "o")
        if role == "csv":
            cfg["data"]["train"] = str(bad)
        elif role == "mask":
            cfg["data"]["mask"] = str(bad)
        good = tmp_path / "good.json"
        good.write_text(json.dumps(cfg))
        argv = {
            "synth": ["synth", "--config", str(bad), "--out", str(tmp_path / "o")],
            "sweep": ["sweep", "--config", str(good), "--grid", str(bad)],
            "report": ["report", "--out", str(tmp_path / "runs")],
        }.get(command, [command, "--config", str(bad if role == "config" else good)])
        return argv, bad
    return setup


@pytest.mark.parametrize("setup, code", [
    (_non_utf8("synth", "spec"), 2),
    (_non_utf8("train", "config"), 2),
    (_non_utf8("sweep", "grid"), 2),
    (_non_utf8("train", "mask"), 3),
    (_non_utf8("report", "history"), 3),
    (_non_utf8("train", "csv"), 3),
], ids=["drift-spec", "run-config", "sweep-grid", "mask", "report-run-file", "csv"])
def test_non_utf8_input_fails_cleanly_naming_it(workdir, tmp_path, capsys, setup, code):
    argv, bad = setup(workdir, tmp_path)
    assert main(argv) == code
    err = capsys.readouterr().err
    assert str(bad) in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("make", ["missing", "directory"])
@pytest.mark.parametrize("role, code", [("config", 2), ("spec", 2), ("grid", 2),
                                        ("train", 3), ("mask", 3), ("model", 3)])
def test_unreadable_input_keeps_its_exit_code_naming_it(workdir, tmp_path, capsys,
                                                        role, code, make):
    """``role``'s input is a missing path or a directory."""
    bad = tmp_path / {"config": "run.json", "spec": "spec.json", "grid": "grid.json",
                      "train": "train.dset", "mask": "mask.json", "model": "model.dnet"}[role]
    if make == "directory":
        bad.mkdir()
    cfg = json.loads(json.dumps(workdir["cfg"]))
    cfg["out_dir"] = str(tmp_path / "o")
    if role in ("train", "mask"):
        cfg["data"][role] = str(bad)
    elif role == "model":
        cfg["out_dir"] = str(bad.parent)
    good = tmp_path / "good.json"
    good.write_text(json.dumps(cfg))
    argv = {
        "config": ["train", "--config", str(bad)],
        "spec": ["synth", "--config", str(bad), "--out", str(tmp_path / "o")],
        "grid": ["sweep", "--config", str(good), "--grid", str(bad)],
        "model": ["eval", "--config", str(good)],
    }.get(role, ["train", "--config", str(good)])
    assert main(argv) == code
    err = capsys.readouterr().err
    assert str(bad) in err, err
    assert not (tmp_path / "o").exists()


def test_synth_errors(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({**DRIFT_SPEC, "wavelength": 3}))
    assert main(["synth", "--config", str(spec), "--out", str(tmp_path / "s")]) == 2
    spec.write_text(json.dumps({**DRIFT_SPEC, "shape": "cubic"}))
    assert main(["synth", "--config", str(spec), "--out", str(tmp_path / "s")]) == 2


def test_report_errors(tmp_path, capsys):
    assert main(["report", "--out", str(tmp_path / "missing")]) == 3
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["report", "--out", str(empty)]) == 3
    assert main(["report"]) == 2

    good = {"train_loss": [0.5], "best_epoch": 0, "best_score": 0.9}
    cases = [
        ("history.json", "{bad"),
        ("history.json", "[1, 2]"),
        ("metrics.json", json.dumps({"buckets": 3})),
        ("metrics.json", json.dumps({"buckets": [{"f1": 0.5}]})),
        ("metrics.json", json.dumps({"aggregate": [0.5]})),
        ("metrics.json", "[]"),
    ]
    for name, text in cases:
        root = tmp_path / f"runs-{name}-{len(text)}"
        # a well-formed run sorts first, so a partial report would hold its row
        for run in ("a", "b"):
            (root / run).mkdir(parents=True)
            (root / run / "history.json").write_text(json.dumps(good))
        (root / "b" / name).write_text(text)
        assert main(["report", "--out", str(root)]) == 3, text
        assert str(root / "b" / name) in capsys.readouterr().err
        assert not (root / "report.csv").exists()
        assert not (root / "f1_over_time.csv").exists()
    (tmp_path / "odd" / "a" / "history.json").mkdir(parents=True)
    assert main(["report", "--out", str(tmp_path / "odd")]) == 3


def test_no_subcommand_exits_via_argparse():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_installed_entry_point(tmp_path):
    exe = shutil.which("driftkit")
    assert exe, "console script not installed"
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({**DRIFT_SPEC, "samples_per_month": 20}))
    proc = subprocess.run(
        [exe, "synth", "--config", str(spec), "--out", str(tmp_path / "s")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "wrote" in proc.stdout
    assert (tmp_path / "s" / "stream.dset").is_file()
