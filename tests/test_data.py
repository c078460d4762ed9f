import json
import os
import re
import types
from datetime import datetime, timezone

import numpy as np
import pytest

from driftkit.data import (
    Dataset,
    FeatureMask,
    apply_mask,
    bucket_by_month,
    class_counts,
    compose_masks,
    load_dataset,
    month_label,
    read_json,
    save_dataset,
    split_random,
    split_recent,
    write_csv,
    write_json,
)
from driftkit.errors import (
    ConfigError,
    DataError,
    FormatError,
    ParseError,
    ShapeError,
)
from driftkit.model import load_model

from conftest import make_dataset


def test_dataset_validation():
    with pytest.raises(ShapeError):
        Dataset(np.zeros(3), np.zeros(3, dtype=np.uint8), np.zeros(3, dtype=np.int64))
    with pytest.raises(ShapeError):
        Dataset(np.zeros((3, 2)), np.zeros(2, dtype=np.uint8), np.zeros(3, dtype=np.int64))
    with pytest.raises(DataError):
        Dataset(np.zeros((2, 2)), np.array([0, 2], dtype=np.uint8), np.zeros(2, dtype=np.int64))
    with pytest.raises(DataError):
        Dataset(np.array([[np.nan, 0.0]]), np.array([0], dtype=np.uint8), np.array([0]))


@pytest.mark.parametrize("labels", [
    [256, 1], np.array([256, 1]), [-1, 0], np.array([-255, 1]), [0.5, 1], [np.nan, 0],
    np.array([1, 2], dtype=np.uint8),
])
def test_dataset_rejects_labels_off_zero_one_before_the_cast(labels):
    # a uint8 cast would wrap 256 to 0 and -255 to 1, and truncate 0.5 to 0
    with pytest.raises(DataError, match="labels must be 0 or 1"):
        Dataset(np.zeros((2, 1)), labels, np.zeros(2, dtype=np.int64))


@pytest.mark.parametrize("timestamps", [
    [0, 2**63], [0, -2**63 - 1], [0, 99999999999999999999],
    np.array([0, 2**64 - 1], dtype=np.uint64), [0.0, 1.5], [0.0, np.nan], [0.0, 2.0**63],
])
def test_dataset_rejects_timestamps_outside_int64(timestamps):
    with pytest.raises(DataError, match="timestamps must be integers within int64"):
        Dataset(np.zeros((2, 1)), [0, 1], timestamps)


def test_dataset_casts_exact_values_and_keeps_its_own_dtypes():
    ds = Dataset(np.zeros((3, 1)), [True, 0.0, np.int64(1)],
                 np.array([-2**63, 0, 2**63 - 1], dtype=object))
    assert ds.labels.dtype == np.uint8 and ds.labels.tolist() == [1, 0, 1]
    assert ds.timestamps.dtype == np.int64 and ds.timestamps.tolist() == [-2**63, 0, 2**63 - 1]
    ds = Dataset(np.zeros((2, 1)), [0, 1], np.array([5, 7], dtype=np.uint32))
    assert ds.timestamps.dtype == np.int64 and ds.timestamps.tolist() == [5, 7]
    # what every subset passes is taken as it is, without a copy
    labels, stamps = np.array([0, 1], dtype=np.uint8), np.array([5, 7], dtype=np.int64)
    ds = Dataset(np.zeros((2, 1)), labels, stamps)
    assert ds.labels is labels and ds.timestamps is stamps


def test_dataset_rejects_integer_features_beyond_float64():
    with pytest.raises(DataError, match="feature values must be finite"):
        Dataset([[10**400]], [0], [0])


def test_dataset_accessors(toy_dataset):
    ds = toy_dataset
    assert len(ds) == 40
    assert ds.feature_dim == 4
    sub = ds.subset([1, 5, 7])
    assert len(sub) == 3
    assert np.array_equal(sub.features, ds.features[[1, 5, 7]])


@pytest.mark.parametrize("ext", [".csv", ".dset"])
def test_save_load_round_trip(tmp_path, ext):
    ds = make_dataset(n=17, dim=3, seed=5)
    path = tmp_path / f"data{ext}"
    save_dataset(ds, path)
    back = load_dataset(path)
    assert len(back) == len(ds)
    assert back.feature_dim == ds.feature_dim
    assert np.array_equal(back.labels, ds.labels)
    assert np.array_equal(back.timestamps, ds.timestamps)
    if ext == ".dset":
        # binary stores float32 features
        assert np.allclose(back.features, ds.features, rtol=1e-6, atol=1e-6)
    else:
        assert np.array_equal(back.features, ds.features)


@pytest.mark.parametrize("value", [1e300, -1e300, 2.0**128 - 2.0**103, 2.0**128])
def test_dset_save_rejects_finite_values_beyond_float32(tmp_path, value):
    # the float32 cast would write infinity, which load_dataset rejects
    path = tmp_path / "x.dset"
    with pytest.raises(DataError, match=f"{re.escape(str(path))}: .*beyond float32"):
        save_dataset(Dataset([[value, 0.5]], [0], [0]), path)
    assert list(tmp_path.iterdir()) == []


def test_dset_save_keeps_the_largest_values_that_round_into_float32(tmp_path):
    edge = np.nextafter(2.0**128 - 2.0**103, 0.0)
    path = tmp_path / "x.dset"
    save_dataset(Dataset([[edge, -edge]], [0], [0]), path)
    top = float(np.finfo(np.float32).max)
    assert load_dataset(path).features.tolist() == [[top, -top]]


def test_unknown_extension_is_a_config_error(tmp_path):
    # .jsonl is no dataset format either
    for path, raw in ((tmp_path / "data.bin", b"DSET"),
                      (tmp_path / "data.jsonl", b'{"ts": 1, "label": 0, "features": [0.5]}\n')):
        with pytest.raises(ConfigError, match="extension"):
            save_dataset(make_dataset(n=5), path)
        path.write_bytes(raw)
        with pytest.raises(ConfigError, match="extension"):
            load_dataset(path)


def test_load_missing_file():
    with pytest.raises(DataError, match="not found"):
        load_dataset("/nonexistent/file.csv")


def test_write_csv_layout(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["a", "b"], iter([[1, None], ["x,y", 0.5]]), comment="seed=3")
    # the comment line ends in \n, the csv rows in \r\n; None is an empty cell
    assert path.read_bytes() == b'# seed=3\na,b\r\n1,\r\n"x,y",0.5\r\n'
    write_csv(path, ["a"], [])
    assert path.read_bytes() == b"a\r\n"


@pytest.mark.parametrize("make", ["missing", "directory"])
def test_readers_name_a_path_they_cannot_read(tmp_path, make):
    """A missing path or a directory is each reader's own DriftkitError
    naming the path, not a bare OSError."""
    for name, read, error in [
        ("rows.csv", load_dataset, DataError),
        ("stream.dset", load_dataset, DataError),
        ("model.dnet", load_model, DataError),
        ("run.json", lambda p: read_json(p, ConfigError), ConfigError),
        ("mask.json", FeatureMask.load, FormatError),
    ]:
        path = tmp_path / name
        if make == "directory":
            path.mkdir()
        with pytest.raises(error, match=re.escape(str(path))):
            read(path)


def test_csv_parse_error_reports_row(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("timestamp,label,f0\n100,0,1.5\n101,x,2.0\n")
    with pytest.raises(ParseError, match="row 3"):
        load_dataset(p)


def test_csv_bad_header(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("time,label,f0\n100,0,1.5\n")
    with pytest.raises(ParseError):
        load_dataset(p)


def test_csv_ragged_row(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("timestamp,label,f0,f1\n100,0,1.5,2.0\n101,1,3.0\n")
    with pytest.raises(ShapeError, match="row 3"):
        load_dataset(p)


def test_csv_empty_file(tmp_path):
    p = tmp_path / "empty.csv"
    p.write_text("")
    with pytest.raises(DataError):
        load_dataset(p)
    p.write_text("timestamp,label,f0\n")
    with pytest.raises(DataError):
        load_dataset(p)


def test_binary_bad_magic_and_truncation(tmp_path):
    p = tmp_path / "bad.dset"
    p.write_bytes(b"NOPE" + bytes(20))
    with pytest.raises(FormatError, match="magic"):
        load_dataset(p)
    ds = make_dataset(n=4, dim=2)
    good = tmp_path / "good.dset"
    save_dataset(ds, good)
    raw = good.read_bytes()
    trunc = tmp_path / "trunc.dset"
    trunc.write_bytes(raw[:-5])
    with pytest.raises(FormatError, match="truncated"):
        load_dataset(trunc)
    badver = tmp_path / "badver.dset"
    badver.write_bytes(raw[:4] + bytes([9]) + raw[5:])
    with pytest.raises(FormatError, match="version"):
        load_dataset(badver)


def test_binary_load_reports_a_file_that_shrinks_while_read(tmp_path, monkeypatch):
    """A file whose size check passed but whose records then come up
    short (it shrank between the check and the read) is a FormatError."""
    path = tmp_path / "s.dset"
    save_dataset(make_dataset(n=40, dim=3), path)
    full = path.stat().st_size
    path.write_bytes(path.read_bytes()[:-1])
    monkeypatch.setattr(os, "fstat", lambda fd: types.SimpleNamespace(st_size=full))
    with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: truncated file"):
        load_dataset(path)


def test_binary_layout_exact(tmp_path):
    # one sample, two features: verify the on-disk bytes field by field
    ds = Dataset(
        np.array([[1.5, -2.0]]),
        np.array([1], dtype=np.uint8),
        np.array([1_000_000], dtype=np.int64),
    )
    p = tmp_path / "one.dset"
    save_dataset(ds, p)
    raw = p.read_bytes()
    assert raw[:4] == b"DSET"
    assert raw[4] == 1
    assert int.from_bytes(raw[5:9], "little") == 2  # feature_dim
    assert int.from_bytes(raw[9:17], "little") == 1  # count
    assert int.from_bytes(raw[17:25], "little", signed=True) == 1_000_000
    assert raw[25] == 1
    assert np.frombuffer(raw, dtype="<f4", count=2, offset=26).tolist() == [1.5, -2.0]
    assert len(raw) == 26 + 8


def test_split_random_partition(toy_dataset):
    train, val = split_random(toy_dataset, 10, seed=42)
    assert len(train) == 30 and len(val) == 10
    all_ts = np.concatenate([train.timestamps, val.timestamps])
    assert sorted(all_ts.tolist()) == sorted(toy_dataset.timestamps.tolist())
    # deterministic per seed
    train2, val2 = split_random(toy_dataset, 10, seed=42)
    assert np.array_equal(val.timestamps, val2.timestamps)
    train3, val3 = split_random(toy_dataset, 10, seed=43)
    assert not np.array_equal(val.timestamps, val3.timestamps)


def test_split_recent_takes_latest(toy_dataset):
    train, val = split_recent(toy_dataset, 10)
    assert len(train) == 30 and len(val) == 10
    assert train.timestamps.max() < val.timestamps.min()


def test_split_recent_unsorted_input():
    ds = make_dataset(n=20)
    rng = np.random.default_rng(9)
    shuffled = ds.subset(rng.permutation(20))
    train, val = split_recent(shuffled, 5)
    assert train.timestamps.max() < val.timestamps.min()
    assert set(val.timestamps.tolist()) == set(sorted(ds.timestamps.tolist())[-5:])


def test_split_recent_ties_preserve_original_order():
    ds = Dataset(
        np.arange(8, dtype=np.float64).reshape(4, 2),
        np.zeros(4, dtype=np.uint8),
        np.array([5, 5, 5, 5], dtype=np.int64),
    )
    train, val = split_recent(ds, 2)
    # stable sort: later original rows become the validation set
    assert np.array_equal(train.features, ds.features[:2])
    assert np.array_equal(val.features, ds.features[2:])


def test_split_bounds(toy_dataset):
    for bad in (0, 40, 41, -1):
        with pytest.raises(ConfigError):
            split_recent(toy_dataset, bad)
        with pytest.raises(ConfigError):
            split_random(toy_dataset, bad, seed=0)


def month_of(ts):
    """(year, month) of a UTC timestamp, one ``datetime`` per call: the
    per-row reference for ``bucket_by_month``."""
    d = datetime.fromtimestamp(int(ts), tz=timezone.utc)
    return d.year, d.month


def test_month_of_utc():
    assert month_of(0) == (1970, 1)
    # 2021-03-15 12:00:00 UTC
    assert month_of(1615809600) == (2021, 3)
    assert month_label(2021, 3) == "2021-03"


def test_bucket_by_month_includes_empty_months():
    # samples in jan and mar 2021, none in feb
    jan = 1609459200  # 2021-01-01
    mar = 1614556800  # 2021-03-01
    ds = Dataset(
        np.zeros((4, 2)),
        np.array([0, 1, 0, 1], dtype=np.uint8),
        np.array([jan, jan + 60, mar, mar + 60], dtype=np.int64),
    )
    buckets = bucket_by_month(ds)
    assert [b[0] for b in buckets] == ["2021-01", "2021-02", "2021-03"]
    assert [len(b[1]) for b in buckets] == [2, 0, 2]


def test_bucket_by_month_year_boundary_and_order():
    dec = 1606780800  # 2020-12-01
    jan = 1609459200  # 2021-01-01
    ds = Dataset(
        np.arange(6, dtype=np.float64).reshape(3, 2),
        np.zeros(3, dtype=np.uint8),
        np.array([jan, dec, jan + 5], dtype=np.int64),
    )
    buckets = bucket_by_month(ds)
    assert [b[0] for b in buckets] == ["2020-12", "2021-01"]
    jan_bucket = buckets[1][1]
    # chronological inside the bucket
    assert jan_bucket.timestamps.tolist() == [jan, jan + 5]


def per_row_buckets(ds):
    """The former per-row bucketing: one ``datetime`` per sample."""
    order = np.argsort(ds.timestamps, kind="stable")
    months = [month_of(ds.timestamps[i]) for i in order]
    groups, ym = {}, months[0]
    while True:
        groups[ym] = []
        if ym == months[-1]:
            break
        ym = (ym[0] + 1, 1) if ym[1] == 12 else (ym[0], ym[1] + 1)
    for pos, ym in zip(order, months):
        groups[ym].append(pos)
    return [(month_label(*ym), idx) for ym, idx in groups.items()]


@pytest.mark.parametrize("lo, hi", [
    (1_600_000_000, 1_700_000_000),  # recent decades
    (-2_000_000_000, 2_000_000_000),  # across 1970, negative timestamps
    (-62_135_596_800, -62_000_000_000),  # from 0001-01-01 00:00:00
    (253_300_000_000, 253_402_300_799),  # to 9999-12-31 23:59:59
])
def test_bucket_by_month_matches_per_row_datetime(lo, hi):
    rng = np.random.default_rng(lo & 0xFFFF)
    ts = rng.integers(lo, hi, size=3000, endpoint=True)
    ts[:2] = lo, hi
    ds = Dataset(rng.standard_normal((ts.size, 2)), np.zeros(ts.size, dtype=np.uint8), ts,
                 name="r")
    got = bucket_by_month(ds)
    want = per_row_buckets(ds)
    assert [label for label, _ in got] == [label for label, _ in want]
    for (label, b), (_, idx) in zip(got, want):
        assert b.name == f"r/{label}"
        assert np.array_equal(b.timestamps, ts[idx])
        assert np.array_equal(b.features, ds.features[idx])


@pytest.mark.parametrize("ts", [-62_135_596_801, 253_402_300_800, np.iinfo(np.int64).min,
                                np.iinfo(np.int64).max])
def test_bucket_by_month_rejects_years_outside_1_to_9999(ts):
    ds = Dataset(np.zeros((2, 1)), np.zeros(2, dtype=np.uint8), np.array([0, ts]),
                 name="far")
    with pytest.raises(DataError, match=f"far: timestamp {ts} "):
        bucket_by_month(ds)


def test_bucket_by_month_empty_dataset():
    ds = Dataset(np.zeros((0, 2)), np.zeros(0, dtype=np.uint8), np.zeros(0, dtype=np.int64))
    assert bucket_by_month(ds) == []


def test_class_counts(toy_dataset):
    n0, n1 = class_counts(toy_dataset)
    assert n0 + n1 == len(toy_dataset)
    assert n1 == int(toy_dataset.labels.sum())


def test_feature_mask_validation():
    FeatureMask((0, 2, 5), 6)
    with pytest.raises(ConfigError):
        FeatureMask((), 6)
    with pytest.raises(ConfigError):
        FeatureMask((2, 2), 6)
    with pytest.raises(ConfigError):
        FeatureMask((3, 1), 6)
    with pytest.raises(ConfigError):
        FeatureMask((0, 6), 6)
    with pytest.raises(ConfigError):
        FeatureMask((-1, 2), 6)


@pytest.mark.parametrize("doc, message", [
    ({"original_dim": 6, "kept_indices": [float("inf")]}, "kept_indices must be a list"),
    ({"original_dim": 6, "kept_indices": "12"}, "kept_indices must be a list"),
    ({"original_dim": 6, "kept_indices": [1.7]}, "kept_indices must be a list"),
    ({"original_dim": 6, "kept_indices": [True]}, "kept_indices must be a list"),
    ({"original_dim": 6, "kept_indices": [0, None]}, "kept_indices must be a list"),
    ({"original_dim": 6.9, "kept_indices": [0]}, "original_dim must be an integer"),
    ({"original_dim": "6", "kept_indices": [0]}, "original_dim must be an integer"),
    ({"original_dim": False, "kept_indices": [0]}, "original_dim must be an integer"),
    ({"original_dim": 6, "kept_indices": [2, 1]}, "strictly increasing"),
    ({"original_dim": 6, "kept_indices": [6]}, "out of range"),
])
def test_feature_mask_from_dict_requires_json_integers(doc, message):
    with pytest.raises(FormatError, match=message):
        FeatureMask.from_dict(doc)


def test_feature_mask_load_names_the_file(tmp_path):
    p = tmp_path / "mask.json"
    p.write_text('{"original_dim": 6, "kept_indices": [1.0]}')
    with pytest.raises(FormatError, match=re.escape(str(p))):
        FeatureMask.load(p)
    p.write_text('{"original_dim": ' + "1" * 5000 + ', "kept_indices": [0]}')
    with pytest.raises(FormatError, match=re.escape(str(p))):
        FeatureMask.load(p)
    assert FeatureMask.from_dict({"original_dim": 6, "kept_indices": [0, 5]}) == FeatureMask((0, 5), 6)


def test_feature_mask_save_load_tolerates_extra_keys(tmp_path):
    mask = FeatureMask((1, 3), 4)
    p = tmp_path / "mask.json"
    write_json(p, {**mask.to_dict(), "config_hash": "abc", "note": "x"})
    doc = json.loads(p.read_text())
    assert doc["config_hash"] == "abc"
    back = FeatureMask.load(p)
    assert back == mask
    p.write_text('{"original_dim": 4}')
    with pytest.raises(FormatError, match="kept_indices"):
        FeatureMask.load(p)
    p.write_text("not json")
    with pytest.raises(FormatError):
        FeatureMask.load(p)


def test_apply_mask(toy_dataset):
    mask = FeatureMask((0, 3), 4)
    out = apply_mask(toy_dataset, mask)
    assert out.feature_dim == 2
    assert np.array_equal(out.features, toy_dataset.features[:, [0, 3]])
    assert np.array_equal(out.labels, toy_dataset.labels)
    with pytest.raises(ShapeError):
        apply_mask(out, mask)


def test_compose_masks_equals_sequential_application(toy_dataset):
    first = FeatureMask((0, 1, 3), 4)
    then = FeatureMask((0, 2), 3)
    combined = compose_masks(first, then)
    assert combined.original_dim == 4
    assert combined.kept_indices == (0, 3)
    a = apply_mask(apply_mask(toy_dataset, first), then)
    b = apply_mask(toy_dataset, combined)
    assert np.array_equal(a.features, b.features)
    with pytest.raises(ShapeError):
        compose_masks(first, FeatureMask((0,), 5))


def test_compose_masks_random_oracle():
    rng = np.random.default_rng(12)
    for _ in range(50):
        dim = int(rng.integers(2, 12))
        k1 = int(rng.integers(1, dim + 1))
        first = FeatureMask(tuple(sorted(rng.choice(dim, k1, replace=False).tolist())), dim)
        k2 = int(rng.integers(1, k1 + 1))
        then = FeatureMask(tuple(sorted(rng.choice(k1, k2, replace=False).tolist())), k1)
        ds = make_dataset(n=6, dim=dim, seed=int(rng.integers(1000)))
        a = apply_mask(apply_mask(ds, first), then)
        b = apply_mask(ds, compose_masks(first, then))
        assert np.array_equal(a.features, b.features)
