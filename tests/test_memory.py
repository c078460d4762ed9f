"""Memory bounds, measured with tracemalloc, which numpy reports its
array buffers to. Each measured call runs once untraced first, so
one-time allocations (lazy imports, caches) are not counted."""

import struct
import tracemalloc
from datetime import datetime, timezone

import numpy as np
import pytest

from driftkit import kernels
from driftkit.data import (
    _CHUNK_BYTES,
    Dataset,
    bucket_by_month,
    load_dataset,
    save_dataset,
    split_recent,
)
from driftkit.evaluation import evaluate_buckets
from driftkit.model import (
    ModelConfig,
    forward,
    init_model,
    load_model,
    param_count,
    predict_proba,
    save_model,
)
from driftkit.pfi import PfiConfig, run_pfi
from driftkit.synthdrift import (
    DRIFT_SHAPES,
    DriftSpec,
    _month_timestamps,
    concept_weight,
    generate_stream,
    informative_indices,
)
from driftkit.training import TrainConfig, train


def _traced(fn):
    """(result, bytes the call still holds, peak bytes during the call)."""
    fn()
    tracemalloc.start()
    try:
        result = fn()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, held, peak


@pytest.mark.parametrize("blocks", [0, 1, 2])
def test_eval_forward_caches_no_pre_activations(blocks):
    """A forward cache of the eval computation (train mode without dropout)
    holds each layer's output once: the entry output, two outputs per
    residual block and one per head, plus the logits."""
    n, trunk, heads = 300, 128, (48, 24)
    cfg = ModelConfig(input_dim=10, trunk_width=trunk, n_residual_blocks=blocks,
                      dropout_rate=0.0, head_widths=heads)
    params = init_model(cfg, seed=0)
    X = np.random.default_rng(1).standard_normal((n, 10))
    _, held, _ = _traced(lambda: forward(params, X, mode="train"))
    outputs = 8 * n * ((1 + 2 * blocks) * trunk + sum(heads) + 1)
    assert outputs <= held <= outputs + 16 * 1024


def _stream_by_vstack(spec):
    """The formulation generate_stream replaced: one new matrix per month,
    stacked at the end, then rounded to float32 as a ``.dset`` save does."""
    info = informative_indices(spec)
    shift_per_dim = (
        spec.drift_magnitude / np.sqrt(spec.n_informative) if spec.drift_magnitude else 0.0
    )
    feats, labels, stamps = [], [], []
    for month in range(spec.n_months):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((spec.seed, month))))
        n = spec.samples_per_month
        y = (rng.random(n) < spec.class_balance).astype(np.uint8)
        X = rng.standard_normal((n, spec.feature_dim))
        w = concept_weight(spec, month)
        if spec.shape == "gradual" and 0.0 < w:
            shift = (rng.random(n) < w).astype(np.float64)
        else:
            shift = np.full(n, w)
        pos = y == 1
        X[np.ix_(pos, info)] += spec.informative_scale - np.outer(
            shift[pos], np.full(spec.n_informative, shift_per_dim)
        )
        X[np.ix_(~pos, info)] -= spec.informative_scale
        feats.append(X)
        labels.append(y)
        stamps.append(_month_timestamps(spec, month))
    return (np.vstack(feats).astype(np.float32), np.concatenate(labels),
            np.concatenate(stamps))


@pytest.mark.parametrize("shape", DRIFT_SHAPES)
def test_generate_stream_equals_per_month_vstack(shape):
    spec = DriftSpec(shape=shape, n_months=7, samples_per_month=123, feature_dim=9,
                     n_informative=4, drift_month=2, seed=5)
    ds = generate_stream(spec)
    X, y, ts = _stream_by_vstack(spec)
    assert ds.features.tobytes() == X.tobytes()
    assert ds.labels.tobytes() == y.tobytes()
    assert ds.timestamps.tobytes() == ts.tobytes()


def test_generate_stream_holds_one_feature_matrix():
    """The float32 stream, its labels and timestamps, and one float64 month
    block. The slack covers the month's shift temporaries, a few float64
    arrays of samples_per_month x n_informative, and small vectors."""
    spec = DriftSpec(n_months=12, samples_per_month=1000, feature_dim=30, seed=3)
    ds, _, peak = _traced(lambda: generate_stream(spec))
    assert ds.features.dtype == np.float32
    arrays = ds.features.nbytes + ds.labels.nbytes + ds.timestamps.nbytes
    block = 8 * spec.samples_per_month * spec.feature_dim
    slack = 4 * 8 * spec.samples_per_month * spec.n_informative + 16 * 1024
    # the float64 stream alone is bigger than the bound
    assert 2 * ds.features.nbytes > arrays + block + slack
    assert peak <= arrays + block + slack


def test_binary_save_allocates_the_records_once(tmp_path):
    ds = generate_stream(DriftSpec(n_months=6, samples_per_month=1000, feature_dim=30, drift_month=3))
    path = tmp_path / "s.dset"
    record_bytes = len(ds) * (8 + 1 + 4 * ds.feature_dim)
    _, _, peak = _traced(lambda: save_dataset(ds, path))
    assert peak <= record_bytes + 32 * 1024
    back = load_dataset(path)
    assert np.array_equal(back.features, ds.features.astype(np.float32))


def _save_whole(ds, path):
    """The binary writer the chunked one replaced: every record at once."""
    rec = np.dtype([("ts", "<i8"), ("label", "u1"), ("feat", "<f4", (ds.feature_dim,))])
    body = np.empty(len(ds), dtype=rec)
    body["ts"] = ds.timestamps
    body["label"] = ds.labels
    body["feat"] = ds.features
    path.write_bytes(b"DSET\x01" + struct.pack("<IQ", ds.feature_dim, len(ds)) + body.tobytes())


def _load_whole(path):
    """The binary reader the chunked one replaced: the whole file as bytes."""
    raw = path.read_bytes()
    dim, count = struct.unpack_from("<IQ", raw, 5)
    rec = np.dtype([("ts", "<i8"), ("label", "u1"), ("feat", "<f4", (dim,))])
    body = np.frombuffer(raw, dtype=rec, count=count, offset=17)
    return body["feat"].copy(), body["label"].copy(), body["ts"].copy()


_DIM = 30
_CHUNK_ROWS = _CHUNK_BYTES // (8 + 1 + 4 * _DIM)
# feature_dim whose single record is bigger than a chunk
_WIDE_DIM = _CHUNK_BYTES // 4 + 1


def _random_dataset(n, dim, seed=0):
    rng = np.random.default_rng(seed)
    return Dataset(
        rng.standard_normal((n, dim)) * 1e3,
        rng.integers(0, 2, n),
        np.sort(rng.integers(-(2**40), 2**40, n)),
        name="rand",
    )


@pytest.mark.parametrize("n, dim", [
    (1, _DIM), (_CHUNK_ROWS - 1, _DIM), (_CHUNK_ROWS, _DIM), (_CHUNK_ROWS + 1, _DIM),
    (3 * _CHUNK_ROWS + 5, _DIM), (3, _WIDE_DIM),
], ids=["1", "chunk-1", "chunk", "chunk+1", "3chunk+5", "record-over-chunk"])
def test_chunked_binary_io_equals_whole_file_io(tmp_path, n, dim):
    ds = _random_dataset(n, dim)
    chunked, whole = tmp_path / "chunked.dset", tmp_path / "whole.dset"
    save_dataset(ds, chunked)
    _save_whole(ds, whole)
    assert chunked.read_bytes() == whole.read_bytes()
    back = load_dataset(chunked)
    for got, want in zip((back.features, back.labels, back.timestamps), _load_whole(whole)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_binary_save_holds_one_chunk(tmp_path):
    ds = _random_dataset(3 * _CHUNK_ROWS + 5, _DIM)
    assert len(ds) * (9 + 4 * _DIM) >= 3 * _CHUNK_BYTES
    _, _, peak = _traced(lambda: save_dataset(ds, tmp_path / "s.dset"))
    assert peak <= _CHUNK_BYTES + 64 * 1024


def test_binary_load_holds_its_arrays_and_one_chunk(tmp_path):
    path = tmp_path / "s.dset"
    save_dataset(_random_dataset(3 * _CHUNK_ROWS + 5, _DIM), path)
    back, _, peak = _traced(lambda: load_dataset(path))
    arrays = back.features.nbytes + back.labels.nbytes + back.timestamps.nbytes
    assert peak <= arrays + _CHUNK_BYTES + 64 * 1024


def test_load_model_holds_only_the_parameters(tmp_path):
    cfg = ModelConfig(input_dim=40, trunk_width=128, n_residual_blocks=2, head_widths=(32,))
    path = tmp_path / "m.dnet"
    save_model(init_model(cfg, seed=0), path)
    loaded, _, peak = _traced(lambda: load_model(path))
    assert loaded.params.flat.nbytes > 512 * 1024
    assert peak <= loaded.params.flat.nbytes + 64 * 1024


def test_buckets_of_a_time_ordered_stream_are_views():
    ds = generate_stream(DriftSpec(n_months=6, samples_per_month=500, feature_dim=12, drift_month=3))
    buckets, held, _ = _traced(lambda: bucket_by_month(ds))
    assert len(buckets) == 6
    for _, b in buckets:
        for part in ("features", "labels", "timestamps"):
            assert np.shares_memory(getattr(b, part), getattr(ds, part))
    assert held < ds.features.nbytes / 10


def test_buckets_of_a_shuffled_stream_equal_fancy_index_copies():
    """Out of time order, with tied timestamps, each bucket equals a
    fancy-index copy of its rows in stable timestamp order."""
    rng = np.random.default_rng(7)
    stamps = 1_609_459_200 + np.sort(rng.integers(0, 200 * 86_400, size=40))
    ts = rng.choice(stamps, size=600)
    ds = Dataset(rng.standard_normal((600, 5)), rng.integers(0, 2, 600), ts, name="mix")
    month = np.array(
        [datetime.fromtimestamp(int(t), timezone.utc).strftime("%Y-%m") for t in ts]
    )
    buckets = bucket_by_month(ds)
    assert [label for label, _ in buckets] == sorted(set(month))
    for label, b in buckets:
        rows = np.flatnonzero(month == label)
        rows = rows[np.argsort(ts[rows], kind="stable")]
        want = ds.subset(rows, name=f"mix/{label}")
        assert b.name == want.name
        for part in ("features", "labels", "timestamps"):
            assert np.array_equal(getattr(b, part), getattr(want, part))
        assert not np.shares_memory(b.features, ds.features)


def test_split_recent_of_a_time_ordered_stream_is_views():
    ds = generate_stream(DriftSpec(n_months=4, samples_per_month=300, feature_dim=8, drift_month=2))
    (tr, val), held, _ = _traced(lambda: split_recent(ds, 250))
    assert (len(tr), len(val)) == (950, 250)
    for part in ("features", "labels", "timestamps"):
        assert np.shares_memory(getattr(tr, part), getattr(ds, part))
        assert np.shares_memory(getattr(val, part), getattr(ds, part))
    assert held < ds.features.nbytes / 10


def test_split_recent_of_a_shuffled_stream_equals_argsort_copies():
    """Out of time order, with tied timestamps (some across the cut), the
    parts equal fancy-index copies in stable timestamp order."""
    rng = np.random.default_rng(11)
    ts = rng.choice(1_609_459_200 + np.arange(0, 40 * 86_400, 86_400), size=500)
    ds = Dataset(rng.standard_normal((500, 4)), rng.integers(0, 2, 500), ts, name="mix")
    order = np.argsort(ts, kind="stable")
    want = ds.subset(order[:-120], name="mix/train"), ds.subset(order[-120:], name="mix/val")
    assert ts[order[-121]] == ts[order[-120]]  # a tie straddles the cut
    for got, ref in zip(split_recent(ds, 120), want):
        assert got.name == ref.name
        for part in ("features", "labels", "timestamps"):
            assert np.array_equal(getattr(got, part), getattr(ref, part))
        assert not np.shares_memory(got.features, ds.features)


def test_training_peak_holds_no_idle_gradient_buffer():
    """During validation train holds four parameter-sized vectors (params,
    best params, AdamW's two moments) and the eval cache; the gradient
    buffer and the split are not held beside them. The slack covers
    AdamW's scratch vectors and small per-epoch arrays."""
    cfg = ModelConfig(input_dim=30, trunk_width=256, n_residual_blocks=2, head_widths=(64,))
    tcfg = TrainConfig(n_val=1000, batch_size=64, max_epochs=2, patience=2)
    ds = generate_stream(DriftSpec(n_months=4, samples_per_month=500, feature_dim=30, drift_month=2))
    _, _, peak = _traced(lambda: train(ds, cfg, tcfg))
    param_bytes = 8 * param_count(cfg)
    widths = (1 + 2 * cfg.n_residual_blocks) * cfg.trunk_width + sum(cfg.head_widths) + 1
    val_cache = 8 * tcfg.n_val * widths
    scratch = 2 * 8 * min(param_count(cfg), kernels.ADAMW_SLICE)
    # the buffer this bound leaves out is bigger than the slack
    assert param_bytes > scratch + 512 * 1024
    assert peak <= 4 * param_bytes + val_cache + scratch + 512 * 1024


def _wide_stream_and_model():
    ds = generate_stream(DriftSpec(n_months=12, samples_per_month=400, feature_dim=40,
                                   drift_month=6))
    cfg = ModelConfig(input_dim=40, trunk_width=32, n_residual_blocks=1, head_widths=(16,))
    return ds, init_model(cfg, seed=0)


def test_eval_of_a_float32_stream_widens_one_bucket_at_a_time():
    """evaluate_buckets holds one bucket's float64 widening beyond what
    predict_proba holds on that bucket already in float64; the slack
    covers the confusion counts' boolean vectors."""
    ds, params = _wide_stream_and_model()
    buckets = bucket_by_month(ds)
    bucket64 = max((b for _, b in buckets), key=len).features.astype(np.float64)
    _, _, scoring = _traced(lambda: predict_proba(params, bucket64))
    _, _, peak = _traced(lambda: evaluate_buckets(params, buckets))
    bound = bucket64.nbytes + scoring + 32 * 1024
    # widening the whole stream at once would not fit
    assert 8 * ds.features.size > bound
    assert peak <= bound


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_pfi_holds_one_float64_working_copy(dtype):
    """run_pfi holds one float64 copy of its matrix beyond what
    predict_proba holds on it; the slack covers the permuted column, its
    saved original and the permutation."""
    ds, params = _wide_stream_and_model()
    X, y = ds.features[:1500].astype(dtype), ds.labels[:1500]
    X64 = X.astype(np.float64)
    _, _, scoring = _traced(lambda: predict_proba(params, X64))
    cfg = PfiConfig(n_repeats=1, keep_threshold=-1.0)
    _, _, peak = _traced(lambda: run_pfi(params, X, y, cfg))
    slack = 4 * 8 * len(X) + 32 * 1024
    assert X64.nbytes > slack
    assert peak <= X64.nbytes + scoring + slack
