"""Feature precision: a Dataset keeps float32 features as float32 and
holds anything else as float64. ``.dset`` files and the synthetic
generator give float32, the text formats float64. The model widens its
input to float64 itself, exactly, so every result on a float32 dataset
equals, bit for bit, the result on its float64 copy."""

from dataclasses import replace

import numpy as np
import pytest

from driftkit.data import (
    Dataset,
    FeatureMask,
    apply_mask,
    bucket_by_month,
    load_dataset,
    save_dataset,
    split_random,
    split_recent,
)
from driftkit.evaluation import evaluate_buckets
from driftkit.model import ModelConfig
from driftkit.pfi import PfiConfig, run_pfi
from driftkit.synthdrift import DRIFT_SHAPES, DriftSpec, generate_stream
from driftkit.training import TrainConfig, train

SPEC = DriftSpec(shape="sudden", n_months=5, samples_per_month=160, feature_dim=7,
                 n_informative=3, drift_month=3, seed=4)


def _as_float64(ds):
    return Dataset(ds.features.astype(np.float64), ds.labels, ds.timestamps, name=ds.name)


def _parts(ds):
    mask = FeatureMask((0, 2, 5), ds.feature_dim)
    yield "subset(indices)", ds.subset([3, 1, 4])
    yield "subset(booleans)", ds.subset(ds.labels == 1)
    yield "subset(slice)", ds.subset(slice(10, 50))
    yield "apply_mask", apply_mask(ds, mask)
    yield from zip(("split_recent/train", "split_recent/val"), split_recent(ds, 100))
    yield from zip(("split_random/train", "split_random/val"), split_random(ds, 100, seed=1))
    yield from bucket_by_month(ds)


def test_generate_stream_and_dset_give_float32(tmp_path):
    ds = generate_stream(SPEC)
    assert ds.features.dtype == np.float32
    save_dataset(ds, tmp_path / "s.dset")
    assert load_dataset(tmp_path / "s.dset").features.dtype == np.float32


@pytest.mark.parametrize("ext", [".csv"])
def test_text_formats_give_float64_with_the_saved_values(tmp_path, ext):
    ds = generate_stream(SPEC)
    save_dataset(ds, tmp_path / f"s{ext}")
    back = load_dataset(tmp_path / f"s{ext}")
    assert back.features.dtype == np.float64
    assert back.features.tobytes() == ds.features.astype(np.float64).tobytes()


@pytest.mark.parametrize("features, dtype", [
    (np.ones((2, 3), np.float32), np.float32),
    (np.ones((3, 2), np.float32).T, np.float32),  # not contiguous: a contiguous copy
    (np.ones((2, 3)), np.float64),
    (np.ones((2, 3), np.float16), np.float64),
    (np.ones((2, 3), np.int64), np.float64),
    (np.ones((2, 3), np.int8), np.float64),
    ([[1.0, 2.0, 3.0]] * 2, np.float64),
    ([[np.float32(1.5)] * 3] * 2, np.float64),  # a list, whatever its items
])
def test_dataset_keeps_float32_and_casts_the_rest_to_float64(features, dtype):
    ds = Dataset(features, [0, 1], [0, 1])
    assert ds.features.dtype == dtype and ds.features.flags.c_contiguous
    assert np.array_equal(ds.features, np.asarray(features, dtype=np.float64))


def test_dataset_takes_float32_features_without_a_copy():
    X = np.ones((2, 3), np.float32)
    assert Dataset(X, [0, 1], [0, 1]).features is X


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_subsets_splits_masks_and_buckets_keep_the_dtype(dtype):
    ds = generate_stream(SPEC)
    if dtype == np.float64:
        ds = _as_float64(ds)
    for what, part in _parts(ds):
        assert part.features.dtype == dtype, what


def test_stream_round_trips_through_dset_byte_for_byte(tmp_path):
    for shape in DRIFT_SHAPES:
        ds = generate_stream(replace(SPEC, shape=shape))
        save_dataset(ds, tmp_path / "s.dset")
        back = load_dataset(tmp_path / "s.dset")
        for part in ("features", "labels", "timestamps"):
            got, want = getattr(back, part), getattr(ds, part)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (shape, part)


def test_train_pfi_and_eval_give_the_same_bits_on_float32_and_float64():
    ds32 = generate_stream(SPEC)
    ds64 = _as_float64(ds32)
    cfg = ModelConfig(input_dim=SPEC.feature_dim, trunk_width=16, n_residual_blocks=1,
                      dropout_rate=0.2, head_widths=(8,))
    tcfg = TrainConfig(n_val=120, batch_size=32, max_epochs=3, patience=3, lr=5e-3, seed=2)
    (p32, h32), (p64, h64) = train(ds32, cfg, tcfg), train(ds64, cfg, tcfg)
    assert p32.flat.tobytes() == p64.flat.tobytes()
    assert h32 == h64

    pcfg = PfiConfig(n_repeats=2, seed=3, keep_threshold=-1.0)
    (m32, r32), (m64, r64) = (run_pfi(p32, d.features, d.labels, pcfg) for d in (ds32, ds64))
    assert m32 == m64 and r32.e_base == r64.e_base
    assert r32.importances.tobytes() == r64.importances.tobytes()

    e32, e64 = (evaluate_buckets(p32, bucket_by_month(d)) for d in (ds32, ds64))
    assert e32.to_json() == e64.to_json()
