"""Datasets of timestamped, labeled feature vectors, plus file I/O,
splitting, monthly bucketing, and feature-mask application.

A Dataset is stored column-wise (features matrix, label vector, timestamp
vector) and is immutable by convention: nothing in the package writes into
a dataset's arrays. Most operations return new arrays; the two parts of
``split_recent`` and the buckets of ``bucket_by_month`` are row-slice views
that share memory with a time-ordered stream.
Timestamps are collection metadata (seconds since epoch, UTC), never model
features; they exist to support chronological splits and bucketing.

On-disk formats
---------------
CSV     header ``timestamp,label,f0,...,f{d-1}``; integer seconds, 0/1 label.
Binary  magic ``DSET``, version byte 1, then little-endian u32 feature_dim
        (>= 1), u64 sample_count, and per sample: i64 timestamp, u8 label,
        feature_dim float32 values, loaded as a float32 matrix. Records
        are read and written one <= 1 MiB chunk at a time, so memory holds
        the matrix plus one chunk, not the file. A finite float64 value
        beyond float32's range cannot be saved (DataError).
Mask    JSON ``{"original_dim": int, "kept_indices": [int, ...]}``; extra
        keys are ignored on read.

Features keep float32 when they come as float32 (``.dset`` files, the
synthetic generator), so a stream is held once, at file precision; any
other input, CSV included, becomes float64. The model widens
its input to float64 one batch or block at a time, and that widening is
exact, so both precisions of the same values give the same bits.

The mask's indices and ``original_dim`` must be JSON integers: a float,
string or boolean is rejected, never truncated.

Every file the package writes goes through ``atomic_open``: it is written
under a temporary name in the target's directory and renamed over the
target only once complete, so a failed or interrupted write leaves the
previous file whole and no temporary behind (no fsync: power loss is not
covered).
"""

from __future__ import annotations

import csv
import json
import os
import struct
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, FormatError, ParseError, ShapeError, bounded
from .kernels import make_rng

_MAGIC = b"DSET"
_VERSION = 1
_CHUNK_BYTES = 1 << 20  # bytes of binary records held at once
_F32_OVERFLOW = 2.0**128 - 2.0**103  # the least float64 that rounds to float32 infinity


@dataclass(frozen=True)
class Dataset:
    features: np.ndarray  # (n, feature_dim) float32 if given as float32, else float64
    labels: np.ndarray  # (n,) uint8, values in {0, 1}
    timestamps: np.ndarray  # (n,) int64, seconds since epoch UTC
    name: str = ""

    def __post_init__(self):
        f = self.features
        dtype = np.float32 if getattr(f, "dtype", None) == np.float32 else np.float64
        try:
            f = np.ascontiguousarray(f, dtype=dtype)
        except OverflowError:  # a Python int beyond float64
            raise DataError("feature values must be finite") from None
        if f.ndim != 2:
            raise ShapeError("features must be a 2-D matrix")
        # uint8 labels and int64 timestamps, as every subset passes them, are
        # taken as they are, without boolean temporaries; anything else is
        # checked before its cast, which would wrap -1, 256 or 2**63
        lab, ts = np.asarray(self.labels), np.asarray(self.timestamps)
        if lab.dtype == np.uint8:
            bad = lab.size and lab.max() > 1
        else:
            bad = not ((lab == 0) | (lab == 1)).all()
        if bad:
            raise DataError("labels must be 0 or 1")
        lab = lab.astype(np.uint8, copy=False)
        if ts.dtype != np.int64:
            try:
                with np.errstate(invalid="ignore"):
                    cast = ts.astype(np.int64)
            except (OverflowError, TypeError, ValueError):  # e.g. a Python int past 64 bits
                cast = None
            if cast is None or not (cast == ts).all():
                raise DataError("timestamps must be integers within int64")
            ts = cast
        if lab.shape != (f.shape[0],) or ts.shape != (f.shape[0],):
            raise ShapeError("labels/timestamps length must match sample count")
        # min and max propagate NaN and reach any infinity, so this checks
        # every value without an (n, d) boolean temporary
        if f.size and not (np.isfinite(f.min()) and np.isfinite(f.max())):
            raise DataError("feature values must be finite")
        object.__setattr__(self, "features", f)
        object.__setattr__(self, "labels", lab)
        object.__setattr__(self, "timestamps", ts)

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    def __len__(self) -> int:
        return self.features.shape[0]

    def subset(self, idx, name: str | None = None) -> "Dataset":
        """Rows ``idx`` (indices or booleans: a copy; a slice: a view)."""
        if not isinstance(idx, slice):
            idx = np.asarray(idx)
        return Dataset(
            self.features[idx],
            self.labels[idx],
            self.timestamps[idx],
            self.name if name is None else name,
        )


# every kept index, and the width they index into, is an integer >= 0
_INDEX = bounded("integer", "[0, inf)")


@dataclass(frozen=True)
class FeatureMask:
    """Ordered list of feature indices kept after reduction."""

    kept_indices: tuple
    original_dim: int

    def __post_init__(self):
        idx = tuple(_INDEX.check(i, "kept_indices") for i in self.kept_indices)
        object.__setattr__(self, "kept_indices", idx)
        object.__setattr__(self, "original_dim", _INDEX.check(self.original_dim, "original_dim"))
        if not idx:
            raise ConfigError("feature mask must keep at least one index")
        if any(b <= a for a, b in zip(idx, idx[1:])):
            raise ConfigError("kept_indices must be strictly increasing")
        if idx[-1] >= self.original_dim:
            raise ConfigError("kept index out of range for original_dim")

    def __len__(self) -> int:
        return len(self.kept_indices)

    def to_dict(self) -> dict:
        return {"original_dim": self.original_dim, "kept_indices": list(self.kept_indices)}

    @classmethod
    def from_dict(cls, d: dict) -> "FeatureMask":
        """The mask a JSON document describes; anything malformed,
        including a value that is not a JSON integer, is a FormatError."""
        if not isinstance(d, dict):
            raise FormatError("feature mask is not a JSON object")
        try:
            kept, dim = d["kept_indices"], d["original_dim"]
        except KeyError as e:
            raise FormatError(f"feature mask file missing key {e}") from None
        if not isinstance(kept, list) or not all(_json_int(i) for i in kept):
            raise FormatError("kept_indices must be a list of integers")
        if not _json_int(dim):
            raise FormatError("original_dim must be an integer")
        try:
            return cls(tuple(kept), dim)
        except ConfigError as e:
            raise FormatError(f"malformed feature mask: {e}") from None

    @classmethod
    def load(cls, path) -> "FeatureMask":
        doc = read_json(path, FormatError)
        try:
            return cls.from_dict(doc)
        except FormatError as e:
            raise FormatError(f"{path}: {e}") from None


def _json_int(value) -> bool:
    """Whether a value parsed from JSON is an integer (booleans are not)."""
    return isinstance(value, int) and not isinstance(value, bool)


# ---------------------------------------------------------------------------
# loading / saving
# ---------------------------------------------------------------------------

@contextmanager
def atomic_open(path, mode: str = "w", **open_kwargs):
    """Open ``.{name}.{pid}.tmp`` next to ``path`` for writing. A clean
    exit renames it over ``path``; an exception removes it and re-raises,
    leaving ``path`` as it was."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, **open_kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_json(path, doc, **dumps_kwargs) -> None:
    """Write ``doc`` as indented JSON plus a newline, atomically."""
    with atomic_open(path) as fh:
        fh.write(json.dumps(doc, indent=2, **dumps_kwargs) + "\n")


def write_csv(path, header, rows, comment: str | None = None) -> None:
    """Write an optional ``# comment`` line, then ``header`` and ``rows``
    as CSV, atomically; a None cell is written empty."""
    with atomic_open(path, newline="") as fh:
        if comment:
            fh.write(f"# {comment}\n")
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def read_json(path, error: type) -> dict:
    """The JSON object in ``path``; a missing or unreadable file,
    non-UTF-8 bytes, invalid JSON or a non-object raise ``error`` naming
    the path. Mirrors ``write_json``."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise error(f"cannot read {path}: {exc.strerror}") from None
    # UnicodeDecodeError and JSONDecodeError are ValueErrors, and so is an
    # integer literal past Python's digit limit
    except ValueError as exc:
        raise error(f"invalid JSON in {path}: {exc}") from None
    if not isinstance(doc, dict):
        raise error(f"{path}: not a JSON object")
    return doc


def _read_dataset(path: Path, features, labels, timestamps) -> Dataset:
    """The Dataset named after ``path``; a bad value raises DataError naming it."""
    try:
        return Dataset(features, labels, timestamps, name=path.stem)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None


def _load_csv(path: Path) -> Dataset:
    stamps, labels, feats = [], [], []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty dataset file") from None
        if len(header) < 3 or header[0] != "timestamp" or header[1] != "label":
            raise ParseError(f"{path}: expected header timestamp,label,f0,...", row=1)
        width = len(header) - 2
        for lineno, rec in enumerate(reader, start=2):
            if not rec:
                continue
            if len(rec) != width + 2:
                raise ShapeError(
                    f"{path} row {lineno}: expected {width + 2} columns, got {len(rec)}"
                )
            try:
                stamps.append(int(rec[0]))
                labels.append(int(rec[1]))
                feats.append([float(v) for v in rec[2:]])
            except ValueError as e:
                raise ParseError(f"{path}: {e}", row=lineno) from None
    if not feats:
        raise DataError(f"{path}: empty dataset file")
    return _read_dataset(path, feats, labels, stamps)


def _record_dtype(dim: int) -> np.dtype:
    return np.dtype([("ts", "<i8"), ("label", "u1"), ("feat", "<f4", (dim,))])


def _record_chunks(rec: np.dtype, n: int):
    """(first row, records) over rows [0, n), as views of one reused buffer
    of at most n records and ``_CHUNK_BYTES`` (yet at least one record)."""
    step = max(1, _CHUNK_BYTES // rec.itemsize)
    buf = np.empty(min(n, step), dtype=rec)
    for lo in range(0, n, step):
        yield lo, buf[: min(step, n - lo)]


def _load_binary(path: Path) -> Dataset:
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if size == 0:
            raise DataError(f"{path}: empty dataset file")
        head = fh.read(17)
        if len(head) < 17 or head[:4] != _MAGIC:
            raise FormatError(f"{path}: bad magic, not a DSET file")
        if head[4] != _VERSION:
            raise FormatError(f"{path}: unsupported DSET version {head[4]}")
        dim, count = struct.unpack_from("<IQ", head, 5)
        # numpy needs the record size to fit a C int
        if not 0 < dim <= (2**31 - 1 - 9) // 4:
            raise FormatError(f"{path}: feature_dim {dim} out of range")
        rec = _record_dtype(dim)
        expected = 17 + count * rec.itemsize
        if size != expected:
            raise FormatError(f"{path}: truncated file, expected {expected} bytes, got {size}")
        if count == 0:
            raise DataError(f"{path}: empty dataset file")
        out = (np.empty((count, dim), np.float32), np.empty(count, np.uint8),
               np.empty(count, np.int64))
        for lo, chunk in _record_chunks(rec, count):
            if fh.readinto(chunk) != chunk.nbytes:
                raise FormatError(f"{path}: truncated file, it shrank while being read")
            for column, name in zip(out, ("feat", "label", "ts")):
                column[lo : lo + len(chunk)] = chunk[name]
    return _read_dataset(path, *out)


_LOADERS = {".csv": _load_csv, ".dset": _load_binary}


def _extension(path: Path) -> str:
    """``path``'s extension, lower-cased: it alone picks the format."""
    ext = path.suffix.lower()
    if ext not in _LOADERS:
        raise ConfigError(f"cannot infer format from extension of {path}")
    return ext


def load_dataset(path) -> Dataset:
    """Load a dataset file (csv or binary ``.dset``, by extension).
    A missing path or a directory raises DataError; CSV must be UTF-8,
    other bytes raise ParseError."""
    path = Path(path)
    if not path.is_file():
        raise DataError(f"dataset file not found: {path}")
    try:
        return _LOADERS[_extension(path)](path)
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: {exc}") from None


def save_dataset(ds: Dataset, path) -> None:
    path = Path(path)
    ext = _extension(path)
    if ext == ".csv":
        header = ["timestamp", "label"] + [f"f{i}" for i in range(ds.feature_dim)]
        rows = (
            [int(ds.timestamps[i]), int(ds.labels[i])] + [repr(float(v)) for v in ds.features[i]]
            for i in range(len(ds))
        )
        write_csv(path, header, rows)
    else:
        f = ds.features  # checked first: the float32 cast would write infinity
        if f.dtype != np.float32 and f.size and max(-f.min(), f.max()) >= _F32_OVERFLOW:
            raise DataError(f"{path}: feature values beyond float32 range cannot be saved")
        rec = _record_dtype(ds.feature_dim)
        with atomic_open(path, "wb") as fh:
            fh.write(_MAGIC + bytes([_VERSION]) + struct.pack("<IQ", ds.feature_dim, len(ds)))
            # feat takes the same float64 -> float32 rounding as astype
            columns = {"feat": ds.features, "label": ds.labels, "ts": ds.timestamps}
            for lo, chunk in _record_chunks(rec, len(ds)):
                for name, column in columns.items():
                    chunk[name] = column[lo : lo + len(chunk)]
                fh.write(chunk)


# ---------------------------------------------------------------------------
# splitting and bucketing
# ---------------------------------------------------------------------------

def _check_n_val(ds: Dataset, n_val: int) -> None:
    if not 0 < n_val < len(ds):
        raise ConfigError(f"n_val must be in (0, {len(ds)}), got {n_val}")


def split_random(ds: Dataset, n_val: int, seed: int) -> tuple[Dataset, Dataset]:
    """Uniform random partition into (train, val) with |val| == n_val."""
    _check_n_val(ds, n_val)
    perm = make_rng(seed).permutation(len(ds))
    val_idx = np.sort(perm[:n_val])
    train_idx = np.sort(perm[n_val:])
    return ds.subset(train_idx, name=ds.name + "/train"), ds.subset(val_idx, name=ds.name + "/val")


def _in_time_order(ds: Dataset) -> Dataset:
    """``ds`` itself when its timestamps never decrease, else one copy of
    it in stable timestamp order (tied rows keep their order)."""
    ts = ds.timestamps
    if np.all(ts[:-1] <= ts[1:]):
        return ds
    return ds.subset(np.argsort(ts, kind="stable"))


def split_recent(ds: Dataset, n_val: int) -> tuple[Dataset, Dataset]:
    """Chronological partition: val is the n_val most recent samples.

    Ties at the boundary go to the sample that appears later in the
    original order (stable sort on timestamp). Both parts are row-slice
    views of ``ds``, or of one sorted copy when it is out of time order.
    """
    _check_n_val(ds, n_val)
    ds = _in_time_order(ds)
    cut = len(ds) - n_val
    return (
        ds.subset(slice(None, cut), name=ds.name + "/train"),
        ds.subset(slice(cut, None), name=ds.name + "/val"),
    )


def month_label(year: int, month: int) -> str:
    return f"{year:04d}-{month:02d}"


# the month range of bucket_by_month and of a synthetic stream, as months
# since 1970-01: 0001-01 .. 9999-12
FIRST_MONTH = (1 - 1970) * 12
LAST_MONTH = (9999 - 1970) * 12 + 11


def bucket_by_month(ds: Dataset) -> list[tuple[str, Dataset]]:
    """Split into UTC calendar-month buckets, ascending, including empty
    months between the first and last occupied ones. A timestamp outside
    the years 1-9999 raises DataError. Buckets are row-slice views of
    ``ds``, or of one stable-sorted copy when it is out of time order."""
    if len(ds) == 0:
        return []
    ds = _in_time_order(ds)
    ts = ds.timestamps
    # months since 1970-01, ascending
    months = ts.astype("datetime64[s]").astype("datetime64[M]").astype(np.int64)
    for end in (0, -1):
        if not FIRST_MONTH <= months[end] <= LAST_MONTH:
            raise DataError(
                f"{ds.name or 'dataset'}: timestamp {ts[end]} lies outside the years 1-9999"
            )
    first, last = int(months[0]), int(months[-1])
    edges = np.searchsorted(months, np.arange(first, last + 2))
    out = []
    for m, lo, hi in zip(range(first, last + 1), edges, edges[1:]):
        label = month_label(1970 + m // 12, m % 12 + 1)
        out.append((label, ds.subset(slice(lo, hi), name=f"{ds.name}/{label}")))
    return out


def class_counts(ds: Dataset) -> tuple[int, int]:
    """(number of label-0 samples, number of label-1 samples)."""
    n1 = int(np.sum(ds.labels == 1))
    return len(ds) - n1, n1


def apply_mask(ds: Dataset, mask: FeatureMask) -> Dataset:
    """Keep only the masked feature columns; labels/timestamps unchanged."""
    if mask.original_dim != ds.feature_dim:
        raise ShapeError(
            f"mask built for {mask.original_dim} features, dataset has {ds.feature_dim}"
        )
    idx = np.array(mask.kept_indices, dtype=np.int64)
    return Dataset(ds.features[:, idx], ds.labels, ds.timestamps, name=ds.name)


def compose_masks(first: FeatureMask, then: FeatureMask) -> FeatureMask:
    """Single mask equivalent to applying ``first`` and then ``then``."""
    if then.original_dim != len(first):
        raise ShapeError(
            f"second mask expects {then.original_dim} features, first keeps {len(first)}"
        )
    return FeatureMask(
        tuple(first.kept_indices[j] for j in then.kept_indices), first.original_dim
    )
