"""Spans recorded from outside driftkit, around the calls into each layer.

``Tracer.install`` rebinds, in the calling module's namespace, the names
the pipeline looks up (``driftkit.training.forward``,
``driftkit.model.matmul``, ``driftkit.kernels.adamw_update``, ...) to
wrappers that record one span per call: name, parent span, start, end and
one count (rows, bytes or FLOPs, depending on the layer). ``uninstall``
puts the originals back. Nothing in driftkit changes, and the wrappers
pass arguments and results through untouched, so model bytes are the same
traced or not.

Spans are kept in flat arrays in memory and written out once, when the
run ends. Matmul spans are named after the model call they serve
(``numerics.matmul.train_fwd``, ``.train_bwd``, ``.train_val``, ``.pfi``,
``.eval``), which the enclosing wrapper sets as the current context.
"""

from __future__ import annotations

import os
import uuid
from array import array
from time import perf_counter

import numpy as np

MATMUL_CONTEXTS = ("train_fwd", "train_bwd", "train_val", "pfi", "eval")


def _file_bytes(path) -> float:
    return float(os.path.getsize(path))


def _pfi_permuted_rows(params, X, y, cfg, *rest) -> float:
    return float(X.shape[0] * X.shape[1] * cfg.n_repeats)


def _rows(params, X, *rest) -> float:
    return float(X.shape[0])


class Tracer:
    """Span recorder for one run (one trace id)."""

    def __init__(self):
        self.trace_id = uuid.uuid4().hex
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.count = array("d")
        self.stack = [-1]
        self.ctx = "other"
        self._saved: list = []

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name: str):
        """Context manager for a span opened by the benchmark itself."""
        return _Span(self, self.intern(name))

    def _open(self, nid: int, count: float) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self.stack[-1])
        self.count.append(count)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self.stack.pop()

    def wrap(self, fn, name, count=None, count_after=None, ctx=None):
        """Wrapper that records a span per call of ``fn``.

        count(*args) gives the span's count before the call,
        count_after(*args) after it (e.g. bytes written). ``ctx`` becomes
        the matmul context while the call runs.
        """
        nid = self.intern(name)
        open_, close = self._open, self._close

        def traced(*args, **kw):
            idx = open_(nid, count(*args) if count else 0.0)
            if ctx is not None:
                prev, self.ctx = self.ctx, ctx
            try:
                result = fn(*args, **kw)
            finally:
                if ctx is not None:
                    self.ctx = prev
                close(idx)
            if count_after:
                self.count[idx] = count_after(*args)
            return result

        return traced

    def _forward(self, fn):
        """Training forward passes: dropout-on steps and validation apart."""
        train = self.wrap(fn, "model.forward.train", ctx="train_fwd")
        val = self.wrap(fn, "model.forward.val", ctx="train_val")

        def traced(params, X, mode="eval", rng=None):
            return (train if mode == "train" else val)(params, X, mode=mode, rng=rng)

        return traced

    def _matmul(self, fn):
        nids = {c: self.intern(f"numerics.matmul.{c}") for c in MATMUL_CONTEXTS}
        nids["other"] = self.intern("numerics.matmul.other")
        open_, close = self._open, self._close

        def traced(a, b):
            idx = open_(nids[self.ctx], 2.0 * a.shape[0] * a.shape[1] * b.shape[1])
            try:
                return fn(a, b)
            finally:
                close(idx)

        return traced

    def install(self) -> None:
        """Rebind the pipeline's layer calls to traced wrappers."""
        from driftkit import cli, evaluation, kernels, model, pfi, training

        w = self.wrap
        plan = [
            (cli, "generate_stream", lambda f: w(f, "synthdrift.generate_stream")),
            (cli, "save_dataset", lambda f: w(f, "data.save_dataset",
                                              count_after=lambda ds, path, *r: _file_bytes(path))),
            (cli, "load_dataset", lambda f: w(f, "data.load_dataset",
                                              count=lambda path, *r: _file_bytes(path))),
            (cli, "bucket_by_month", lambda f: w(f, "data.bucket_by_month")),
            (cli, "train", lambda f: w(f, "training.train")),
            (cli, "save_model", lambda f: w(f, "model.save_model",
                                            count_after=lambda p, path, *r: _file_bytes(path))),
            (cli, "load_model", lambda f: w(f, "model.load_model")),
            (cli, "run_pfi", lambda f: w(f, "pfi.run_pfi", count=_pfi_permuted_rows)),
            (cli, "evaluate_buckets", lambda f: w(f, "evaluation.evaluate_buckets")),
            (cli, "detect_drift", lambda f: w(f, "evaluation.detect_drift")),
            (training, "forward", self._forward),
            (training, "backward", lambda f: w(f, "model.backward", ctx="train_bwd")),
            (training, "adamw_step", lambda f: w(f, "model.adamw_step")),
            (training, "loss_value", lambda f: w(f, "losses.loss_value")),
            (training, "loss_grad", lambda f: w(f, "losses.loss_grad")),
            (training, "confusion", lambda f: w(f, "evaluation.confusion")),
            (training, "metrics", lambda f: w(f, "evaluation.metrics")),
            (model, "matmul", self._matmul),
            (model, "dropout_mask", lambda f: w(f, "numerics.dropout_mask")),
            (kernels, "adamw_update", lambda f: w(f, "kernels.adamw_update")),
            (kernels, "sigmoid", lambda f: w(f, "kernels.sigmoid")),
            (pfi, "predict_proba", lambda f: w(f, "model.predict_proba.pfi", count=_rows,
                                               ctx="pfi")),
            (pfi, "confusion", lambda f: w(f, "evaluation.confusion")),
            (pfi, "metrics", lambda f: w(f, "evaluation.metrics")),
            (evaluation, "predict_proba", lambda f: w(f, "model.predict_proba.eval",
                                                      count=_rows, ctx="eval")),
            (evaluation, "confusion", lambda f: w(f, "evaluation.confusion")),
            (evaluation, "metrics", lambda f: w(f, "evaluation.metrics")),
        ]
        for module, attr, make in plan:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, make(original))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def mark(self) -> int:
        """Span index to aggregate from (see ``aggregate``)."""
        return len(self.start)

    def aggregate(self, first: int, last: int | None = None) -> dict:
        """Per name: total seconds, self seconds, calls and count summed
        over spans[first:last]. Self time is a span's duration minus the
        durations of its direct children."""
        last = len(self.start) if last is None else last
        nid = np.frombuffer(self.name_id, dtype=np.int32)[first:last]
        par = np.frombuffer(self.parent, dtype=np.int32)[first:last]
        dur = (np.frombuffer(self.end)[first:last] - np.frombuffer(self.start)[first:last])
        cnt = np.frombuffer(self.count)[first:last]
        local_par = par - first
        has_par = local_par >= 0
        child = np.bincount(local_par[has_par], weights=dur[has_par], minlength=len(dur))
        k = len(self.names)
        tot = np.bincount(nid, weights=dur, minlength=k)
        self_s = np.bincount(nid, weights=dur - child, minlength=k)
        calls = np.bincount(nid, minlength=k)
        counts = np.bincount(nid, weights=cnt, minlength=k)
        return {
            name: {"s": float(tot[i]), "self_s": float(self_s[i]), "calls": int(calls[i]),
                   "count": float(counts[i])}
            for i, name in enumerate(self.names)
            if calls[i]
        }

    def write(self, path) -> None:
        """Write every span of the run: one row per span, names as a table."""
        np.savez_compressed(
            path,
            trace_id=np.array(self.trace_id),
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
            count=np.frombuffer(self.count),
        )


class _Span:
    def __init__(self, tracer: Tracer, nid: int):
        self.tracer, self.nid = tracer, nid

    def __enter__(self):
        self.idx = self.tracer._open(self.nid, 0.0)
        return self

    def __exit__(self, *exc):
        self.tracer._close(self.idx)
        return False
