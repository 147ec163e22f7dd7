"""Outside-in span tracing of the ``convkv`` package.

The benchmark wraps each traced public function at every ``convkv.*`` module
namespace that bound it (``from .x import y`` makes one binding per importer),
and the two traced methods on their classes. A span records (name, start,
end, parent span, workload operation); spans live in flat arrays and are
written out when the run ends. A layer's self time is its span duration minus
the part of that interval its child spans cover.

The clock used for spans excludes the recorder's own bookkeeping and the
statistics computed from call results, so self times are not inflated by the
tracer; the wall-clock overhead of tracing is reported separately.
"""

from __future__ import annotations

import functools
import inspect
import sys
from array import array
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import numpy as np

WORKLOAD = "workload"
SETUP = "setup"


class SpanRecorder:
    """Append-only span store; a span's id is its index."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.op_phase: list[str] = []
        self.stats: dict[str, float] = defaultdict(float)
        self._open: list[int] = []
        self._paused = 0.0
        self._op = -1

    def begin_op(self, phase: str) -> int:
        """Start a workload operation (one window, request, calibration run, ...)."""
        self.op_phase.append(phase)
        self._op = len(self.op_phase) - 1
        return self._op

    @property
    def in_workload(self) -> bool:
        return self._op >= 0 and self.op_phase[self._op] == WORKLOAD

    def begin(self, name: str) -> int:
        t = perf_counter()
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name.append(name_id)
        self.start.append(t - self._paused)
        self.end.append(0.0)
        self.parent.append(self._open[-1] if self._open else -1)
        self.op.append(self._op)
        self._open.append(idx)
        self._paused += perf_counter() - t
        return idx

    def finish(self, idx: int) -> None:
        t = perf_counter()
        self.end[idx] = t - self._paused
        if self._open.pop() != idx:
            raise RuntimeError("spans finished out of order")
        self._paused += perf_counter() - t

    @contextmanager
    def span(self, name: str):
        idx = self.begin(name)
        try:
            yield
        finally:
            self.finish(idx)

    @contextmanager
    def paused(self):
        """Time spent inside is invisible to every span."""
        t = perf_counter()
        try:
            yield
        finally:
            self._paused += perf_counter() - t

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
        }

    def write(self, path: Path) -> None:
        spans = self.arrays()
        spans["self"] = self_times(spans["start"], spans["end"], spans["parent"])
        np.savez_compressed(
            path, names=np.array(self.names), op_phase=np.array(self.op_phase), **spans
        )


def self_times(start, end, parent) -> np.ndarray:
    """Duration of each span minus the union of its children, clipped to it."""
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    parent = np.asarray(parent)
    children = np.flatnonzero(parent >= 0)
    children = children[np.lexsort((start[children], parent[children]))]
    starts, ends, parents = start.tolist(), end.tolist(), parent.tolist()
    covered = [0.0] * len(starts)
    p_cur, lo, hi = -1, 0.0, 0.0
    for c in children.tolist():
        p = parents[c]
        s, e = max(starts[c], starts[p]), min(ends[c], ends[p])
        if p != p_cur:
            if p_cur >= 0:
                covered[p_cur] += hi - lo
            p_cur, lo, hi = p, s, s
        if e <= s:
            continue
        if s > hi:
            covered[p] += hi - lo
            lo, hi = s, e
        else:
            hi = max(hi, e)
    if p_cur >= 0:
        covered[p_cur] += hi - lo
    return (end - start) - np.array(covered)


# --- what is traced ------------------------------------------------------------

_SIGNATURES: dict = {}


def _arguments(fn, args, kwargs) -> dict:
    sig = _SIGNATURES.get(fn)
    if sig is None:
        sig = _SIGNATURES[fn] = inspect.signature(fn)
    return sig.bind(*args, **kwargs).arguments


def _observe_backward(rec, fn, args, kwargs, result):
    rec.stats["backward_calls"] += 1
    rec.stats["tape_entries"] += len(_arguments(fn, args, kwargs)["tape"])


def _observe_attend(rec, fn, args, kwargs, result):
    a = _arguments(fn, args, kwargs)
    entries = a["k"].cols * a["q"].cols
    rec.stats["peak_score_entries"] = max(rec.stats["peak_score_entries"], entries)


def _observe_eviction(rec, fn, args, kwargs, result):
    a = _arguments(fn, args, kwargs)
    before = a["cache"].live_entries + a["k_new"].cols
    rec.stats["evicted_cols"] += before - result.live_entries


def _observe_update(rec, fn, args, kwargs, result):
    if result.capacity is not None:
        peak = rec.stats["peak_live_entries"]
        rec.stats["peak_live_entries"] = max(peak, result.live_entries)


def _observe_weights(rec, fn, args, kwargs, result):
    new = result.new_weights.data
    rows = np.hstack([new, result.cache_weights.data])
    logs = np.log(rows, out=np.zeros_like(rows), where=rows > 0)
    rec.stats["new_share_sum"] += new.sum(axis=1).sum()
    rec.stats["entropy_exp_sum"] += np.exp(-(rows * logs).sum(axis=1)).sum()
    rec.stats["slot_rows"] += rows.shape[0]


# (span name, module, attribute path, observer run on the result)
TARGETS = (
    ("numerics.backward", "convkv.numerics", "backward", _observe_backward),
    ("attention.project_qkv", "convkv.attention", "project_qkv", None),
    ("attention.apply_rope", "convkv.attention", "apply_rope", None),
    ("attention.attend", "convkv.attention", "attend", _observe_attend),
    ("cache.update_concat", "convkv.cache", "update_concat", None),
    ("cache.update_h2o", "convkv.cache", "update_h2o", _observe_eviction),
    ("cache.update_sink_window", "convkv.cache", "update_sink_window", _observe_eviction),
    ("compressor.synthesize_weights", "convkv.compressor", "synthesize_weights", _observe_weights),
    ("compressor.fuse", "convkv.compressor", "fuse", None),
    ("policies.update", "convkv.policies", "LayerPolicy.update", _observe_update),
    ("policies.build", "convkv.policies", "PolicySpec.build", None),
    ("model.forward_segmented", "convkv.model", "forward_segmented", None),
    ("model.sequence_loss", "convkv.model", "sequence_loss", None),
    ("training.adam_step", "convkv.training", "adam_step", None),
    ("training.pretrain", "convkv.training", "pretrain", None),
    ("checkpoint.save_checkpoint", "convkv.checkpoint", "save_checkpoint", None),
    ("checkpoint.load_checkpoint", "convkv.checkpoint", "load_checkpoint", None),
)
NOT_PRIMITIVES = {"backward", "active_tape"}


def numerics_primitives() -> list[str]:
    """Public op functions of ``convkv.numerics`` (everything but the tape API)."""
    mod = sys.modules["convkv.numerics"]
    return sorted(
        name for name, obj in vars(mod).items()
        if inspect.isfunction(obj) and obj.__module__ == mod.__name__
        and not name.startswith("_") and name not in NOT_PRIMITIVES
    )


def _wrap(rec: SpanRecorder, name: str, fn, observe):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = rec.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.finish(idx)
        if observe is not None and rec.in_workload:
            with rec.paused():
                observe(rec, fn, args, kwargs, result)
        return result

    return traced


class Tracer:
    """Installs span wrappers on entry and restores the originals on exit."""

    def __init__(self, rec: SpanRecorder):
        self.rec = rec
        self.missing: list[str] = []
        self._patched: list[tuple[object, str, object]] = []

    def _targets(self):
        for name in numerics_primitives():
            yield f"numerics.{name}", "convkv.numerics", name, None
        yield from TARGETS

    def __enter__(self) -> "Tracer":
        self.missing = []
        convkv_modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == "convkv" or key.startswith("convkv."))
        ]
        for span_name, module, path, observe in self._targets():
            owner = sys.modules.get(module)
            *owner_path, attr = path.split(".")
            for part in owner_path:
                owner = getattr(owner, part, None)
            fn = getattr(owner, attr, None)
            if fn is None:
                self.missing.append(span_name)
                continue
            wrapper = _wrap(self.rec, span_name, fn, observe)
            owners = [owner] if owner_path else convkv_modules
            for obj in owners:
                for key, value in list(vars(obj).items()):
                    if value is fn:
                        self._patched.append((obj, key, fn))
                        setattr(obj, key, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for obj, key, fn in reversed(self._patched):
            setattr(obj, key, fn)
        self._patched.clear()


def summarize(rec: SpanRecorder, tokens: int) -> dict[str, float]:
    """Per-layer figures of the workload operations (and of the set-up where named)."""
    spans = rec.arrays()
    phases = np.array(rec.op_phase + [""])[spans["op"]]  # op -1 (outside any) maps to ""
    names = np.array(rec.names + [""])[spans["name"]]
    duration = spans["end"] - spans["start"]
    work, setup = phases == WORKLOAD, phases == SETUP
    stats = rec.stats

    def calls(name):
        return int(np.count_nonzero(work & (names == name)))

    def seconds(name, phase=work):
        return float(duration[phase & (names == name)].sum())

    primitives = [f"numerics.{name}" for name in numerics_primitives()]
    op_calls = int(np.count_nonzero(work & np.isin(names, primitives)))
    forward = work & (names == "model.forward_segmented")
    own = self_times(spans["start"], spans["end"], spans["parent"])[forward].sum()
    slot_rows = stats["slot_rows"]
    steps = stats["backward_calls"]
    return {
        "numerics.ops.calls": op_calls,
        "numerics.ops_per_token": op_calls / tokens,
        **{f"numerics.{op}.s": seconds(f"numerics.{op}")
           for op in ("matmul", "conv1d", "softmax_cols", "hstack", "backward")},
        "attention.project_qkv.s": seconds("attention.project_qkv"),
        "attention.apply_rope.calls": calls("attention.apply_rope"),
        "attention.apply_rope.s": seconds("attention.apply_rope"),
        "attention.attend.calls": calls("attention.attend"),
        "attention.attend.s": seconds("attention.attend"),
        "attention.peak_score_entries": int(stats["peak_score_entries"]),
        "policies.update.calls": calls("policies.update"),
        "policies.update.s": seconds("policies.update"),
        "policies.build.calls": calls("policies.build"),
        "compressor.synthesize_weights.calls": calls("compressor.synthesize_weights"),
        "compressor.synthesize_weights.s": seconds("compressor.synthesize_weights"),
        "compressor.fuse.s": seconds("compressor.fuse"),
        "compressor.merges_per_token": calls("compressor.synthesize_weights") / tokens,
        "compressor.new_block_weight_share": stats["new_share_sum"] / slot_rows if slot_rows else 0.0,
        "compressor.effective_sources": stats["entropy_exp_sum"] / slot_rows if slot_rows else 0.0,
        "cache.update_concat.s": seconds("cache.update_concat"),
        "cache.update_h2o.s": seconds("cache.update_h2o"),
        "cache.update_sink_window.s": seconds("cache.update_sink_window"),
        "cache.evicted_cols": int(stats["evicted_cols"]),
        "cache.peak_live_entries": int(stats["peak_live_entries"]),
        "model.forward_segmented.calls": calls("model.forward_segmented"),
        "model.forward_segmented.self_s": float(own),
        "model.sequence_loss.s": seconds("model.sequence_loss"),
        "training.adam_step.s": seconds("training.adam_step"),
        "training.tape_entries_per_step": stats["tape_entries"] / steps if steps else 0.0,
        "training.pretrain.s": seconds("training.pretrain", setup),
        "checkpoint.save_checkpoint.s": seconds("checkpoint.save_checkpoint", setup),
        "checkpoint.load_checkpoint.s": seconds("checkpoint.load_checkpoint", setup),
    }
