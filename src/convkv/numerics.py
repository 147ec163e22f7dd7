"""Dense float64 linear algebra with a minimal reverse-mode gradient tape.

Every numeric path in this package -- attention, the convolutional cache
compressor, training -- is built from the primitives in this module. Each
primitive computes its forward result with plain numpy and, when a GradTape
is active and an operand is marked trainable, records the matching
vector-Jacobian product so ``backward`` can replay the computation in
reverse.

Only the operations needed on the compressor calibration path carry
gradients; this is deliberately not a general autodiff system. A vjp keeps
what its gradients need and no more: arrays and flags, never an operand
tensor, and an operand's data only when the other operand's gradient reads
it. The tape keys op results by node id rather than holding them, so an
output that no vjp reads is freed while the tape still records.

``conv1d``'s forward is one GEMM per tap, each on a strided view of the
zero-padded input, so it builds no im2col, k shifted copies of that input;
the kernels are stored tap-major for it, each tap's columns side by side.
Its gradients are GEMMs over an im2col, which the kernel gradient rebuilds
from the input, kept only when the kernels are trainable.

A tensor may carry one leading axis, of heads or sequences, so one call
serves them all; ``rows`` and ``cols`` are then the last two axes.
``matmul`` (equal leading dims), ``transpose``, ``add``, ``relu``,
``softmax_cols`` (one mask for all), ``row_normalize``, ``hstack``,
``select_cols`` (a row of indices per sequence) and ``conv1d``
(each sequence padded alone) take such operands; every other primitive
requires 2-D operands and raises ShapeError on anything else.

``conv1d`` takes one kernel bank per equal group of that axis, as the model
stacks every layer's caches and merges them in one update. Its groups'
GEMMs, each of the shape a one-group call would have, run side by side on
the calling thread and one pool worker when the call is made inside the
calling thread's ``_side_by_side`` context, which the model enters while it
feeds a stream more than one token per sequence: merges then come close
together, where a decode step's merge comes so long after the last that
waking the idle worker costs more than it saves. Everything else runs on the
calling thread, which alone records on a tape.
"""

from __future__ import annotations

import itertools
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

RMS_EPS = 1e-8  # keeps rms_norm_cols finite on an all-zero column
MIN_ROW_SUM = 1e-8  # row_normalize's floor for a dead row


class NumericsError(ValueError):
    """Numeric contract violation (non-finite data, bad shapes, tape misuse)."""


class ShapeError(NumericsError):
    """Operands have incompatible dimensions."""


class NonFiniteError(NumericsError):
    """NaN or infinity where finite values are required.

    ``index`` is the position along the leading axis of the first matrix found
    at fault, when the op that raised knows it, else None.
    """

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


class TapeError(NumericsError):
    """Gradient tape used out of protocol (e.g. replayed twice)."""


def _is_integer(value) -> bool:
    """Whether ``value`` can be a count: a Python or numpy integer, but no bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


class Tensor2:
    """Dense rows x cols matrix of 64-bit reals, stored row-major by the constructor.

    Data is (rows, cols) or, with one leading axis of heads or sequences,
    (n, rows, cols): a stack of n matrices of the same size, for which
    ``rows`` and ``cols`` describe each matrix. Other ranks raise ShapeError.

    Entries must be finite: NaN or +/-inf anywhere is a contract violation
    and raises NonFiniteError at construction. Op results skip re-validation;
    no op makes an infinite entry on purpose, as attention's -inf causal mask
    lives only inside ``softmax_cols``.

    ``node`` is the id a ``GradTape`` gave the op result when it recorded the
    op, None for a tensor no tape recorded; ``backward`` keys gradients by it.
    """

    __slots__ = ("data", "requires_grad", "node")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.array(data, dtype=np.float64, order="C", copy=True)
        if arr.ndim not in (2, 3):
            raise ShapeError(f"Tensor2 needs (rows, cols) or (n, rows, cols) data, got {arr.shape}")
        if not np.isfinite(arr).all():
            raise NonFiniteError("Tensor2 entries must be finite (found NaN/Inf)")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.node: int | None = None

    @classmethod
    def zeros(cls, *shape: int) -> "Tensor2":
        return _wrap(np.zeros(shape), False)

    @property
    def rows(self) -> int:
        return self.data.shape[-2]

    @property
    def cols(self) -> int:
        return self.data.shape[-1]

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def detach(self) -> "Tensor2":
        """Same values, cut off from gradient tracking."""
        return _wrap(self.data, False)


def _wrap(arr: np.ndarray, requires_grad: bool) -> Tensor2:
    """Internal constructor: wrap an array the ops already vouch for."""
    t = Tensor2.__new__(Tensor2)
    t.data = arr
    t.requires_grad = requires_grad
    t.node = None
    return t


# --- gradient tape -----------------------------------------------------------

_TapeVjp = Callable[[np.ndarray], tuple]

_LOCAL = threading.local()
_NODE_IDS = itertools.count()  # one id per recorded op result, unique in the process


def _tape_stack() -> list:
    stack = getattr(_LOCAL, "stack", None)
    if stack is None:
        stack = []
        _LOCAL.stack = stack
    return stack


def active_tape() -> "GradTape | None":
    stack = _tape_stack()
    return stack[-1] if stack else None


class GradTape:
    """Ordered record of primitive ops, replayed in reverse by ``backward``.

    One tape per training step, single writer. Entering the context makes the
    tape active for the current thread; ops then record themselves whenever
    an operand (transitively) requires gradients.

    An entry holds what its vjp reads and no more: one key per input, the
    output's node id and the vjp. An input this tape produced is keyed by its
    node id; any other input is a leaf, keyed by its ``Tensor2`` when it
    requires gradients and by None when it does not. So the tape pins no op
    output and no frozen operand, only the arrays its vjps keep.
    """

    def __init__(self):
        self._entries: list[tuple[tuple[int | Tensor2 | None, ...], int, _TapeVjp]] = []
        self._nodes: set[int] = set()
        self._consumed = False

    def __enter__(self) -> "GradTape":
        _tape_stack().append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        stack = _tape_stack()
        if not stack or stack[-1] is not self:
            raise TapeError("tape context exited out of order")
        stack.pop()

    def _record(self, inputs: tuple[Tensor2, ...], output: Tensor2, vjp: _TapeVjp) -> None:
        nodes = self._nodes
        keys = tuple(t.node if t.node in nodes else t if t.requires_grad else None for t in inputs)
        output.node = next(_NODE_IDS)
        nodes.add(output.node)
        self._entries.append((keys, output.node, vjp))

    def __len__(self) -> int:
        return len(self._entries)


def backward(tape: GradTape, output: Tensor2) -> dict[Tensor2, np.ndarray]:
    """Replay ``tape`` in reverse from the 1x1 ``output``; the returned dict,
    keyed by tensor, is the one place that holds the trainable leaves' gradients.

    Gradients are accumulated per node id, or per tensor for a leaf; ops whose
    result never received an upstream gradient contribute nothing. A vjp may
    return None for an operand that needs no gradient (``requires_grad``
    False when the op ran), and ops with several operands do, so a frozen
    weight costs no gradient work. A tape is replayed once; record a new one
    for the next pass.
    """
    if tape._consumed:
        raise TapeError("tape already replayed; record a new tape for the next pass")
    if not tape._entries:
        raise TapeError("tape is empty; no forward pass was recorded")
    if output.shape != (1, 1):
        raise ShapeError(f"backward needs a 1x1 output, got {output.shape}")

    root = output.node if output.node in tape._nodes else output
    grads: dict[int | Tensor2, np.ndarray] = {root: np.ones((1, 1))}
    for keys, out, vjp in reversed(tape._entries):
        g = grads.pop(out, None)
        if g is None:
            continue  # zero upstream gradient: contributes zero
        for key, gt in zip(keys, vjp(g)):
            if gt is None or key is None:
                continue
            if key in grads:
                grads[key] = grads[key] + gt
            else:
                grads[key] = gt
    tape._consumed = True
    return {t: g for t, g in grads.items() if isinstance(t, Tensor2)}


def _result(data: np.ndarray, inputs: tuple[Tensor2, ...], vjp: _TapeVjp) -> Tensor2:
    for t in inputs:
        if t.requires_grad:
            break
    else:  # no trainable operand: nothing to record, the common case at inference
        return _wrap(data, False)
    out = _wrap(data, True)
    tape = active_tape()
    if tape is not None:
        tape._record(inputs, out, vjp)
    return out


def custom_op(inputs: Sequence[Tensor2], data: np.ndarray, vjp: _TapeVjp) -> Tensor2:
    """Register an externally implemented primitive (e.g. rotary embedding)."""
    return _result(data, tuple(inputs), vjp)


def _require_2d(op: str, *tensors: Tensor2) -> None:
    """Primitives without a head axis reject head-batched operands outright."""
    for t in tensors:
        if t.data.ndim != 2:
            raise ShapeError(f"{op}: needs 2-D operands, got shape {t.shape}")


# --- primitives ---------------------------------------------------------------

def matmul(a: Tensor2, b: Tensor2) -> Tensor2:
    """Matrix product a @ b, per head when both carry the same head axis.

    The vjp computes the gradient of a frozen operand as None, and keeps an
    operand's data only when the other operand's gradient reads it.
    """
    if a.shape[:-2] != b.shape[:-2]:
        raise ShapeError(f"matmul: leading dims differ ({a.shape} @ {b.shape})")
    if a.cols != b.rows:
        raise ShapeError(f"matmul: inner dims differ ({a.shape} @ {b.shape})")
    at = a.data.swapaxes(-1, -2) if b.requires_grad else None
    bt = b.data.swapaxes(-1, -2) if a.requires_grad else None

    def vjp(g):
        return (None if bt is None else g @ bt, None if at is None else at @ g)

    return _result(a.data @ b.data, (a, b), vjp)


def transpose(a: Tensor2) -> Tensor2:
    """Swap the last two axes (per head for a head-batched operand)."""
    def vjp(g):
        return (np.ascontiguousarray(g.swapaxes(-1, -2)),)

    return _result(np.ascontiguousarray(a.data.swapaxes(-1, -2)), (a,), vjp)


def add(a: Tensor2, b: Tensor2) -> Tensor2:
    if a.shape != b.shape:
        raise ShapeError(f"add: shapes differ {a.shape} vs {b.shape}")

    def vjp(g):
        return g, g

    return _result(a.data + b.data, (a, b), vjp)


def relu(a: Tensor2) -> Tensor2:
    """Elementwise max(0, x)."""
    mask = a.data > 0.0

    def vjp(g):
        return (g * mask,)

    return _result(np.where(mask, a.data, 0.0), (a,), vjp)


def softmax_cols(x: Tensor2, c: float = 1.0, mask: np.ndarray | None = None) -> Tensor2:
    """Column-wise softmax of ``x * c``, with the entries ``mask`` holds True
    (per head, if any) masked out.

    The scaled scores must be finite: an overflowed one would turn into NaN
    or pass for a masked entry. ``mask`` is None or a constant (rows, cols) bool
    array shared by every head, else ShapeError; its masked entries map to
    exactly 0, and a column that is entirely masked has no attention context
    left and is rejected.
    Each column is normalised after subtracting its max.
    """
    if x.data.size == 0:
        raise ShapeError("softmax_cols: empty input")
    c = float(c)
    d = x.data * c
    if not np.isfinite(d).all():
        raise NonFiniteError("softmax_cols: NaN or inf in the scores")
    if mask is not None:
        if not isinstance(mask, np.ndarray) or mask.dtype != bool or mask.shape != x.shape[-2:]:
            raise ShapeError(f"softmax_cols: mask must be a bool array of shape {x.shape[-2:]}, "
                             f"got {getattr(mask, 'dtype', type(mask).__name__)} {np.shape(mask)}")
        if mask.all(axis=0).any():
            raise NumericsError("softmax_cols: column with every entry masked")
        np.copyto(d, -np.inf, where=mask)
    e = np.exp(d - d.max(axis=-2, keepdims=True))  # exp(-inf) == 0.0 exactly
    p = e / e.sum(axis=-2, keepdims=True)

    def vjp(g):
        return (p * (g - (g * p).sum(axis=-2, keepdims=True)) * c,)

    return _result(p, (x,), vjp)


@dataclass(frozen=True)
class ConvKernels:
    """Multi-channel 1-D kernel bank stored flat and tap-major as (c_out, k * c_in).

    Column j*c_in + c holds tap j for input channel c, so each tap's kernels
    are one (c_out, c_in) block of adjacent columns. ``c_in`` and ``k`` are
    integers; the kernel size must be odd so "same" zero padding of (k-1)/2
    preserves the column count.
    """

    weights: Tensor2
    c_in: int
    k: int

    def __post_init__(self):
        for name in ("c_in", "k"):
            if not _is_integer(getattr(self, name)):
                raise ShapeError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.k < 1 or self.k % 2 == 0:
            raise ShapeError(f"kernel size must be odd and positive, got {self.k}")
        if self.weights.cols != self.c_in * self.k:
            raise ShapeError(
                f"kernel bank has {self.weights.cols} columns, expected c_in*k = {self.c_in * self.k}"
            )

    @property
    def c_out(self) -> int:
        return self.weights.rows


def _padded(seqs: np.ndarray, k: int) -> np.ndarray:
    """A copy of ``seqs`` with (k-1)/2 zero columns on both ends of the last axis."""
    pad = (k - 1) // 2
    padded = np.zeros(seqs.shape[:-1] + (seqs.shape[-1] + 2 * pad,))
    padded[..., pad:pad + seqs.shape[-1]] = seqs
    return padded


def _im2col(seqs: np.ndarray, k: int, out: np.ndarray) -> np.ndarray:
    """(C, n, T) -> (k * C, n * T), written into ``out``, each sequence zero-padded
    alone by (k-1)/2 on both ends: row j*C + c is channel c shifted by tap j,
    sequence by sequence, the row order of the tap-major kernel columns."""
    c, n, t_len = seqs.shape
    windows = sliding_window_view(_padded(seqs, k), k, axis=2)  # (C, n, T, k)
    out.reshape(k, c, n, t_len)[...] = windows.transpose(3, 0, 1, 2)
    return out


def _conv_taps(seqs: np.ndarray, w: np.ndarray, k: int, out: np.ndarray) -> None:
    """(n, c_in, T) convolved by the tap-major (c_out, k * c_in) ``w`` into ``out``,
    (n, c_out, T): the input is zero-padded once, and tap j adds the GEMM of its
    (c_out, c_in) columns by that copy's columns j .. j + T - 1, a strided view."""
    c_in, t_len = seqs.shape[1:]
    padded = _padded(seqs, k)
    np.matmul(w[:, :c_in], padded[..., :t_len], out=out)
    part = np.empty_like(out) if k > 1 else None
    for j in range(1, k):
        np.matmul(w[:, j * c_in:(j + 1) * c_in], padded[..., j:j + t_len], out=part)
        out += part


def _new_pool() -> None:
    """One worker beside the calling thread; its thread starts at the first conv run
    side by side. A forked child inherits the pool but not its thread, so it makes
    its own pool, or its first side-by-side conv would wait for that thread forever."""
    global _POOL
    _POOL = ThreadPoolExecutor(max_workers=1)


_new_pool()
if hasattr(os, "register_at_fork"):  # absent where processes cannot fork
    os.register_at_fork(after_in_child=_new_pool)


@contextmanager
def _side_by_side(on: bool):
    """Within the context, a grouped ``conv1d`` that this thread calls runs its
    groups side by side when ``on``, inline otherwise; each conv's vjp keeps the
    choice its forward made."""
    before = getattr(_LOCAL, "side_by_side", False)
    _LOCAL.side_by_side = on
    try:
        yield
    finally:
        _LOCAL.side_by_side = before


def _alternate(tasks: Sequence[tuple[Callable[..., None], Callable[[int], tuple]]],
               side_by_side: bool) -> None:
    """Run each task's ``work(*args(slot))``, in order. Side by side (inside a
    multi-token feed, see ``_side_by_side``), the first, third, ... go to the
    pool's worker (slot 0) while the calling thread runs the others (slot 1);
    otherwise, as in a decode step, all run here, in slot 1.

    ``args`` runs on the calling thread, just before its task starts or is
    queued, so the arrays it makes stay in the caller's heap and are made no
    earlier than needed. A task's own temporaries are made on the thread that
    runs it: the zero-padded copy of its input that ``_conv_taps`` or
    ``_im2col`` makes, and ``_conv_taps``'s one tap product, are made on the
    worker for the worker's tasks. Once every task has stopped, the exception
    of a task that failed is raised here, so no task still writes when the
    caller sees it. Tasks call only private helpers and numpy: no public op,
    and nothing that records on a tape.
    """
    futures = []
    try:
        for i, (work, args) in enumerate(tasks):
            if side_by_side and i % 2 == 0:
                futures.append(_POOL.submit(work, *args(0)))
            else:
                work(*args(1))
    finally:
        for future in futures:
            future.result()


def _buffers(width: int) -> Callable[[int, int], np.ndarray]:
    """``get(rows, slot)``: an im2col buffer of (rows, width) for the tasks of one
    slot, which run one after another; remade when the slot needs another height."""
    made: dict[int, np.ndarray] = {}

    def get(rows: int, slot: int) -> np.ndarray:
        buffer = made.get(slot)
        if buffer is None or len(buffer) != rows:
            buffer = made[slot] = np.empty((rows, width))
        return buffer

    return get


def conv1d(x: Tensor2, kernels: Sequence[ConvKernels]) -> Tensor2:
    """Length-preserving multi-channel 1-D convolution along columns.

    Input is (c_in, T); output is (c_out, T) under zero padding of (k-1)/2 on
    both ends, so output column t depends only on input columns
    t-(k-1)/2 .. t+(k-1)/2; an (n, c_in, T) input is n sequences, padded one
    by one. The forward builds no im2col: it pads the input once and adds
    one GEMM per tap, of that tap's (c_out, c_in) kernels by a strided view
    of the padded columns (``_conv_taps``).

    ``kernels`` is a sequence of G banks of one shape, one per equal group of
    the leading axis: bank g convolves sequences g * n/G .. (g + 1) * n/G - 1
    by that group's own GEMMs, of the shapes a one-bank call on the group
    alone has, so each group's output is bit for bit that call's.
    Groups run side by side, every other one on a pool worker beside the
    calling thread, when the call is made inside this thread's
    ``_side_by_side`` context: the model's prefill, decode prompt, eval windows
    and calibration, whose feeds make merges close together. One bank, or a call
    outside the context, such as a decode step's merge, runs inline. Each
    bank's weights are an input of their own.

    A recorded conv keeps no im2col, k times the size of its input: the kernel
    gradient, one GEMM of the upstream gradient by the input's im2col, rebuilds
    it from the input and frees it when it is done; the input gradient is the
    gradient's im2col convolved by the tap-flipped kernels. The vjp skips the
    input gradient when the input is frozen, and a bank's kernel gradient when
    its weights are; either comes back as None. It keeps the input only for the
    kernel gradients and the kernels only for the input gradient. With groups,
    the worker takes every kernel gradient and the calling thread every input
    gradient, or, when only one kind is needed, every other group each.
    """
    banks = tuple(kernels)
    c_in, c_out, k = banks[0].c_in, banks[0].c_out, banks[0].k
    for bank in banks:
        _require_2d("conv1d", bank.weights)
        if (bank.c_in, bank.c_out, bank.k) != (c_in, c_out, k):
            raise ShapeError(f"conv1d: kernel banks differ in shape ({bank.weights.shape}, k={bank.k} "
                             f"vs {banks[0].weights.shape}, k={k})")
    if x.rows != c_in:
        raise ShapeError(f"conv1d: input has {x.rows} channels, kernels expect {c_in}")
    if x.cols == 0:
        raise ShapeError("conv1d: no columns to convolve")
    groups, t_len, n_all = len(banks), x.cols, x.data.size // (c_in * x.cols)
    if n_all % groups:
        raise ShapeError(f"conv1d: {n_all} sequences do not split into {groups} equal groups")
    n = n_all // groups
    side_by_side = groups > 1 and getattr(_LOCAL, "side_by_side", False)
    seqs = x.data.reshape(groups, n, c_in, t_len)
    out = np.empty((groups, n, c_out, t_len))
    w = [bank.weights.data for bank in banks]
    _alternate([(_conv_taps, lambda slot, g=g: (seqs[g], w[g], k, out[g])) for g in range(groups)],
               side_by_side)
    x_shape = x.shape
    trainable = [bank.weights.requires_grad for bank in banks]
    wd = w if x.requires_grad else None  # read by the input gradients only
    # (G, c_in, n, T), a view read by the kernel gradients only
    seqs = seqs.swapaxes(1, 2) if any(trainable) else None

    def vjp(g):
        g = g.reshape(groups, n, c_out, t_len).swapaxes(1, 2)  # (G, c_out, n, T)
        gw = [None] * groups
        gx = None if wd is None else np.empty((groups, n, c_in, t_len))
        cols = _buffers(n * t_len)

        def kernel_args(j, slot):
            gw[j] = np.empty((c_out, c_in * k))  # made here, filled by the task
            return j, cols(c_in * k, slot)

        def kernel_grad(j, cols_j):
            np.matmul(g[j].reshape(c_out, n * t_len), _im2col(seqs[j], k, cols_j).T, out=gw[j])

        def input_grad(j, cols_j):
            flipped = wd[j].reshape(c_out, k, c_in)[:, ::-1].transpose(2, 1, 0).reshape(c_in, -1)
            gx[j] = (flipped @ _im2col(g[j], k, cols_j)).reshape(c_in, n, t_len).swapaxes(0, 1)

        tasks = []  # group by group: its kernel gradient, then its input gradient
        for j in range(groups):
            if seqs is not None and trainable[j]:
                tasks.append((kernel_grad, partial(kernel_args, j)))
            if gx is not None:
                tasks.append((input_grad, lambda slot, j=j: (j, cols(c_out * k, slot))))
        _alternate(tasks, side_by_side)
        return (None if gx is None else gx.reshape(x_shape), *gw)

    return _result(out.reshape(x_shape[:-2] + (c_out, t_len)), (x, *(bank.weights for bank in banks)), vjp)


def row_normalize(x: Tensor2) -> Tensor2:
    """Divide each row by its sum (per sequence, with a leading axis); entries
    must be nonnegative.

    Rows whose sum falls below ``MIN_ROW_SUM`` first get ``MIN_ROW_SUM`` added
    uniformly, so a dead row normalizes to near-uniform weights instead of
    blowing up. A row sum that is NaN or overflows raises NonFiniteError, as
    its row would no longer sum to 1; its ``index`` is the sequence of the
    first such row (0 for a 2-D input).
    """
    d = x.data
    if x.cols == 0:
        raise ShapeError("row_normalize: no columns to normalize over")
    if (d < 0.0).any():
        raise NumericsError("row_normalize: negative entries")
    # an overflowed sum raises NonFiniteError below, so numpy's warning would only say it first
    with np.errstate(over="ignore"):
        sums = d.sum(axis=-1, keepdims=True)
    finite = np.isfinite(sums)
    if not finite.all():
        raise NonFiniteError("row_normalize: a row sum is not finite",
                             index=int(np.argmin(finite)) // x.rows)
    dead = sums < MIN_ROW_SUM
    adj = np.where(dead, d + MIN_ROW_SUM, d)
    r = adj.sum(axis=-1, keepdims=True)
    y = adj / r

    def vjp(g):
        dot = (g * y).sum(axis=-1, keepdims=True)
        return ((g - dot) / r,)

    return _result(y, (x,), vjp)


def hstack(parts: Sequence[Tensor2]) -> Tensor2:
    """Concatenate along the last axis; empty (d, 0) parts are allowed."""
    parts = tuple(parts)
    if not parts:
        raise ShapeError("hstack: nothing to concatenate")
    lead = parts[0].shape[:-1]
    for p in parts:
        if p.shape[:-1] != lead:
            raise ShapeError(f"hstack: shapes differ before the last axis ({lead} vs {p.shape})")

    widths = [p.cols for p in parts]

    def vjp(g):
        offsets = np.cumsum([0] + widths)
        return tuple(g[..., a:b] for a, b in zip(offsets[:-1], offsets[1:]))

    return _result(np.concatenate([p.data for p in parts], axis=-1), parts, vjp)


def select_cols(x: Tensor2, indices: np.ndarray) -> Tensor2:
    """Gather columns by index (duplicates allowed); grads scatter-add back.

    Also the embedding lookup: the columns of the table are the token ids.
    A 2-D operand takes 1-D indices. An (n, rows, cols) operand takes (n, k)
    indices, row i picking sequence i's columns; its result is a strided view
    of one fancy-indexed copy.
    """
    idx = np.asarray(indices, dtype=np.int64)
    lead = x.shape[:-2]
    if idx.ndim != 1 + len(lead) or lead and len(idx) != lead[0]:
        raise ShapeError(f"select_cols: indices must be 1-D or (n, k) for a 2-D or (n, rows, cols) "
                         f"operand, got {idx.shape} for {x.shape}")
    rows, cols = x.shape[-2:]
    if idx.size and idx.view(np.uint64).max() >= cols:  # a negative index reads as huge
        raise ShapeError(f"select_cols: index out of range for {cols} columns")
    at = (np.arange(lead[0])[:, None], idx) if lead else idx  # into the (..., cols, rows) transpose

    def vjp(g):
        gx = np.zeros(lead + (cols, rows))
        if (np.diff(np.sort(idx)) > 0).all():  # no row repeats a column, so nothing adds up
            gx[at] = g.swapaxes(-1, -2)
        else:
            np.add.at(gx, at, g.swapaxes(-1, -2))
        return (np.ascontiguousarray(gx.swapaxes(-1, -2)),)

    # a table lookup stays row-major, as the column reductions that follow expect
    data = x.data.swapaxes(-1, -2)[at].swapaxes(-1, -2) if lead else x.data.take(idx, axis=-1)
    return _result(data, (x,), vjp)


def rms_norm_cols(x: Tensor2, gain: Tensor2) -> Tensor2:
    """Normalize each column to unit root-mean-square, then scale rows by gain.

    The vjp computes the gradient of a frozen operand as None.
    """
    _require_2d("rms_norm_cols", x)
    if gain.shape != (x.rows, 1):
        raise ShapeError(f"rms_norm_cols: gain must be {x.rows}x1, got {gain.shape}")
    rows = x.rows
    # the column mean as numpy's .mean computes it, without its Python wrapper
    r = np.sqrt(np.add.reduce(x.data ** 2, axis=0) / rows + RMS_EPS)
    u = x.data / r
    gain_grad = gain.requires_grad
    gd = gain.data if x.requires_grad else None  # read by the input gradient only

    def vjp(g):
        ggain = (g * u).sum(axis=1, keepdims=True) if gain_grad else None
        if gd is None:
            return None, ggain
        gg = g * gd
        gx = gg / r - u * ((np.add.reduce(gg * u, axis=0) / rows) / r)
        return gx, ggain

    return _result(gain.data * u, (x, gain), vjp)


def cross_entropy_cols(logits: Tensor2, targets: np.ndarray) -> Tensor2:
    """Mean negative log-likelihood of one target id per column; 1x1 output."""
    _require_2d("cross_entropy_cols", logits)
    t = np.asarray(targets, dtype=np.int64)
    if t.ndim != 1 or t.size != logits.cols:
        raise ShapeError(f"cross_entropy_cols: need {logits.cols} targets, got shape {t.shape}")
    if t.size == 0:
        raise ShapeError("cross_entropy_cols: empty targets")
    if t.min() < 0 or t.max() >= logits.rows:
        raise ShapeError(f"cross_entropy_cols: target id out of range for {logits.rows} classes")
    d = logits.data
    m = d.max(axis=0)
    p = d - m
    np.exp(p, out=p)
    z = p.sum(axis=0)
    p /= z  # in place: the one (rows, cols) array beside the logits
    n = t.size
    nll = (np.log(z) + m - d[t, np.arange(n)]).mean()

    def vjp(g):
        gl = p.copy()
        gl[t, np.arange(n)] -= 1.0
        return (gl * (g[0, 0] / n),)

    return _result(np.array([[nll]]), (logits,), vjp)
