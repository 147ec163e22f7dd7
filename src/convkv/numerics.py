"""Dense float64 linear algebra with a minimal reverse-mode gradient tape.

Every numeric path in this package -- attention, the convolutional cache
compressor, training -- is built from the primitives in this module. Each
primitive computes its forward result with plain numpy and, when a GradTape
is active and an operand is marked trainable, records the matching
vector-Jacobian product so ``backward`` can replay the computation in
reverse.

Only the operations needed on the compressor calibration path carry
gradients; this is deliberately not a general autodiff system.

Op results may carry one leading head axis, shape (H, rows, cols), so one
call serves every attention head. ``rows`` and ``cols`` are then the last
two axes. ``matmul`` (equal leading dims), ``transpose`` (swaps the last two
axes), ``add``, ``scale``, ``relu``, ``softmax_cols``, ``add_mask`` (one
(rows, cols) mask for every head) and ``hstack`` (along the last axis) take
such operands; every other primitive requires 2-D operands and raises
ShapeError on anything else.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


class NumericsError(ValueError):
    """Numeric contract violation (non-finite data, bad shapes, tape misuse)."""


class ShapeError(NumericsError):
    """Operands have incompatible dimensions."""


class NonFiniteError(NumericsError):
    """NaN or infinity where finite values are required."""


class TapeError(NumericsError):
    """Gradient tape used out of protocol (e.g. replayed without reset)."""


class Tensor2:
    """Dense rows x cols matrix of 64-bit reals, row-major.

    The constructor takes 2-D data only. Op results may add one leading head
    axis, shape (H, rows, cols): a stack of H matrices of the same size, for
    which ``rows`` and ``cols`` describe each matrix.

    Entries must be finite: NaN or +/-inf anywhere is a contract violation
    and raises NonFiniteError at construction. The one sanctioned exception
    is the -inf masking sentinel consumed by ``softmax_cols``, which only
    ``add_mask`` may introduce (op results skip re-validation).
    """

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.array(data, dtype=np.float64, order="C", copy=True)
        if arr.ndim != 2:
            raise ShapeError(f"Tensor2 requires a 2-D array, got ndim={arr.ndim}")
        if not np.isfinite(arr).all():
            raise NonFiniteError("Tensor2 entries must be finite (found NaN/Inf)")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None

    @classmethod
    def zeros(cls, rows: int, cols: int, requires_grad: bool = False) -> "Tensor2":
        return _wrap(np.zeros((rows, cols)), requires_grad)

    @property
    def rows(self) -> int:
        return self.data.shape[-2]

    @property
    def cols(self) -> int:
        return self.data.shape[-1]

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def T(self) -> "Tensor2":
        return transpose(self)

    def detach(self) -> "Tensor2":
        """Same values, cut off from gradient tracking."""
        return _wrap(self.data, False)

    def copy(self) -> "Tensor2":
        out = _wrap(self.data.copy(), self.requires_grad)
        return out

    def __matmul__(self, other: "Tensor2") -> "Tensor2":
        return matmul(self, other)

    def __add__(self, other: "Tensor2") -> "Tensor2":
        return add(self, other)

    def __mul__(self, scalar: float) -> "Tensor2":
        return scale(self, scalar)

    __rmul__ = __mul__

    def __repr__(self) -> str:
        flag = ", trainable" if self.requires_grad else ""
        return f"Tensor2({'x'.join(map(str, self.shape))}{flag})"


def _wrap(arr: np.ndarray, requires_grad: bool) -> Tensor2:
    """Internal constructor: wrap an array the ops already vouch for."""
    t = Tensor2.__new__(Tensor2)
    t.data = arr
    t.requires_grad = requires_grad
    t.grad = None
    return t


# --- gradient tape -----------------------------------------------------------

_TapeVjp = Callable[[np.ndarray], tuple]

_LOCAL = threading.local()


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
    """

    def __init__(self):
        self._entries: list[tuple[tuple[Tensor2, ...], Tensor2, _TapeVjp]] = []
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
        self._entries.append((inputs, output, vjp))

    def reset(self) -> None:
        self._entries.clear()
        self._consumed = False

    def __len__(self) -> int:
        return len(self._entries)


def backward(tape: GradTape, seed: float = 1.0, output: Tensor2 | None = None) -> dict[Tensor2, np.ndarray]:
    """Replay ``tape`` in reverse, returning gradients for trainable leaves.

    ``output`` defaults to the result of the last recorded op and must be a
    1x1 tensor when ``seed`` is a plain scalar. Gradients are accumulated per
    tensor; ops whose result never received an upstream gradient contribute
    nothing. The tape must be ``reset()`` before it can be replayed again.
    """
    if tape._consumed:
        raise TapeError("tape already replayed; call reset() before reuse")
    if not tape._entries:
        raise TapeError("tape is empty; no forward pass was recorded")
    if output is None:
        output = tape._entries[-1][1]
    if np.isscalar(seed):
        if output.shape != (1, 1):
            raise ShapeError(f"scalar seed needs a 1x1 output, got {output.shape}")
        seed_arr = np.array([[float(seed)]])
    else:
        seed_arr = np.asarray(seed, dtype=np.float64)
        if seed_arr.shape != output.shape:
            raise ShapeError(f"seed shape {seed_arr.shape} != output shape {output.shape}")

    grads: dict[Tensor2, np.ndarray] = {output: seed_arr}
    produced = {id(entry[1]) for entry in tape._entries}
    for inputs, out, vjp in reversed(tape._entries):
        g = grads.pop(out, None)
        if g is None:
            continue  # zero upstream gradient: contributes zero
        for tensor, gt in zip(inputs, vjp(g)):
            if gt is None or not tensor.requires_grad:
                continue
            if tensor in grads:
                grads[tensor] = grads[tensor] + gt
            else:
                grads[tensor] = gt
    tape._consumed = True
    leaves = {t: g for t, g in grads.items() if id(t) not in produced}
    for t, g in leaves.items():
        t.grad = g
    return leaves


def _result(data: np.ndarray, inputs: tuple[Tensor2, ...], vjp: _TapeVjp) -> Tensor2:
    req = any(t.requires_grad for t in inputs)
    out = _wrap(data, req)
    if req:
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
    """Matrix product a @ b, per head when both carry the same head axis."""
    if a.shape[:-2] != b.shape[:-2]:
        raise ShapeError(f"matmul: leading dims differ ({a.shape} @ {b.shape})")
    if a.cols != b.rows:
        raise ShapeError(f"matmul: inner dims differ ({a.shape} @ {b.shape})")
    ad, bd = a.data, b.data

    def vjp(g):
        return g @ bd.swapaxes(-1, -2), ad.swapaxes(-1, -2) @ g

    return _result(ad @ bd, (a, b), vjp)


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


def scale(a: Tensor2, c: float) -> Tensor2:
    c = float(c)

    def vjp(g):
        return (g * c,)

    return _result(a.data * c, (a,), vjp)


def relu(a: Tensor2) -> Tensor2:
    """Elementwise max(0, x)."""
    mask = a.data > 0.0

    def vjp(g):
        return (g * mask,)

    return _result(np.where(mask, a.data, 0.0), (a,), vjp)


def softmax_cols(x: Tensor2) -> Tensor2:
    """Column-wise softmax with per-column max subtraction (per head, if any).

    -inf entries are masking sentinels and map to exactly 0. A column that is
    entirely -inf has no attention context left and is rejected.
    """
    d = x.data
    if d.size == 0:
        raise ShapeError("softmax_cols: empty input")
    if np.isnan(d).any() or np.isposinf(d).any():
        raise NonFiniteError("softmax_cols: NaN or +inf in logits")
    col_max = d.max(axis=-2, keepdims=True)
    if np.isneginf(col_max).any():
        raise NumericsError("softmax_cols: column with every entry masked")
    e = np.exp(d - col_max)  # exp(-inf) == 0.0 exactly
    p = e / e.sum(axis=-2, keepdims=True)

    def vjp(g):
        return (p * (g - (g * p).sum(axis=-2, keepdims=True)),)

    return _result(p, (x,), vjp)


def add_mask(x: Tensor2, mask: np.ndarray) -> Tensor2:
    """Add a constant 0 / -inf mask; the only sanctioned source of -inf.

    The (rows, cols) mask applies to every head of a head-batched input. The
    input must be finite: an overflowed score would turn into NaN or pass for
    a masked entry once the mask is added.
    """
    mask = np.asarray(mask, dtype=np.float64)
    if mask.shape != x.shape[-2:]:
        raise ShapeError(f"add_mask: mask shape {mask.shape} != input shape {x.shape}")
    if not np.all((mask == 0.0) | np.isneginf(mask)):
        raise NumericsError("add_mask: mask entries must be 0 or -inf")
    if not np.isfinite(x.data).all():
        raise NonFiniteError("add_mask: NaN or inf in the scores")

    def vjp(g):
        return (g,)  # -inf rows carry zero probability, so g is 0 there already

    return _result(x.data + mask, (x,), vjp)


@dataclass(frozen=True)
class ConvKernels:
    """Multi-channel 1-D kernel bank stored flat as (c_out, c_in * k).

    Column c*k + j holds tap j for input channel c. Kernel size must be odd
    so "same" zero padding of (k-1)/2 preserves the column count.
    """

    weights: Tensor2
    c_in: int
    k: int

    def __post_init__(self):
        if self.k < 1 or self.k % 2 == 0:
            raise ShapeError(f"kernel size must be odd and positive, got {self.k}")
        if self.weights.cols != self.c_in * self.k:
            raise ShapeError(
                f"kernel bank has {self.weights.cols} columns, expected c_in*k = {self.c_in * self.k}"
            )

    @property
    def c_out(self) -> int:
        return self.weights.rows


def conv1d(x: Tensor2, kernels: ConvKernels) -> Tensor2:
    """Length-preserving multi-channel 1-D convolution along columns.

    Input is (c_in, T); output is (c_out, T) under zero padding of (k-1)/2 on
    both ends, so output column t depends only on input columns
    t-(k-1)/2 .. t+(k-1)/2.
    """
    _require_2d("conv1d", x, kernels.weights)
    if x.rows != kernels.c_in:
        raise ShapeError(f"conv1d: input has {x.rows} channels, kernels expect {kernels.c_in}")
    c_in, k = kernels.c_in, kernels.k
    pad = (k - 1) // 2
    t_len = x.cols
    w = kernels.weights
    if t_len == 0:
        def vjp_empty(g):
            return np.zeros((c_in, 0)), np.zeros_like(w.data)

        return _result(np.zeros((w.rows, 0)), (x, w), vjp_empty)

    xp = np.zeros((c_in, t_len + 2 * pad))
    xp[:, pad:pad + t_len] = x.data
    # im2col: row c*k + j of `cols` is input channel c shifted by tap j
    cols = np.ascontiguousarray(
        sliding_window_view(xp, k, axis=1).transpose(0, 2, 1).reshape(c_in * k, t_len)
    )
    out = w.data @ cols

    def vjp(g):
        gw = g @ cols.T
        tmp = (w.data.T @ g).reshape(c_in, k, t_len)
        gxp = np.zeros_like(xp)
        for j in range(k):
            gxp[:, j:j + t_len] += tmp[:, j, :]
        return gxp[:, pad:pad + t_len], gw

    return _result(out, (x, w), vjp)


def row_normalize(x: Tensor2, min_row_sum: float = 1e-8) -> Tensor2:
    """Divide each row by its sum; entries must be nonnegative.

    Rows whose sum falls below ``min_row_sum`` first get ``min_row_sum`` added
    uniformly, so a dead row normalizes to near-uniform weights instead of
    blowing up.
    """
    _require_2d("row_normalize", x)
    d = x.data
    if d.shape[1] == 0:
        raise ShapeError("row_normalize: no columns to normalize over")
    if (d < 0.0).any():
        raise NumericsError("row_normalize: negative entries")
    sums = d.sum(axis=1, keepdims=True)
    dead = sums < min_row_sum
    adj = np.where(dead, d + min_row_sum, d)
    r = adj.sum(axis=1, keepdims=True)
    y = adj / r

    def vjp(g):
        dot = (g * y).sum(axis=1, keepdims=True)
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
    offsets = np.cumsum([0] + widths)

    def vjp(g):
        return tuple(g[..., offsets[i]:offsets[i + 1]] for i in range(len(parts)))

    return _result(np.concatenate([p.data for p in parts], axis=-1), parts, vjp)


def vstack(parts: Sequence[Tensor2]) -> Tensor2:
    """Concatenate rows."""
    parts = tuple(parts)
    if not parts:
        raise ShapeError("vstack: nothing to concatenate")
    _require_2d("vstack", *parts)
    cols = parts[0].cols
    for p in parts:
        if p.cols != cols:
            raise ShapeError(f"vstack: column counts differ ({cols} vs {p.cols})")
    heights = [p.rows for p in parts]
    offsets = np.cumsum([0] + heights)

    def vjp(g):
        return tuple(g[offsets[i]:offsets[i + 1], :] for i in range(len(parts)))

    return _result(np.concatenate([p.data for p in parts], axis=0), parts, vjp)


def slice_cols(x: Tensor2, start: int, stop: int) -> Tensor2:
    _require_2d("slice_cols", x)
    if not (0 <= start <= stop <= x.cols):
        raise ShapeError(f"slice_cols: [{start}:{stop}] out of range for {x.cols} columns")
    rows, cols = x.shape

    def vjp(g):
        gx = np.zeros((rows, cols))
        gx[:, start:stop] = g
        return (gx,)

    return _result(x.data[:, start:stop].copy(), (x,), vjp)


def slice_rows(x: Tensor2, start: int, stop: int) -> Tensor2:
    _require_2d("slice_rows", x)
    if not (0 <= start <= stop <= x.rows):
        raise ShapeError(f"slice_rows: [{start}:{stop}] out of range for {x.rows} rows")
    rows, cols = x.shape

    def vjp(g):
        gx = np.zeros((rows, cols))
        gx[start:stop, :] = g
        return (gx,)

    return _result(x.data[start:stop, :].copy(), (x,), vjp)


def select_cols(x: Tensor2, indices: np.ndarray) -> Tensor2:
    """Gather columns by index (duplicates allowed)."""
    _require_2d("select_cols", x)
    idx = np.asarray(indices, dtype=np.int64)
    if idx.ndim != 1:
        raise ShapeError("select_cols: indices must be 1-D")
    if idx.size and (idx.min() < 0 or idx.max() >= x.cols):
        raise ShapeError(f"select_cols: index out of range for {x.cols} columns")
    rows, cols = x.shape

    def vjp(g):
        gx = np.zeros((cols, rows))
        np.add.at(gx, idx, g.T)
        return (np.ascontiguousarray(gx.T),)

    return _result(x.data[:, idx].copy(), (x,), vjp)


def embedding_lookup(table: Tensor2, ids: np.ndarray) -> Tensor2:
    """Gather embedding columns for integer ids; grads scatter-add back."""
    _require_2d("embedding_lookup", table)
    ids = np.asarray(ids, dtype=np.int64)
    if ids.ndim != 1:
        raise ShapeError("embedding_lookup: ids must be 1-D")
    if ids.size and (ids.min() < 0 or ids.max() >= table.cols):
        raise ShapeError(f"embedding_lookup: id out of range for vocab {table.cols}")
    rows, vocab = table.shape

    def vjp(g):
        gt = np.zeros((vocab, rows))
        np.add.at(gt, ids, g.T)
        return (np.ascontiguousarray(gt.T),)

    return _result(table.data[:, ids].copy(), (table,), vjp)


def rms_norm_cols(x: Tensor2, gain: Tensor2, eps: float = 1e-8) -> Tensor2:
    """Normalize each column to unit root-mean-square, then scale rows by gain."""
    _require_2d("rms_norm_cols", x)
    if gain.shape != (x.rows, 1):
        raise ShapeError(f"rms_norm_cols: gain must be {x.rows}x1, got {gain.shape}")
    rows = x.rows
    # the column mean as numpy's .mean computes it, without its Python wrapper
    r = np.sqrt(np.add.reduce(x.data ** 2, axis=0) / rows + eps)
    u = x.data / r
    gd = gain.data

    def vjp(g):
        ggain = (g * u).sum(axis=1, keepdims=True)
        gg = g * gd
        gx = gg / r - u * ((np.add.reduce(gg * u, axis=0) / rows) / r)
        return gx, ggain

    return _result(gd * u, (x, gain), vjp)


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
    e = np.exp(d - m)
    z = e.sum(axis=0)
    p = e / z
    n = t.size
    nll = (np.log(z) + m - d[t, np.arange(n)]).mean()

    def vjp(g):
        gl = p.copy()
        gl[t, np.arange(n)] -= 1.0
        return (gl * (g[0, 0] / n),)

    return _result(np.array([[nll]]), (logits,), vjp)
