"""Independent brute-force reference implementations used as test oracles.

Everything here is deliberately written as plain scalar loops over numpy
arrays, sharing no code with the package under test. There are two
exceptions. ``full_causal_attention`` is the whole-sequence reference path
that the block-wise forward is checked against; it is checked against
``causal_attention_loops`` in turn. ``project_qkv_composed`` is the
composition of primitives that ``attention.project_qkv`` fuses, and
``attend_numpy`` is ``attention.attend``'s arithmetic in plain numpy; both
must match the package bit for bit. So must ``conv1d_vjp_stored_im2col``, the
conv gradients formed from a stored im2col, and ``adam_arrays``, the
textbook Adam formula that ``training.adam_step`` evaluates in place.
``conv1d_channel_major_im2col`` is the one-GEMM forward over a channel-major
im2col that ``conv1d``'s per-tap GEMMs replaced; the two agree to rounding.
``rope_at`` and ``qkv_at`` call ``apply_rope`` and ``project_qkv`` at
positions, making the rotary table and the stacked weights that the model
makes once per chunk and once per stream. ``split_heads`` and
``merge_heads`` are differentiable reshapes between the
stacked (n_heads * head_dim, T) layout and the head-batched one, for tests
that build head-batched operands or take gradients through them, and
``vstack`` is a differentiable row concatenation, for tests that stack
keys over values or take gradients through stacked rows.
"""

from __future__ import annotations

import math

import numpy as np

from convkv.attention import _block_mask, _rope_table, apply_rope, attend, project_qkv
from convkv.numerics import ShapeError, Tensor2, custom_op, matmul


def matmul_loops(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            s = 0.0
            for t in range(k):
                s += a[i, t] * b[t, j]
            out[i, j] = s
    return out


def softmax_scalar(column: np.ndarray) -> np.ndarray:
    hi = max(float(v) for v in column)
    exps = [math.exp(float(v) - hi) for v in column]
    total = sum(exps)
    return np.array([e / total for e in exps])


def conv1d_loops(x: np.ndarray, kernels: np.ndarray) -> np.ndarray:
    """Naive sliding-window convolution; kernels shaped (c_out, c_in, k)."""
    c_in, t_len = x.shape
    c_out, c_in2, k = kernels.shape
    assert c_in == c_in2 and k % 2 == 1
    half = (k - 1) // 2
    out = np.zeros((c_out, t_len))
    for o in range(c_out):
        for t in range(t_len):
            s = 0.0
            for c in range(c_in):
                for j in range(k):
                    src = t + j - half
                    if 0 <= src < t_len:
                        s += kernels[o, c, j] * x[c, src]
            out[o, t] = s
    return out


def causal_attention_loops(q: np.ndarray, k: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Scalar-loop attention: column t of the output attends to keys 0..t."""
    d, t_len = q.shape
    out = np.zeros((v.shape[0], t_len))
    for t in range(t_len):
        logits = []
        for j in range(t + 1):
            s = 0.0
            for i in range(d):
                s += k[i, j] * q[i, t]
            logits.append(s / math.sqrt(d))
        probs = softmax_scalar(np.array(logits))
        for i in range(v.shape[0]):
            out[i, t] = sum(probs[j] * v[i, j] for j in range(t + 1))
    return out


def full_causal_attention(q: Tensor2, k: Tensor2, v: Tensor2) -> Tensor2:
    """Reference quadratic path: output column t attends to key columns <= t."""
    if q.cols != k.cols:
        raise ShapeError(f"full attention expects square layout, got {q.cols} queries vs {k.cols} keys")
    return attend(q, k, v, _block_mask(0, k.cols, q.cols))[0]


def split_heads(x: Tensor2, n_heads: int, head_dim: int) -> Tensor2:
    """View (n_heads * head_dim, T) as (n_heads, head_dim, T), without a copy.

    Head h is rows h * head_dim .. (h + 1) * head_dim of ``x``; an
    (n, n_heads * head_dim, T) input gives (n * n_heads, head_dim, T).
    """
    if x.rows != n_heads * head_dim:
        raise ShapeError(f"cannot split shape {x.shape} into {n_heads} heads of {head_dim}")
    shape = x.shape

    def vjp(g):
        return (g.reshape(shape),)

    return custom_op([x], x.data.reshape(math.prod(shape[:-1]) // head_dim, head_dim, -1), vjp)


def vstack(parts: list[Tensor2]) -> Tensor2:
    """Concatenate rows (per sequence, for operands with a leading axis)."""
    parts = tuple(parts)
    if not parts:
        raise ShapeError("vstack: nothing to concatenate")
    lead, cols = parts[0].shape[:-2], parts[0].cols
    for p in parts:
        if p.shape[:-2] != lead or p.cols != cols:
            raise ShapeError(f"vstack: column counts differ ({parts[0].shape} vs {p.shape})")
    heights = [p.rows for p in parts]
    offsets = np.cumsum([0] + heights)

    def vjp(g):
        return tuple(g[..., a:b, :] for a, b in zip(offsets[:-1], offsets[1:]))

    return custom_op(parts, np.concatenate([p.data for p in parts], axis=-2), vjp)


def merge_heads(x: Tensor2, n_seq: int = 1) -> Tensor2:
    """Inverse of ``split_heads``: (n_seq * n_heads, head_dim, T) ->
    (n_seq, n_heads * head_dim, T), one sequence being a batch of one."""
    if x.data.ndim != 3:
        raise ShapeError(f"merge_heads needs a head-batched (H, d, T) input, got {x.shape}")
    shape = x.shape

    def vjp(g):
        return (g.reshape(shape),)

    return custom_op([x], x.data.reshape(n_seq, shape[0] // n_seq * shape[1], shape[2]), vjp)


def rope_at(x: Tensor2, positions: np.ndarray, base: float = 10000.0,
            scale: float = 1.0) -> Tensor2:
    """``apply_rope`` of ``x`` by the table of its rows at ``positions``, for the
    rotary ``base`` and interpolation ``scale``."""
    return apply_rope(x, _rope_table(positions, x.rows, base, scale))


def qkv_at(x: Tensor2, params, positions: np.ndarray, base: float = 10000.0,
           scale: float = 1.0, raw_k: bool = True):
    """``project_qkv`` of ``x`` with the stacked weights and the table at ``positions``."""
    table = _rope_table(positions, params.head_dim, base, scale)
    return project_qkv(x, params, params.stacked_qkv(), table, raw_k)


def project_qkv_composed(x: Tensor2, params, positions: np.ndarray, base: float = 10000.0,
                         scale: float = 1.0):
    """``project_qkv`` from primitives: three ``matmul``s, ``split_heads`` on
    each, then ``apply_rope`` on q and k; returns (q_rot, k_rot, k, v)."""
    q, k, v = (
        split_heads(matmul(w, x), params.n_heads, params.head_dim)
        for w in (params.w_q, params.w_k, params.w_v)
    )
    return rope_at(q, positions, base, scale), rope_at(k, positions, base, scale), k, v


def attend_numpy(q: np.ndarray, k: np.ndarray, v: np.ndarray, n_cached: int):
    """``attend``'s (out, probs) step by step: k^T @ q through a transposed view,
    times 1/sqrt(d), plus the block's causal mask, column softmax, v @ p."""
    n_new, n_queries = k.shape[-1] - n_cached, q.shape[-1]
    scores = k.swapaxes(-1, -2) @ q
    mask = np.zeros((k.shape[-1], n_queries))
    mask[n_cached:][np.arange(n_new)[:, None] > np.arange(n_queries)[None, :]] = -np.inf
    logits = scores * (1.0 / math.sqrt(q.shape[-2])) + mask
    e = np.exp(logits - logits.max(axis=-2, keepdims=True))
    probs = e / e.sum(axis=-2, keepdims=True)
    return v @ probs, probs


def rope_scalar(x: np.ndarray, positions: np.ndarray, base: float, scale: float) -> np.ndarray:
    """Rotate adjacent row pairs of each column, positions divided by scale."""
    d, t_len = x.shape
    assert d % 2 == 0
    out = np.zeros_like(x)
    for t in range(t_len):
        pos = positions[t] / scale
        for i in range(d // 2):
            theta = pos / (base ** (2 * i / d))
            c, s = math.cos(theta), math.sin(theta)
            out[2 * i, t] = x[2 * i, t] * c - x[2 * i + 1, t] * s
            out[2 * i + 1, t] = x[2 * i, t] * s + x[2 * i + 1, t] * c
    return out


def keep_indices(scores: np.ndarray, n_sink: int, recent: int, heavy: int) -> list[int]:
    """Columns an over-full cache keeps: the first ``n_sink``, the newest
    ``recent`` and, picked one at a time, the ``heavy`` highest-scored of the
    columns in between, ties going to the newer column. Everything is kept
    while the cache holds at most ``n_sink + recent + heavy`` columns.
    """
    n = len(scores)
    if n <= n_sink + recent + heavy:
        return list(range(n))
    kept = list(range(n_sink)) + list(range(n - recent, n))
    for _ in range(heavy):
        best = None
        for i in range(n_sink, n - recent):
            if i in kept:
                continue
            if best is None or scores[i] > scores[best] or (
                scores[i] == scores[best] and i > best
            ):
                best = i
        kept.append(best)
    return sorted(kept)


def adam_scalar(grads: list[float], lr: float, beta1=0.9, beta2=0.999, eps=1e-8) -> float:
    """Reference Adam trajectory for a single scalar parameter starting at 0."""
    theta, m, v = 0.0, 0.0, 0.0
    for t, g in enumerate(grads, start=1):
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        mhat = m / (1 - beta1 ** t)
        vhat = v / (1 - beta2 ** t)
        theta -= lr * mhat / (math.sqrt(vhat) + eps)
    return theta


def adam_arrays(theta: np.ndarray, grads: list, lr: float, beta1=0.9, beta2=0.999,
                eps=1e-8) -> np.ndarray:
    """Adam trajectory of one array parameter from zero moments, one whole-array
    expression per quantity; a None gradient counts as zeros."""
    theta, m, v = theta.copy(), np.zeros_like(theta), np.zeros_like(theta)
    for t, g in enumerate(grads, start=1):
        if g is None:
            g = np.zeros_like(theta)
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        v_hat = v / (1 - beta2 ** t)
        theta -= lr * (m / (1 - beta1 ** t)) / (np.sqrt(v_hat) + eps)
    return theta


def conv1d_vjp_stored_im2col(x: np.ndarray, w: np.ndarray, k: int, g: np.ndarray):
    """(kernel gradient, input gradient) of conv1d from one whole im2col of the
    padded input and one of the padded upstream gradient: ``g @ cols.T`` and
    ``flipped @ gcols``. ``x`` is (n, c_in, T), ``w`` the tap-major
    (c_out, k * c_in) and ``g`` (n, c_out, T)."""
    n, c_in, t_len = x.shape
    c_out, pad = w.shape[0], (k - 1) // 2

    def im2col(a):  # (n, c, T) -> (k * c, n * T), row j*c + c' is channel c' shifted by tap j
        padded = np.zeros(a.shape[:2] + (t_len + 2 * pad,))
        padded[..., pad:pad + t_len] = a
        cols = np.empty((k, a.shape[1], n, t_len))
        for j in range(k):
            cols[j] = padded[..., j:j + t_len].swapaxes(0, 1)
        return cols.reshape(-1, n * t_len)

    g_flat = g.swapaxes(0, 1).reshape(c_out, n * t_len)
    gw = g_flat @ im2col(x).T
    flipped = w.reshape(c_out, k, c_in)[:, ::-1].transpose(2, 1, 0).reshape(c_in, -1)
    gx = (flipped @ im2col(g)).reshape(c_in, n, t_len).swapaxes(0, 1)
    return gw, gx


def conv1d_channel_major_im2col(x: np.ndarray, kernels: np.ndarray) -> np.ndarray:
    """conv1d as one GEMM of the channel-major (c_out, c_in * k) kernels, column
    c*k + j tap j of channel c, by the (c_in * k, n * T) im2col of the padded
    input, row c*k + j channel c shifted by tap j. ``x`` is (n, c_in, T) and
    ``kernels`` (c_out, c_in, k); returns (n, c_out, T)."""
    n, c_in, t_len = x.shape
    c_out, _, k = kernels.shape
    pad = (k - 1) // 2
    padded = np.zeros((n, c_in, t_len + 2 * pad))
    padded[..., pad:pad + t_len] = x
    cols = np.empty((c_in, k, n, t_len))
    for j in range(k):
        cols[:, j] = padded[..., j:j + t_len].swapaxes(0, 1)
    out = kernels.reshape(c_out, c_in * k) @ cols.reshape(c_in * k, n * t_len)
    return out.reshape(c_out, n, t_len).swapaxes(0, 1)


def finite_difference(f, x0: float, h: float = 1e-5) -> float:
    """Central difference df/dx at x0 for a scalar->scalar callable."""
    return (f(x0 + h) - f(x0 - h)) / (2 * h)
