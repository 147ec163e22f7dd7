"""Independent brute-force reference implementations used as test oracles.

Everything here is deliberately written as plain scalar loops over numpy
arrays, sharing no code with the package under test. The one exception is
``full_causal_attention``, the whole-sequence reference path that the
block-wise forward is checked against; it is checked against
``causal_attention_loops`` in turn.
"""

from __future__ import annotations

import math

import numpy as np

from convkv.attention import attend
from convkv.numerics import ShapeError, Tensor2


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
    return attend(q, k, v, n_cached=0)


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


def finite_difference(f, x0: float, h: float = 1e-5) -> float:
    """Central difference df/dx at x0 for a scalar->scalar callable."""
    return (f(x0 + h) - f(x0 - h)) / (2 * h)
