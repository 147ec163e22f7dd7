"""Causal attention of a block of queries against cached plus fresh keys.

``attend`` is the one attention op. The model's block-wise forward
(``model.forward_segmented``) is built on it and must agree with a
whole-sequence causal pass for every block size (the reference lives in the
tests), which is the core correctness property everything downstream leans
on. Rotary position embedding (with optional interpolation for context
extension) lives here too; its settings are ``ModelConfig``'s.

Heads ride a leading axis: ``project_qkv`` makes every head's (head_dim, T)
rotated q and k, raw k and v with one GEMM and one rotation, and ``attend`` runs
every head in one call. Neither makes what its caller can share: the model
stacks each layer's w_q/w_k/w_v once per stream, and builds one rotary table
(``_rope_table``) and one causal mask (``_block_mask``) per chunk for all layers;
``attend`` masks only what its caller's mask says.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .numerics import ShapeError, Tensor2, custom_op, matmul, softmax_cols


@dataclass
class AttentionParams:
    """Projection weights for one attention layer.

    The per-head projections are stored stacked: rows h*head_dim..(h+1)*head_dim
    of w_q / w_k / w_v belong to head h. w_o maps the concatenated head outputs
    back to the model width.
    """

    w_q: Tensor2
    w_k: Tensor2
    w_v: Tensor2
    w_o: Tensor2
    n_heads: int
    head_dim: int

    def __post_init__(self):
        inner = self.n_heads * self.head_dim
        for name, w in (("w_q", self.w_q), ("w_k", self.w_k), ("w_v", self.w_v)):
            if w.rows != inner:
                raise ShapeError(f"{name} has {w.rows} rows, expected n_heads*head_dim={inner}")
        if self.w_o.cols != inner:
            raise ShapeError(f"w_o has {self.w_o.cols} cols, expected {inner}")

    def tensors(self):
        return [("w_q", self.w_q), ("w_k", self.w_k), ("w_v", self.w_v), ("w_o", self.w_o)]

    def stacked_qkv(self) -> np.ndarray:
        """w_q over w_k over w_v, ``project_qkv``'s one GEMM operand: a copy of the
        weights as they are now, so a caller makes it once per stream, as the
        weights change only between streams (``adam_step`` updates them in place)."""
        return np.concatenate([self.w_q.data, self.w_k.data, self.w_v.data])


def _rope_table(positions: np.ndarray, d: int, base: float, interpolation_scale: float):
    """cos and sin, (d / 2, T), of ``apply_rope``'s angles for ``d`` rows at T
    ``positions``, squeezed by ``interpolation_scale`` (``ModelConfig`` checks
    both settings); the op that takes the table checks that it fits."""
    pos = np.asarray(positions, dtype=np.float64)
    ang = np.outer(_inv_freq(d, base), pos / interpolation_scale)
    return np.cos(ang), np.sin(ang)


_inv_freq = functools.cache(lambda d, base: base ** (-2.0 * np.arange(d // 2) / d))


def _check_table(table: tuple[np.ndarray, np.ndarray], d: int, t_len: int) -> None:
    if table[0].shape != (d // 2, t_len) or d % 2:
        raise ShapeError(f"a rotary table of shape {table[0].shape} does not fit {d} rows "
                         f"at {t_len} positions")


def _rotate(x: np.ndarray, c: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Turn row pairs (2i, 2i+1) of (..., d, T) data by one table; (c, -s) turns back."""
    xe, xo = x[..., 0::2, :], x[..., 1::2, :]
    out = np.empty_like(x)
    out[..., 0::2, :] = xe * c - xo * s
    out[..., 1::2, :] = xe * s + xo * c
    return out


def apply_rope(x: Tensor2, table: tuple[np.ndarray, np.ndarray]) -> Tensor2:
    """Rotate adjacent row pairs (2i, 2i+1) of each column by its position.

    ``table`` is ``_rope_table``'s cos and sin for x's rows and positions: pair
    i of the column at position p turns by p_eff / base^(2i/d) radians where
    p_eff = p / interpolation_scale and d is the row count; a head-batched
    input turns every head by the one table. Rotation is linear, so the
    backward pass is the same rotation by the negated angle.
    """
    _check_table(table, x.rows, x.cols)
    c, s = table

    def vjp(g):
        return (_rotate(g, c, -s),)

    return custom_op([x], _rotate(x.data, c, s), vjp)


def project_qkv(x: Tensor2, params: AttentionParams, w_qkv: np.ndarray,
                table: tuple[np.ndarray, np.ndarray], raw_k: bool = True) -> tuple[Tensor2, ...]:
    """A normed chunk's ``(q_rot, k_rot, k, v)``, each (n * n_heads, head_dim, T), from
    one GEMM and one rotation of q and k; ``x`` holds n sequences of T columns, one
    after another, and entry i * n_heads + h is head h of sequence i. ``k`` is the
    unrotated key a slot-relative policy caches, None unless ``raw_k``. Each output
    is its own op, and a frozen operand's gradient is None.

    The op makes per call only what depends on ``x``: ``w_qkv`` is
    ``params.stacked_qkv()``, made once per stream, and ``table`` is
    ``_rope_table``'s cos and sin at the chunk's T positions, made once per chunk
    for every layer. The gradients go to ``params``' own weights.
    """
    inner = params.n_heads * params.head_dim
    if x.data.ndim != 2 or x.rows != params.w_q.cols or w_qkv.shape != (3 * inner, x.rows):
        raise ShapeError(f"input of shape {x.shape} does not fit projections of {params.w_q.cols}")
    t_len = table[0].shape[-1]
    if not t_len or x.cols % t_len:
        raise ShapeError(f"{x.cols} columns are no whole number of sequences of "
                         f"{t_len} positions")
    _check_table(table, params.head_dim, t_len)
    n_seq, (c, s) = x.cols // t_len, table
    qkv = ((w_qkv @ x.data).reshape(3, params.n_heads, params.head_dim, n_seq, t_len)
           .transpose(0, 3, 1, 2, 4).reshape(3, n_seq * params.n_heads, params.head_dim, t_len))
    q_rot, k_rot = _rotate(qkv[:2], c, s)
    n_cols = x.cols

    def output(data: np.ndarray, w: Tensor2, rotated: bool) -> Tensor2:
        rows = w.rows
        wt = w.data.swapaxes(-1, -2) if x.requires_grad else None
        xt = x.data.swapaxes(-1, -2) if w.requires_grad else None

        def vjp(g):
            g = (_rotate(g, c, -s) if rotated else g).reshape(n_seq, rows, t_len)
            g = g.swapaxes(0, 1).reshape(rows, n_cols)
            return None if wt is None else wt @ g, None if xt is None else g @ xt

        return custom_op([x, w], data, vjp)

    return (output(q_rot, params.w_q, True), output(k_rot, params.w_k, True),
            output(qkv[1], params.w_k, False) if raw_k else None, output(qkv[2], params.w_v, False))


def _block_mask(n_cached: int, n_new: int, n_queries: int) -> np.ndarray | None:
    """The masked entries, True, of a (keys, queries) block: cached keys are visible
    to every query; same-block keys are causal. At most one fresh key (a decode
    step) leaves nothing to mask, so it gets None."""
    if n_new <= 1:
        return None
    mask = np.zeros((n_cached + n_new, n_queries), dtype=bool)
    mask[n_cached:] = np.arange(n_new)[:, None] > np.arange(n_queries)[None, :]
    return mask


def _scores(k: Tensor2, q: Tensor2) -> Tensor2:
    """kᵀ q per head, read through a transposed view of ``k``, so the key context
    is not copied; the vjp is (q gᵀ, k g), and a frozen operand's gradient is None.

    When q needs a gradient the vjp keeps its own copy of k: k is a view of a
    buffer that every layer's keys share, which the view would keep alive."""
    qd = q.data if k.requires_grad else None
    kd = k.data.copy() if q.requires_grad else None

    def vjp(g):
        return (None if qd is None else qd @ g.swapaxes(-1, -2), None if kd is None else kd @ g)

    return custom_op([k, q], k.data.swapaxes(-1, -2) @ q.data, vjp)


def attend(q: Tensor2, k: Tensor2, v: Tensor2,
           mask: np.ndarray | None = None) -> tuple[Tensor2, Tensor2]:
    """Scaled dot-product attention of queries against keys; returns the output
    and the attention probabilities (keys x queries).

    ``mask`` is the (keys, queries) bool mask, True where masked, that every head
    shares; None, the default, masks nothing, so causality is the caller's: the
    model passes each chunk's ``_block_mask``. Head-batched operands (H, d, .)
    attend per head. The scores are one op that reads the keys through a view,
    so a layer copies no key context. ``softmax_cols`` scales them by
    1/sqrt(d), with d the query row count, raises NonFiniteError when they
    overflow and applies the mask.
    """
    if k.cols != v.cols:
        raise ShapeError(f"key/value column mismatch: {k.cols} vs {v.cols}")
    if k.shape[:-1] != q.shape[:-1]:
        raise ShapeError(f"keys of shape {k.shape} do not fit queries of shape {q.shape}")
    # scores that overflow raise NonFiniteError in softmax_cols, so numpy's
    # overflow warning for them would only say it first
    with np.errstate(over="ignore", invalid="ignore"):
        scores = _scores(k, q)
    probs = softmax_cols(scores, 1.0 / math.sqrt(q.rows), mask)
    return matmul(v, probs), probs
