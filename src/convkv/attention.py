"""Causal attention over full sequences and over cached blocks.

``full_causal_attention`` is the quadratic reference path. ``attend`` runs a
block of queries against cached plus fresh keys; the model's block-wise
forward (``model.forward_segmented``) is built on it and must agree with the
reference for every block size, which is the core correctness property
everything downstream leans on. Rotary position embedding (with optional
interpolation for context extension) lives here too.

Heads ride a leading axis: ``split_heads`` views a (n_heads * head_dim, T)
projection as (n_heads, head_dim, T) without copying, rotary embedding and
attention then run every head in one call, and ``merge_heads`` goes back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import (
    NonFiniteError,
    ShapeError,
    Tensor2,
    add_mask,
    custom_op,
    matmul,
    scale,
    softmax_cols,
    transpose,
)


@dataclass(frozen=True)
class RopeConfig:
    """Rotary embedding settings.

    ``interpolation_scale`` > 1 squeezes positions into the pretrained range
    when extending the context window (target_context / pretrained_context);
    leave it at 1 otherwise.
    """

    base: float = 10000.0
    interpolation_scale: float = 1.0

    def __post_init__(self):
        if self.base <= 0:
            raise ValueError(f"rope base must be positive, got {self.base}")
        if self.interpolation_scale < 1.0:
            raise ValueError(
                f"interpolation_scale must be >= 1, got {self.interpolation_scale}"
            )


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
    n_heads: int = 1
    head_dim: int = 0

    def __post_init__(self):
        if self.head_dim == 0:
            self.head_dim = self.w_q.rows // self.n_heads
        inner = self.n_heads * self.head_dim
        for name, w in (("w_q", self.w_q), ("w_k", self.w_k), ("w_v", self.w_v)):
            if w.rows != inner:
                raise ShapeError(f"{name} has {w.rows} rows, expected n_heads*head_dim={inner}")
        if self.w_o.cols != inner:
            raise ShapeError(f"w_o has {self.w_o.cols} cols, expected {inner}")

    def tensors(self):
        return [("w_q", self.w_q), ("w_k", self.w_k), ("w_v", self.w_v), ("w_o", self.w_o)]


@dataclass(frozen=True)
class SegmentStream:
    """A token sequence chunked into blocks of ``block_size``.

    Training demands an exact chunking; set ``allow_short_final`` for
    inference streams whose last block may come up short.
    """

    token_ids: np.ndarray
    block_size: int
    allow_short_final: bool = True

    def __post_init__(self):
        ids = np.asarray(self.token_ids, dtype=np.int64)
        if ids.ndim != 1:
            raise ShapeError("token_ids must be a 1-D sequence")
        object.__setattr__(self, "token_ids", ids)
        if self.block_size < 1:
            raise ValueError(f"block_size must be >= 1, got {self.block_size}")
        if not self.allow_short_final and len(ids) % self.block_size != 0:
            raise ValueError(
                f"length {len(ids)} is not a multiple of block size {self.block_size}"
            )

    def __len__(self) -> int:
        return len(self.token_ids)

    @property
    def n_blocks(self) -> int:
        return -(-len(self.token_ids) // self.block_size)

    def blocks(self):
        """Yield (start, stop, absolute_positions) per block."""
        total = len(self.token_ids)
        for start in range(0, total, self.block_size):
            stop = min(start + self.block_size, total)
            yield start, stop, np.arange(start, stop)


def project_qkv(x: Tensor2, params: AttentionParams) -> tuple[Tensor2, Tensor2, Tensor2]:
    """Linear projections of the input into query/key/value stacks."""
    if x.rows != params.w_q.cols:
        raise ShapeError(f"input has {x.rows} rows, projections expect {params.w_q.cols}")
    return matmul(params.w_q, x), matmul(params.w_k, x), matmul(params.w_v, x)


def apply_rope(x: Tensor2, positions: np.ndarray, cfg: RopeConfig) -> Tensor2:
    """Rotate adjacent row pairs (2i, 2i+1) of each column by its position.

    Pair i of the column at position p turns by p_eff / base^(2i/d) radians
    where p_eff = p / interpolation_scale and d is the row count; a
    head-batched input turns every head by one shared table. Rotation is
    linear, so the backward pass is the same rotation by the negated angle.
    """
    d, t_len = x.rows, x.cols
    if d % 2 != 0:
        raise ShapeError(f"rotary embedding needs an even row count, got {d}")
    pos = np.asarray(positions, dtype=np.float64)
    if pos.shape != (t_len,):
        raise ShapeError(f"need {t_len} positions, got shape {pos.shape}")
    half = d // 2
    inv_freq = cfg.base ** (-2.0 * np.arange(half) / d)
    ang = np.outer(inv_freq, pos / cfg.interpolation_scale)
    c, s = np.cos(ang), np.sin(ang)
    xe, xo = x.data[..., 0::2, :], x.data[..., 1::2, :]
    out = np.empty_like(x.data)
    out[..., 0::2, :] = xe * c - xo * s
    out[..., 1::2, :] = xe * s + xo * c

    def vjp(g):
        ge, go = g[..., 0::2, :], g[..., 1::2, :]
        gx = np.empty_like(g)
        gx[..., 0::2, :] = ge * c + go * s
        gx[..., 1::2, :] = -ge * s + go * c
        return (gx,)

    return custom_op([x], out, vjp)


def _block_mask(n_cached: int, n_new: int, n_queries: int) -> np.ndarray:
    """Cached keys are visible to every query; same-block keys are causal."""
    mask = np.zeros((n_cached + n_new, n_queries))
    fresh = np.arange(n_new)[:, None] > np.arange(n_queries)[None, :]
    mask[n_cached:, :][fresh] = -np.inf
    return mask


def attend(q: Tensor2, k: Tensor2, v: Tensor2, n_cached: int = 0,
           return_probs: bool = False):
    """Scaled dot-product attention of queries against cached + fresh keys.

    The first ``n_cached`` key columns are past context and fully visible;
    the remaining columns pair off causally with the query columns. Scores
    are scaled by 1/sqrt(d) with d the query row count. Head-batched
    operands (H, d, .) attend per head under one shared mask. At most one
    fresh key (a decode step) leaves nothing to mask, so no mask op runs.
    Scores that overflow raise NonFiniteError.
    """
    if k.cols != v.cols:
        raise ShapeError(f"key/value column mismatch: {k.cols} vs {v.cols}")
    if not (0 <= n_cached <= k.cols):
        raise ShapeError(f"n_cached={n_cached} out of range for {k.cols} keys")
    # scores that overflow raise NonFiniteError below, so numpy's overflow
    # warning for them would only say it first
    with np.errstate(over="ignore", invalid="ignore"):
        scores = matmul(transpose(k), q)
    logits = scale(scores, 1.0 / math.sqrt(q.rows))
    n_new = k.cols - n_cached
    if n_new > 1:
        logits = add_mask(logits, _block_mask(n_cached, n_new, q.cols))  # checks the scores
    elif not np.isfinite(logits.data).all():
        # unmasked, an overflowed -inf would pass for a masked entry in softmax_cols
        raise NonFiniteError("attend: NaN or inf in the scores")
    probs = softmax_cols(logits)
    out = matmul(v, probs)
    if return_probs:
        return out, probs
    return out


def full_causal_attention(q: Tensor2, k: Tensor2, v: Tensor2) -> Tensor2:
    """Reference quadratic path: output column t attends to key columns <= t."""
    if q.cols != k.cols:
        raise ShapeError(f"full attention expects square layout, got {q.cols} queries vs {k.cols} keys")
    return attend(q, k, v, n_cached=0)


def split_heads(x: Tensor2, n_heads: int, head_dim: int) -> Tensor2:
    """View (n_heads * head_dim, T) as (n_heads, head_dim, T), without a copy.

    Head h is rows h * head_dim .. (h + 1) * head_dim of ``x``.
    """
    if x.data.ndim != 2 or x.rows != n_heads * head_dim:
        raise ShapeError(f"cannot split shape {x.shape} into {n_heads} heads of {head_dim}")
    t_len = x.cols

    def vjp(g):
        return (g.reshape(n_heads * head_dim, t_len),)

    return custom_op([x], x.data.reshape(n_heads, head_dim, t_len), vjp)


def merge_heads(x: Tensor2) -> Tensor2:
    """Inverse of ``split_heads``: (n_heads, head_dim, T) -> (n_heads * head_dim, T)."""
    if x.data.ndim != 3:
        raise ShapeError(f"merge_heads needs a head-batched (H, d, T) input, got {x.shape}")
    shape = x.shape

    def vjp(g):
        return (g.reshape(shape),)

    return custom_op([x], x.data.reshape(shape[0] * shape[1], shape[2]), vjp)
