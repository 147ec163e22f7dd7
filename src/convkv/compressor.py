"""Convolutional token merging: squeeze cache + incoming block into M slots.

A per-layer 1-D convolution scores every column of the stacked key/value
matrix (incoming block first, then the existing cache) for every output slot.
Rows of the score matrix are clamped nonnegative and normalized to sum to 1,
so each updated slot is a convex combination of the columns it was built
from, with the same blending weights applied to keys and values to preserve
token correspondence.

``compress_step`` is the merging half of ``cache.bounded_update``: the
cache's ``KeepRule`` picks the columns kept verbatim (none for plain LoCoCo,
attention sinks or heavy hitters for the hybrids) and the head merges the
rest, where the eviction policies would drop it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

import numpy as np

from .attention import merge_heads, split_heads
from .cache import CacheError, KvCache, bounded_update
from .numerics import (
    ConvKernels,
    ShapeError,
    Tensor2,
    add,
    conv1d,
    custom_op,
    hstack,
    matmul,
    relu,
    row_normalize,
    select_cols,
    slice_cols,
    transpose,
    vstack,
)

RELU_POSITIONS = ("post", "pre")
INIT_SCALE = 0.05  # spread of a fresh head's kernel weights


@dataclass
class ConvHead:
    """Per-layer convolutional scorer, shared by every attention head.

    Input channels are the stacked key rows over value rows (2*d); output
    channels are the slot count. ``relu_position`` selects where the
    activation sits: "post" (default) rectifies the conv output, which
    directly guarantees the nonnegative scores row normalization needs;
    "pre" rectifies the conv input instead and the output is still clamped
    at zero, since negative scores would break the normalization either way.
    """

    kernels: ConvKernels
    layer_index: int = 0
    relu_position: str = "post"

    def __post_init__(self):
        if self.relu_position not in RELU_POSITIONS:
            raise ValueError(f"relu_position must be one of {RELU_POSITIONS}")
        if self.kernels.c_in % 2 != 0:
            raise ShapeError("conv head input channels must be 2*d (keys over values)")

    @property
    def slots(self) -> int:
        return self.kernels.c_out

    @property
    def kernel_size(self) -> int:
        return self.kernels.k


def new_conv_head(
    feature_dim: int,
    slots: int,
    kernel_size: int,
    rng: np.random.Generator,
    relu_position: str = "post",
    layer_index: int = 0,
) -> ConvHead:
    """Fresh head with near-delta initialization.

    Small noise around a faint center-tap pattern: scores start small and
    sign-mixed, so normalized weights spread near-uniformly over the columns
    that survive the clamp (averaging-like behavior before calibration) while
    leaving every kernel parameter a live gradient path.
    """
    c_in = 2 * feature_dim
    w = rng.normal(0.0, INIT_SCALE, size=(slots, c_in * kernel_size))
    center = (kernel_size - 1) // 2
    w[:, center::kernel_size] += INIT_SCALE / c_in
    kernels = ConvKernels(Tensor2(w, requires_grad=False), c_in=c_in, k=kernel_size)
    return ConvHead(kernels, layer_index=layer_index, relu_position=relu_position)


class FusionWeights(NamedTuple):
    """Blending weights for one cache update, one row per slot.

    ``new_weights[i, j]`` is the contribution of block column j to slot i;
    ``cache_weights[i, j]`` the contribution of existing cache column j.
    From ``synthesize_weights``, entries are nonnegative and every row of
    [new_weights | cache_weights] sums to 1 (dead rows are rescued by a
    uniform epsilon before normalization).
    """

    new_weights: Tensor2
    cache_weights: Tensor2


def synthesize_weights(
    k_new: Tensor2,
    v_new: Tensor2,
    k_cache: Tensor2,
    v_cache: Tensor2,
    head: ConvHead,
    merged: np.ndarray | None = None,
) -> FusionWeights:
    """Score every (incoming + cached) column for every slot, then normalize.

    The conv input stacks keys over values, incoming block columns first,
    cache columns after; the first B output columns therefore become the
    new-token weights and the rest the cache weights. Either side may have
    no columns, as when a hybrid keeps every column of a block verbatim and
    only unkept cache columns are left to merge; ``conv1d`` rejects inputs
    with no columns at all, or with other than the head's 2*d rows.

    Sequence i of (n, d, columns) operands owns weight rows i * slots ..
    (i + 1) * slots; ``merged`` (n, block + cache) names each one's columns to
    convolve, in order, and gives every other column weight 0.
    """
    d = k_new.rows
    for name, t in (("v_new", v_new), ("k_cache", k_cache), ("v_cache", v_cache)):
        if t.rows != d:
            raise ShapeError(f"{name} has {t.rows} rows, expected {d}")
    if k_new.cols != v_new.cols or k_cache.cols != v_cache.cols:
        raise ShapeError("key/value column counts disagree")
    b = k_new.cols
    stacked = vstack([hstack([k_new, k_cache]), hstack([v_new, v_cache])])
    if merged is not None:
        picked = np.nonzero(merged)[1].reshape(len(merged), -1)
        stacked = select_cols(stacked, picked)
    if head.relu_position == "pre":
        stacked = relu(stacked)
    raw = relu(conv1d(stacked, head.kernels))
    weights = row_normalize(merge_heads(raw) if raw.data.ndim == 3 else raw)
    if merged is not None:  # back to every column, 0 where nothing merges
        at, shape = picked[:, None, :], (len(picked), head.slots, merged.shape[1])
        full = np.zeros(shape)
        np.put_along_axis(full, at, weights.data.reshape(shape[:2] + (-1,)), axis=-1)
        weights = custom_op([weights], full.reshape(-1, shape[2]), lambda g: (
            np.take_along_axis(g.reshape(shape), at, -1).reshape(-1, at.shape[-1]),))
    return FusionWeights(
        new_weights=slice_cols(weights, 0, b),
        cache_weights=slice_cols(weights, b, weights.cols),
    )


def fuse(
    weights: FusionWeights,
    k_new: Tensor2,
    v_new: Tensor2,
    k_cache: Tensor2,
    v_cache: Tensor2,
) -> tuple[Tensor2, Tensor2]:
    """Blend columns into slots, same weights for keys and values.

    Slot i of the fused keys is sum_j new_weights[i,j]*k_new[:,j] +
    sum_j cache_weights[i,j]*k_cache[:,j]; values identically, and per sequence.
    ``matmul`` raises ShapeError when the weights do not cover the block or the cache.
    """
    n = len(k_new.data) if k_new.data.ndim == 3 else 1
    wn_t, wc_t = (transpose(w if n == 1 else split_heads(w, n, w.rows // n)) for w in weights)
    k_fused = add(matmul(k_new, wn_t), matmul(k_cache, wc_t))
    v_fused = add(matmul(v_new, wn_t), matmul(v_cache, wc_t))
    return k_fused, v_fused


def compress_step(
    cache: KvCache,
    k_new: Tensor2,
    v_new: Tensor2,
    head: ConvHead,
    attn_probs: np.ndarray | None = None,
) -> KvCache:
    """One merging update: concatenate while the budget allows, merge after.

    While cache_len + B fits in the capacity the block is appended verbatim.
    Once it would overflow, the columns the cache's ``KeepRule`` names
    (attention sinks or heavy hitters, none for plain LoCoCo) stay verbatim
    in front, and the rest, incoming block plus unkept cache, is blended
    into the remaining capacity - ``rule.budget`` slots, which the head must
    produce. A rule with heavy hitters needs the block's ``attn_probs``;
    merged slots inherit the weighted sum of their sources' scores.
    """
    if cache.capacity is not None and head.slots != cache.capacity - cache.rule.budget:
        raise CacheError(
            f"head produces {head.slots} slots but capacity - kept is "
            f"{cache.capacity - cache.rule.budget}"
        )
    return bounded_update(cache, k_new, v_new, attn_probs, partial(_merge_rest, head))


def _merge_rest(head, cache, k_new, v_new, rest, scores):
    """Blend the columns ``rest`` marks (cache first, then block, per sequence) into the slots."""
    n_cached = cache.live_entries
    kc, vc, kn, vn = cache.keys, cache.values, k_new, v_new
    merged = np.concatenate([rest[:, n_cached:], rest[:, :n_cached]], 1) if rest.ndim > 1 else None
    if merged is None and not rest.all():
        rest_cache, rest_new = np.flatnonzero(rest[:n_cached]), np.flatnonzero(rest[n_cached:])
        kc, vc = select_cols(kc, rest_cache), select_cols(vc, rest_cache)
        kn, vn = select_cols(kn, rest_new), select_cols(vn, rest_new)
    weights = synthesize_weights(kn, vn, kc, vc, head, merged)
    keys, values = fuse(weights, kn, vn, kc, vc)
    if scores is not None and merged is None:
        scores = (weights.new_weights.data @ scores[n_cached:][rest[n_cached:]]
                  + weights.cache_weights.data @ scores[:n_cached][rest[:n_cached]])
    elif scores is not None:  # weights span block and cache, one block of slot rows per sequence
        wn, wc = (w.data.reshape(len(rest), -1, w.cols) for w in weights)
        scores = (wn @ scores[:, n_cached:, None] + wc @ scores[:, :n_cached, None])[..., 0]
    return keys, values, scores
