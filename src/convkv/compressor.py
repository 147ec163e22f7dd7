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
    """Score the merged (incoming + cached) columns for every slot, then normalize.

    Operands are (n, d, columns), one sequence being a batch of one. The conv
    input stacks keys over values, incoming block columns first, cache
    columns after; ``merged`` (1 or n, block + cache) names each sequence's
    columns to convolve, in that order, one row per sequence or one row every
    sequence shares (default: every column). A column left out, as when a
    hybrid keeps it verbatim, gets weight 0 in every slot; either side may
    have no columns, but ``conv1d`` rejects a convolution of no columns at
    all, or of other than the head's 2*d rows. Sequence i owns weight rows
    i * slots .. (i + 1) * slots; the first B weight columns are the block's.
    """
    d = k_new.rows
    for name, t in (("v_new", v_new), ("k_cache", k_cache), ("v_cache", v_cache)):
        if t.rows != d:
            raise ShapeError(f"{name} has {t.rows} rows, expected {d}")
    if k_new.cols != v_new.cols or k_cache.cols != v_cache.cols:
        raise ShapeError("key/value column counts disagree")
    b, n, width = k_new.cols, len(k_new.data), k_new.cols + k_cache.cols
    merged = np.ones((1, width), dtype=bool) if merged is None else merged
    picked = np.nonzero(merged)[1].reshape(len(merged), -1)
    stacked = select_cols(vstack([hstack([k_new, k_cache]), hstack([v_new, v_cache])]), picked)
    if head.relu_position == "pre":
        stacked = relu(stacked)
    weights = row_normalize(relu(conv1d(stacked, head.kernels)))
    # back to every column, 0 where nothing merges: (n, slots, width) as (n * slots, width)
    at = (np.arange(n)[:, None], slice(None), picked)  # indexes an (n, picked, slots) view
    shape = (n, head.slots, width)
    full = np.zeros(shape)
    full[at] = weights.data.swapaxes(-1, -2)
    weights = custom_op([weights], full.reshape(-1, width), lambda g: (
        np.ascontiguousarray(g.reshape(shape)[at].swapaxes(-1, -2)),))
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

    Slot i of sequence s's fused keys is sum_j new_weights[i,j]*k_new[s,:,j] +
    sum_j cache_weights[i,j]*k_cache[s,:,j], with the weight rows of sequence
    s (see ``synthesize_weights``); values identically. ``matmul`` raises
    ShapeError when the weights do not cover the block or the cache.
    """
    n = len(k_new.data)
    if any(w.rows % n for w in weights):
        raise ShapeError(f"fuse: weight rows {weights[0].rows} do not split into {n} sequences")

    def per_sequence_t(w: Tensor2) -> Tensor2:  # (n * slots, cols) -> (n, cols, slots), one op
        shape = w.shape
        return custom_op([w], np.ascontiguousarray(w.data.reshape(n, -1, w.cols).swapaxes(-1, -2)),
                         lambda g: (g.swapaxes(-1, -2).reshape(shape),))

    wn_t, wc_t = (per_sequence_t(w) for w in weights)
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
    """Blend the columns ``rest`` marks (cache first, then block; a row per sequence
    or one for all) into the slots."""
    n_cached = cache.live_entries
    merged = np.concatenate([rest[:, n_cached:], rest[:, :n_cached]], 1)
    weights = synthesize_weights(k_new, v_new, cache.keys, cache.values, head, merged)
    keys, values = fuse(weights, k_new, v_new, cache.keys, cache.values)
    if scores is not None:  # one block of slot rows per sequence
        wn, wc = (w.data.reshape(len(scores), -1, w.cols) for w in weights)
        scores = (wn @ scores[:, n_cached:, None] + wc @ scores[:, :n_cached, None])[..., 0]
    return keys, values, scores
