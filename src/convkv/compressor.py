"""Convolutional token merging: squeeze cache + incoming block into M slots.

A per-layer 1-D convolution scores every column of the stacked key/value
matrix (incoming block first, then the existing cache) for every output slot.
Rows of the score matrix are clamped nonnegative and normalized to sum to 1,
so each updated slot is a convex combination of the columns it was built
from, with the same blending weights applied to keys and values to preserve
token correspondence.

``compress_step`` is the one merging update every merging policy runs:
plain LoCoCo pins nothing, the hybrids first pin attention sinks or heavy
hitters verbatim and merge the rest.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .cache import CacheError, HeavyHitterState, KvCache, update_concat
from .numerics import (
    ConvKernels,
    ShapeError,
    Tensor2,
    add,
    conv1d,
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
DEFAULT_KERNEL_SIZE = 21


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
    def feature_dim(self) -> int:
        return self.kernels.c_in // 2

    @property
    def kernel_size(self) -> int:
        return self.kernels.k


def new_conv_head(
    feature_dim: int,
    slots: int,
    kernel_size: int = DEFAULT_KERNEL_SIZE,
    rng: np.random.Generator | None = None,
    relu_position: str = "post",
    layer_index: int = 0,
    init_scale: float = 0.05,
) -> ConvHead:
    """Fresh head with near-delta initialization.

    Small noise around a faint center-tap pattern: scores start small and
    sign-mixed, so normalized weights spread near-uniformly over the columns
    that survive the clamp (averaging-like behavior before calibration) while
    leaving every kernel parameter a live gradient path.
    """
    rng = np.random.default_rng() if rng is None else rng
    c_in = 2 * feature_dim
    w = rng.normal(0.0, init_scale, size=(slots, c_in * kernel_size))
    center = (kernel_size - 1) // 2
    w[:, center::kernel_size] += init_scale / c_in
    kernels = ConvKernels(Tensor2(w, requires_grad=False), c_in=c_in, k=kernel_size)
    return ConvHead(kernels, layer_index=layer_index, relu_position=relu_position)


@dataclass(frozen=True)
class FusionWeights:
    """Blending weights for one cache update.

    ``new_weights[i, j]`` is the contribution of block column j to slot i;
    ``cache_weights[i, j]`` the contribution of existing cache column j.
    Entries are nonnegative and every row of [new_weights | cache_weights]
    sums to 1 (dead rows are rescued by a uniform epsilon before
    normalization).
    """

    new_weights: Tensor2
    cache_weights: Tensor2

    def __post_init__(self):
        if self.new_weights.rows != self.cache_weights.rows:
            raise ShapeError("weight halves disagree on slot count")

    @property
    def slots(self) -> int:
        return self.new_weights.rows


def synthesize_weights(
    k_new: Tensor2,
    v_new: Tensor2,
    k_cache: Tensor2,
    v_cache: Tensor2,
    head: ConvHead,
) -> FusionWeights:
    """Score every (incoming + cached) column for every slot, then normalize.

    The conv input stacks keys over values, incoming block columns first,
    cache columns after; the first B output columns therefore become the
    new-token weights and the rest the cache weights.
    """
    d = k_new.rows
    for name, t in (("v_new", v_new), ("k_cache", k_cache), ("v_cache", v_cache)):
        if t.rows != d:
            raise ShapeError(f"{name} has {t.rows} rows, expected {d}")
    if k_new.cols != v_new.cols or k_cache.cols != v_cache.cols:
        raise ShapeError("key/value column counts disagree")
    if k_new.cols < 1:
        raise ShapeError("incoming block must have at least one column")
    if 2 * d != head.kernels.c_in:
        raise ShapeError(
            f"head expects {head.kernels.c_in} input channels, inputs provide {2 * d}"
        )
    b = k_new.cols
    stacked = vstack([hstack([k_new, k_cache]), hstack([v_new, v_cache])])
    if head.relu_position == "pre":
        stacked = relu(stacked)
    raw = relu(conv1d(stacked, head.kernels))
    weights = row_normalize(raw)
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
    sum_j cache_weights[i,j]*k_cache[:,j]; values identically.
    """
    if weights.new_weights.cols != k_new.cols:
        raise ShapeError(
            f"weights cover {weights.new_weights.cols} block columns, block has {k_new.cols}"
        )
    if weights.cache_weights.cols != k_cache.cols:
        raise ShapeError(
            f"weights cover {weights.cache_weights.cols} cache columns, cache has {k_cache.cols}"
        )
    wn_t = transpose(weights.new_weights)
    wc_t = transpose(weights.cache_weights)
    k_fused = add(matmul(k_new, wn_t), matmul(k_cache, wc_t))
    v_fused = add(matmul(v_new, wn_t), matmul(v_cache, wc_t))
    return k_fused, v_fused


def compress_step(
    cache: KvCache,
    k_new: Tensor2,
    v_new: Tensor2,
    head: ConvHead,
    reserved: int = 0,
    attn_probs: np.ndarray | Tensor2 | None = None,
) -> KvCache:
    """One cache update: concatenate while the budget allows, merge after.

    While cache_len + B fits in the capacity the block is appended verbatim.
    Once it would overflow, ``reserved`` columns are pinned verbatim at the
    front and the rest (incoming block plus unpinned cache) are blended into
    the remaining capacity - reserved slots, which the head must produce.
    A cache carrying a ``HeavyHitterState`` pins its top-scored columns by
    the heavy-hitter keep rule and needs the block's ``attn_probs``; merged
    slots inherit the weighted sum of their sources' scores. Any other cache
    pins the first ``reserved`` columns ever seen (attention sinks).
    """
    m = cache.capacity
    if m is None:
        raise CacheError("compress_step needs a bounded cache")
    if not 0 <= reserved < m:
        raise CacheError(f"reserved slots ({reserved}) must be in [0, capacity {m})")
    if head.slots != m - reserved:
        raise CacheError(
            f"head produces {head.slots} slots but capacity - reserved is {m - reserved}"
        )
    state = cache.state
    heavy = isinstance(state, HeavyHitterState)
    n_cached, b = cache.live_entries, k_new.cols
    if heavy:
        if (state.recent_budget, state.heavy_budget) != (0, reserved):
            raise CacheError(f"pinning {reserved} heavy hitters needs budgets (0, {reserved})")
        scores = state.accumulate(attn_probs, b)
    if n_cached + b <= m:
        out = update_concat(cache, k_new, v_new)
        return replace(out, state=replace(state, scores=scores)) if heavy else out

    kc, vc, kn, vn = cache.keys, cache.values, k_new, v_new
    if heavy:
        cache_scores, new_scores = scores[:n_cached], scores[n_cached:]
    if reserved:
        if heavy:
            pinned = state.keep(scores)
        elif n_cached < reserved:
            raise CacheError(
                f"cache holds {n_cached} columns but {reserved} sinks must be pinned; "
                "use a block size of at most capacity - reserved"
            )
        else:
            pinned = np.arange(reserved)
        pinned_keys = select_cols(hstack([cache.keys, k_new]), pinned)
        pinned_values = select_cols(hstack([cache.values, v_new]), pinned)
        free = np.ones(n_cached + b, dtype=bool)
        free[pinned] = False
        free_cache = np.flatnonzero(free[:n_cached])
        free_new = np.flatnonzero(free[n_cached:])
        kc, vc = select_cols(kc, free_cache), select_cols(vc, free_cache)
        kn, vn = select_cols(kn, free_new), select_cols(vn, free_new)
        if heavy:
            cache_scores, new_scores = cache_scores[free_cache], new_scores[free_new]
    weights = synthesize_weights(kn, vn, kc, vc, head)
    keys, values = fuse(weights, kn, vn, kc, vc)
    if reserved:
        keys = hstack([pinned_keys, keys])
        values = hstack([pinned_values, values])
    if heavy:
        scores_merged = (
            weights.new_weights.data @ new_scores + weights.cache_weights.data @ cache_scores
        )
        if reserved:
            scores_merged = np.concatenate([scores[pinned], scores_merged])
        state = replace(state, scores=scores_merged)
    return replace(
        cache, keys=keys, values=values, state=state, total_seen=cache.total_seen + b
    )
