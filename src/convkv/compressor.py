"""Convolutional token merging: squeeze cache + incoming block into M slots.

A merge blends the (n, 2d, p) operand of the p columns each sequence
merges, keys over values, that ``cache.bounded_update`` picks from its one
gather of the cache and the block; that function alone lays the columns
out, the block's first. A per-layer 1-D convolution scores every column of
the operand for every output slot (``synthesize_weights``). Rows of the
score matrix are clamped nonnegative and normalized to sum to 1, so each
updated slot is a convex combination of the columns it was built from, and
one GEMM of the operand by those weights (``fuse``) blends keys and values
alike, which preserves token correspondence; its result stays keys over
values until ``bounded_update`` splits it.

``compress_step`` is the merging half of ``bounded_update``: the cache's
``KeepRule`` picks the columns kept verbatim (none for plain LoCoCo,
attention sinks or heavy hitters for the hybrids) and the head merges the
rest, where the eviction policies would drop it. Every sequence names its
own merged columns.

A merge takes one head per equal group of the leading axis: the model
stacks every layer's sequences layer after layer and merges them all in one
step, each layer's rows scored by its own head in one grouped ``conv1d``.
The heads must agree on slot count, kernel size and
``relu_position``; ``PolicySpec.build`` checks that.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .cache import CacheError, KvCache, bounded_update
from .numerics import (
    ConvKernels,
    ShapeError,
    Tensor2,
    _is_integer,
    conv1d,
    matmul,
    relu,
    row_normalize,
    transpose,
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
    for name, value in (("slots", slots), ("kernel_size", kernel_size)):
        if not _is_integer(value):
            raise ShapeError(f"{name} must be an integer, got {value!r}")
    if slots < 1:
        raise ShapeError(f"slots must be positive, got {slots}")
    if kernel_size < 1 or kernel_size % 2 == 0:
        raise ShapeError(f"kernel size must be odd and positive, got {kernel_size}")
    c_in = 2 * feature_dim
    w = rng.normal(0.0, INIT_SCALE, size=(slots, c_in, kernel_size))  # drawn channel-major
    w[:, :, (kernel_size - 1) // 2] += INIT_SCALE / c_in
    w = w.transpose(0, 2, 1).reshape(slots, kernel_size * c_in)  # stored tap-major
    kernels = ConvKernels(Tensor2(w, requires_grad=False), c_in=c_in, k=kernel_size)
    return ConvHead(kernels, layer_index=layer_index, relu_position=relu_position)


class FusionWeights(NamedTuple):
    """Blending weights for one merge, over the columns it merges.

    ``weights`` is (n, slots, p): row i of sequence s holds slot i's weights
    on the p columns that s merges. ``picked`` is the (n, 2d, p) operand
    they blend and the conv scored: those columns' keys over their values,
    in the order ``cache.bounded_update`` picked them. ``from_block`` (n, p)
    marks the block's columns. From ``synthesize_weights``, entries are
    nonnegative and every row sums to 1 (dead rows are rescued by a uniform
    epsilon before normalization). ``new_weights`` and ``cache_weights`` split the weights
    by side for the merge statistics that observers read.
    """

    weights: Tensor2
    picked: Tensor2
    from_block: np.ndarray

    @property
    def new_weights(self) -> Tensor2:
        """(n * slots, p), no gradient: each slot's weights on the block's columns, 0 elsewhere."""
        return self._on(self.from_block)

    @property
    def cache_weights(self) -> Tensor2:
        """(n * slots, p), no gradient: each slot's weights on the cache's columns, 0 elsewhere."""
        return self._on(~self.from_block)

    def _on(self, side: np.ndarray) -> Tensor2:
        w = self.weights.data
        return Tensor2(np.where(side[:, None], w, 0.0).reshape(-1, w.shape[-1]))


def synthesize_weights(
    picked: Tensor2,
    from_block: np.ndarray,
    heads: Sequence[ConvHead],
) -> FusionWeights:
    """Score a merge's columns for every slot, then normalize.

    ``picked`` is the (n, 2d, p) operand, keys over values of the p columns
    each sequence merges, and ``from_block`` (n, p) marks the block's among
    them. ``conv1d`` rejects an operand of no columns, or of other than the
    heads' 2*d rows. Head g scores the sequences of group g of
    ``len(heads)`` equal groups. The weights are the row-normalized conv
    output over the picked columns, (n, slots, p).
    """
    if np.shape(from_block) != picked.shape[:1] + picked.shape[2:]:
        raise ShapeError(f"from_block is {np.shape(from_block)}, expected (n, p) of {picked.shape}")
    conv_in = relu(picked) if heads[0].relu_position == "pre" else picked
    weights = row_normalize(relu(conv1d(conv_in, [h.kernels for h in heads])))
    return FusionWeights(weights, picked, from_block)


def fuse(weights: FusionWeights) -> Tensor2:
    """Blend the picked columns into slots, same weights for keys and values.

    One GEMM: picked (n, 2d, p) times the transposed weights gives (n, 2d,
    slots), slot i of sequence s being sum_j weights[s, i, j] * picked[s, :, j],
    the fused keys over the fused values. ``matmul`` raises ShapeError when
    the weights do not cover the picked columns or the sequences.
    """
    return matmul(weights.picked, transpose(weights.weights))


def compress_step(
    cache: KvCache,
    k_new: Tensor2,
    v_new: Tensor2,
    heads: Sequence[ConvHead],
    attn_mass: np.ndarray | None = None,
) -> KvCache:
    """One merging update: concatenate while the budget allows, merge after.

    While cache_len + B fits in the capacity the block is appended verbatim.
    Once it would overflow, the columns the cache's ``KeepRule`` names
    (attention sinks or heavy hitters, none for plain LoCoCo) stay verbatim
    in front, and the rest, incoming block plus unkept cache, is blended
    into the remaining capacity - ``rule.budget`` slots, which the head must
    produce. A rule with heavy hitters needs the block's ``attn_mass`` (see
    ``bounded_update``); merged slots inherit the weighted sum of their
    sources' scores. Head g merges the sequences of group g of
    ``len(heads)`` equal groups.
    """
    if cache.capacity is not None and heads[0].slots != cache.capacity - cache.rule.budget:
        raise CacheError(
            f"head produces {heads[0].slots} slots but capacity - kept is "
            f"{cache.capacity - cache.rule.budget}"
        )

    def merge(picked: Tensor2, from_block: np.ndarray) -> tuple[Tensor2, np.ndarray]:
        weights = synthesize_weights(picked, from_block, heads)
        return fuse(weights), weights.weights.data

    return bounded_update(cache, k_new, v_new, attn_mass, merge)
