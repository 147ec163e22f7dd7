"""Named cache policies.

Every policy is the same update: concatenate while the cache fits, then keep
some columns verbatim and drop or merge the rest. ``_RULES`` is the one place
that maps a config name (``concat``, ``lococo``, ``h2o``, ``sink_window``,
``lococo+h2o``, ``lococo+sink``) to that behavior: the cache state the policy
starts from, and how many columns a convolutional merge pins verbatim (None
for the eviction policies, which never merge). The merge+pin hybrids pin
attention sinks or heavy hitters and merge the complement, so the total stays
exactly at the slot budget.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cache import (
    CacheError,
    HeavyHitterState,
    KvCache,
    SinkWindowState,
    update_concat,
    update_h2o,
    update_sink_window,
)
from .compressor import ConvHead, compress_step
from .numerics import Tensor2

# name -> (empty cache state, columns a merge pins verbatim or None to evict)
_RULES = {
    "concat": (lambda spec: None, lambda spec: None),
    "lococo": (lambda spec: None, lambda spec: 0),
    "h2o": (lambda spec: HeavyHitterState.empty(*spec.h2o_split()), lambda spec: None),
    "sink_window": (
        lambda spec: SinkWindowState(spec.n_sink, spec.sink_window_size()),
        lambda spec: None,
    ),
    "lococo+h2o": (
        lambda spec: HeavyHitterState.empty(0, spec.reserved),
        lambda spec: spec.reserved,
    ),
    "lococo+sink": (lambda spec: None, lambda spec: spec.n_sink),
}
POLICY_NAMES = tuple(_RULES)


@dataclass(frozen=True)
class PolicySpec:
    """Everything needed to instantiate a cache policy, minus the conv heads.

    ``capacity`` is the slot budget M (ignored by concat, whose cache grows
    without bound). The eviction knobs only apply to the policies that use
    them: recent/heavy budgets for h2o (defaulting to an even split),
    n_sink/window for sink_window (window defaults to capacity - n_sink),
    ``n_sink`` pinned sinks for lococo+sink and ``reserved`` pinned heavy
    hitters for lococo+h2o.

    The rule is resolved once, at construction: ``pinned`` is the number of
    columns a merge keeps verbatim (None when the policy does not merge) and
    ``empty_state`` the state every fresh cache starts from.
    """

    name: str
    capacity: int | None = None
    n_sink: int = 4
    window: int | None = None
    recent_budget: int | None = None
    heavy_budget: int | None = None
    reserved: int = 4
    pinned: int | None = field(init=False, repr=False, compare=False)
    empty_state: object = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.name not in _RULES:
            raise CacheError(f"unknown policy {self.name!r}; choose from {POLICY_NAMES}")
        if self.name == "concat":
            object.__setattr__(self, "capacity", None)
        elif self.capacity is None or self.capacity < 1:
            raise CacheError(f"policy {self.name!r} needs a positive capacity")
        make_state, pinned_of = _RULES[self.name]
        pinned = pinned_of(self)
        if pinned is not None and not 0 <= pinned < self.capacity:
            raise CacheError(
                f"pinned slots must be in [0, capacity), got {pinned} vs {self.capacity}"
            )
        state = make_state(self)
        if pinned is None and state is not None and state.budget != self.capacity:
            raise CacheError(
                f"policy {self.name!r} keeps {state.budget} columns "
                f"but capacity is {self.capacity}"
            )
        object.__setattr__(self, "pinned", pinned)
        object.__setattr__(self, "empty_state", state)

    def h2o_split(self) -> tuple[int, int]:
        recent = self.capacity // 2 if self.recent_budget is None else self.recent_budget
        heavy = (self.capacity - recent) if self.heavy_budget is None else self.heavy_budget
        return recent, heavy

    def sink_window_size(self) -> int:
        return (self.capacity - self.n_sink) if self.window is None else self.window

    @property
    def needs_conv_head(self) -> bool:
        return self.pinned is not None

    @property
    def merge_slots(self) -> int | None:
        """Slot count the conv head must produce, or None when no head is used."""
        return None if self.pinned is None else self.capacity - self.pinned

    def build(self, conv_head: ConvHead | None = None) -> "LayerPolicy":
        if self.needs_conv_head:
            if conv_head is None:
                raise CacheError(f"policy {self.name!r} needs a conv head")
            if conv_head.slots != self.merge_slots:
                raise CacheError(
                    f"policy {self.name!r} needs a head with {self.merge_slots} slots, "
                    f"got {conv_head.slots}"
                )
        return LayerPolicy(self, conv_head)


class LayerPolicy:
    """A policy bound to one layer's conv head (when it needs one)."""

    def __init__(self, spec: PolicySpec, conv_head: ConvHead | None = None):
        self.spec = spec
        self.conv_head = conv_head

    @property
    def needs_probs(self) -> bool:
        return isinstance(self.spec.empty_state, HeavyHitterState)

    @property
    def slot_relative_positions(self) -> bool:
        """Rolling position embeddings: rotate by cache slot, not absolute index."""
        return isinstance(self.spec.empty_state, SinkWindowState)

    def empty_cache(self, d_k: int, d_v: int | None = None) -> KvCache:
        return KvCache.empty(d_k, d_v, self.spec.capacity, self.spec.empty_state)

    def update(
        self,
        cache: KvCache,
        k_new: Tensor2,
        v_new: Tensor2,
        attn_probs: np.ndarray | Tensor2 | None = None,
    ) -> KvCache:
        spec = self.spec
        if spec.pinned is not None:
            return compress_step(cache, k_new, v_new, self.conv_head, spec.pinned, attn_probs)
        if isinstance(spec.empty_state, HeavyHitterState):
            return update_h2o(cache, k_new, v_new, attn_probs)
        if isinstance(spec.empty_state, SinkWindowState):
            return update_sink_window(cache, k_new, v_new)
        return update_concat(cache, k_new, v_new)
