"""Named cache policies.

Every policy is the same update: concatenate while the cache fits, then keep
the columns a ``KeepRule`` names verbatim and drop or merge the rest.
``_RULES`` is the one place that maps a config name (``concat``, ``lococo``,
``h2o``, ``sink_window``, ``lococo+h2o``, ``lococo+sink``) to that behavior:
the rule a fresh cache starts from, whether the rest is merged by the
convolutional head or dropped, and whether keys rotate by cache slot. The
merge+pin hybrids pin attention sinks or heavy hitters and merge the
complement, so the total stays exactly at the slot budget.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cache import (
    CacheError,
    KeepRule,
    KvCache,
    update_concat,
    update_h2o,
    update_sink_window,
)
from .compressor import ConvHead, compress_step
from .numerics import Tensor2

# name -> (keep rule of a fresh cache, merge the rest (else drop it),
#          rotate keys by cache slot rather than by absolute position)
_RULES = {
    "concat": (lambda spec: KeepRule(), False, False),
    "lococo": (lambda spec: KeepRule(), True, False),
    "h2o": (lambda spec: KeepRule(0, *spec.h2o_split()), False, False),
    "sink_window": (lambda spec: KeepRule(spec.n_sink, spec.sink_window_size()), False, True),
    "lococo+h2o": (lambda spec: KeepRule(heavy=spec.reserved), True, False),
    "lococo+sink": (lambda spec: KeepRule(spec.n_sink), True, False),
}
POLICY_NAMES = tuple(_RULES)


@dataclass(frozen=True)
class PolicySpec:
    """Everything needed to instantiate a cache policy, minus the conv heads.

    ``capacity`` is the slot budget M (ignored by concat, whose cache grows
    without bound). The other knobs set the policy's ``KeepRule`` and apply
    only to the policies that use them: recent/heavy budgets for h2o
    (defaulting to an even split), n_sink/window for sink_window (window
    defaults to capacity - n_sink), ``n_sink`` pinned sinks for lococo+sink
    and ``reserved`` pinned heavy hitters for lococo+h2o.

    The rule is resolved once, at construction: ``rule`` is the ``KeepRule``
    every fresh cache starts from and ``needs_conv_head`` whether the
    columns it does not keep are merged rather than dropped. An eviction
    rule keeps exactly ``capacity`` columns, at least one of them past the
    sinks; a merging rule keeps fewer, and the head fills the rest.
    """

    name: str
    capacity: int | None = None
    n_sink: int = 4
    window: int | None = None
    recent_budget: int | None = None
    heavy_budget: int | None = None
    reserved: int = 4
    rule: KeepRule = field(init=False, repr=False, compare=False)
    needs_conv_head: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.name not in _RULES:
            raise CacheError(f"unknown policy {self.name!r}; choose from {POLICY_NAMES}")
        if self.name == "concat":
            object.__setattr__(self, "capacity", None)
        elif self.capacity is None or self.capacity < 1:
            raise CacheError(f"policy {self.name!r} needs a positive capacity")
        make_rule, merges, _ = _RULES[self.name]
        rule = make_rule(self)
        if self.capacity is not None:
            if merges and rule.budget >= self.capacity:
                raise CacheError(
                    f"pinned slots must be in [0, capacity), got {rule.budget} vs {self.capacity}"
                )
            if not merges and not rule.n_sink < rule.budget == self.capacity:
                raise CacheError(
                    f"policy {self.name!r} keeps {rule.budget} columns, {rule.n_sink} of them "
                    f"sinks; it needs capacity {self.capacity} and one column past the sinks"
                )
        object.__setattr__(self, "rule", rule)
        object.__setattr__(self, "needs_conv_head", merges)

    def h2o_split(self) -> tuple[int, int]:
        recent = self.capacity // 2 if self.recent_budget is None else self.recent_budget
        heavy = (self.capacity - recent) if self.heavy_budget is None else self.heavy_budget
        return recent, heavy

    def sink_window_size(self) -> int:
        return (self.capacity - self.n_sink) if self.window is None else self.window

    @property
    def merge_slots(self) -> int | None:
        """Slot count the conv head must produce, or None when no head is used."""
        return self.capacity - self.rule.budget if self.needs_conv_head else None

    def check_block_size(self, block_size: int) -> None:
        """Reject a block size whose blocks cannot enter the cache whole.

        A merging policy keeps ``rule.budget`` columns verbatim, so at most
        ``merge_slots`` columns of one block fit; an eviction policy takes up
        to ``capacity``.
        """
        if self.capacity is None:
            return
        room = self.merge_slots or self.capacity
        if block_size > room:
            raise CacheError(
                f"block size {block_size} is rejected: policy {self.name!r} takes at most "
                f"{room} columns per block (capacity {self.capacity}, "
                f"{self.capacity - room} pinned)"
            )

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
        return self.spec.rule.heavy > 0

    @property
    def slot_relative_positions(self) -> bool:
        """Rolling position embeddings: rotate by cache slot, not absolute index."""
        return _RULES[self.spec.name][2]

    def empty_cache(self, d: int) -> KvCache:
        return KvCache.empty(d, self.spec.capacity, self.spec.rule)

    def update(
        self,
        cache: KvCache,
        k_new: Tensor2,
        v_new: Tensor2,
        attn_probs: np.ndarray | None = None,
    ) -> KvCache:
        # evictions run through two named entry points, which the benchmark
        # traces apart: with heavy hitters (h2o) or by position only (sink_window)
        if self.spec.needs_conv_head:
            return compress_step(cache, k_new, v_new, self.conv_head, attn_probs)
        if self.spec.capacity is None:
            return update_concat(cache, k_new, v_new)
        if self.needs_probs:
            return update_h2o(cache, k_new, v_new, attn_probs)
        return update_sink_window(cache, k_new, v_new)
