"""Named cache policies.

Every policy is the same update: concatenate while the cache fits, then keep
the columns a ``KeepRule`` names verbatim and drop or merge the rest.
``_RULES`` is the one place that maps a config name (``concat``, ``lococo``,
``h2o``, ``sink_window``, ``lococo+h2o``, ``lococo+sink``) to that behavior:
the rule's budgets, whether the rest is merged by the convolutional head or
dropped, and whether keys rotate by cache slot. The merge+pin hybrids pin
attention sinks or heavy hitters and merge the complement, so the total
stays exactly at the slot budget.

One ``LayerPolicy`` serves every layer of a model: the model stacks the
layers' caches and blocks on the leading axis, layer after layer, and makes
one ``update`` per flush. A merging policy holds one conv head per layer,
head l scoring layer l's rows; ``PolicySpec.build`` alone binds a policy to
a model's heads, checked against its layers, slots and block size.
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
from .numerics import Tensor2, _is_integer

# name -> (the knob that sets its keep rule's budgets, or None; the rule at
#          capacity c and knob value k; merge the rest (else drop it);
#          rotate keys by cache slot rather than by absolute position)
_RULES = {
    "concat": (None, lambda c, k: KeepRule(), False, False),
    "lococo": (None, lambda c, k: KeepRule(), True, False),
    "h2o": ("recent_budget", lambda c, k: KeepRule(0, k, c - k), False, False),
    "sink_window": ("n_sink", lambda c, k: KeepRule(k, c - k), False, True),
    "lococo+h2o": ("reserved", lambda c, k: KeepRule(heavy=k), True, False),
    "lococo+sink": ("n_sink", lambda c, k: KeepRule(k), True, False),
}
POLICY_NAMES = tuple(_RULES)


@dataclass(frozen=True)
class PolicySpec:
    """Everything needed to instantiate a cache policy, minus the conv heads.

    ``capacity`` is the slot budget M (ignored by concat, whose cache grows
    without bound). The other knobs set the policy's ``KeepRule`` and apply
    only to the policies that use them: ``recent_budget`` for h2o (default
    capacity // 2; heavy hitters fill the rest), ``n_sink`` sinks for
    sink_window (the window fills the rest) and lococo+sink, and
    ``reserved`` pinned heavy hitters for lococo+h2o.

    The policy is resolved once, at construction: ``rule`` is the
    ``KeepRule`` of its caches, ``needs_conv_head`` whether the columns it
    does not keep are merged rather than dropped, and ``slot_relative``
    whether keys rotate by cache slot rather than by absolute position. A
    policy's knob must lie in [0, capacity), so the rest of the capacity is
    never empty: an eviction rule keeps exactly ``capacity`` columns, at
    least one heavy hitter (h2o) or window column (sink_window) among them;
    a merging rule keeps fewer, and the head fills the rest. The capacity and
    the knobs are integers, not bools; numpy's are taken as Python ints.
    """

    name: str
    capacity: int | None = None
    n_sink: int = 4
    recent_budget: int | None = None
    reserved: int = 4
    rule: KeepRule = field(init=False, repr=False, compare=False)
    needs_conv_head: bool = field(init=False, repr=False, compare=False)
    slot_relative: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.name not in _RULES:
            raise CacheError(f"unknown policy {self.name!r}; choose from {POLICY_NAMES}")
        for name in ("capacity", "n_sink", "recent_budget", "reserved"):
            value = getattr(self, name)
            if value is not None and not _is_integer(value):
                raise CacheError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, value if value is None else int(value))  # for JSON
        if self.name == "concat":
            object.__setattr__(self, "capacity", None)
        elif self.capacity is None or self.capacity < 1:
            raise CacheError(f"policy {self.name!r} needs a positive capacity")
        knob, make_rule, merges, relative = _RULES[self.name]
        value = getattr(self, knob) if knob else 0
        if value is None:  # recent_budget's default
            value = self.capacity // 2
        if knob and not 0 <= value < self.capacity:
            raise CacheError(f"policy {self.name!r} needs 0 <= {knob} < capacity {self.capacity}, "
                             f"got {value}")
        object.__setattr__(self, "rule", make_rule(self.capacity, value))
        object.__setattr__(self, "needs_conv_head", merges)
        object.__setattr__(self, "slot_relative", relative)

    @property
    def merge_slots(self) -> int | None:
        """Slot count the conv head must produce, or None when no head is used."""
        return self.capacity - self.rule.budget if self.needs_conv_head else None

    def check_block_size(self, block_size: int) -> None:
        """Reject a block size that is no integer, is below 1 or whose blocks cannot
        enter the cache whole.

        A merging policy keeps ``rule.budget`` columns verbatim, so at most
        ``merge_slots`` columns of one block fit; an eviction policy takes up
        to ``capacity``.
        """
        if not _is_integer(block_size):
            raise ValueError(f"block_size must be an integer, got {block_size!r}")
        if block_size < 1:
            raise ValueError(f"block_size must be >= 1, got {block_size}")
        if self.capacity is None:
            return
        room = self.merge_slots or self.capacity
        if block_size > room:
            raise CacheError(
                f"block size {block_size} is rejected: policy {self.name!r} takes at most "
                f"{room} columns per block (capacity {self.capacity}, "
                f"{self.capacity - room} pinned)"
            )

    def build(self, conv_heads: list[ConvHead] | None, n_layers: int,
              block_size: int) -> "LayerPolicy":
        """The one policy over the caches of ``n_layers`` layers, stacked layer after
        layer, fed blocks of ``block_size``: a merging policy binds ``conv_heads``
        (a model's), head l merging layer l's rows; an eviction policy binds none,
        whatever it is given.

        ``check_block_size`` runs first. A merging policy then needs one head
        per layer, every head with ``merge_slots`` slots, and all of them of one
        kernel size and ``relu_position``, as one grouped conv scores every
        layer; CacheError names the first layer that differs.
        """
        self.check_block_size(block_size)
        if not self.needs_conv_head:
            return LayerPolicy(self)
        if not conv_heads:
            raise CacheError(f"policy {self.name!r} needs conv heads but the model has none; "
                             "calibrate first or pick an eviction policy")
        if len(conv_heads) != n_layers:
            raise CacheError(f"policy {self.name!r} needs one conv head per layer: the model has "
                             f"{n_layers} layers and {len(conv_heads)} heads")
        first = conv_heads[0]
        for layer, head in enumerate(conv_heads):
            if head.slots != self.merge_slots:
                raise CacheError(
                    f"policy {self.name!r} needs a head with {self.merge_slots} slots, "
                    f"got {head.slots} at layer {layer}"
                )
            if (head.kernel_size, head.relu_position) != (first.kernel_size, first.relu_position):
                raise CacheError(
                    f"conv heads must agree on kernel size and relu_position: layer {layer} "
                    f"has {head.kernel_size} and {head.relu_position!r}, layer 0 has "
                    f"{first.kernel_size} and {first.relu_position!r}"
                )
        return LayerPolicy(self, tuple(conv_heads))


class LayerPolicy:
    """A policy bound by ``PolicySpec.build`` to the conv heads of the layers whose
    stacked caches it updates, one per equal group of the leading axis; an
    eviction policy holds none."""

    def __init__(self, spec: PolicySpec, conv_heads: tuple[ConvHead, ...] = ()):
        self.spec = spec
        self.conv_heads = conv_heads

    @property
    def needs_mass(self) -> bool:
        return self.spec.rule.heavy > 0

    def empty_cache(self, d: int, n_seq: int = 1) -> KvCache:
        return KvCache.empty(d, self.spec.capacity, self.spec.rule, n_seq)

    def update(
        self,
        cache: KvCache,
        k_new: Tensor2,
        v_new: Tensor2,
        attn_mass: np.ndarray | None = None,
    ) -> KvCache:
        # evictions run through two named entry points, which the benchmark
        # traces apart: with heavy hitters (h2o) or by position only (sink_window)
        if self.spec.needs_conv_head:
            return compress_step(cache, k_new, v_new, self.conv_heads, attn_mass)
        if self.spec.capacity is None:
            return update_concat(cache, k_new, v_new)
        if self.needs_mass:
            return update_h2o(cache, k_new, v_new, attn_mass)
        return update_sink_window(cache, k_new, v_new)
