"""Bounded key/value stores and the one rule that decides which columns stay.

A cache update is a pure transition: (cache, new keys, new values, extras)
-> new cache. Plain concatenation grows without bound. Every bounded policy
runs ``bounded_update``: append the block while the cache has room; once it
would overflow, keep the columns the cache's ``KeepRule`` names verbatim and
drop the rest (heavy-hitter and sink+window eviction) or hand the rest to a
merge (``compressor.compress_step`` blends it into slots with the
convolutional head). A policy differs from another only in its rule and in
whether the rest is dropped or merged.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .numerics import ShapeError, Tensor2, hstack, select_cols


class CacheError(ValueError):
    """Cache used against its contract (bad budgets, non-empty start, ...)."""


@dataclass(frozen=True)
class KeepRule:
    """Which columns of an over-full cache are kept verbatim.

    The first ``n_sink`` columns (attention sinks; they are never dropped or
    merged, so they stay the oldest tokens), the newest ``recent`` and the
    ``heavy`` top-scored of the columns in between. A column's score is the
    attention mass it has received across all queries so far; equal scores
    favour the newer column. ``scores`` holds one score per cache column and
    is tracked only when ``heavy > 0``.
    """

    n_sink: int = 0
    recent: int = 0
    heavy: int = 0
    scores: np.ndarray | None = None

    def __post_init__(self):
        if min(self.n_sink, self.recent, self.heavy) < 0:
            raise CacheError(
                f"keep budgets must be nonnegative, got {self.n_sink}/{self.recent}/{self.heavy}"
            )
        if self.heavy and self.scores is None:
            object.__setattr__(self, "scores", np.zeros(0))

    @property
    def budget(self) -> int:
        return self.n_sink + self.recent + self.heavy

    def accumulate(self, attn_probs: np.ndarray | None, n_new: int) -> np.ndarray | None:
        """Scores of the cached plus ``n_new`` incoming columns after one block.

        ``attn_probs`` are the block's softmax probabilities (rows = cached +
        new keys, columns = queries); each key column gains its row sum.
        """
        if not self.heavy:
            return None
        if attn_probs is None:
            raise CacheError("heavy-hitter updates need the block's attention probabilities")
        probs = np.asarray(attn_probs)
        n_total = len(self.scores) + n_new
        if probs.shape[0] != n_total:
            raise ShapeError(f"attention probs cover {probs.shape[0]} keys, expected {n_total}")
        return np.concatenate([self.scores, np.zeros(n_new)]) + probs.sum(axis=1)

    def keep(self, n: int, scores: np.ndarray | None = None) -> np.ndarray:
        """Sorted indices of the kept columns among ``n`` > ``budget``."""
        lo, hi = self.n_sink, n - self.recent
        rest = np.arange(lo, hi)
        # lexsort: primary key last; -index makes equal scores favor newer tokens
        heavy = rest[np.lexsort((-rest, -scores[lo:hi]))][:self.heavy] if self.heavy else rest[:0]
        return np.concatenate([np.arange(lo), np.sort(heavy), np.arange(hi, n)])


@dataclass(frozen=True)
class KvCache:
    """Per-layer store of key/value columns, at most ``capacity`` of them.

    Column j of keys and values always describes the same (possibly merged)
    token(s). ``capacity`` is None for the unbounded concat policy; a bounded
    cache is kept within it by ``rule``, which also carries the heavy-hitter
    scores. ``live_entries`` is the instrumentation hook: KV entries currently
    held per attention head.
    """

    keys: Tensor2
    values: Tensor2
    capacity: int | None = None
    rule: KeepRule = KeepRule()
    total_seen: int = 0

    def __post_init__(self):
        if self.keys.cols != self.values.cols:
            raise ShapeError(
                f"key/value column mismatch: {self.keys.cols} vs {self.values.cols}"
            )
        if self.capacity is not None and self.capacity < 1:
            raise CacheError(f"capacity must be positive, got {self.capacity}")

    @classmethod
    def empty(cls, d: int, capacity: int | None = None, rule: KeepRule = KeepRule()) -> "KvCache":
        """No columns yet; keys and values both have ``d`` rows."""
        return cls(Tensor2.zeros(d, 0), Tensor2.zeros(d, 0), capacity, rule)

    @property
    def live_entries(self) -> int:
        return self.keys.cols

    def detach(self) -> "KvCache":
        return replace(self, keys=self.keys.detach(), values=self.values.detach())


def _check_block(cache: KvCache, k_new: Tensor2, v_new: Tensor2) -> int:
    if k_new.cols != v_new.cols:
        raise ShapeError(f"block key/value mismatch: {k_new.cols} vs {v_new.cols}")
    if k_new.rows != cache.keys.rows or v_new.rows != cache.values.rows:
        raise ShapeError("block feature dimension differs from the cache")
    return k_new.cols


def update_concat(cache: KvCache, k_new: Tensor2, v_new: Tensor2) -> KvCache:
    """Append the block; the cache grows without bound."""
    b = _check_block(cache, k_new, v_new)
    return replace(
        cache,
        keys=hstack([cache.keys, k_new]),
        values=hstack([cache.values, v_new]),
        total_seen=cache.total_seen + b,
    )


def bounded_update(cache: KvCache, k_new: Tensor2, v_new: Tensor2,
                   attn_probs: np.ndarray | None = None, merge=None) -> KvCache:
    """Append the block while it fits; past the capacity, keep what the rule names.

    ``attn_probs`` (rows = cached + new keys, columns = queries) feed the
    heavy-hitter scores. Once cache + block would overflow, the columns
    ``cache.rule.keep`` names stay verbatim, in token order, and the rest is
    dropped; given ``merge``, the rest is instead blended into slots that
    follow them. ``merge(cache, k_new, v_new, rest, scores)`` gets the mask
    of the columns not kept (cache first, then block) and returns the keys,
    values and scores (None when untracked) of its slots.
    """
    b = _check_block(cache, k_new, v_new)
    rule, m = cache.rule, cache.capacity
    if m is None:
        raise CacheError("a bounded update needs a bounded cache")
    if merge is None and rule.budget != m:
        raise CacheError(f"eviction keeps {rule.budget} columns but capacity is {m}")
    scores = rule.accumulate(attn_probs, b)
    n = cache.live_entries + b
    if n <= m:
        return replace(update_concat(cache, k_new, v_new), rule=replace(rule, scores=scores))
    kept = rule.keep(n, scores)
    if len(kept):
        keys = select_cols(hstack([cache.keys, k_new]), kept)
        values = select_cols(hstack([cache.values, v_new]), kept)
    if merge is not None:
        rest = np.ones(n, dtype=bool)
        rest[kept] = False
        merged_keys, merged_values, merged_scores = merge(cache, k_new, v_new, rest, scores)
        keys = hstack([keys, merged_keys]) if len(kept) else merged_keys
        values = hstack([values, merged_values]) if len(kept) else merged_values
    if scores is not None:
        scores = scores[kept] if merge is None else np.concatenate([scores[kept], merged_scores])
    return replace(cache, keys=keys, values=values, rule=replace(rule, scores=scores),
                   total_seen=cache.total_seen + b)


def update_h2o(cache: KvCache, k_new: Tensor2, v_new: Tensor2, attn_probs: np.ndarray) -> KvCache:
    """Heavy-hitter eviction: add the block's attention mass to the scores,
    then drop every column the cache's rule does not keep."""
    return bounded_update(cache, k_new, v_new, attn_probs)


def update_sink_window(cache: KvCache, k_new: Tensor2, v_new: Tensor2) -> KvCache:
    """Sink+window eviction: drop every column the cache's rule does not keep."""
    return bounded_update(cache, k_new, v_new)
