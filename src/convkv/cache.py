"""Bounded key/value stores and eviction-style update rules.

A cache update is a pure transition: (cache, new keys, new values, extras)
-> new cache. The merging step that needs the convolutional head lives in
``compressor``; this module holds the store itself plus the rules that keep or
drop whole columns: plain concatenation (unbounded), heavy-hitter eviction,
and sink+window eviction.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .numerics import ShapeError, Tensor2, hstack, select_cols


class CacheError(ValueError):
    """Cache used against its contract (bad budgets, non-empty start, ...)."""


@dataclass(frozen=True)
class HeavyHitterState:
    """Accumulated attention mass per cache column plus the keep budgets.

    Scores are plain sums of the attention probabilities each key column has
    received across all queries so far; they only ever shrink by eviction.
    """

    scores: np.ndarray
    recent_budget: int
    heavy_budget: int

    def __post_init__(self):
        object.__setattr__(self, "scores", np.asarray(self.scores, dtype=np.float64))
        if self.scores.ndim != 1:
            raise CacheError("scores must be 1-D")
        if self.recent_budget < 0 or self.heavy_budget < 0:
            raise CacheError("budgets must be nonnegative")

    @property
    def budget(self) -> int:
        return self.recent_budget + self.heavy_budget

    @classmethod
    def empty(cls, recent_budget: int, heavy_budget: int) -> "HeavyHitterState":
        return cls(np.zeros(0), recent_budget, heavy_budget)

    def accumulate(self, attn_probs: np.ndarray | None, n_new: int) -> np.ndarray:
        """Scores of the cached plus ``n_new`` incoming columns after one block.

        ``attn_probs`` are the block's softmax probabilities (rows = cached +
        new keys, columns = queries); each key column gains its row sum.
        """
        if attn_probs is None:
            raise CacheError("heavy-hitter updates need the block's attention probabilities")
        probs = np.asarray(attn_probs)
        n_total = len(self.scores) + n_new
        if probs.shape[0] != n_total:
            raise ShapeError(
                f"attention probs cover {probs.shape[0]} keys, expected {n_total}"
            )
        return np.concatenate([self.scores, np.zeros(n_new)]) + probs.sum(axis=1)

    def keep(self, scores: np.ndarray) -> np.ndarray:
        """Indices of the newest ``recent_budget`` columns plus the
        ``heavy_budget`` top-scored rest, sorted.

        Ties in score break toward newer (higher index) columns.
        """
        n = len(scores)
        cut = n - self.recent_budget
        rest = np.arange(cut)
        # lexsort: primary key last; -index makes equal scores favor newer tokens
        order = rest[np.lexsort((-rest, -scores[:cut]))]
        kept = np.concatenate([order[:self.heavy_budget], np.arange(cut, n)])
        return np.sort(kept)


@dataclass(frozen=True)
class SinkWindowState:
    """Keep the first ``n_sink`` tokens ever seen plus a recency window."""

    n_sink: int
    window: int

    def __post_init__(self):
        if self.n_sink < 0 or self.window < 1:
            raise CacheError(f"bad sink/window split: {self.n_sink}/{self.window}")

    @property
    def budget(self) -> int:
        return self.n_sink + self.window


@dataclass(frozen=True)
class KvCache:
    """Per-layer store of key/value columns, at most ``capacity`` of them.

    Column j of keys and values always describes the same (possibly merged)
    token(s). ``capacity`` is None for the unbounded concat policy. ``state``
    carries whatever the owning policy accumulates (e.g. heavy-hitter scores).
    ``live_entries`` is the instrumentation hook: KV entries currently held
    per attention head.
    """

    keys: Tensor2
    values: Tensor2
    capacity: int | None = None
    state: object | None = None
    total_seen: int = 0

    def __post_init__(self):
        if self.keys.cols != self.values.cols:
            raise ShapeError(
                f"key/value column mismatch: {self.keys.cols} vs {self.values.cols}"
            )
        if self.capacity is not None and self.capacity < 1:
            raise CacheError(f"capacity must be positive, got {self.capacity}")

    @classmethod
    def empty(cls, d: int, capacity: int | None = None,
              state: object | None = None) -> "KvCache":
        """No columns yet; keys and values both have ``d`` rows."""
        return cls(Tensor2.zeros(d, 0), Tensor2.zeros(d, 0), capacity, state)

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


def update_h2o(
    cache: KvCache,
    k_new: Tensor2,
    v_new: Tensor2,
    attn_probs: np.ndarray,
) -> KvCache:
    """Accumulate attention mass, then evict down to the slot budget.

    ``attn_probs`` are the softmax probabilities of the block just computed
    (rows = cached + new keys, columns = queries). When over budget, the
    newest ``recent_budget`` columns survive outright and the rest compete on
    accumulated score.
    """
    b = _check_block(cache, k_new, v_new)
    state = cache.state
    if not isinstance(state, HeavyHitterState):
        raise CacheError("update_h2o needs a HeavyHitterState on the cache")
    if cache.capacity is None:
        raise CacheError("update_h2o needs a bounded cache")
    if state.budget != cache.capacity:
        raise CacheError(
            f"recent+heavy budget {state.budget} must equal capacity {cache.capacity}"
        )
    scores = state.accumulate(attn_probs, b)

    keys = hstack([cache.keys, k_new])
    values = hstack([cache.values, v_new])
    if keys.cols > cache.capacity:
        kept = state.keep(scores)
        keys = select_cols(keys, kept)
        values = select_cols(values, kept)
        scores = scores[kept]
    return replace(
        cache,
        keys=keys,
        values=values,
        state=replace(state, scores=scores),
        total_seen=cache.total_seen + b,
    )


def update_sink_window(
    cache: KvCache,
    k_new: Tensor2,
    v_new: Tensor2,
) -> KvCache:
    """Keep the first ``n_sink`` tokens ever seen plus the trailing window."""
    b = _check_block(cache, k_new, v_new)
    state = cache.state
    if not isinstance(state, SinkWindowState):
        raise CacheError("update_sink_window needs a SinkWindowState on the cache")
    if cache.capacity is None or state.n_sink + state.window != cache.capacity:
        raise CacheError(
            f"n_sink + window must equal capacity, got {state.n_sink}+{state.window} "
            f"vs {cache.capacity}"
        )
    keys = hstack([cache.keys, k_new])
    values = hstack([cache.values, v_new])
    n_total = keys.cols
    if n_total > cache.capacity:
        # sinks were never evicted, so the first columns are the oldest tokens
        kept = np.concatenate(
            [np.arange(state.n_sink), np.arange(n_total - state.window, n_total)]
        )
        keys = select_cols(keys, kept)
        values = select_cols(values, kept)
    return replace(
        cache,
        keys=keys,
        values=values,
        total_seen=cache.total_seen + b,
    )
