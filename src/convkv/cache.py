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
    one row per sequence, (n, cols), and is tracked only when ``heavy > 0``.
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
            object.__setattr__(self, "scores", np.zeros((1, 0)))

    @property
    def budget(self) -> int:
        return self.n_sink + self.recent + self.heavy

    def accumulate(self, attn_probs: np.ndarray | None, n_new: int) -> np.ndarray | None:
        """Scores of the cached plus ``n_new`` incoming columns after one block.

        ``attn_probs`` are the block's softmax probabilities, (n, cached + new
        keys, queries); each key column gains its row sum.
        """
        if not self.heavy:
            return None
        if attn_probs is None:
            raise CacheError("heavy-hitter updates need the block's attention probabilities")
        probs = np.asarray(attn_probs)
        n_total = self.scores.shape[-1] + n_new
        if probs.shape[-2] != n_total:
            raise ShapeError(f"attention probs cover {probs.shape[-2]} keys, expected {n_total}")
        fresh = np.zeros(self.scores.shape[:-1] + (n_new,))
        return np.concatenate([self.scores, fresh], axis=-1) + probs.sum(axis=-1)

    def keep(self, n: int, scores: np.ndarray | None = None) -> np.ndarray:
        """Sorted indices of the kept columns among ``n`` > ``budget``: one row per
        sequence of (n_seq, n) ``scores``, or for a rule without heavy hitters one
        (1, k) row that every sequence shares."""
        lo, hi, heavy = self.n_sink, n - self.recent, self.heavy
        kept = np.empty((len(scores) if heavy else 1, self.budget), dtype=np.int64)
        kept[:, :lo], kept[:, lo + heavy:] = np.arange(lo), np.arange(hi, n)
        if heavy:  # top scores first, the newer column on ties: a stable sort of reversed scores
            top = np.argsort(-scores[:, lo:hi][:, ::-1], kind="stable")[:, :heavy]
            kept[:, lo:lo + heavy] = np.sort(hi - 1 - top)
        return kept


@dataclass(frozen=True)
class KvCache:
    """Per-layer store of key/value columns, at most ``capacity`` of them.

    Keys and values are (n, d, cols): n sequences side by side, one sequence
    being a batch of one, with ``__post_init__`` raising ShapeError on any
    other layout. Column j of keys and values always describes the same
    (possibly merged) token(s). ``capacity`` is None for the unbounded concat
    policy; a bounded cache is kept within it by ``rule``, which also carries
    the (n, cols) heavy-hitter scores. ``live_entries`` is the
    instrumentation hook: KV entries currently held per attention head and
    sequence.
    """

    keys: Tensor2
    values: Tensor2
    capacity: int | None = None
    rule: KeepRule = KeepRule()

    def __post_init__(self):
        k, v = self.keys.shape, self.values.shape
        if len(k) != 3 or len(v) != 3 or k[0] != v[0]:
            raise ShapeError(f"cache keys and values must be (n, d, cols) of one n, got {k}, {v}")
        if k[-1] != v[-1]:
            raise ShapeError(f"key/value column mismatch: {k[-1]} vs {v[-1]}")
        if self.capacity is not None and self.capacity < 1:
            raise CacheError(f"capacity must be positive, got {self.capacity}")

    @classmethod
    def empty(cls, d: int, capacity: int | None = None, rule: KeepRule = KeepRule(),
              n_seq: int = 1) -> "KvCache":
        """No columns yet: keys and values of (n_seq, d, 0), scores of (n_seq, 0)."""
        rule = replace(rule, scores=np.zeros((n_seq, 0))) if rule.heavy else rule
        return cls(Tensor2.zeros(n_seq, d, 0), Tensor2.zeros(n_seq, d, 0), capacity, rule)

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
    _check_block(cache, k_new, v_new)
    return replace(cache, keys=hstack([cache.keys, k_new]), values=hstack([cache.values, v_new]))


def bounded_update(cache: KvCache, k_new: Tensor2, v_new: Tensor2,
                   attn_probs: np.ndarray | None = None, merge=None) -> KvCache:
    """Append the block while it fits; past the capacity, keep what the rule names.

    ``attn_probs`` (n, cached + new keys, queries) feed the heavy-hitter
    scores. Once cache + block would overflow, the columns
    ``cache.rule.keep`` names stay verbatim, in token order, and the rest is
    dropped; given ``merge``, the rest is instead blended into slots that
    follow them. ``merge(cache, k_new, v_new, rest, scores)`` gets the mask
    of the columns not kept, cache first, then block: a row per sequence, or
    one row every sequence shares when the rule keeps by position only. It
    returns the keys, values and scores (None when untracked) of its slots.
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
    at = (np.arange(len(kept))[:, None], kept)
    if kept.size:
        keys = select_cols(hstack([cache.keys, k_new]), kept)
        values = select_cols(hstack([cache.values, v_new]), kept)
    if merge is not None:
        rest = np.ones((len(kept), n), dtype=bool)
        rest[at] = False
        merged_keys, merged_values, merged_scores = merge(cache, k_new, v_new, rest, scores)
        keys = hstack([keys, merged_keys]) if kept.size else merged_keys
        values = hstack([values, merged_values]) if kept.size else merged_values
    if scores is not None:
        scores = scores[at] if merge is None else np.concatenate([scores[at], merged_scores], -1)
    return replace(cache, keys=keys, values=values, rule=replace(rule, scores=scores))


def update_h2o(cache: KvCache, k_new: Tensor2, v_new: Tensor2, attn_probs: np.ndarray) -> KvCache:
    """Heavy-hitter eviction: add the block's attention mass to the scores,
    then drop every column the cache's rule does not keep."""
    return bounded_update(cache, k_new, v_new, attn_probs)


def update_sink_window(cache: KvCache, k_new: Tensor2, v_new: Tensor2) -> KvCache:
    """Sink+window eviction: drop every column the cache's rule does not keep."""
    return bounded_update(cache, k_new, v_new)
