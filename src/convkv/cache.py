"""Bounded key/value stores and the one rule that decides which columns stay.

A cache update is a pure transition: (cache, new keys, new values, extras)
-> new cache. Plain concatenation grows without bound. Every bounded policy
runs ``bounded_update``: append the block while the cache has room; once it
would overflow, gather the cache's and the block's columns once, keys over
values, and pick from that: the columns the cache's ``KeepRule`` names stay
verbatim and the rest is dropped (heavy-hitter and sink+window eviction) or
merged (``compressor.compress_step`` blends it into slots with the
convolutional head). ``bounded_update`` is the one place that knows that
layout: it puts the merged columns in the block-first order the head scores
them in, and splits keys from values once, after the kept and merged
columns are joined. A policy differs from another only in its rule and in
whether the rest is dropped or merged. A rule is only the policy's budgets;
the heavy-hitter scores it ranks by are per-sequence state, kept on the
cache.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .numerics import ShapeError, Tensor2, custom_op, hstack, select_cols


class CacheError(ValueError):
    """Cache used against its contract (bad budgets, non-empty start, ...)."""


@dataclass(frozen=True)
class KeepRule:
    """Which columns of an over-full cache are kept verbatim: a policy's budgets.

    The first ``n_sink`` columns (attention sinks; they are never dropped or
    merged, so they stay the oldest tokens), the newest ``recent`` and the
    ``heavy`` top-scored of the columns in between. A column's score is the
    attention mass it has received across all queries so far, which the
    cache tracks when ``heavy > 0``; equal scores favour the newer column.
    """

    n_sink: int = 0
    recent: int = 0
    heavy: int = 0

    def __post_init__(self):
        if min(self.n_sink, self.recent, self.heavy) < 0:
            raise CacheError(
                f"keep budgets must be nonnegative, got {self.n_sink}/{self.recent}/{self.heavy}"
            )

    @property
    def budget(self) -> int:
        return self.n_sink + self.recent + self.heavy

    def keep(self, n: int, n_seq: int, scores: np.ndarray | None = None) -> np.ndarray:
        """Sorted indices of the kept columns among ``n`` > ``budget``, one row per
        sequence: (n_seq, budget). A rule with heavy hitters reads their (n_seq, n)
        ``scores``."""
        lo, hi, heavy = self.n_sink, n - self.recent, self.heavy
        kept = np.empty((n_seq, self.budget), dtype=np.int64)
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
    policy; a bounded cache is kept within it by ``rule``. ``scores`` are the
    (n, cols) heavy-hitter scores, None unless the rule keeps heavy hitters.
    ``live_entries`` is the instrumentation hook: KV entries currently held
    per attention head and sequence.
    """

    keys: Tensor2
    values: Tensor2
    capacity: int | None = None
    rule: KeepRule = KeepRule()
    scores: np.ndarray | None = None

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
        scores = np.zeros((n_seq, 0)) if rule.heavy else None
        return cls(Tensor2.zeros(n_seq, d, 0), Tensor2.zeros(n_seq, d, 0), capacity, rule, scores)

    @property
    def live_entries(self) -> int:
        return self.keys.cols

    def detach(self) -> "KvCache":
        return replace(self, keys=self.keys.detach(), values=self.values.detach())


def _check_block(cache: KvCache, k_new: Tensor2, v_new: Tensor2) -> int:
    if k_new.cols != v_new.cols:
        raise ShapeError(f"block key/value mismatch: {k_new.cols} vs {v_new.cols}")
    lead = cache.keys.shape[:-1]
    if k_new.shape[:-1] != lead or v_new.shape[:-1] != lead:
        raise ShapeError(f"block keys {k_new.shape} and values {v_new.shape} do not fit a cache of "
                         f"(n, d) = {lead}: sequence count or feature dimension differs")
    return k_new.cols


def update_concat(cache: KvCache, k_new: Tensor2, v_new: Tensor2) -> KvCache:
    """Append the block; the cache grows without bound."""
    _check_block(cache, k_new, v_new)
    return replace(cache, keys=hstack([cache.keys, k_new]), values=hstack([cache.values, v_new]))


def _keys_over_values(cache: KvCache, k_new: Tensor2, v_new: Tensor2) -> Tensor2:
    """(n, 2d, cached + b) in one copy: keys over values, the cache's columns then the block's."""
    d, c = cache.keys.rows, cache.live_entries
    parts = (cache.keys, k_new, cache.values, v_new)
    quarters = [(..., rows, cols) for rows in (slice(None, d), slice(d, None))
                for cols in (slice(None, c), slice(c, None))]
    data = np.empty(k_new.shape[:-2] + (2 * d, c + k_new.cols))
    for part, at in zip(parts, quarters):
        data[at] = part.data
    return custom_op(parts, data, lambda g: tuple(g[at] for at in quarters))


def _split(both: Tensor2) -> tuple[Tensor2, Tensor2]:
    """The keys and the values of an (n, 2d, cols) tensor of keys over values, as views."""
    shape, d = both.shape, both.rows // 2

    def rows(at: slice) -> Tensor2:
        def vjp(g):
            full = np.zeros(shape)
            full[..., at, :] = g
            return (full,)

        return custom_op([both], both.data[..., at, :], vjp)

    return rows(slice(None, d)), rows(slice(d, None))


def bounded_update(cache: KvCache, k_new: Tensor2, v_new: Tensor2,
                   attn_mass: np.ndarray | None = None, merge=None) -> KvCache:
    """Append the block while it fits; past the capacity, keep what the rule names.

    ``attn_mass`` (n, cached + new keys), the attention each key drew from the
    block's queries, adds to the heavy-hitter scores. Once cache + block would
    overflow, the cache's and the block's columns are gathered once, keys
    over values, and every column taken is picked from that: the columns
    ``cache.rule.keep`` names stay verbatim, in token order, and the rest is
    dropped; given ``merge``, the rest is instead picked too, a row of
    columns per sequence with the block's first, and blended into slots that
    follow the kept columns. ``merge(picked, from_block)`` gets those (n, 2d,
    p) columns and the (n, p) mask of the block's among them, and returns
    the (n, 2d, slots) slots and the (n, slots, p) weights that made them; a
    slot's score is its weights times the scores of the columns it merges.
    """
    b = _check_block(cache, k_new, v_new)
    rule, m, scores = cache.rule, cache.capacity, cache.scores
    if m is None:
        raise CacheError("a bounded update needs a bounded cache")
    if merge is None and rule.budget != m:
        raise CacheError(f"eviction keeps {rule.budget} columns but capacity is {m}")
    n_seq, n = cache.keys.shape[0], cache.live_entries + b
    if rule.heavy:
        if attn_mass is None:
            raise CacheError("heavy-hitter updates need the block's attention mass")
        if attn_mass.shape[-1] != n:
            raise ShapeError(f"attention mass covers {attn_mass.shape[-1]} keys, expected {n}")
        if np.shape(scores) != (n_seq, n - b):
            raise ShapeError(f"heavy-hitter scores are {np.shape(scores)}, expected {(n_seq, n - b)}")
        scores = np.concatenate([scores, np.zeros(scores.shape[:-1] + (b,))], -1) + attn_mass
    if n <= m:
        return replace(update_concat(cache, k_new, v_new), scores=scores)
    kept = rule.keep(n, n_seq, scores)
    at = (np.arange(n_seq)[:, None], kept)
    both = _keys_over_values(cache, k_new, v_new)
    taken = [select_cols(both, kept)] if kept.size else []
    taken_scores = None if scores is None else [scores[at]]
    if merge is not None:
        rest = np.ones((n_seq, n), dtype=bool)
        rest[at] = False
        order = np.roll(np.arange(n), b)  # the block's columns, then the cache's
        cols = order[np.nonzero(rest[:, order])[1]].reshape(n_seq, -1)
        slots, weights = merge(select_cols(both, cols), cols >= n - b)
        taken.append(slots)
        if scores is not None:
            sources = np.take_along_axis(scores, cols, -1)
            taken_scores.append((weights @ sources[..., None])[..., 0])
    keys, values = _split(hstack(taken) if len(taken) > 1 else taken[0])
    if scores is not None:
        scores = np.concatenate(taken_scores, -1)
    return replace(cache, keys=keys, values=values, scores=scores)


def update_h2o(cache: KvCache, k_new: Tensor2, v_new: Tensor2, attn_mass: np.ndarray) -> KvCache:
    """Heavy-hitter eviction: add the block's attention mass to the scores,
    then drop every column the cache's rule does not keep."""
    return bounded_update(cache, k_new, v_new, attn_mass)


def update_sink_window(cache: KvCache, k_new: Tensor2, v_new: Tensor2) -> KvCache:
    """Sink+window eviction: drop every column the cache's rule does not keep."""
    return bounded_update(cache, k_new, v_new)
