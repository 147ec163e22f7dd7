"""Cache update rules: concat, the keep rule, eviction, hybrids and policy specs."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convkv.cache import (
    CacheError,
    KeepRule,
    KvCache,
    update_concat,
    update_h2o,
    update_sink_window,
)
from convkv.compressor import (
    FusionWeights,
    compress_step,
    fuse,
    new_conv_head,
    synthesize_weights,
)
from convkv.numerics import Tensor2
from convkv.policies import PolicySpec

import oracles


def t2(arr):
    return Tensor2(np.asarray(arr, dtype=np.float64))


def token_block(d, start, count):
    """Columns whose first row encodes the token index; row 1 pairs values."""
    k = np.zeros((d, count))
    k[0, :] = np.arange(start, start + count)
    k[1:, :] = np.random.default_rng(start).standard_normal((d - 1, count))
    return t2(k)


def paired_values(keys: Tensor2) -> Tensor2:
    return t2(keys.data * 2.0 + 1.0)


class TestConcat:
    def test_empty_plus_block(self):
        cache = KvCache.empty(3)
        k = token_block(3, 0, 4)
        out = update_concat(cache, k, paired_values(k))
        assert np.array_equal(out.keys.data, k.data)
        assert out.total_seen == 4

    def test_two_updates_preserve_order(self):
        cache = KvCache.empty(2)
        a, b = token_block(2, 0, 2), token_block(2, 2, 2)
        cache = update_concat(cache, a, paired_values(a))
        cache = update_concat(cache, b, paired_values(b))
        assert cache.live_entries == 4
        assert np.array_equal(cache.keys.data[0], [0, 1, 2, 3])

    def test_matches_concatenation_oracle(self):
        rng = np.random.default_rng(0)
        blocks = [rng.standard_normal((3, rng.integers(1, 5))) for _ in range(6)]
        cache = KvCache.empty(3)
        for blk in blocks:
            cache = update_concat(cache, t2(blk), t2(blk + 1))
        assert np.array_equal(cache.keys.data, np.concatenate(blocks, axis=1))


def rule_of(policy, capacity, knob):
    """The keep rule of ``policy`` at ``capacity``, its one free knob set to ``knob``."""
    kwargs = {
        "h2o": dict(recent_budget=knob),
        "sink_window": dict(n_sink=knob),
        "lococo": {},
        "lococo+h2o": dict(reserved=knob),
        "lococo+sink": dict(n_sink=knob),
    }[policy]
    return PolicySpec(policy, capacity=capacity, **kwargs).rule


class TestKeepRule:
    @settings(max_examples=150, deadline=None)
    @given(
        policy=st.sampled_from(["h2o", "sink_window", "lococo", "lococo+h2o", "lococo+sink"]),
        capacity=st.integers(2, 8),
        data=st.data(),
    )
    def test_keep_matches_scalar_oracle(self, policy, capacity, data):
        knob = data.draw(st.integers(0, capacity - 1), label="knob")
        rule = rule_of(policy, capacity, knob)
        n = rule.budget + data.draw(st.integers(1, 8), label="extra")
        # few distinct values, so equal scores are common
        values = st.sampled_from([0.0, 0.5, 1.0])
        scores = np.array(data.draw(st.lists(values, min_size=n, max_size=n), label="scores"))
        kept = rule.keep(n, scores)
        assert kept.tolist() == oracles.keep_indices(scores, rule.n_sink, rule.recent, rule.heavy)

    @pytest.mark.parametrize("policy, knob, budgets, tracks_scores", [
        ("h2o", 3, (0, 3, 5), True),
        ("sink_window", 2, (2, 6, 0), False),
        ("lococo", 0, (0, 0, 0), False),
        ("lococo+h2o", 3, (0, 0, 3), True),
        ("lococo+sink", 2, (2, 0, 0), False),
    ])
    def test_each_policy_maps_to_its_rule(self, policy, knob, budgets, tracks_scores):
        rule = rule_of(policy, 8, knob)
        assert (rule.n_sink, rule.recent, rule.heavy) == budgets
        assert (rule.scores is not None) == tracks_scores


class TestPolicySpecRejects:
    @pytest.mark.parametrize("kwargs", [
        dict(name="lru", capacity=8),
        dict(name="lococo"),
        dict(name="h2o", capacity=0),
        dict(name="h2o", capacity=8, recent_budget=3, heavy_budget=3),
        dict(name="h2o", capacity=8, recent_budget=-1, heavy_budget=9),
        dict(name="sink_window", capacity=8, n_sink=2, window=5),
        dict(name="sink_window", capacity=4, n_sink=4),
        dict(name="lococo+h2o", capacity=4, reserved=4),
        dict(name="lococo+h2o", capacity=4, reserved=5),
        dict(name="lococo+sink", capacity=4, n_sink=-1),
        dict(name="lococo+sink", capacity=4, n_sink=4),
    ], ids=[
        "unknown-name", "missing-capacity", "zero-capacity", "h2o-budgets-short",
        "h2o-negative-budget", "sink-window-budgets-short", "sink-window-empty-window",
        "reserved-at-capacity", "reserved-over-capacity", "negative-sinks",
        "sinks-at-capacity",
    ])
    def test_rejected_with_cache_error(self, kwargs):
        with pytest.raises(CacheError):
            PolicySpec(**kwargs)


def h2o_cache(d, capacity, recent=None, heavy=None):
    recent = capacity // 2 if recent is None else recent
    heavy = capacity - recent if heavy is None else heavy
    return KvCache.empty(d, capacity=capacity, rule=KeepRule(0, recent, heavy))


class TestH2O:
    def test_under_budget_identical_to_concat(self):
        cache = h2o_cache(2, 8)
        k = token_block(2, 0, 3)
        probs = np.full((3, 3), 1 / 3)
        out = update_h2o(cache, k, paired_values(k), probs)
        assert np.array_equal(out.keys.data, k.data)
        assert np.allclose(out.rule.scores, probs.sum(axis=1))

    def test_unique_zero_score_column_evicted(self):
        cache = h2o_cache(2, 4, recent=2, heavy=2)
        k = token_block(2, 0, 4)
        cache = update_h2o(cache, k, paired_values(k), np.eye(4) * 0.5 + 0.1)
        nxt = token_block(2, 4, 1)
        # column 1 of the cache gets no mass this round and had the least before
        probs = np.array([[0.3], [0.0], [0.25], [0.25], [0.2]])
        probs[1, 0] = 0.0
        cache = replace(cache, rule=KeepRule(0, 2, 2, np.array([0.6, 0.0, 0.6, 0.6])))
        cache2 = update_h2o(cache, nxt, paired_values(nxt), probs)
        assert cache2.live_entries == 4
        assert 1.0 not in cache2.keys.data[0]

    def test_random_case_matches_exhaustive_sort_oracle(self):
        rng = np.random.default_rng(1)
        for trial in range(25):
            n_old, b, m = 8, 4, 8
            recent = int(rng.integers(1, m))
            heavy = m - recent
            scores0 = rng.random(n_old) * 3
            cache = KvCache(
                token_block(2, 0, n_old), paired_values(token_block(2, 0, n_old)),
                m, KeepRule(0, recent, heavy, scores0), n_old,
            )
            k = token_block(2, n_old, b)
            probs = rng.random((n_old + b, b))
            out = update_h2o(cache, k, paired_values(k), probs)
            scores = np.concatenate([scores0, np.zeros(b)]) + probs.sum(axis=1)
            kept = oracles.keep_indices(scores, 0, recent, heavy)
            assert list(out.keys.data[0]) == [float(i) for i in kept]
            assert np.allclose(out.rule.scores, scores[kept])

    def test_tie_breaks_toward_newer(self):
        scores0 = np.array([1.0, 1.0, 1.0, 1.0])
        cache = KvCache(
            token_block(2, 0, 4), paired_values(token_block(2, 0, 4)),
            4, KeepRule(0, 2, 2, scores0), 4,
        )
        k = token_block(2, 4, 1)
        probs = np.zeros((5, 1))
        out = update_h2o(cache, k, paired_values(k), probs)
        # newest two (3, 4) kept by recency; heavy picks 1 and 2 over 0 on ties
        assert list(out.keys.data[0]) == [1.0, 2.0, 3.0, 4.0]


class TestSinkWindow:
    def make(self, d, n_sink, window):
        return KvCache.empty(d, capacity=n_sink + window, rule=KeepRule(n_sink, window))

    def test_under_budget_identical_to_concat(self):
        cache = self.make(2, 2, 4)
        k = token_block(2, 0, 5)
        out = update_sink_window(cache, k, paired_values(k))
        assert np.array_equal(out.keys.data, k.data)

    def test_definition_case(self):
        cache = self.make(2, 2, 2)
        for t in range(6):
            k = token_block(2, t, 1)
            cache = update_sink_window(cache, k, paired_values(k))
        assert list(cache.keys.data[0]) == [0.0, 1.0, 4.0, 5.0]

    def test_random_lengths_match_set_oracle(self):
        rng = np.random.default_rng(2)
        for trial in range(20):
            n_sink = int(rng.integers(1, 4))
            window = int(rng.integers(1, 5))
            cache = self.make(2, n_sink, window)
            total = 0
            for _ in range(int(rng.integers(1, 6))):
                b = int(rng.integers(1, 4))
                k = token_block(2, total, b)
                cache = update_sink_window(cache, k, paired_values(k))
                total += b
            kept = oracles.keep_indices(np.zeros(total), n_sink, window, 0)
            assert list(cache.keys.data[0]) == [float(i) for i in kept]


class TestInvariants:
    @settings(max_examples=40, deadline=None)
    @given(
        b=st.integers(1, 6),
        m_extra=st.integers(0, 6),
        n_blocks=st.integers(1, 6),
        policy=st.sampled_from(["h2o", "sink_window", "lococo", "lococo+sink", "lococo+h2o"]),
        seed=st.integers(0, 10_000),
    )
    def test_bounded_policies_never_exceed_capacity(self, b, m_extra, n_blocks, policy, seed):
        m = b + m_extra
        d = 4
        rng = np.random.default_rng(seed)
        spec_kwargs = dict(name=policy, capacity=m)
        if policy == "sink_window":
            if m < 2:
                m = 2
            spec_kwargs.update(capacity=m, n_sink=1, window=m - 1)
        if policy == "lococo+sink":
            spec_kwargs.update(n_sink=min(1, m - 1) if m > 1 else 0)
            if m - spec_kwargs["n_sink"] < b:  # fill phase must cover the sinks
                spec_kwargs.update(n_sink=0)
        if policy == "lococo+h2o":
            spec_kwargs.update(reserved=1 if m > 1 else 0)
        spec = PolicySpec(**spec_kwargs)
        head = (
            new_conv_head(d, spec.merge_slots, kernel_size=3, rng=rng)
            if spec.needs_conv_head
            else None
        )
        layer = spec.build(head)
        cache = layer.empty_cache(d)
        total = 0
        for _ in range(n_blocks):
            k = t2(rng.standard_normal((d, b)))
            v = t2(rng.standard_normal((d, b)))
            probs = rng.random((cache.live_entries + b, b))
            cache = layer.update(cache, k, v, attn_probs=probs)
            total += b
            assert cache.live_entries == min(total, m)
        assert cache.total_seen == total

    def test_eviction_applies_identically_to_keys_and_values(self):
        rng = np.random.default_rng(3)
        for policy in ("h2o", "sink_window"):
            spec = PolicySpec(policy, capacity=4, n_sink=2, window=2)
            layer = spec.build()
            cache = layer.empty_cache(3)
            for t in range(4):
                k = token_block(3, 3 * t, 3)
                probs = rng.random((cache.live_entries + 3, 3))
                cache = layer.update(cache, k, paired_values(k), attn_probs=probs)
            assert np.array_equal(cache.values.data, cache.keys.data * 2.0 + 1.0)


class TestH2OAsFusionOperator:
    """Eviction is a one-hot special case of the fusion operator."""

    @pytest.mark.parametrize("seed", range(10))
    def test_one_hot_weights_reproduce_eviction_exactly(self, seed):
        rng = np.random.default_rng(seed)
        d, n_old, b, m = 3, 9, 3, 8
        recent = int(rng.integers(1, m))
        heavy = m - recent
        scores0 = rng.random(n_old)
        old_k = t2(rng.standard_normal((d, n_old)))
        old_v = t2(rng.standard_normal((d, n_old)))
        cache = KvCache(old_k, old_v, m, KeepRule(0, recent, heavy, scores0), n_old)
        k_new = t2(rng.standard_normal((d, b)))
        v_new = t2(rng.standard_normal((d, b)))
        probs = rng.random((n_old + b, b))

        evicted = update_h2o(cache, k_new, v_new, probs)

        scores = np.concatenate([scores0, np.zeros(b)]) + probs.sum(axis=1)
        kept = oracles.keep_indices(scores, 0, recent, heavy)
        w_new = np.zeros((m, b))
        w_cache = np.zeros((m, n_old))
        for slot, col in enumerate(kept):
            if col < n_old:
                w_cache[slot, col] = 1.0
            else:
                w_new[slot, col - n_old] = 1.0
        weights = FusionWeights(t2(w_new), t2(w_cache))
        k_fused, v_fused = fuse(weights, k_new, v_new, old_k, old_v)

        assert np.array_equal(k_fused.data, evicted.keys.data)
        assert np.array_equal(v_fused.data, evicted.values.data)


class TestHybrids:
    def test_zero_reserve_degenerates_to_pure_merging(self):
        # lococo+h2o with nothing pinned merges exactly like plain lococo and
        # tracks no scores
        rng = np.random.default_rng(4)
        d, m, b = 4, 6, 3
        head = new_conv_head(d, m, kernel_size=3, rng=rng)
        k1, v1 = t2(rng.standard_normal((d, 4))), t2(rng.standard_normal((d, 4)))
        k2, v2 = t2(rng.standard_normal((d, b))), t2(rng.standard_normal((d, b)))

        plain = compress_step(KvCache.empty(d, capacity=m), k1, v1, head)
        plain = compress_step(plain, k2, v2, head)

        rule = PolicySpec("lococo+h2o", capacity=m, reserved=0).rule
        heavy = KvCache.empty(d, capacity=m, rule=rule)
        heavy = compress_step(heavy, k1, v1, head, rng.random((4, 4)))
        heavy = compress_step(heavy, k2, v2, head, rng.random((4 + b, b)))

        assert np.array_equal(heavy.keys.data, plain.keys.data)
        assert np.array_equal(heavy.values.data, plain.values.data)
        assert heavy.rule.scores is None

    def test_sink_hybrid_pins_first_tokens_verbatim(self):
        rng = np.random.default_rng(5)
        d, m, n_sink = 3, 8, 4
        head = new_conv_head(d, m - n_sink, kernel_size=3, rng=rng)
        cache = KvCache.empty(d, capacity=m, rule=KeepRule(n_sink))
        first = token_block(d, 0, 4)
        first_v = paired_values(first)
        cache = compress_step(cache, first, first_v, head)
        for t in range(1, 4):
            k = token_block(d, 4 * t, 4)
            cache = compress_step(cache, k, paired_values(k), head)
        assert cache.live_entries == m
        assert np.array_equal(cache.keys.data[:, :n_sink], first.data)
        assert np.array_equal(cache.values.data[:, :n_sink], first_v.data)

    def test_heavy_hybrid_matches_composed_oracles(self):
        rng = np.random.default_rng(6)
        d, m, reserved, n_old, b = 3, 6, 2, 6, 3
        head = new_conv_head(d, m - reserved, kernel_size=3, rng=rng)
        scores0 = rng.random(n_old) * 2
        old_k, old_v = t2(rng.standard_normal((d, n_old))), t2(rng.standard_normal((d, n_old)))
        cache = KvCache(old_k, old_v, m, KeepRule(heavy=reserved, scores=scores0), n_old)
        k_new, v_new = t2(rng.standard_normal((d, b))), t2(rng.standard_normal((d, b)))
        probs = rng.random((n_old + b, b))

        out = compress_step(cache, k_new, v_new, head, probs)

        scores = np.concatenate([scores0, np.zeros(b)]) + probs.sum(axis=1)
        idx = np.arange(len(scores))
        pinned = np.sort(idx[np.lexsort((-idx, -scores))][:reserved])
        all_k = np.concatenate([old_k.data, k_new.data], axis=1)
        all_v = np.concatenate([old_v.data, v_new.data], axis=1)
        assert np.array_equal(out.keys.data[:, :reserved], all_k[:, pinned])
        assert np.array_equal(out.values.data[:, :reserved], all_v[:, pinned])

        comp = np.setdiff1d(idx, pinned)
        comp_cache = comp[comp < n_old]
        comp_new = comp[comp >= n_old] - n_old
        kc, vc = t2(old_k.data[:, comp_cache]), t2(old_v.data[:, comp_cache])
        kn, vn = t2(k_new.data[:, comp_new]), t2(v_new.data[:, comp_new])
        weights = synthesize_weights(kn, vn, kc, vc, head)
        k_ref, v_ref = fuse(weights, kn, vn, kc, vc)
        assert np.max(np.abs(out.keys.data[:, reserved:] - k_ref.data)) == 0.0
        assert np.max(np.abs(out.values.data[:, reserved:] - v_ref.data)) == 0.0

    def test_reserve_must_stay_below_capacity(self):
        with pytest.raises(CacheError):
            PolicySpec("lococo+sink", capacity=4, n_sink=4)

    def test_sink_hybrid_pins_sinks_that_straddle_the_block(self):
        # the first merge comes before n_sink columns are cached: the sinks
        # are the cached columns plus the block's first ones
        rng = np.random.default_rng(7)
        d, m, n_sink = 3, 6, 4
        head = new_conv_head(d, m - n_sink, kernel_size=3, rng=rng)
        cache = KvCache.empty(d, capacity=m, rule=KeepRule(n_sink))
        k = token_block(d, 0, 3)
        cache = compress_step(cache, k, paired_values(k), head)
        big = token_block(d, 3, 5)
        cache = compress_step(cache, big, paired_values(big), head)
        first = t2(np.concatenate([k.data, big.data], axis=1)[:, :n_sink])
        assert cache.live_entries == m
        assert np.array_equal(cache.keys.data[:, :n_sink], first.data)
        assert np.array_equal(cache.values.data[:, :n_sink], paired_values(first).data)
