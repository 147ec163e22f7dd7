"""Cache update rules: concat, the keep rule, eviction, hybrids and policy specs."""

import re
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
from convkv.numerics import ShapeError, Tensor2, hstack
from convkv.policies import POLICY_NAMES, PolicySpec

import oracles


def t2(arr):
    return Tensor2(np.asarray(arr, dtype=np.float64))


def token_block(d, start, count):
    """One sequence's columns whose first row encodes the token index; row 1 pairs values."""
    k = np.zeros((d, count))
    k[0, :] = np.arange(start, start + count)
    k[1:, :] = np.random.default_rng(start).standard_normal((d - 1, count))
    return t2(k[None])


def paired_values(keys: Tensor2) -> Tensor2:
    return t2(keys.data * 2.0 + 1.0)


class TestConcat:
    def test_empty_plus_block(self):
        cache = KvCache.empty(3)
        k = token_block(3, 0, 4)
        out = update_concat(cache, k, paired_values(k))
        assert np.array_equal(out.keys.data, k.data)

    def test_two_updates_preserve_order(self):
        cache = KvCache.empty(2)
        a, b = token_block(2, 0, 2), token_block(2, 2, 2)
        cache = update_concat(cache, a, paired_values(a))
        cache = update_concat(cache, b, paired_values(b))
        assert cache.live_entries == 4
        assert np.array_equal(cache.keys.data[0, 0], [0, 1, 2, 3])

    def test_matches_concatenation_oracle(self):
        rng = np.random.default_rng(0)
        blocks = [rng.standard_normal((3, rng.integers(1, 5))) for _ in range(6)]
        cache = KvCache.empty(3)
        for blk in blocks:
            cache = update_concat(cache, t2(blk[None]), t2(blk[None] + 1))
        assert np.array_equal(cache.keys.data, np.concatenate(blocks, axis=1)[None])


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
    @pytest.mark.parametrize("budgets", [(-1, 2, 0), (0, -2, 3), (0, 0, -1)])
    def test_negative_budget_rejected(self, budgets):
        with pytest.raises(CacheError, match="keep budgets must be nonnegative, got "
                                             + "/".join(map(str, budgets))):
            KeepRule(*budgets)

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
        kept = rule.keep(n, 1, scores[None])
        assert kept.tolist() == [oracles.keep_indices(scores, rule.n_sink, rule.recent, rule.heavy)]

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
        assert (KvCache.empty(2, capacity=8, rule=rule).scores is not None) == tracks_scores

    @settings(max_examples=150, deadline=None)
    @given(
        policy=st.sampled_from(POLICY_NAMES),
        capacity=st.integers(1, 10),
        n_sink=st.integers(0, 10),
        recent_budget=st.none() | st.integers(0, 10),
        reserved=st.integers(0, 10),
        n_seq=st.integers(1, 3),
        extra=st.integers(1, 4),
    )
    def test_every_accepted_rule_keeps_a_row_per_sequence(
        self, policy, capacity, n_sink, recent_budget, reserved, n_seq, extra
    ):
        try:
            spec = PolicySpec(policy, capacity, n_sink, recent_budget, reserved)
        except CacheError:
            return
        rule = spec.rule
        if spec.capacity is not None and not spec.needs_conv_head:
            assert rule.budget == capacity  # an eviction rule fills the cache
        n = rule.budget + extra
        scores = np.random.default_rng(n).random((n_seq, n))
        assert rule.keep(n, n_seq, scores).shape == (n_seq, rule.budget)


class TestPolicySpecRejects:
    @pytest.mark.parametrize("kwargs", [
        dict(name="lru", capacity=8),
        dict(name="lococo"),
        dict(name="h2o", capacity=0),
        dict(name="h2o", capacity=8, recent_budget=-1),
        dict(name="h2o", capacity=8, recent_budget=9),
        dict(name="sink_window", capacity=4, n_sink=5),
        dict(name="sink_window", capacity=4, n_sink=4),
        dict(name="lococo+h2o", capacity=4, reserved=4),
        dict(name="lococo+h2o", capacity=4, reserved=5),
        dict(name="lococo+sink", capacity=4, n_sink=-1),
        dict(name="lococo+sink", capacity=4, n_sink=4),
    ], ids=[
        "unknown-name", "missing-capacity", "zero-capacity", "h2o-negative-budget",
        "h2o-recent-over-capacity", "sink-window-sinks-over-capacity", "sink-window-empty-window",
        "reserved-at-capacity", "reserved-over-capacity", "negative-sinks",
        "sinks-at-capacity",
    ])
    def test_rejected_with_cache_error(self, kwargs):
        with pytest.raises(CacheError):
            PolicySpec(**kwargs)

    @pytest.mark.parametrize("name, knob, value", [
        ("sink_window", "n_sink", 20),
        ("sink_window", "n_sink", 16),
        ("h2o", "recent_budget", 20),
        ("h2o", "recent_budget", 16),
        ("h2o", "recent_budget", -1),
        ("lococo+h2o", "reserved", 20),
        ("lococo+sink", "n_sink", -1),
    ])
    def test_knob_outside_the_capacity_is_named(self, name, knob, value):
        # the knob, not the budgets derived from it; h2o at recent_budget 16 would
        # keep no heavy hitter, so it would evict as sink_window does
        message = f"policy '{name}' needs 0 <= {knob} < capacity 16, got {value}"
        with pytest.raises(CacheError, match=f"^{re.escape(message)}$"):
            PolicySpec(name, capacity=16, **{knob: value})

    @pytest.mark.parametrize("knob", ["capacity", "n_sink", "recent_budget", "reserved"])
    def test_a_float_count_is_rejected_and_a_numpy_integer_taken(self, knob):
        # a float capacity used to pass and fail later, in the cache or perplexity,
        # with "'float' object cannot be interpreted as an integer"
        name = {"n_sink": "sink_window", "recent_budget": "h2o", "reserved": "lococo+h2o"}
        kwargs = dict(name=name.get(knob, "h2o"), capacity=16)
        for value in (2.5, True):  # True used to pass as the count 1
            with pytest.raises(CacheError, match=f"^{knob} must be an integer, got {value}$"):
                PolicySpec(**{**kwargs, knob: value})
        spec = PolicySpec(**{**kwargs, knob: np.int64(2)})
        assert type(getattr(spec, knob)) is int and spec == PolicySpec(**{**kwargs, knob: 2})


class TestUpdateRejects:
    """Typed errors of a cache update handed what its rule cannot use."""

    def test_heavy_hitters_need_mass_covering_every_key(self):
        cache = h2o_cache(2, 4)
        k = token_block(2, 0, 2)
        with pytest.raises(CacheError, match="attention mass"):
            update_h2o(cache, k, paired_values(k), None)
        with pytest.raises(ShapeError, match="covers 3 keys, expected 2"):
            update_h2o(cache, k, paired_values(k), np.full((1, 3), 0.5))
        # a cache made without ``KvCache.empty`` must bring one score per column
        for scores in (None, np.zeros((1, 1))):
            unscored = KvCache(k, paired_values(k), 4, cache.rule, scores)
            with pytest.raises(ShapeError, match="scores are .*, expected \\(1, 2\\)"):
                update_h2o(unscored, k, paired_values(k), np.full((1, 4), 0.5))

    def test_eviction_needs_a_bounded_cache_whose_rule_keeps_its_capacity(self):
        k = token_block(2, 0, 2)
        with pytest.raises(CacheError, match="bounded cache"):
            update_sink_window(KvCache.empty(2), k, paired_values(k))
        short = KvCache.empty(2, capacity=4, rule=KeepRule(1, 2))
        with pytest.raises(CacheError, match="keeps 3 columns but capacity is 4"):
            update_sink_window(short, k, paired_values(k))

    @pytest.mark.parametrize("cols", [0, 4], ids=["filling", "full"])
    @pytest.mark.parametrize("cached, block", [(1, 2), (2, 1)])
    def test_block_of_another_sequence_count_rejected(self, cols, cached, block):
        rng = np.random.default_rng(17)
        d, m, b = 3, 4, 2
        head = new_conv_head(d, m - 1, kernel_size=3, rng=rng)
        k_new, v_new = (t2(rng.standard_normal((block, d, b))) for _ in range(2))
        keys, values = (t2(rng.standard_normal((cached, d, cols))) for _ in range(2))
        h2o = KvCache(keys, values, m, KeepRule(0, 2, 2), np.zeros((cached, cols)))
        mass = np.ones((cached, cols + b))
        calls = (
            lambda: update_concat(KvCache(keys, values), k_new, v_new),
            lambda: update_h2o(h2o, k_new, v_new, mass),
            lambda: update_sink_window(KvCache(keys, values, m, KeepRule(1, 3)), k_new, v_new),
            lambda: compress_step(KvCache(keys, values, m, KeepRule(1)), k_new, v_new, [head]),
        )
        for call in calls:
            with pytest.raises(ShapeError, match="sequence count or feature dimension differs"):
                call()

    def test_keys_and_values_must_pair_up_and_fit_the_cache(self):
        with pytest.raises(ShapeError, match="key/value column mismatch: 1 vs 0"):
            KvCache(Tensor2.zeros(1, 2, 1), Tensor2.zeros(1, 2, 0))
        with pytest.raises(CacheError, match="capacity must be positive, got 0"):
            KvCache.empty(2, capacity=0)
        k = token_block(2, 0, 2)
        with pytest.raises(ShapeError, match="block key/value mismatch: 2 vs 1"):
            update_concat(KvCache.empty(2), k, t2(k.data[..., :1]))
        with pytest.raises(ShapeError, match="feature dimension differs"):
            update_concat(KvCache.empty(3), k, paired_values(k))

    def test_cache_is_a_batch_of_sequences_of_keys_and_values(self):
        # one sequence is a batch of one: a bare (d, cols) matrix is no cache
        for keys, values in (((2, 4, 3), (3, 4, 3)), ((4, 3), (4, 3)), ((1, 4, 3), (4, 3))):
            with pytest.raises(ShapeError, match="must be \\(n, d, cols\\) of one n"):
                KvCache(Tensor2.zeros(*keys), Tensor2.zeros(*values), 4, KeepRule(0, 2, 2))

    def test_merging_policy_needs_a_head_with_its_slot_count(self):
        spec = PolicySpec("lococo+sink", capacity=8, n_sink=2)
        with pytest.raises(CacheError, match="needs conv heads but the model has none"):
            spec.build([], 1, 4)
        head = new_conv_head(2, 5, 3, np.random.default_rng(0))
        with pytest.raises(CacheError, match="needs a head with 6 slots, got 5"):
            spec.build([head], 1, 4)

    def test_merging_policy_without_heads_says_so(self):
        message = ("policy 'lococo' needs conv heads but the model has none; "
                   "calibrate first or pick an eviction policy")
        with pytest.raises(CacheError, match=f"^{re.escape(message)}$"):
            PolicySpec("lococo", capacity=8).build(None, 2, 4)

    @pytest.mark.parametrize("name", ["concat", "h2o", "sink_window"])
    def test_eviction_policy_binds_no_heads_whatever_it_is_given(self, name):
        head = new_conv_head(2, 8, 3, np.random.default_rng(0))
        layer = PolicySpec(name, capacity=8, n_sink=2).build([head, head, head], 2, 4)
        assert layer.conv_heads == ()


def h2o_cache(d, capacity, recent=None, heavy=None):
    recent = capacity // 2 if recent is None else recent
    heavy = capacity - recent if heavy is None else heavy
    return KvCache.empty(d, capacity=capacity, rule=KeepRule(0, recent, heavy))


class TestH2O:
    def test_under_budget_identical_to_concat(self):
        cache = h2o_cache(2, 8)
        k = token_block(2, 0, 3)
        mass = np.full((1, 3), 1.0)
        out = update_h2o(cache, k, paired_values(k), mass)
        assert np.array_equal(out.keys.data, k.data)
        assert np.array_equal(out.scores, mass)

    def test_unique_zero_score_column_evicted(self):
        cache = h2o_cache(2, 4, recent=2, heavy=2)
        k = token_block(2, 0, 4)
        cache = update_h2o(cache, k, paired_values(k), (np.eye(4) * 0.5 + 0.1).sum(axis=-1)[None])
        nxt = token_block(2, 4, 1)
        # column 1 of the cache gets no mass this round and had the least before
        mass = np.array([0.3, 0.0, 0.25, 0.25, 0.2])
        cache = replace(cache, scores=np.array([[0.6, 0.0, 0.6, 0.6]]))
        cache2 = update_h2o(cache, nxt, paired_values(nxt), mass[None])
        assert cache2.live_entries == 4
        assert 1.0 not in cache2.keys.data[0, 0]

    def test_random_case_matches_exhaustive_sort_oracle(self):
        rng = np.random.default_rng(1)
        for trial in range(25):
            n_old, b, m = 8, 4, 8
            recent = int(rng.integers(1, m))
            heavy = m - recent
            scores0 = rng.random(n_old) * 3
            cache = KvCache(
                token_block(2, 0, n_old), paired_values(token_block(2, 0, n_old)),
                m, KeepRule(0, recent, heavy), scores0[None],
            )
            k = token_block(2, n_old, b)
            probs = rng.random((n_old + b, b))
            out = update_h2o(cache, k, paired_values(k), probs.sum(axis=1)[None])
            scores = np.concatenate([scores0, np.zeros(b)]) + probs.sum(axis=1)
            kept = oracles.keep_indices(scores, 0, recent, heavy)
            assert list(out.keys.data[0, 0]) == [float(i) for i in kept]
            assert np.allclose(out.scores, scores[kept][None])

    def test_tie_breaks_toward_newer(self):
        scores0 = np.array([1.0, 1.0, 1.0, 1.0])
        cache = KvCache(
            token_block(2, 0, 4), paired_values(token_block(2, 0, 4)),
            4, KeepRule(0, 2, 2), scores0[None],
        )
        k = token_block(2, 4, 1)
        out = update_h2o(cache, k, paired_values(k), np.zeros((1, 5)))
        # newest two (3, 4) kept by recency; heavy picks 1 and 2 over 0 on ties
        assert list(out.keys.data[0, 0]) == [1.0, 2.0, 3.0, 4.0]


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
        assert list(cache.keys.data[0, 0]) == [0.0, 1.0, 4.0, 5.0]

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
            assert list(cache.keys.data[0, 0]) == [float(i) for i in kept]


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
            spec_kwargs.update(capacity=m, n_sink=1)
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
        # the blocks may be wider than a stream takes, which ``update`` allows
        layer = spec.build([head], 1, 1)
        cache = layer.empty_cache(d)
        total = 0
        for _ in range(n_blocks):
            k = t2(rng.standard_normal((1, d, b)))
            v = t2(rng.standard_normal((1, d, b)))
            mass = rng.random((1, cache.live_entries + b))
            cache = layer.update(cache, k, v, attn_mass=mass)
            total += b
            assert cache.live_entries == min(total, m)

    def test_eviction_applies_identically_to_keys_and_values(self):
        rng = np.random.default_rng(3)
        for policy in ("h2o", "sink_window"):
            spec = PolicySpec(policy, capacity=4, n_sink=2)
            layer = spec.build(None, 1, 3)
            cache = layer.empty_cache(3)
            for t in range(4):
                k = token_block(3, 3 * t, 3)
                mass = rng.random((1, cache.live_entries + 3))
                cache = layer.update(cache, k, paired_values(k), attn_mass=mass)
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
        old_k = t2(rng.standard_normal((1, d, n_old)))
        old_v = t2(rng.standard_normal((1, d, n_old)))
        cache = KvCache(old_k, old_v, m, KeepRule(0, recent, heavy), scores0[None])
        k_new = t2(rng.standard_normal((1, d, b)))
        v_new = t2(rng.standard_normal((1, d, b)))
        probs = rng.random((n_old + b, b))

        evicted = update_h2o(cache, k_new, v_new, probs.sum(axis=1)[None])

        scores = np.concatenate([scores0, np.zeros(b)]) + probs.sum(axis=1)
        kept = oracles.keep_indices(scores, 0, recent, heavy)
        # one-hot rows over the stacked [block | cache] operand
        w = np.zeros((1, m, b + n_old))
        for slot, col in enumerate(kept):
            w[0, slot, col + b if col < n_old else col - n_old] = 1.0
        picked = oracles.vstack([hstack([k_new, old_k]), hstack([v_new, old_v])])
        weights = FusionWeights(t2(w), picked, np.arange(b + n_old)[None] < b)
        fused = fuse(weights).data  # keys over values

        assert np.array_equal(fused[:, :d], evicted.keys.data)
        assert np.array_equal(fused[:, d:], evicted.values.data)


class TestHybrids:
    def test_zero_reserve_degenerates_to_pure_merging(self):
        # lococo+h2o with nothing pinned merges exactly like plain lococo and
        # tracks no scores
        rng = np.random.default_rng(4)
        d, m, b = 4, 6, 3
        head = new_conv_head(d, m, kernel_size=3, rng=rng)
        k1, v1 = t2(rng.standard_normal((1, d, 4))), t2(rng.standard_normal((1, d, 4)))
        k2, v2 = t2(rng.standard_normal((1, d, b))), t2(rng.standard_normal((1, d, b)))

        plain = compress_step(KvCache.empty(d, capacity=m), k1, v1, [head])
        plain = compress_step(plain, k2, v2, [head])

        rule = PolicySpec("lococo+h2o", capacity=m, reserved=0).rule
        heavy = KvCache.empty(d, capacity=m, rule=rule)
        heavy = compress_step(heavy, k1, v1, [head], rng.random((1, 4)))
        heavy = compress_step(heavy, k2, v2, [head], rng.random((1, 4 + b)))

        assert np.array_equal(heavy.keys.data, plain.keys.data)
        assert np.array_equal(heavy.values.data, plain.values.data)
        assert heavy.scores is None

    def test_sink_hybrid_pins_first_tokens_verbatim(self):
        rng = np.random.default_rng(5)
        d, m, n_sink = 3, 8, 4
        head = new_conv_head(d, m - n_sink, kernel_size=3, rng=rng)
        cache = KvCache.empty(d, capacity=m, rule=KeepRule(n_sink))
        first = token_block(d, 0, 4)
        first_v = paired_values(first)
        cache = compress_step(cache, first, first_v, [head])
        for t in range(1, 4):
            k = token_block(d, 4 * t, 4)
            cache = compress_step(cache, k, paired_values(k), [head])
        assert cache.live_entries == m
        assert np.array_equal(cache.keys.data[..., :n_sink], first.data)
        assert np.array_equal(cache.values.data[..., :n_sink], first_v.data)

    def test_heavy_hybrid_matches_composed_oracles(self):
        rng = np.random.default_rng(6)
        d, m, reserved, n_old, b = 3, 6, 2, 6, 3
        head = new_conv_head(d, m - reserved, kernel_size=3, rng=rng)
        scores0 = rng.random(n_old) * 2
        old_k = t2(rng.standard_normal((1, d, n_old)))
        old_v = t2(rng.standard_normal((1, d, n_old)))
        cache = KvCache(old_k, old_v, m, KeepRule(heavy=reserved), scores0[None])
        k_new, v_new = t2(rng.standard_normal((1, d, b))), t2(rng.standard_normal((1, d, b)))
        probs = rng.random((n_old + b, b))

        out = compress_step(cache, k_new, v_new, [head], probs.sum(axis=1)[None])

        scores = np.concatenate([scores0, np.zeros(b)]) + probs.sum(axis=1)
        idx = np.arange(len(scores))
        pinned = np.sort(idx[np.lexsort((-idx, -scores))][:reserved])
        all_k = np.concatenate([old_k.data, k_new.data], axis=-1)
        all_v = np.concatenate([old_v.data, v_new.data], axis=-1)
        assert np.array_equal(out.keys.data[..., :reserved], all_k[..., pinned])
        assert np.array_equal(out.values.data[..., :reserved], all_v[..., pinned])

        # the unpinned columns, keys over values, the block's first
        comp = np.setdiff1d(idx, pinned)
        cols = np.concatenate([comp[comp >= n_old], comp[comp < n_old]])
        picked = t2(np.concatenate([all_k, all_v], axis=-2)[..., cols])
        weights = synthesize_weights(picked, (cols >= n_old)[None], [head])
        fused = fuse(weights).data
        assert np.max(np.abs(out.keys.data[..., reserved:] - fused[:, :d])) == 0.0
        assert np.max(np.abs(out.values.data[..., reserved:] - fused[:, d:])) == 0.0
        # a merged slot's score is the weighted sum of its sources' scores
        merged = weights.weights.data[0] @ scores[cols]
        assert np.array_equal(out.scores[0, :reserved], scores[pinned])
        assert np.max(np.abs(out.scores[0, reserved:] - merged)) < 1e-12

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
        cache = compress_step(cache, k, paired_values(k), [head])
        big = token_block(d, 3, 5)
        cache = compress_step(cache, big, paired_values(big), [head])
        first = t2(np.concatenate([k.data, big.data], axis=-1)[..., :n_sink])
        assert cache.live_entries == m
        assert np.array_equal(cache.keys.data[..., :n_sink], first.data)
        assert np.array_equal(cache.values.data[..., :n_sink], paired_values(first).data)
