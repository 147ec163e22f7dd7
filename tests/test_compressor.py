"""Fusion-weight synthesis, blending, and the fill-then-merge step."""

import numpy as np
import pytest

from convkv.cache import CacheError, KeepRule, KvCache, update_concat
from convkv.compressor import (
    INIT_SCALE,
    RELU_POSITIONS,
    ConvHead,
    FusionWeights,
    compress_step,
    fuse,
    new_conv_head,
    synthesize_weights,
)
from convkv.numerics import (
    ConvKernels,
    GradTape,
    ShapeError,
    Tensor2,
    backward,
    conv1d,
    cross_entropy_cols,
    custom_op,
    hstack,
    matmul,
    softmax_cols,
    transpose,
)

import oracles


def t2(arr, trainable=False):
    return Tensor2(np.asarray(arr, dtype=np.float64), requires_grad=trainable)


def head_from_3d(kernels3d, relu_position="post"):
    k3 = np.asarray(kernels3d, dtype=np.float64)
    c_out, c_in, k = k3.shape
    return ConvHead(
        ConvKernels(Tensor2(k3.transpose(0, 2, 1).reshape(c_out, k * c_in)), c_in=c_in, k=k),
        relu_position=relu_position,
    )


def center_tap_head(d, slots, value=1.0):
    """Kernels that only read the window center, same positive tap everywhere."""
    k3 = np.zeros((slots, 2 * d, 3))
    k3[:, :, 1] = value
    return head_from_3d(k3)


def merge_operand(k_new, v_new, k_cache, v_cache):
    """A merge of every column: the (n, 2d, B + cache) keys over values, block
    first, and the (n, B + cache) mask of the block's columns."""
    picked = oracles.vstack([hstack([k_new, k_cache]), hstack([v_new, v_cache])])
    n, p = picked.shape[0], picked.cols
    return picked, np.broadcast_to(np.arange(p) < k_new.cols, (n, p))


def synthesize_all(k_new, v_new, k_cache, v_cache, head):
    """``synthesize_weights`` of one head over every column, block and cache."""
    return synthesize_weights(*merge_operand(k_new, v_new, k_cache, v_cache), [head])


def weights_matrix(weights: FusionWeights) -> np.ndarray:
    """(n * slots, p) weights, here over every column: [block | cache]."""
    return weights.weights.data.reshape(-1, weights.weights.cols)


def given_weights(w_new, w_cache, k_new, v_new, k_cache, v_cache):
    """(slots, B) and (slots, cache) weights of one sequence over every column."""
    w = np.concatenate([w_new, w_cache], axis=1)[None]
    return FusionWeights(t2(w), *merge_operand(k_new, v_new, k_cache, v_cache))


def fuse_split(weights: FusionWeights) -> tuple[Tensor2, Tensor2]:
    """``fuse``'s (n, 2d, slots) keys over values, as keys and values that carry gradients."""
    both = fuse(weights)
    d = both.rows // 2
    keys = custom_op([both], both.data[..., :d, :], lambda g: (np.concatenate([g, 0 * g], -2),))
    values = custom_op([both], both.data[..., d:, :], lambda g: (np.concatenate([0 * g, g], -2),))
    return keys, values


class TestSynthesizeWeights:
    def test_constant_scores_normalize_to_uniform(self):
        d, b, cache_len, slots = 2, 3, 5, 4
        head = center_tap_head(d, slots)
        col = np.abs(np.random.default_rng(0).standard_normal((1, d, 1))) + 0.5
        k_new = t2(np.repeat(col, b, axis=-1))
        k_cache = t2(np.repeat(col, cache_len, axis=-1))
        w = synthesize_all(k_new, k_new, k_cache, k_cache, head)
        full = weights_matrix(w)
        assert np.max(np.abs(full - 1.0 / (b + cache_len))) < 1e-12

    def test_single_source_rows_are_one(self):
        d, slots = 2, 3
        head = center_tap_head(d, slots)
        k_new = t2(np.abs(np.random.default_rng(1).standard_normal((1, d, 1))) + 0.1)
        empty = Tensor2.zeros(1, d, 0)
        w = synthesize_all(k_new, k_new, empty, empty, head)
        assert w.weights.shape == (1, slots, 1) and w.from_block.tolist() == [[True]]
        assert w.new_weights.shape == w.cache_weights.shape == (slots, 1)
        assert np.max(np.abs(w.new_weights.data - 1.0)) < 1e-12
        assert not w.cache_weights.data.any()

    def test_hand_set_instance_matches_precomputed_oracle(self):
        # d=1, B=2, M=2, k=3: scalar sliding window + row normalization
        d, b = 1, 2
        k3 = np.array(
            [
                [[0.5, 1.0, -0.25], [0.0, 0.5, 0.25]],
                [[-1.0, 2.0, 0.0], [0.25, 0.0, 1.0]],
            ]
        )
        head = head_from_3d(k3)
        k_new = t2([[[1.0, -2.0]]])
        v_new = t2([[[0.5, 1.5]]])
        k_cache = t2([[[3.0, -1.0]]])
        v_cache = t2([[[-0.5, 2.0]]])
        stacked = np.array([[1.0, -2.0, 3.0, -1.0], [0.5, 1.5, -0.5, 2.0]])
        raw = np.maximum(oracles.conv1d_loops(stacked, k3), 0.0)
        sums = raw.sum(axis=1, keepdims=True)
        adj = np.where(sums < 1e-8, raw + 1e-8, raw)
        expect = adj / adj.sum(axis=1, keepdims=True)
        got = weights_matrix(synthesize_all(k_new, v_new, k_cache, v_cache, head))
        assert np.max(np.abs(got - expect)) < 1e-12

    def test_weights_depend_on_values_too(self):
        rng = np.random.default_rng(2)
        d, b, m = 3, 2, 4
        head = new_conv_head(d, m, kernel_size=3, rng=rng)
        k_new, k_cache = t2(rng.standard_normal((1, d, b))), t2(rng.standard_normal((1, d, m)))
        v1, vc1 = t2(rng.standard_normal((1, d, b))), t2(rng.standard_normal((1, d, m)))
        v2 = t2(v1.data + 1.0)
        w1 = weights_matrix(synthesize_all(k_new, v1, k_cache, vc1, head))
        w2 = weights_matrix(synthesize_all(k_new, v2, k_cache, vc1, head))
        assert np.abs(w1 - w2).max() > 0

    def test_feature_dim_mismatch_rejected(self):
        head = center_tap_head(3, 2)
        bad = Tensor2.zeros(1, 2, 2)
        with pytest.raises(ShapeError):
            synthesize_all(bad, bad, Tensor2.zeros(1, 2, 0), Tensor2.zeros(1, 2, 0), head)

    @pytest.mark.parametrize("picked, from_block, match", [
        ((1, 5, 3), (1, 3), "conv1d: input has 5 channels, kernels expect 4"),
        ((2, 4, 3), (1, 3), "from_block is \\(1, 3\\), expected \\(n, p\\) of \\(2, 4, 3\\)"),
        ((1, 4, 3), (1, 2), "from_block is \\(1, 2\\)"),
        ((1, 4, 0), (1, 0), "conv1d: no columns to convolve"),
    ], ids=["rows", "from-block-sequences", "from-block-columns", "no-columns"])
    def test_operands_that_do_not_fit_rejected(self, picked, from_block, match):
        with pytest.raises(ShapeError, match=match):
            synthesize_weights(Tensor2.zeros(*picked), np.zeros(from_block, dtype=bool),
                               [center_tap_head(2, 2)])

    @pytest.mark.parametrize("kernel_size", [4, 0, -3])
    def test_new_head_needs_an_odd_positive_kernel_size(self, kernel_size):
        with pytest.raises(ShapeError, match=f"kernel size must be odd and positive, got {kernel_size}"):
            new_conv_head(2, 3, kernel_size, rng=np.random.default_rng(0))

    @pytest.mark.parametrize("slots, kernel_size, match", [
        (4, 3.0, "kernel_size must be an integer, got 3.0"),
        (2.5, 3, "slots must be an integer, got 2.5"),
        (4, True, "kernel_size must be an integer, got True"),
        (0, 3, "slots must be positive, got 0"),
        (-1, 3, "slots must be positive, got -1"),
    ])
    def test_new_head_needs_integer_counts(self, slots, kernel_size, match):
        with pytest.raises(ShapeError, match=f"^{match}$"):
            new_conv_head(8, slots, kernel_size, rng=np.random.default_rng(0))
        head = new_conv_head(8, np.int64(4), np.int64(3), rng=np.random.default_rng(0))
        assert (head.slots, head.kernel_size) == (4, 3)

    def test_seeded_head_is_the_channel_major_draw_permuted(self):
        # a seed draws its values channel-major, as ever, so it gives the same conv in either layout
        d, slots, k = 3, 4, 5
        c_in = 2 * d
        head = new_conv_head(d, slots, k, rng=np.random.default_rng(7))
        drawn = np.random.default_rng(7).normal(0.0, INIT_SCALE, size=(slots, c_in * k))
        drawn[:, (k - 1) // 2::k] += INIT_SCALE / c_in  # column c*k + j: tap j of channel c
        k3 = drawn.reshape(slots, c_in, k)
        assert np.array_equal(head.kernels.weights.data, k3.transpose(0, 2, 1).reshape(slots, k * c_in))
        x = np.random.default_rng(8).standard_normal((c_in, 9))
        assert np.max(np.abs(conv1d(t2(x), [head.kernels]).data - oracles.conv1d_loops(x, k3))) < 1e-12

    def test_head_needs_keys_over_values(self):
        with pytest.raises(ShapeError, match="2\\*d \\(keys over values\\)"):
            ConvHead(ConvKernels(Tensor2.zeros(2, 3), c_in=3, k=1))

    @pytest.mark.parametrize("relu_position", ["post", "pre"])
    def test_rows_are_stochastic_in_both_relu_modes(self, relu_position):
        rng = np.random.default_rng(3)
        d, b, cache_len, slots = 4, 3, 6, 5
        head = new_conv_head(d, slots, kernel_size=5, rng=rng, relu_position=relu_position)
        w = weights_matrix(
            synthesize_all(
                t2(rng.standard_normal((1, d, b))),
                t2(rng.standard_normal((1, d, b))),
                t2(rng.standard_normal((1, d, cache_len))),
                t2(rng.standard_normal((1, d, cache_len))),
                head,
            )
        )
        assert np.max(np.abs(w.sum(axis=1) - 1.0)) < 1e-12
        assert w.min() >= 0.0 and w.max() <= 1.0

    def test_dead_rows_fall_back_to_uniform(self):
        d, b, cache_len, slots = 2, 2, 2, 3
        head = center_tap_head(d, slots, value=-1.0)  # negative scores everywhere
        pos = t2(np.ones((1, d, b)))
        posc = t2(np.ones((1, d, cache_len)))
        w = weights_matrix(synthesize_all(pos, pos, posc, posc, head))
        assert np.max(np.abs(w - 0.25)) < 1e-12


class TestFuse:
    def test_one_hot_selection(self):
        rng = np.random.default_rng(4)
        d, b, cache_len, slots = 3, 2, 3, 4
        k_new, v_new = t2(rng.standard_normal((1, d, b))), t2(rng.standard_normal((1, d, b)))
        k_cache = t2(rng.standard_normal((1, d, cache_len)))
        v_cache = t2(rng.standard_normal((1, d, cache_len)))
        w_new = np.zeros((slots, b))
        w_cache = np.zeros((slots, cache_len))
        w_cache[:, 1] = 1.0  # every slot selects cache column 1
        k_f, v_f = fuse_split(given_weights(w_new, w_cache, k_new, v_new, k_cache, v_cache))
        for i in range(slots):
            assert np.array_equal(k_f.data[..., i], k_cache.data[..., 1])
            assert np.array_equal(v_f.data[..., i], v_cache.data[..., 1])

    def test_uniform_weights_average_all_columns(self):
        rng = np.random.default_rng(5)
        d, b, cache_len, slots = 3, 2, 4, 2
        k_new, v_new = t2(rng.standard_normal((1, d, b))), t2(rng.standard_normal((1, d, b)))
        k_cache = t2(rng.standard_normal((1, d, cache_len)))
        v_cache = t2(rng.standard_normal((1, d, cache_len)))
        u = 1.0 / (b + cache_len)
        weights = given_weights(np.full((slots, b), u), np.full((slots, cache_len), u),
                                k_new, v_new, k_cache, v_cache)
        k_f, _ = fuse_split(weights)
        mean = np.concatenate([k_new.data, k_cache.data], axis=-1).mean(axis=-1)
        for i in range(slots):
            assert np.max(np.abs(k_f.data[..., i] - mean)) < 1e-12

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(6)
        d, b, m, cache_len = 3, 4, 2, 5
        k_new, v_new = rng.standard_normal((d, b)), rng.standard_normal((d, b))
        k_cache, v_cache = rng.standard_normal((d, cache_len)), rng.standard_normal((d, cache_len))
        w_new, w_cache = rng.random((m, b)), rng.random((m, cache_len))
        k_f, v_f = fuse_split(given_weights(
            w_new, w_cache, *(t2(x[None]) for x in (k_new, v_new, k_cache, v_cache))))
        for i in range(m):
            ks = sum(w_new[i, j] * k_new[:, j] for j in range(b)) + sum(
                w_cache[i, j] * k_cache[:, j] for j in range(cache_len)
            )
            vs = sum(w_new[i, j] * v_new[:, j] for j in range(b)) + sum(
                w_cache[i, j] * v_cache[:, j] for j in range(cache_len)
            )
            assert np.max(np.abs(k_f.data[0, :, i] - ks)) < 1e-12
            assert np.max(np.abs(v_f.data[0, :, i] - vs)) < 1e-12

    def test_same_weights_hit_keys_and_values(self):
        rng = np.random.default_rng(7)
        d, b, m = 3, 2, 4
        k_new, v_new = t2(rng.standard_normal((1, d, b))), t2(rng.standard_normal((1, d, b)))
        k_cache, v_cache = t2(rng.standard_normal((1, d, m))), t2(rng.standard_normal((1, d, m)))
        stacked = np.concatenate([np.concatenate([k_new.data, k_cache.data], axis=-1),
                                  np.concatenate([v_new.data, v_cache.data], axis=-1)], axis=-2)
        for relu_position in RELU_POSITIONS:  # "pre" rectifies the conv input, not what is blended
            head = new_conv_head(d, m, kernel_size=3, rng=rng, relu_position=relu_position)
            w = synthesize_all(k_new, v_new, k_cache, v_cache, head)
            manual = stacked @ w.weights.data.swapaxes(-1, -2)
            assert np.array_equal(fuse(w).data, manual)  # keys over values, (1, 2d, slots)

    def test_fused_slots_stay_in_convex_hull(self):
        rng = np.random.default_rng(8)
        d, b, m = 4, 3, 5
        head = new_conv_head(d, m, kernel_size=5, rng=rng)
        k_new, v_new = t2(rng.standard_normal((1, d, b))), t2(rng.standard_normal((1, d, b)))
        k_cache, v_cache = t2(rng.standard_normal((1, d, m))), t2(rng.standard_normal((1, d, m)))
        w = synthesize_all(k_new, v_new, k_cache, v_cache, head)
        k_f, v_f = fuse_split(w)
        all_k = np.concatenate([k_new.data, k_cache.data], axis=-1)
        all_v = np.concatenate([v_new.data, v_cache.data], axis=-1)
        eps = 1e-12
        assert (k_f.data <= all_k.max(axis=-1, keepdims=True) + eps).all()
        assert (k_f.data >= all_k.min(axis=-1, keepdims=True) - eps).all()
        assert np.abs(k_f.data).max() <= np.abs(all_k).max() + eps
        assert (v_f.data <= all_v.max(axis=-1, keepdims=True) + eps).all()


    def test_weights_must_cover_the_block_and_the_cache(self):
        picked, block = Tensor2.zeros(1, 4, 5), np.arange(5)[None] < 2
        with pytest.raises(ShapeError, match="inner dims differ"):
            fuse(FusionWeights(Tensor2.zeros(1, 3, 4), picked, block))
        with pytest.raises(ShapeError, match="leading dims differ"):
            fuse(FusionWeights(Tensor2.zeros(2, 3, 5), picked, block))


class TestCompressStep:
    def test_fill_branch_bit_equal_to_concat(self):
        rng = np.random.default_rng(9)
        d, m = 3, 8
        head = new_conv_head(d, m, kernel_size=3, rng=rng)
        cache = KvCache.empty(d, capacity=m)
        k1, v1 = t2(rng.standard_normal((1, d, 4))), t2(rng.standard_normal((1, d, 4)))
        cache = compress_step(cache, k1, v1, [head])
        k2, v2 = t2(rng.standard_normal((1, d, 2))), t2(rng.standard_normal((1, d, 2)))
        stepped = compress_step(cache, k2, v2, [head])
        concat = update_concat(cache, k2, v2)
        assert stepped.live_entries == 6
        assert np.array_equal(stepped.keys.data, concat.keys.data)
        assert np.array_equal(stepped.values.data, concat.values.data)

    def test_compress_branch_holds_the_bound(self):
        rng = np.random.default_rng(10)
        d, m = 3, 4
        head = new_conv_head(d, m, kernel_size=3, rng=rng)
        cache = KvCache.empty(d, capacity=m)
        k1, v1 = t2(rng.standard_normal((1, d, 4))), t2(rng.standard_normal((1, d, 4)))
        cache = compress_step(cache, k1, v1, [head])
        k2, v2 = t2(rng.standard_normal((1, d, 2))), t2(rng.standard_normal((1, d, 2)))
        cache = compress_step(cache, k2, v2, [head])
        assert cache.live_entries == m

    def test_three_blocks_match_sequential_oracle_composition(self):
        rng = np.random.default_rng(11)
        d, m, b = 2, 4, 2
        head = new_conv_head(d, m, kernel_size=3, rng=rng)
        blocks = [
            (t2(rng.standard_normal((1, d, b))), t2(rng.standard_normal((1, d, b))))
            for _ in range(3)
        ]
        cache = KvCache.empty(d, capacity=m)
        for k, v in blocks:
            cache = compress_step(cache, k, v, [head])

        # independent composition: concat, concat, then synthesize+fuse
        ref_k = np.concatenate([blocks[0][0].data, blocks[1][0].data], axis=-1)
        ref_v = np.concatenate([blocks[0][1].data, blocks[1][1].data], axis=-1)
        w = synthesize_all(blocks[2][0], blocks[2][1], t2(ref_k), t2(ref_v), head)
        k_ref, v_ref = fuse_split(w)
        assert np.array_equal(cache.keys.data, k_ref.data)
        assert np.array_equal(cache.values.data, v_ref.data)

    def test_output_always_min_of_seen_and_capacity(self):
        rng = np.random.default_rng(12)
        d, m, b = 3, 5, 2
        head = new_conv_head(d, m, kernel_size=3, rng=rng)
        cache = KvCache.empty(d, capacity=m)
        for i in range(5):
            k, v = t2(rng.standard_normal((1, d, b))), t2(rng.standard_normal((1, d, b)))
            cache = compress_step(cache, k, v, [head])
            assert cache.live_entries == min((i + 1) * b, m)

    def test_block_kept_whole_merges_the_unkept_cache_columns(self):
        # lococo+h2o at B = 1: the block's one key drew all of the attention, so
        # it ranks among the heavy hitters and no block column is left to merge
        rng = np.random.default_rng(15)
        d, m, heavy = 3, 4, 2
        head = new_conv_head(d, m - heavy, kernel_size=3, rng=rng)
        k_cache, v_cache = t2(rng.standard_normal((1, d, m))), t2(rng.standard_normal((1, d, m)))
        cache = KvCache(k_cache, v_cache, capacity=m, rule=KeepRule(heavy=heavy),
                        scores=np.zeros((1, m)))
        k_new, v_new = t2(rng.standard_normal((1, d, 1))), t2(rng.standard_normal((1, d, 1)))
        mass = np.zeros((1, m + 1))
        mass[0, m] = 1.0
        out = compress_step(cache, k_new, v_new, [head], mass)
        assert out.live_entries == m
        # kept verbatim: the newest cache column (ties favour newer) and the block
        kept = np.concatenate([k_cache.data[..., -1:], k_new.data], axis=-1)
        assert np.array_equal(out.keys.data[..., :heavy], kept)
        assert np.array_equal(out.scores, [[0.0, 1.0, 0.0, 0.0]])
        eps = 1e-12
        for merged, sources in ((out.keys, k_cache), (out.values, v_cache)):
            slots, src = merged.data[..., heavy:], sources.data[..., :m - 1]
            assert (slots <= src.max(axis=-1, keepdims=True) + eps).all()
            assert (slots >= src.min(axis=-1, keepdims=True) - eps).all()

    def test_slot_capacity_mismatch_rejected(self):
        rng = np.random.default_rng(13)
        head = new_conv_head(3, 4, kernel_size=3, rng=rng)
        with pytest.raises(CacheError):
            compress_step(
                KvCache.empty(3, capacity=8),
                t2(rng.standard_normal((3, 2))),
                t2(rng.standard_normal((3, 2))),
                [head],
            )


class TestTapePerMerge:
    # conv, relu and row_normalize make the weights; transpose and one matmul fuse
    # them; a hybrid hstacks the slots after what it keeps; the key and value rows
    # of the result are split once. Cache and block columns that carry gradients
    # add the one gather and the select of the merged columns, and for a hybrid
    # the select of the kept ones
    @pytest.mark.parametrize("trainable", [False, True], ids=["frozen-columns", "trainable-columns"])
    @pytest.mark.parametrize("rule, entries", [
        (KeepRule(), (7, 9)),
        (KeepRule(heavy=2), (8, 11)),
        (KeepRule(n_sink=2), (8, 11)),
    ], ids=["lococo", "lococo+h2o", "lococo+sink"])
    def test_one_merge_records_its_entries(self, rule, entries, trainable):
        rng = np.random.default_rng(16)
        n, d, m, b = 2, 8, 6, 3
        head = new_conv_head(d, m - rule.budget, kernel_size=3, rng=rng)
        head.kernels.weights.requires_grad = True
        scores = np.arange(12.0).reshape(2, 6) % 5 if rule.heavy else None
        k_cache, v_cache, k_new, v_new = (t2(rng.standard_normal((n, d, cols)), trainable)
                                          for cols in (m, m, b, b))
        cache = KvCache(k_cache, v_cache, capacity=m, rule=rule, scores=scores)
        with GradTape() as tape:
            out = compress_step(cache, k_new, v_new, [head], rng.random((n, m + b)))
        assert out.live_entries == m
        assert len(tape) == entries[trainable]


class TestCompressorGradients:
    def test_gradient_through_weights_fuse_and_attention(self):
        rng = np.random.default_rng(14)
        d, b, m, t_q = 3, 2, 4, 3
        head = new_conv_head(d, m, kernel_size=3, rng=rng)
        head.kernels.weights.requires_grad = True
        k_new, v_new = t2(rng.standard_normal((1, d, b))), t2(rng.standard_normal((1, d, b)))
        k_cache, v_cache = t2(rng.standard_normal((1, d, m))), t2(rng.standard_normal((1, d, m)))
        q = t2(rng.standard_normal((1, d, t_q)))
        targets = np.array([0, 2, 1])

        def loss():
            k_f, v_f = fuse_split(synthesize_all(k_new, v_new, k_cache, v_cache, head))
            probs = softmax_cols(matmul(transpose(k_f), q))
            out = matmul(v_f, probs)  # (1, d, t_q): the loss reads the one sequence
            return cross_entropy_cols(custom_op([out], out.data[0], lambda g: (g[None],)), targets)

        with GradTape() as tape:
            value = loss()
        grads = backward(tape, value)
        g = grads[head.kernels.weights]
        assert np.abs(g).max() > 0

        h = 1e-5
        flat_idx = rng.choice(g.size, size=6, replace=False)
        w = head.kernels.weights
        for fi in flat_idx:
            idx = np.unravel_index(fi, g.shape)
            orig = w.data[idx]
            w.data[idx] = orig + h
            hi = loss().data[0, 0]
            w.data[idx] = orig - h
            lo = loss().data[0, 0]
            w.data[idx] = orig
            fd = (hi - lo) / (2 * h)
            rel = abs(g[idx] - fd) / (abs(g[idx]) + 1e-8)
            assert rel < 1e-4, f"param {idx}: analytic={g[idx]}, fd={fd}"
