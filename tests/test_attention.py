"""Attention: projections, rotary embedding, full vs block-wise equivalence."""

import numpy as np
import pytest

import convkv.attention as attention_mod
from convkv import numerics
from convkv.attention import (
    AttentionParams,
    _block_mask,
    _rope_table,
    apply_rope,
    attend,
    project_qkv,
)
from convkv.instrumentation import MemoryTrace
from convkv.model import ModelConfig, ModelParams, forward_segmented
from convkv.numerics import (
    GradTape,
    ShapeError,
    Tensor2,
    add,
    matmul,
    relu,
    rms_norm_cols,
    select_cols,
    softmax_cols,
    transpose,
)
from convkv.policies import PolicySpec

import oracles
from oracles import full_causal_attention, merge_heads, qkv_at, rope_at, split_heads, vstack


def t2(arr):
    return Tensor2(np.asarray(arr, dtype=np.float64))


def rand_params(rng, d_model, n_heads=1):
    inner = d_model
    mk = lambda: Tensor2(rng.standard_normal((inner, d_model)) / np.sqrt(d_model))
    return AttentionParams(mk(), mk(), mk(), Tensor2(rng.standard_normal((d_model, inner))),
                           n_heads=n_heads, head_dim=inner // n_heads)


class TestProjectQkv:
    def test_identity_projection_passes_through(self):
        x = t2(np.arange(6.0).reshape(2, 3))
        eye = Tensor2(np.eye(2))
        params = AttentionParams(eye, eye, eye, Tensor2(np.eye(2)), n_heads=1, head_dim=2)
        outs = qkv_at(x, params, np.zeros(3))
        for out in outs:  # position 0 turns nothing
            assert out.shape == (1, 2, 3)
            assert np.array_equal(out.data[0], x.data)

    def test_zero_input(self):
        rng = np.random.default_rng(0)
        params = rand_params(rng, 4)
        outs = qkv_at(Tensor2.zeros(4, 5), params, np.arange(5))
        assert not any(out.data.any() for out in outs)

    def test_matches_matmul_oracle(self):
        rng = np.random.default_rng(1)
        params = rand_params(rng, 4, n_heads=2)
        x = t2(rng.standard_normal((4, 6)))
        positions = np.arange(6) + 3
        q_rot, k_rot, k, v = qkv_at(x, params, positions)
        q_loops, k_loops = (oracles.matmul_loops(w.data, x.data) for w in (params.w_q, params.w_k))
        expect = {
            "k": (k, k_loops),
            "v": (v, oracles.matmul_loops(params.w_v.data, x.data)),
            "q_rot": (q_rot, q_loops),
            "k_rot": (k_rot, k_loops),
        }
        for name, (out, loops) in expect.items():
            for h in range(2):
                want = loops[2 * h:2 * h + 2]
                if name.endswith("_rot"):
                    want = oracles.rope_scalar(want, positions, base=10000.0, scale=1.0)
                assert np.max(np.abs(out.data[h] - want)) < 1e-12, name

    def test_sequences_side_by_side_equal_one_call_each(self):
        # two sequences of 5 columns, one after another: one rotary table, one head
        # axis entry per (sequence, head), and no unrotated k unless asked for
        rng = np.random.default_rng(3)
        params = rand_params(rng, 4, n_heads=2)
        x = t2(rng.standard_normal((4, 10)))
        pos = np.arange(5) + 7
        both = qkv_at(x, params, pos)
        alone = [qkv_at(t2(x.data[:, i * 5:(i + 1) * 5]), params, pos)
                 for i in range(2)]
        for out, parts in zip(both, zip(*alone), strict=True):
            assert out.shape == (4, 2, 5)
            np.testing.assert_allclose(out.data, np.concatenate([p.data for p in parts]),
                                       rtol=0, atol=1e-12)
        q_rot, k_rot, k, v = qkv_at(x, params, pos, raw_k=False)
        assert k is None
        for out, ref in zip((q_rot, k_rot, v), (both[0], both[1], both[3])):
            assert np.array_equal(out.data, ref.data)

    def test_shape_mismatch(self):
        rng = np.random.default_rng(2)
        params = rand_params(rng, 4)
        with pytest.raises(ShapeError):
            qkv_at(Tensor2.zeros(3, 5), params, np.arange(5))
        with pytest.raises(ShapeError, match="positions"):
            qkv_at(Tensor2.zeros(4, 5), params, np.arange(4))

    @pytest.mark.parametrize("positions", ["absolute", "slot_relative", "decode_step"])
    @pytest.mark.parametrize("n_heads", [1, 2, 4])
    def test_equals_composed_primitives(self, n_heads, positions):
        # a prefill block at absolute positions, a chunk rotated past 7 cache
        # slots, and one decode token
        pos = {
            "absolute": np.arange(48, 64),
            "slot_relative": 7 + np.arange(3),
            "decode_step": np.array([300]),
        }[positions]
        rng = np.random.default_rng(n_heads)
        params = rand_params(rng, 8, n_heads)
        x = t2(rng.standard_normal((8, pos.size)))
        fused = qkv_at(x, params, pos, 500.0, 2.0)
        composed = oracles.project_qkv_composed(x, params, pos, 500.0, 2.0)
        for out, ref in zip(fused, composed, strict=True):
            assert out.shape == ref.shape == (n_heads, 8 // n_heads, pos.size)
            assert np.array_equal(out.data, ref.data)


class TestRope:
    def test_position_zero_is_identity(self):
        rng = np.random.default_rng(3)
        x = t2(rng.standard_normal((6, 1)))
        out = rope_at(x, np.array([0]))
        assert np.array_equal(out.data, x.data)

    def test_interpolation_halves_angles(self):
        rng = np.random.default_rng(4)
        x = t2(rng.standard_normal((8, 3)))
        doubled = rope_at(x, np.array([2, 4, 10]), scale=2.0)
        plain = rope_at(x, np.array([1, 2, 5]), scale=1.0)
        assert np.max(np.abs(doubled.data - plain.data)) < 1e-12

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((6, 1))
        out = rope_at(t2(x), np.array([5]), base=10000.0)
        expect = oracles.rope_scalar(x, np.array([5]), base=10000.0, scale=1.0)
        assert np.max(np.abs(out.data - expect)) < 1e-12

    def test_odd_dim_rejected(self):
        with pytest.raises(ShapeError):
            rope_at(Tensor2.zeros(3, 1), np.array([0]))

    def test_rotation_preserves_norm(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((8, 4))
        out = rope_at(t2(x), np.arange(4) + 7)
        assert np.max(np.abs(np.linalg.norm(out.data, axis=0) - np.linalg.norm(x, axis=0))) < 1e-12


class TestFullCausalAttention:
    def test_single_token_returns_its_value(self):
        rng = np.random.default_rng(7)
        q, k, v = (t2(rng.standard_normal((4, 1))) for _ in range(3))
        out = full_causal_attention(q, k, v)
        assert np.max(np.abs(out.data - v.data)) < 1e-15

    def test_identical_keys_give_value_mean_of_identical_columns(self):
        rng = np.random.default_rng(8)
        k_col = rng.standard_normal((4, 1))
        v_col = rng.standard_normal((4, 1))
        q = t2(rng.standard_normal((4, 5)))
        k = t2(np.repeat(k_col, 5, axis=1))
        v = t2(np.repeat(v_col, 5, axis=1))
        out = full_causal_attention(q, k, v)
        assert np.max(np.abs(out.data - v_col)) < 1e-12

    def test_matches_scalar_loop_oracle(self):
        rng = np.random.default_rng(9)
        q, k, v = (rng.standard_normal((4, 16)) for _ in range(3))
        out = full_causal_attention(t2(q), t2(k), t2(v))
        assert np.max(np.abs(out.data - oracles.causal_attention_loops(q, k, v))) < 1e-12


class TestHeadBatched:
    """One call over a leading head axis equals the same op run head by head."""

    def test_split_is_a_view_and_merge_inverts_it(self):
        rng = np.random.default_rng(20)
        x = t2(rng.standard_normal((6, 5)))
        heads = split_heads(x, 3, 2)
        assert heads.shape == (3, 2, 5)
        assert np.shares_memory(heads.data, x.data)
        assert np.array_equal(heads.data[1], x.data[2:4])
        assert np.array_equal(merge_heads(heads).data, x.data[None])
        with pytest.raises(ShapeError):
            split_heads(x, 4, 2)

    @pytest.mark.parametrize("n_cached", [0, 4])
    def test_rope_and_attend_equal_per_head_runs(self, n_cached):
        rng = np.random.default_rng(21)
        n_heads, head_dim, b = 3, 4, 5
        q, k, v = (
            t2(rng.standard_normal((n_heads * head_dim, cols)))
            for cols in (b, n_cached + b, n_cached + b)
        )
        q_pos, k_pos = n_cached + np.arange(b), np.arange(n_cached + b)
        mask = _block_mask(n_cached, b, b)
        qh, kh, vh = (split_heads(x, n_heads, head_dim) for x in (q, k, v))
        out, probs = attend(rope_at(qh, q_pos), rope_at(kh, k_pos), vh, mask)
        for h in range(n_heads):
            rows = slice(h * head_dim, (h + 1) * head_dim)
            one_out, one_probs = attend(
                rope_at(t2(q.data[rows]), q_pos),
                rope_at(t2(k.data[rows]), k_pos),
                t2(v.data[rows]), mask,
            )
            assert np.array_equal(out.data[h], one_out.data)
            assert np.array_equal(probs.data[h], one_probs.data)


class TestScores:
    def test_vjp_keeps_no_view_of_the_shared_key_buffer(self):
        # a layer's keys are a view of the cycle buffer that every layer's keys
        # share; a vjp holding the view would keep them all alive until backward
        rng = np.random.default_rng(0)
        buffer = rng.standard_normal((4, 4, 9))
        k = numerics._wrap(buffer[:2, :, :5], True)  # Tensor2() would copy
        q = Tensor2(rng.standard_normal((2, 4, 3)), requires_grad=True)
        with GradTape() as tape:
            scores = attention_mod._scores(k, q)
        ((_, _, vjp),) = tape._entries
        held = [c.cell_contents for c in vjp.__closure__
                if isinstance(c.cell_contents, np.ndarray)]
        assert len(held) == 2 and not any(np.shares_memory(a, buffer) for a in held)
        assert np.array_equal(scores.data, buffer[:2, :, :5].swapaxes(-1, -2) @ q.data)


class TestBadShapes:
    def test_projections_must_fit_the_heads(self):
        w = Tensor2.zeros(4, 4)
        with pytest.raises(ShapeError, match="w_k has 3 rows, expected n_heads\\*head_dim=4"):
            AttentionParams(w, Tensor2.zeros(3, 4), w, w, n_heads=2, head_dim=2)
        with pytest.raises(ShapeError, match="w_o has 3 cols, expected 4"):
            AttentionParams(w, w, w, Tensor2.zeros(4, 3), n_heads=2, head_dim=2)

    def test_attend_needs_paired_keys(self):
        q, k = Tensor2.zeros(2, 1), Tensor2.zeros(2, 3)
        with pytest.raises(ShapeError, match="key/value column mismatch: 3 vs 2"):
            attend(q, k, Tensor2.zeros(2, 2), None)
        for other in (Tensor2.zeros(3, 3), Tensor2.zeros(2, 2, 3)):
            with pytest.raises(ShapeError, match="do not fit queries of shape \\(2, 1\\)"):
                attend(q, other, other, None)

    @pytest.mark.parametrize("mask, got", [
        (3, "got int"),  # the count of cached keys that attend took before
        (np.zeros((3, 1)), "got float64 \\(3, 1\\)"),
        (np.zeros((3, 2), dtype=bool), "got bool \\(3, 2\\)"),
    ], ids=["n_cached", "float", "shape"])
    def test_attend_takes_only_a_bool_mask_of_the_scores_shape(self, mask, got):
        q, k = Tensor2.zeros(2, 1), Tensor2.zeros(2, 3)
        with pytest.raises(ShapeError, match=f"bool array of shape \\(3, 1\\), {got}"):
            attend(q, k, k, mask)

    def test_rotary_table_must_fit(self):
        x = Tensor2.zeros(4, 3)
        for positions, rows in ((np.arange(2), 4), (np.arange(3), 6)):
            with pytest.raises(ShapeError, match="rotary table of shape"):
                apply_rope(x, _rope_table(positions, rows, 10000.0, 1.0))
        params = rand_params(np.random.default_rng(0), 4, n_heads=2)
        w_qkv = params.stacked_qkv()
        with pytest.raises(ShapeError, match="rotary table of shape \\(2, 3\\)"):
            project_qkv(x, params, w_qkv, _rope_table(np.arange(3), 4, 10000.0, 1.0))
        with pytest.raises(ShapeError, match="does not fit projections"):
            project_qkv(x, params, w_qkv[:8], _rope_table(np.arange(3), 2, 10000.0, 1.0))

    def test_merge_heads_needs_a_head_axis(self):
        with pytest.raises(ShapeError, match="merge_heads needs a head-batched"):
            merge_heads(Tensor2.zeros(4, 2))


def one_layer(d_model, n_heads=1, seed=0):
    config = ModelConfig(n_layers=1, n_heads=n_heads, head_dim=d_model // n_heads, max_context=64)
    return ModelParams.init(config, seed=seed)


def run_segment(params, tokens, block_size, trace=None):
    logits, caches = forward_segmented(
        params, tokens, PolicySpec("concat"), block_size, trace=trace
    )
    return logits.data, caches[0]


def per_head(x, cfg):
    """2-D row slices, one per head: the oracle shares no head layout code."""
    d = cfg.head_dim
    return [t2(x.data[h * d:(h + 1) * d]) for h in range(cfg.n_heads)]


def projections(x, attn):
    """q, k and v as three separate matmuls, before any head split."""
    return [matmul(w, x) for w in (attn.w_q, attn.w_k, attn.w_v)]


def full_forward(params, tokens):
    """One-layer model over the whole sequence, head by head, through
    full_causal_attention."""
    layer, cfg = params.layers[0], params.config
    rope = (cfg.rope_base, cfg.interpolation_scale)
    positions = np.arange(len(tokens))
    h = select_cols(params.embed, tokens)
    q, k, v = projections(rms_norm_cols(h, layer.attn_gain), layer.attn)
    heads = [
        full_causal_attention(rope_at(hq, positions, *rope), rope_at(hk, positions, *rope), hv)
        for hq, hk, hv in zip(*(per_head(x, cfg) for x in (q, k, v)))
    ]
    h = add(h, matmul(layer.attn.w_o, vstack(heads)))
    mlp_in = rms_norm_cols(h, layer.mlp_gain)
    h = add(h, matmul(layer.mlp_out, relu(matmul(layer.mlp_in, mlp_in))))
    return matmul(transpose(params.embed), rms_norm_cols(h, params.final_gain)).data


class TestSegmentAttention:
    """Block-wise attention as the model runs it: forward_segmented with concat."""

    def test_single_block_equals_full_attention(self):
        rng = np.random.default_rng(10)
        params = one_layer(4, seed=10)
        tokens = rng.integers(0, 256, size=12)
        out, _ = run_segment(params, tokens, block_size=12)
        assert np.max(np.abs(out - full_forward(params, tokens))) < 1e-12

    def test_block_size_one_is_autoregressive_decoding(self):
        rng = np.random.default_rng(11)
        params = one_layer(4, seed=11)
        tokens = rng.integers(0, 256, size=9)
        out, _ = run_segment(params, tokens, block_size=1)
        assert np.max(np.abs(out - full_forward(params, tokens))) < 1e-12

    @pytest.mark.parametrize("block_size", [2, 3, 4, 6])
    def test_block_size_invariance(self, block_size):
        rng = np.random.default_rng(12)
        params = one_layer(6, seed=12)
        tokens = rng.integers(0, 256, size=24)
        ref, _ = run_segment(params, tokens, block_size=24)
        out, _ = run_segment(params, tokens, block_size=block_size)
        assert np.max(np.abs(out - ref)) < 1e-12

    @pytest.mark.parametrize("block_size", [2, 4, 8])
    def test_block_size_invariance_multihead_with_rope(self, block_size):
        rng = np.random.default_rng(13)
        params = one_layer(8, n_heads=2, seed=13)
        tokens = rng.integers(0, 256, size=16)
        out, _ = run_segment(params, tokens, block_size)
        assert np.max(np.abs(out - full_forward(params, tokens))) < 1e-12

    def test_cache_collects_rotated_keys(self):
        rng = np.random.default_rng(14)
        params = one_layer(4, n_heads=2, seed=14)
        tokens = rng.integers(0, 256, size=6)
        _, cache = run_segment(params, tokens, 3)
        layer, cfg = params.layers[0], params.config
        h = rms_norm_cols(select_cols(params.embed, tokens), layer.attn_gain)
        _, k, _ = projections(h, layer.attn)
        rope = (cfg.rope_base, cfg.interpolation_scale)
        expect = vstack([rope_at(hk, np.arange(6), *rope) for hk in per_head(k, cfg)])
        assert cache.live_entries == 6
        assert np.max(np.abs(cache.keys.data - expect.data)) < 1e-12

    @pytest.mark.parametrize("block_size", [1, 3, 6])
    def test_heavy_hitter_scores_sum_attention_over_heads(self, block_size):
        rng = np.random.default_rng(16)
        params = one_layer(8, n_heads=2, seed=16)
        tokens = rng.integers(0, 256, size=6)
        _, caches = forward_segmented(params, tokens, PolicySpec("h2o", capacity=8), block_size)
        layer, cfg = params.layers[0], params.config
        positions = np.arange(6)
        h = rms_norm_cols(select_cols(params.embed, tokens), layer.attn_gain)
        expect = np.zeros(6)
        for hq, hk, hv in zip(*(per_head(x, cfg) for x in projections(h, layer.attn))):
            _, probs = attend(rope_at(hq, positions, cfg.rope_base, cfg.interpolation_scale),
                              rope_at(hk, positions, cfg.rope_base, cfg.interpolation_scale), hv,
                              _block_mask(0, 6, 6))
            expect += probs.data.sum(axis=1)
        assert np.max(np.abs(caches[0].scores - expect)) < 1e-12

    def test_causality_perturbing_a_token_leaves_earlier_outputs_alone(self):
        rng = np.random.default_rng(15)
        params = one_layer(4, n_heads=2, seed=15)
        tokens = rng.integers(0, 256, size=12)
        base, _ = run_segment(params, tokens, 4)
        for t in [3, 7, 11]:
            bumped = tokens.copy()
            bumped[t] = (bumped[t] + 1) % 256
            out, _ = run_segment(params, bumped, 4)
            assert np.array_equal(out[:, :t], base[:, :t])
            assert np.abs(out[:, t:] - base[:, t:]).max() > 0

    def test_score_matrix_never_reaches_l_squared(self, monkeypatch):
        seen = []
        orig = softmax_cols

        def spy(x, c, mask):
            seen.append(x.shape[-2] * x.shape[-1])
            return orig(x, c, mask)

        monkeypatch.setattr(attention_mod, "softmax_cols", spy)
        rng = np.random.default_rng(17)
        params = one_layer(4, seed=17)
        tokens = rng.integers(0, 256, size=32)
        block = 4
        trace = MemoryTrace()
        run_segment(params, tokens, block, trace)
        assert max(seen) == block * 32  # B x (cache + B) at the final block
        assert max(seen) < 32 * 32
        assert trace.peak_attn_entries == max(seen)
