"""Attention: projections, rotary embedding, full vs block-wise equivalence."""

import numpy as np
import pytest

import convkv.attention as attention_mod
from convkv.attention import (
    AttentionParams,
    RopeConfig,
    apply_rope,
    attend,
    merge_heads,
    project_qkv,
    split_heads,
)
from convkv.instrumentation import MemoryTrace
from convkv.model import ModelConfig, ModelParams, forward_segmented
from convkv.numerics import (
    ShapeError,
    Tensor2,
    add,
    matmul,
    relu,
    rms_norm_cols,
    select_cols,
    softmax_cols,
    transpose,
    vstack,
)
from convkv.policies import PolicySpec

import oracles
from oracles import full_causal_attention


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
        q, k, v = project_qkv(x, params)
        assert np.array_equal(k.data, x.data)

    def test_zero_input(self):
        rng = np.random.default_rng(0)
        params = rand_params(rng, 4)
        q, k, v = project_qkv(Tensor2.zeros(4, 5), params)
        assert not q.data.any() and not k.data.any() and not v.data.any()

    def test_matches_matmul_oracle(self):
        rng = np.random.default_rng(1)
        params = rand_params(rng, 4)
        x = t2(rng.standard_normal((4, 6)))
        q, _, _ = project_qkv(x, params)
        assert np.max(np.abs(q.data - oracles.matmul_loops(params.w_q.data, x.data))) < 1e-12

    def test_shape_mismatch(self):
        rng = np.random.default_rng(2)
        with pytest.raises(ShapeError):
            project_qkv(Tensor2.zeros(3, 5), rand_params(rng, 4))


class TestRope:
    def test_position_zero_is_identity(self):
        rng = np.random.default_rng(3)
        x = t2(rng.standard_normal((6, 1)))
        out = apply_rope(x, np.array([0]), RopeConfig())
        assert np.array_equal(out.data, x.data)

    def test_interpolation_halves_angles(self):
        rng = np.random.default_rng(4)
        x = t2(rng.standard_normal((8, 3)))
        doubled = apply_rope(x, np.array([2, 4, 10]), RopeConfig(interpolation_scale=2.0))
        plain = apply_rope(x, np.array([1, 2, 5]), RopeConfig(interpolation_scale=1.0))
        assert np.max(np.abs(doubled.data - plain.data)) < 1e-12

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((6, 1))
        out = apply_rope(t2(x), np.array([5]), RopeConfig(base=10000.0))
        expect = oracles.rope_scalar(x, np.array([5]), base=10000.0, scale=1.0)
        assert np.max(np.abs(out.data - expect)) < 1e-12

    def test_odd_dim_rejected(self):
        with pytest.raises(ShapeError):
            apply_rope(Tensor2.zeros(3, 1), np.array([0]), RopeConfig())

    def test_rotation_preserves_norm(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((8, 4))
        out = apply_rope(t2(x), np.arange(4) + 7, RopeConfig())
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
        assert np.array_equal(merge_heads(heads).data, x.data)
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
        rope, q_pos, k_pos = RopeConfig(), n_cached + np.arange(b), np.arange(n_cached + b)
        qh, kh, vh = (split_heads(x, n_heads, head_dim) for x in (q, k, v))
        out, probs = attend(apply_rope(qh, q_pos, rope), apply_rope(kh, k_pos, rope), vh,
                            n_cached, return_probs=True)
        for h in range(n_heads):
            rows = slice(h * head_dim, (h + 1) * head_dim)
            one_out, one_probs = attend(
                apply_rope(t2(q.data[rows]), q_pos, rope),
                apply_rope(t2(k.data[rows]), k_pos, rope),
                t2(v.data[rows]), n_cached, return_probs=True,
            )
            assert np.array_equal(out.data[h], one_out.data)
            assert np.array_equal(probs.data[h], one_probs.data)


def one_layer(d_model, n_heads=1, seed=0):
    config = ModelConfig(
        d_model=d_model, n_layers=1, n_heads=n_heads, head_dim=d_model // n_heads,
        max_context=64,
    )
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


def full_forward(params, tokens):
    """One-layer model over the whole sequence, head by head, through
    full_causal_attention."""
    layer, cfg = params.layers[0], params.config
    positions = np.arange(len(tokens))
    h = select_cols(params.embed, tokens)
    q, k, v = project_qkv(rms_norm_cols(h, layer.attn_gain), layer.attn)
    heads = [
        full_causal_attention(
            apply_rope(hq, positions, cfg.rope), apply_rope(hk, positions, cfg.rope), hv
        )
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
        _, k, _ = project_qkv(h, layer.attn)
        expect = vstack([apply_rope(hk, np.arange(6), cfg.rope) for hk in per_head(k, cfg)])
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
        for hq, hk, hv in zip(*(per_head(x, cfg) for x in project_qkv(h, layer.attn))):
            _, probs = attend(apply_rope(hq, positions, cfg.rope),
                              apply_rope(hk, positions, cfg.rope), hv, return_probs=True)
            expect += probs.data.sum(axis=1)
        assert np.max(np.abs(caches[0].rule.scores - expect)) < 1e-12

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

        def spy(x):
            seen.append(x.shape[-2] * x.shape[-1])
            return orig(x)

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
