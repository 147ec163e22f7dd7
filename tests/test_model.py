"""Model-level behavior: equivalences, causality, checkpoints, generation."""

import json
import struct

import numpy as np
import pytest

from convkv.cache import CacheError
from convkv.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from convkv import attention, model, numerics
from convkv.attention import split_heads
from convkv.corpus import corpus_to_ids, make_recall_corpus
from convkv.model import (
    ModelConfig,
    ModelParams,
    forward_segmented,
    generate,
    perplexity,
)
from convkv.numerics import NonFiniteError, Tensor2
from convkv.policies import LayerPolicy, PolicySpec

TINY = ModelConfig(d_model=16, n_layers=2, n_heads=2, head_dim=8, max_context=256)

# logit fingerprint of the seed-3 lococo run, frozen once the equivalence and
# bound invariants above/below were green (see test_lococo_regression_locked_logits)
REGRESSION_PROBE = np.array([
    0.2113033326412506,
    -0.0848252829624338,
    0.12162708162552095,
    7.457955600104139,
    0.4218502904191738,
])


@pytest.fixture(scope="module")
def tiny_params():
    return ModelParams.init(TINY, seed=42)


@pytest.fixture(scope="module")
def headed_params():
    params = ModelParams.init(TINY, seed=42)
    params.install_conv_heads(slots=8, kernel_size=5, seed=2)
    return params


def rand_tokens(rng, n):
    return rng.integers(0, 256, size=n, dtype=np.int64)


BOUNDED = {
    "lococo": PolicySpec("lococo", capacity=8),
    "h2o": PolicySpec("h2o", capacity=8),
    "sink_window": PolicySpec("sink_window", capacity=8, n_sink=2),
    "lococo+h2o": PolicySpec("lococo+h2o", capacity=8, reserved=2),
    "lococo+sink": PolicySpec("lococo+sink", capacity=8, n_sink=2),
}
POLICIES = {"concat": PolicySpec("concat"), **BOUNDED}


def model_for(spec, seed=13):
    params = ModelParams.init(TINY, seed=seed)
    if spec.needs_conv_head:
        params.install_conv_heads(slots=spec.merge_slots, kernel_size=5, seed=seed)
    return params


def logits_for(params, tokens, policy, block_size):
    out, _ = forward_segmented(params, tokens, policy, block_size)
    return out.data


class TestSegmentedEquivalence:
    @pytest.mark.parametrize("block_size", [1, 2, 4, 8, 16])
    def test_concat_matches_full_forward(self, tiny_params, block_size):
        rng = np.random.default_rng(0)
        tokens = rand_tokens(rng, 16)
        full = logits_for(tiny_params, tokens, PolicySpec("concat"), 16)
        seg = logits_for(tiny_params, tokens, PolicySpec("concat"), block_size)
        assert np.max(np.abs(seg - full)) < 1e-10

    def test_lococo_fill_branch_equals_concat(self, tiny_params):
        rng = np.random.default_rng(1)
        tokens = rand_tokens(rng, 16)
        params = ModelParams.init(TINY, seed=42)
        params.install_conv_heads(slots=32, kernel_size=5, seed=7)
        full = logits_for(params, tokens, PolicySpec("concat"), 4)
        filled = logits_for(params, tokens, PolicySpec("lococo", capacity=32), 4)
        assert np.max(np.abs(filled - full)) < 1e-12

    def test_sink_window_fill_branch_equals_concat(self, tiny_params):
        # before any eviction a cache slot is the token's absolute position
        tokens = rand_tokens(np.random.default_rng(2), 16)
        full = logits_for(tiny_params, tokens, PolicySpec("concat"), 4)
        filled = logits_for(
            tiny_params, tokens, PolicySpec("sink_window", capacity=16, n_sink=2), 4
        )
        assert np.max(np.abs(filled - full)) < 1e-12

    def test_lococo_regression_locked_logits(self):
        # self-oracle: fingerprint recorded after the invariant suite passed
        params = ModelParams.init(TINY, seed=3)
        params.install_conv_heads(slots=16, kernel_size=5, seed=3)
        tokens = np.arange(64, dtype=np.int64) % 256
        out = logits_for(params, tokens, PolicySpec("lococo", capacity=16), 8)
        probe = np.array(
            [out[0, 0], out[17, 13], out[255, 63], float(out.sum()), float(np.abs(out).max())]
        )
        expect = REGRESSION_PROBE
        assert np.max(np.abs(probe - expect)) < 1e-10


class TestSingleMergeStep:
    @pytest.mark.parametrize("spec", [
        PolicySpec("lococo+sink", capacity=8, n_sink=0),
        PolicySpec("lococo+h2o", capacity=8, reserved=0),
    ], ids=["lococo+sink", "lococo+h2o"])
    def test_zero_pin_hybrid_is_bit_equal_to_lococo(self, spec):
        params = ModelParams.init(TINY, seed=12)
        params.install_conv_heads(slots=8, kernel_size=5, seed=5)
        lococo = PolicySpec("lococo", capacity=8)
        tokens = rand_tokens(np.random.default_rng(11), 40)
        assert np.array_equal(
            logits_for(params, tokens, spec, 4), logits_for(params, tokens, lococo, 4)
        )
        prompt = tokens[:9]
        assert np.array_equal(
            generate(params, prompt, 12, spec, 4), generate(params, prompt, 12, lococo, 4)
        )


class TestCausality:
    @pytest.mark.parametrize("policy_kwargs", [
        dict(name="concat"),
        dict(name="h2o", capacity=8),
        dict(name="sink_window", capacity=8, n_sink=2, window=6),
        dict(name="lococo", capacity=8),
        dict(name="lococo+sink", capacity=8, n_sink=2),
        dict(name="lococo+h2o", capacity=8, reserved=2),
    ])
    def test_later_token_never_moves_earlier_logits(self, policy_kwargs):
        params = ModelParams.init(TINY, seed=9)
        spec = PolicySpec(**policy_kwargs)
        if spec.needs_conv_head:
            params.install_conv_heads(slots=spec.merge_slots, kernel_size=5, seed=1)
        rng = np.random.default_rng(5)
        tokens = rand_tokens(rng, 24)
        base = logits_for(params, tokens, spec, 4)
        t = 13
        bumped = tokens.copy()
        bumped[t] = (bumped[t] + 1) % 256
        out = logits_for(params, bumped, spec, 4)
        assert np.array_equal(out[:, :t], base[:, :t])


def _rewrite_header(raw: bytes, edit) -> bytes:
    (n,) = struct.unpack("<Q", raw[8:16])
    header = json.loads(raw[16:16 + n])
    edit(header)
    encoded = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    return raw[:8] + struct.pack("<Q", len(encoded)) + encoded + raw[16 + n:]


def _transpose_first_gain(header):
    entry = next(e for e in header["sections"]["base"] if e["name"] == "layers.0.attn_gain")
    entry["rows"], entry["cols"] = entry["cols"], entry["rows"]


def _header_edit(*path, value=None):
    """Set the header entry at ``path`` to ``value``, or delete it for None."""
    def edit(header):
        *parents, last = path
        for key in parents:
            header = header[key]
        if value is None:
            del header[last]
        else:
            header[last] = value

    return lambda raw: _rewrite_header(raw, edit)


def _every_relu_position_pre(header):
    for meta in header["conv_meta"]:
        meta["relu_position"] = "pre"


LAYER_0_META = {"kernel_size": 5, "layer_index": 0, "relu_position": "post", "slots": 8}
CORRUPTIONS = {
    "truncated_header": lambda raw: raw[:26],
    "truncated_length_field": lambda raw: raw[:12],
    "payload_not_multiple_of_8": lambda raw: raw[:-3],
    "trailing_bytes": lambda raw: raw + bytes(8),
    "tensor_shape_mismatch": lambda raw: _rewrite_header(raw, _transpose_first_gain),
    "flipped_payload_bit": lambda raw: raw[:-5] + bytes([raw[-5] ^ 0x10]) + raw[-4:],
    "wrong_kernel_size": _header_edit("conv_meta", 0, "kernel_size", value=7),
    "wrong_slots": _header_edit("conv_meta", 1, "slots", value=9),
    "wrong_relu_position": _header_edit("conv_meta", 0, "relu_position", value="middle"),
    "layer_index_7": _header_edit("conv_meta", 1, "layer_index", value=7),
    "conv_meta_missing": _header_edit("conv_meta"),
    "sections_missing": _header_edit("sections"),
    "unknown_config_key": _header_edit("config", "n_experts", value=2),
    "negative_offset": _header_edit("sections", "base", 1, "offset", value=-3),
    "two_tensors_at_offset_0": _header_edit("sections", "base", 1, "offset", value=0),
    "duplicated_conv_meta_entry": _header_edit("conv_meta", 1, value=LAYER_0_META),
    "one_conv_meta_for_2_layers": _header_edit("conv_meta", 1),
    # self-consistent edits that load as a different model unless checksummed
    "every_relu_position_pre": lambda raw: _rewrite_header(raw, _every_relu_position_pre),
    "rope_base_500": _header_edit("config", "rope_base", value=500.0),
}


class TestCheckpoints:
    def test_round_trip_is_byte_identical(self, tiny_params, tmp_path):
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(tiny_params, p1)
        save_checkpoint(load_checkpoint(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_round_trip_with_conv_heads(self, tmp_path):
        params = ModelParams.init(TINY, seed=8)
        params.install_conv_heads(slots=8, kernel_size=21, seed=2)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(params, p1)
        loaded = load_checkpoint(p1)
        assert loaded.conv_heads is not None
        assert loaded.conv_heads[0].kernel_size == 21
        save_checkpoint(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_strip_restores_concat_behavior_bitwise(self, tmp_path):
        params = ModelParams.init(TINY, seed=8)
        params.install_conv_heads(slots=8, kernel_size=5, seed=2)
        full, stripped = tmp_path / "full.ckpt", tmp_path / "base.ckpt"
        save_checkpoint(params, full)
        params.drop_conv_heads()
        save_checkpoint(params, stripped)
        assert load_checkpoint(full).conv_heads is not None
        assert load_checkpoint(stripped).conv_heads is None

        rng = np.random.default_rng(3)
        tokens = rand_tokens(rng, 12)
        a = logits_for(load_checkpoint(full), tokens, PolicySpec("concat"), 4)
        b = logits_for(load_checkpoint(stripped), tokens, PolicySpec("concat"), 4)
        assert np.array_equal(a, b)

    def test_base_weights_identical_after_strip(self, tmp_path):
        params = ModelParams.init(TINY, seed=8)
        params.install_conv_heads(slots=8, kernel_size=5, seed=2)
        full, stripped = tmp_path / "full.ckpt", tmp_path / "base.ckpt"
        save_checkpoint(params, full)
        params.drop_conv_heads()
        save_checkpoint(params, stripped)
        fingerprint = load_checkpoint(full).base_fingerprint()
        assert load_checkpoint(stripped).base_fingerprint() == fingerprint

    @pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
    def test_corrupt_file_raises_checkpoint_error(self, headed_params, tmp_path, corruption):
        path = tmp_path / "a.ckpt"
        save_checkpoint(headed_params, path)
        path.write_bytes(CORRUPTIONS[corruption](path.read_bytes()))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_format_version_1_rejected_by_name(self, tiny_params, tmp_path):
        # version 2, whose checksum skips the header, is rejected the same way
        path = tmp_path / "a.ckpt"
        save_checkpoint(tiny_params, path)
        raw = path.read_bytes()
        for version in (1, 2):
            path.write_bytes(raw[:4] + struct.pack("<I", version) + raw[8:])
            with pytest.raises(CheckpointError, match=f"version {version} carries no header"):
                load_checkpoint(path)


class TestGenerate:
    def test_zero_new_tokens_echoes_prompt(self, tiny_params):
        prompt = np.array([1, 2, 3])
        out = generate(tiny_params, prompt, 0, PolicySpec("concat"), 2)
        assert np.array_equal(out, prompt)

    def test_concat_greedy_matches_full_attention_decode(self, tiny_params):
        rng = np.random.default_rng(6)
        prompt = rand_tokens(rng, 10)
        fast = generate(tiny_params, prompt, 6, PolicySpec("concat"), 4)
        # reference: recompute the full forward for every new token
        ref = list(prompt)
        for _ in range(6):
            logits = logits_for(tiny_params, np.array(ref), PolicySpec("concat"), len(ref))
            ref.append(int(np.argmax(logits[:, -1])))
        assert np.array_equal(fast, np.array(ref))

    def test_lococo_fill_branch_matches_concat_greedy(self):
        params = ModelParams.init(TINY, seed=10)
        params.install_conv_heads(slots=64, kernel_size=5, seed=4)
        rng = np.random.default_rng(7)
        prompt = rand_tokens(rng, 9)
        a = generate(params, prompt, 5, PolicySpec("concat"), 4)
        b = generate(params, prompt, 5, PolicySpec("lococo", capacity=64), 4)
        assert np.array_equal(a, b)

    def test_context_limit_enforced(self, tiny_params):
        with pytest.raises(ValueError, match="exceeds"):
            generate(tiny_params, np.zeros(250, dtype=np.int64), 10, PolicySpec("concat"), 4)

    def test_token_out_of_range(self, tiny_params):
        with pytest.raises(ValueError, match="out of range"):
            forward_segmented(tiny_params, np.array([300]), PolicySpec("concat"), 1)

    def test_empty_token_sequence_rejected(self, tiny_params):
        with pytest.raises(ValueError, match="token sequence must not be empty"):
            forward_segmented(tiny_params, np.array([], dtype=np.int64), PolicySpec("concat"), 4)


class TestDecodeMatchesPrefill:
    """Block-buffered decode reproduces the teacher-forced segmented prefill."""

    @pytest.mark.parametrize("prompt_len,block_size", [(8, 4), (10, 4), (3, 4), (5, 1)],
                             ids=["whole_blocks", "ragged_tail", "shorter_than_block", "block_1"])
    @pytest.mark.parametrize("name", list(POLICIES))
    def test_decode_logits_equal_prefill(self, monkeypatch, name, prompt_len, block_size):
        spec = POLICIES[name]
        params = model_for(spec)
        chunk_logits = []
        forward_chunk = model._forward_chunk

        def spy(*args, **kwargs):
            logits, entries = forward_chunk(*args, **kwargs)
            chunk_logits.append(logits.data)
            return logits, entries

        monkeypatch.setattr(model, "_forward_chunk", spy)
        prompt = rand_tokens(np.random.default_rng(prompt_len), prompt_len)
        n_new = 20
        out = generate(params, prompt, n_new, spec, block_size)
        monkeypatch.undo()

        decoded = np.hstack(chunk_logits)
        ref = logits_for(params, out[:-1], spec, block_size)
        assert decoded.shape == ref.shape == (256, prompt_len + n_new - 1)
        assert np.max(np.abs(decoded - ref)) < 1e-10
        assert np.array_equal(out[prompt_len:], ref[:, prompt_len - 1:].argmax(axis=0))

    @pytest.mark.parametrize("name", list(POLICIES))
    def test_cache_updates_once_per_block(self, monkeypatch, name):
        spec = POLICIES[name]
        params = model_for(spec)
        calls = {"update": 0, "build": 0}
        update, build = LayerPolicy.update, PolicySpec.build

        def counted_update(self, *args, **kwargs):
            calls["update"] += 1
            return update(self, *args, **kwargs)

        def counted_build(self, *args, **kwargs):
            calls["build"] += 1
            return build(self, *args, **kwargs)

        monkeypatch.setattr(LayerPolicy, "update", counted_update)
        monkeypatch.setattr(PolicySpec, "build", counted_build)
        prompt, block_size = rand_tokens(np.random.default_rng(4), 10), 4
        for n_new in (1, 7, 30):
            calls.update(update=0, build=0)
            generate(params, prompt, n_new, spec, block_size)
            fed = prompt.size + n_new - 1
            assert calls["update"] == TINY.n_layers * (fed // block_size)
            assert calls["build"] == TINY.n_layers


class TestBlockSizePrecondition:
    @pytest.mark.parametrize("name", list(BOUNDED))
    def test_block_beyond_free_slots_rejected(self, name):
        spec = BOUNDED[name]
        params = model_for(spec)
        room = spec.merge_slots or spec.capacity
        tokens = rand_tokens(np.random.default_rng(2), 3 * room)
        forward_segmented(params, tokens, spec, room)
        generate(params, tokens[:5], 3, spec, room)
        with pytest.raises(CacheError, match="block size"):
            forward_segmented(params, tokens, spec, room + 1)
        with pytest.raises(CacheError, match="block size"):
            generate(params, tokens[:5], 3, spec, room + 1)


class TestConvHeadCount:
    """A merging policy needs exactly one conv head per layer."""

    @pytest.mark.parametrize("n_heads", [1, 3])
    @pytest.mark.parametrize("name", ["lococo", "lococo+h2o", "lococo+sink"])
    def test_head_count_must_equal_layer_count(self, name, n_heads):
        spec = BOUNDED[name]
        params = model_for(spec)
        params.conv_heads = [params.conv_heads[0]] * n_heads
        tokens = rand_tokens(np.random.default_rng(3), 12)
        with pytest.raises(CacheError, match="one conv head per layer"):
            forward_segmented(params, tokens, spec, 4)
        with pytest.raises(CacheError, match="one conv head per layer"):
            generate(params, tokens, 3, spec, 4)


class TestOpBudget:
    """Tape results per decode layer-token, counted where every op makes one."""

    @pytest.mark.parametrize("name", list(POLICIES))
    def test_decode_ops_do_not_grow_with_heads(self, monkeypatch, name):
        block_size = 16
        spec = PolicySpec(name) if name == "concat" else PolicySpec(
            name, capacity=32, n_sink=2, reserved=2
        )
        calls = [0]
        result = numerics._result

        def counted(*args):
            calls[0] += 1
            return result(*args)

        monkeypatch.setattr(numerics, "_result", counted)
        prompt = rand_tokens(np.random.default_rng(1), 40)
        per_layer_token = []
        for n_heads in (1, 2, 4):
            config = ModelConfig(d_model=16, n_layers=2, n_heads=n_heads,
                                 head_dim=16 // n_heads, max_context=256)
            params = ModelParams.init(config, seed=2)
            if spec.needs_conv_head:
                params.install_conv_heads(slots=spec.merge_slots, kernel_size=5, seed=2)
            counts = []
            # the extra block of decode steps runs with the cache already full
            for n_new in (1 + block_size, 1 + 2 * block_size):
                calls[0] = 0
                generate(params, prompt, n_new, spec, block_size)
                counts.append(calls[0])
            per_layer_token.append((counts[1] - counts[0]) / (config.n_layers * block_size))
        assert per_layer_token[0] == per_layer_token[1] == per_layer_token[2]
        assert per_layer_token[0] <= 27.5

    @pytest.mark.parametrize("n_cached", [0, 3])
    def test_lone_fresh_key_needs_no_mask_op(self, monkeypatch, n_cached):
        rng = np.random.default_rng(n_cached)
        q, k, v = (
            split_heads(Tensor2(rng.standard_normal((8, cols))), 2, 4)
            for cols in (1, n_cached + 1, n_cached + 1)
        )
        masks = []
        monkeypatch.setattr(attention, "add_mask", lambda x, mask: masks.append(mask) or x)
        out, probs = attention.attend(q, k, v, n_cached, return_probs=True)
        monkeypatch.undo()
        assert masks == []
        scores = numerics.scale(numerics.matmul(numerics.transpose(k), q), 0.5)
        masked = numerics.softmax_cols(
            numerics.add_mask(scores, attention._block_mask(n_cached, 1, 1))
        )
        assert np.array_equal(probs.data, masked.data)
        assert np.array_equal(out.data, numerics.matmul(v, masked).data)


class TestNonFiniteResidual:
    @pytest.mark.parametrize("name", list(POLICIES))
    def test_overflowing_layer_named_by_block_and_layer(self, name):
        spec = POLICIES[name]
        params = model_for(spec)
        # finite weights whose MLP output squares past the float64 range; without
        # the check the next RMS norm zeroes the stream and every logit is equal
        params.layers[1].mlp_out.data = params.layers[1].mlp_out.data * 1e200
        tokens = rand_tokens(np.random.default_rng(3), 12)
        with pytest.raises(NonFiniteError, match="block 0, layer 1"):
            forward_segmented(params, tokens, spec, 4)
        with pytest.raises(NonFiniteError, match="block 0, layer 1"):
            generate(params, tokens[:5], 3, spec, 4)

    @pytest.mark.parametrize("layer", [0, 1])
    @pytest.mark.parametrize("name", list(POLICIES))
    def test_overflowing_scores_named_by_block_and_layer(self, name, layer):
        spec = POLICIES[name]
        params = model_for(spec)
        # finite q and k whose dot products overflow inside the layer
        attn = params.layers[layer].attn
        attn.w_q.data, attn.w_k.data = attn.w_q.data * 1e200, attn.w_k.data * 1e200
        tokens = rand_tokens(np.random.default_rng(3), 12)
        calls = (
            lambda: forward_segmented(params, tokens, spec, 4),
            lambda: generate(params, tokens[:5], 3, spec, 4),
        )
        for call in calls:
            with pytest.raises(NonFiniteError, match=f"block 0, layer {layer}") as info:
                call()
            assert isinstance(info.value.__cause__, NonFiniteError)

    @pytest.mark.parametrize("layer", [0, 1])
    @pytest.mark.parametrize("name", list(POLICIES))
    def test_overflowing_lone_key_named_by_block_and_layer(self, name, layer):
        spec = POLICIES[name]
        params = model_for(spec)
        # k = -q, so a one-token prompt's only score overflows to -inf
        attn = params.layers[layer].attn
        attn.w_q.data = attn.w_q.data * 1e200
        attn.w_k.data = -attn.w_q.data
        with pytest.raises(NonFiniteError, match=f"block 0, layer {layer}"):
            generate(params, np.array([65]), 3, spec, 4)


class TestContextBuffer:
    """Decode steps between two flushes extend one context buffer in place."""

    @pytest.mark.parametrize("name", list(POLICIES))
    def test_decode_steps_share_one_buffer_per_flush(self, monkeypatch, name):
        spec = POLICIES[name]
        params = model_for(spec)
        steps = []  # (stream, cache columns, context before, chunk keys/values, context after)
        extend = model.LayerStream.extend_context

        def spy(self, keys, values):
            before = self.context
            cached = tuple(c.data.reshape(TINY.n_heads, TINY.head_dim, -1).copy()
                           for c in (self.cache.keys, self.cache.values))
            after = extend(self, keys, values)
            steps.append((self, cached, before, keys.data.copy(), values.data.copy(), after))
            return after

        monkeypatch.setattr(model.LayerStream, "extend_context", spy)
        block_size = 4
        generate(params, rand_tokens(np.random.default_rng(6), 6), 15, spec, block_size)
        monkeypatch.undo()

        expected = {}  # (stream, context after) -> concatenation built from the recorded parts
        shared = fresh = 0
        for stream, cached, before, keys, values, after in steps:
            base = expected.get((id(stream), id(before)))
            if base is None and stream.policy.slot_relative_positions:
                # cached keys are rotated by their slot index when a cycle starts
                cached = (before[0].data, cached[1])
            parts = cached if base is None else base
            expected[(id(stream), id(after))] = want = tuple(
                np.concatenate([p, x], axis=-1) for p, x in zip(parts, (keys, values))
            )
            for got, prev, w in zip(after, before, want):
                assert np.array_equal(got.data, w)
                if base is None:  # first chunk since a flush: a new buffer
                    assert not np.shares_memory(got.data, prev.data)
                    fresh += 1
                else:
                    assert np.shares_memory(got.data, prev.data)
                    shared += 1
        # writing later columns changed no earlier context
        for stream, _, before, keys, values, after in steps:
            for got, w in zip(after, expected[(id(stream), id(after))]):
                assert np.array_equal(got.data, w)
        # 6 prompt tokens + 14 fed ones at B = 4: 5 flush cycles, 16 chunks per layer
        assert fresh == 2 * TINY.n_layers * 5
        assert shared == 2 * TINY.n_layers * 11


class TestPerplexity:
    def test_uniform_logits_give_vocab_size(self):
        params = ModelParams.init(TINY, seed=11)
        params.embed = Tensor2.zeros(TINY.d_model, 256)  # ties head to zero logits
        ids = corpus_to_ids(make_recall_corpus(4, seed=0))
        ppl = perplexity(params, ids, PolicySpec("concat"), 64, 8)
        assert abs(ppl - 256.0) < 1e-9

    def test_matches_scalar_nll_oracle(self, tiny_params):
        rng = np.random.default_rng(8)
        ids = rand_tokens(rng, 48)
        got = perplexity(tiny_params, ids, PolicySpec("concat"), 16, 4)
        total, count = 0.0, 0
        for w in range(3):
            window = ids[16 * w:16 * (w + 1)]
            logits = logits_for(tiny_params, window, PolicySpec("concat"), 4)
            for t in range(15):
                col = logits[:, t]
                lse = np.log(np.sum(np.exp(col - col.max()))) + col.max()
                total += lse - col[window[t + 1]]
                count += 1
        assert abs(got - np.exp(total / count)) < 1e-10

    def test_empty_corpus_rejected(self, tiny_params):
        with pytest.raises(ValueError, match="empty"):
            perplexity(tiny_params, np.array([], dtype=np.int64), PolicySpec("concat"), 8, 4)

    def test_missing_conv_heads_rejected(self, tiny_params):
        rng = np.random.default_rng(9)
        with pytest.raises(CacheError, match="conv heads"):
            perplexity(tiny_params, rand_tokens(rng, 32), PolicySpec("lococo", capacity=8), 16, 4)
