"""Model-level behavior: equivalences, causality, checkpoints, generation."""

import json
import struct

import numpy as np
import pytest

from convkv.cache import CacheError
from convkv.checkpoint import (
    CheckpointError,
    has_conv_heads,
    load_checkpoint,
    save_checkpoint,
    strip_conv_heads,
)
from convkv.corpus import corpus_to_ids, make_recall_corpus
from convkv.model import (
    ModelConfig,
    ModelParams,
    forward_segmented,
    generate,
    perplexity,
)
from convkv.numerics import Tensor2
from convkv.policies import PolicySpec

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


def rand_tokens(rng, n):
    return rng.integers(0, 256, size=n, dtype=np.int64)


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


CORRUPTIONS = {
    "truncated_header": lambda raw: raw[:26],
    "truncated_length_field": lambda raw: raw[:12],
    "payload_not_multiple_of_8": lambda raw: raw[:-3],
    "trailing_bytes": lambda raw: raw + bytes(8),
    "tensor_shape_mismatch": lambda raw: _rewrite_header(raw, _transpose_first_gain),
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
        strip_conv_heads(full, stripped)
        assert has_conv_heads(full) and not has_conv_heads(stripped)

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
        strip_conv_heads(full, stripped)
        assert load_checkpoint(stripped).base_fingerprint() == params.base_fingerprint()

    @pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
    def test_corrupt_file_raises_checkpoint_error(self, tiny_params, tmp_path, corruption):
        path = tmp_path / "a.ckpt"
        save_checkpoint(tiny_params, path)
        path.write_bytes(CORRUPTIONS[corruption](path.read_bytes()))
        with pytest.raises(CheckpointError):
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
