"""Live-entry counting, attention-allocation bounds, policy reports."""

import numpy as np
import pytest

from convkv.cache import CacheError
from convkv.corpus import corpus_to_ids, make_recall_corpus
from convkv.instrumentation import (
    MemoryTrace,
    PolicyReport,
    compare_policies,
    write_reports_json,
)
from convkv.model import ModelConfig, ModelParams, forward_segmented
from convkv.policies import PolicySpec

CFG = ModelConfig(d_model=16, n_layers=2, n_heads=2, head_dim=8, max_context=1024)


def run_traced(params, n_tokens, spec, block_size):
    rng = np.random.default_rng(0)
    tokens = rng.integers(0, 256, size=n_tokens)
    trace = MemoryTrace()
    forward_segmented(params, tokens, spec, block_size, trace=trace)
    return trace


@pytest.fixture(scope="module")
def params():
    p = ModelParams.init(CFG, seed=0)
    return p


def with_heads(slots, seed=1):
    p = ModelParams.init(CFG, seed=0)
    p.install_conv_heads(slots=slots, kernel_size=5, seed=seed)
    return p


class TestMemoryTrace:
    def test_concat_live_entries_grow_with_each_block(self, params):
        b = 8
        trace = run_traced(params, 64, PolicySpec("concat"), b)
        per_block = trace.live_entries_by_block(layer=0)
        assert per_block == [b * (r + 1) for r in range(8)]

    def test_bounded_policy_pins_live_entries_at_capacity(self):
        m, b = 16, 8
        trace = run_traced(with_heads(m), 128, PolicySpec("lococo", capacity=m), b)
        per_block = trace.live_entries_by_block(layer=0)
        assert per_block[0] == 8 and per_block[1] == 16
        assert all(v == m for v in per_block[1:])
        assert trace.peak_live_entries == m

    @pytest.mark.parametrize("n_tokens", [256, 512])
    def test_peak_is_capacity_regardless_of_length(self, n_tokens):
        m, b = 16, 16
        for spec in [
            PolicySpec("h2o", capacity=m),
            PolicySpec("sink_window", capacity=m, n_sink=4, window=12),
            PolicySpec("lococo", capacity=m),
        ]:
            p = with_heads(m) if spec.needs_conv_head else ModelParams.init(CFG, seed=0)
            trace = run_traced(p, n_tokens, spec, b)
            assert trace.peak_live_entries == m, spec.name

    def test_peak_attention_entries_are_block_times_window(self):
        m, b, n = 32, 32, 256
        trace = run_traced(with_heads(m), n, PolicySpec("lococo", capacity=m), b)
        assert trace.peak_attn_entries == b * (m + b)
        assert trace.peak_attn_entries < n * n

    def test_doubling_length_does_not_raise_peak_memory(self):
        m, b = 16, 16
        short = run_traced(with_heads(m), 128, PolicySpec("lococo", capacity=m), b)
        long = run_traced(with_heads(m), 256, PolicySpec("lococo", capacity=m), b)
        assert long.peak_live_entries == short.peak_live_entries
        assert long.peak_attn_entries == short.peak_attn_entries

    def test_csv_schema(self, params, tmp_path):
        trace = run_traced(params, 32, PolicySpec("concat"), 8)
        text = trace.to_csv_text()
        lines = text.strip().splitlines()
        assert lines[0] == "block,layer,live_entries,attn_entries,tokens_seen"
        assert len(lines) == 1 + 4 * CFG.n_layers  # 4 blocks x 2 layers
        first = lines[1].split(",")
        assert [int(x) for x in first] == [0, 0, 8, 64, 8]

    def test_merge_is_explicit_reduce(self, params):
        a = run_traced(params, 16, PolicySpec("concat"), 8)
        b = run_traced(params, 16, PolicySpec("concat"), 8)
        merged = a.merge(b)
        assert len(merged.records) == len(a.records) + len(b.records)


class TestPolicyReport:
    def sample(self):
        return PolicyReport(
            policy="lococo",
            config={"capacity": 16, "block_size": 8},
            perplexity=17.25,
            peak_live_entries=16,
            tokens_per_second=1234.5,
            timestamp="2024-01-01T00:00:00+00:00",
        )

    def test_json_fields_all_populated(self):
        d = self.sample().to_json_dict()
        assert set(d) == {
            "policy", "config", "perplexity", "peak_live_entries",
            "tokens_per_second", "timestamp",
        }
        assert all(v is not None for v in d.values())

    def test_writers(self, tmp_path):
        reports = [self.sample()]
        write_reports_json(tmp_path / "r.json", reports)
        assert "lococo" in (tmp_path / "r.json").read_text()


class TestComparePolicies:
    def test_one_report_per_policy_same_corpus(self):
        ids = corpus_to_ids(make_recall_corpus(8, seed=2))
        p = with_heads(16)
        specs = [PolicySpec("concat"), PolicySpec("lococo", capacity=16),
                 PolicySpec("h2o", capacity=16)]
        reports = compare_policies(p, ids, specs, eval_context_length=64, block_size=8)
        assert [r.policy for r in reports] == ["concat", "lococo", "h2o"]
        assert reports[1].peak_live_entries == 16
        assert reports[0].peak_live_entries == 64
        assert all(r.tokens_per_second > 0 for r in reports)

    def test_missing_conv_heads_is_an_error(self, params):
        ids = corpus_to_ids(make_recall_corpus(4, seed=3))
        with pytest.raises(CacheError, match="conv heads"):
            compare_policies(params, ids, [PolicySpec("lococo", capacity=16)], 64, 8)
