"""Tests of the benchmark's own code: span arithmetic, output checks, metric
names and seeded inputs. None of them runs a workload."""

import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
import tracing  # noqa: E402
from metrics import END_TO_END, PER_LAYER  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


# --- spans ----------------------------------------------------------------------

def test_self_time_subtracts_union_of_children_clipped_to_parent():
    #        0 [0, 10]
    #        |- 1 [1, 4]      |- 3 [2, 3]
    #        |- 2 [3, 6]      (overlaps 1: the union [1, 6] counts once)
    #        |- 4 [9, 12]     (runs past its parent: only [9, 10] counts)
    start = [0.0, 1.0, 3.0, 2.0, 9.0]
    end = [10.0, 4.0, 6.0, 3.0, 12.0]
    parent = [-1, 0, 0, 1, 0]
    own = tracing.self_times(start, end, parent)
    np.testing.assert_allclose(own, [10 - 5 - 1, 3 - 1, 3, 1, 3])


def test_self_time_of_leaf_is_its_duration():
    np.testing.assert_allclose(tracing.self_times([1.0, 5.0], [2.5, 6.0], [-1, -1]), [1.5, 1.0])


def test_recorder_nests_spans_and_hides_paused_time(monkeypatch):
    ticks = iter(range(100))
    monkeypatch.setattr(tracing, "perf_counter", lambda: float(next(ticks)))
    rec = tracing.SpanRecorder()
    rec.begin_op(tracing.WORKLOAD)
    outer = rec.begin("outer")
    inner = rec.begin("inner")
    rec.finish(inner)
    with rec.paused():
        pass
    rec.finish(outer)
    spans = rec.arrays()
    assert list(spans["parent"]) == [-1, outer]
    assert list(spans["op"]) == [0, 0]
    # the fake clock ticks once per read; the reads that close begin, finish and
    # paused bracket bookkeeping, so only the 4 ticks between calls count
    durations = spans["end"] - spans["start"]
    assert durations[inner] == 1.0
    assert durations[outer] == 4.0


def test_recorder_rejects_spans_finished_out_of_order():
    rec = tracing.SpanRecorder()
    outer = rec.begin("outer")
    rec.begin("inner")
    with pytest.raises(RuntimeError):
        rec.finish(outer)


def test_tracer_wraps_every_binding_and_restores_them():
    import convkv
    from convkv import attention, model

    original = attention.attend
    rec = tracing.SpanRecorder()
    rng = np.random.default_rng(0)
    q, k, v = (convkv.Tensor2(rng.normal(size=(4, 3))) for _ in range(3))
    with tracing.Tracer(rec) as tracer:
        assert model.attend is not original and attention.attend is model.attend
        rec.begin_op(tracing.WORKLOAD)
        attention.attend(q, k, v)
    assert tracer.missing == []
    assert model.attend is original and attention.attend is original
    names = [rec.names[i] for i in rec.arrays()["name"]]
    assert names[0] == "attention.attend"
    assert "numerics.matmul" in names and "numerics.softmax_cols" in names
    assert set(rec.arrays()["parent"][1:]) == {0}
    assert rec.stats["peak_score_entries"] == 9


# --- output checks ----------------------------------------------------------------

def test_perplexity_check_rejects_non_finite():
    assert checks.perplexity_finite(12.5) is None
    for bad in (float("inf"), float("nan"), 0.0):
        assert checks.perplexity_finite(bad)


def test_live_entries_check_rejects_cache_over_capacity():
    assert checks.live_entries_bounded(64, 64) is None
    assert checks.live_entries_bounded(65, 64)


def test_block_size_check_rejects_relative_change_above_1e_9():
    assert checks.block_size_invariant(10.0, 10.0 * (1 + 1e-12)) is None
    assert checks.block_size_invariant(10.0 * (1 + 1e-8), 10.0)


def test_generated_check_rejects_malformed_output():
    prompt = np.arange(8)
    good = np.concatenate([prompt, [3, 4, 5]])
    assert checks.generated_well_formed(good, prompt, 3) is None
    assert checks.generated_well_formed(good[:-1], prompt, 3)
    changed = good.copy()
    changed[0] = 9
    assert checks.generated_well_formed(changed, prompt, 3)
    out_of_vocab = good.copy()
    out_of_vocab[-1] = 256
    assert checks.generated_well_formed(out_of_vocab, prompt, 3)


def test_decode_check_rejects_a_flipped_token():
    teacher = np.array([5, 6, 7, 8])
    assert checks.decode_matches_teacher(teacher.copy(), teacher) is None
    flipped = teacher.copy()
    flipped[2] = 0
    assert checks.decode_matches_teacher(flipped, teacher)


def test_calibration_check_rejects_each_broken_contract():
    before = [np.zeros((2, 3)), np.ones((2, 3))]
    after = [b + 0.1 for b in before]
    ok = dict(fingerprint_before=b"base", fingerprint_after=b"base", kernels_before=before,
              kernels_after=after, losses=[3.0, 2.9], steps=2)
    assert checks.calibration_sound(**ok) is None
    broken = [
        dict(fingerprint_after=b"moved"),
        dict(kernels_after=[after[0], before[1]]),
        dict(kernels_after=after[:1]),
        dict(losses=[3.0, float("nan")]),
        dict(losses=[3.0]),
    ]
    for change in broken:
        assert checks.calibration_sound(**{**ok, **change}), change


# --- metric names -----------------------------------------------------------------

def test_metric_names_and_units_are_well_formed_and_unique():
    names = [m.name for m in END_TO_END + PER_LAYER]
    assert len(names) == len(set(names))
    for m in END_TO_END + PER_LAYER:
        assert NAME.fullmatch(m.name), m.name
        assert UNIT.fullmatch(m.unit), m.unit
        assert m.better in ("higher", "lower")


def test_benchmark_json_lists_the_same_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == [
        (m.name, m.unit, m.better) for m in END_TO_END
    ]
    assert spec["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
    ]
    assert "setup_s" in [m["name"] for m in spec["end_to_end"]]
    for m in spec["end_to_end"]:
        assert 0 < m["bound"] <= 0.25


def test_per_layer_summary_reports_every_per_layer_metric():
    rec = tracing.SpanRecorder()
    layer = tracing.summarize(rec, tokens=1)
    names = {m.name for m in PER_LAYER}
    # the runner adds the output-quality and per-policy rows and the tracing overhead
    traced_policy_calls = {"policies.update.calls", "policies.update.s", "policies.build.calls"}
    added = {n for n in names if n.startswith("policies.")} - traced_policy_calls
    added.add("trace.overhead")
    assert set(layer) == names - added


# --- inputs -----------------------------------------------------------------------

def test_same_seed_gives_byte_identical_inputs():
    assert inputs.training_ids(7).tobytes() == inputs.training_ids(7).tobytes()
    a, b = inputs.held_out(7), inputs.held_out(7)
    assert a.windows.tobytes() == b.windows.tobytes()
    assert a.prompts.tobytes() == b.prompts.tobytes()
    assert inputs.held_out(8).windows.tobytes() != a.windows.tobytes()


def test_inputs_are_recall_documents():
    data = inputs.recall_bytes(np.random.default_rng(0), 5)
    docs = [data[i:i + inputs.DOC_LEN] for i in range(0, len(data), inputs.DOC_LEN)]
    assert len(docs) == 5
    for doc in docs:
        m = re.fullmatch(rb"K:([A-P]{8})\|[a-p]+\|R:([A-P]{8})\n", doc)
        assert m and m.group(1) == m.group(2)
    held = inputs.held_out(0)
    assert held.windows.shape == (inputs.N_WINDOWS, inputs.WINDOW)
    assert held.prompts.shape == (inputs.N_PROMPTS, inputs.PROMPT_LEN)
