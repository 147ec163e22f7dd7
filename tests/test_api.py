"""The package API the benchmark depends on, and imports that nothing uses.

``benchmarks/`` drives ``convkv`` from outside and traces its functions by
name, so a deletion in ``src/`` can break it without any other test noticing,
and a refactor that stops calling a traced entry point silently zeroes the
per-policy figures.
"""

import ast
import dataclasses
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import convkv

ROOT = Path(__file__).resolve().parents[1]
BENCHMARKS = ROOT / "benchmarks"
PACKAGE = ROOT / "src" / "convkv"


def test_every_traced_benchmark_target_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    import tracing

    with tracing.Tracer(tracing.SpanRecorder()) as tracer:
        pass
    assert tracer.missing == []


# the spans that tell the benchmark which eviction or merge a policy ran
POLICY_SPANS = {
    "concat": set(),
    "h2o": {"cache.update_h2o"},
    "sink_window": {"cache.update_sink_window"},
    "lococo": {"compressor.synthesize_weights"},
    "lococo+h2o": {"compressor.synthesize_weights"},
    "lococo+sink": {"compressor.synthesize_weights"},
}


@pytest.mark.parametrize("policy", sorted(POLICY_SPANS))
def test_each_policy_runs_under_its_traced_entry_point(monkeypatch, policy):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    import tracing

    params = convkv.ModelParams.init(convkv.ModelConfig(n_heads=1, head_dim=8))
    spec = convkv.PolicySpec(policy, capacity=6, n_sink=2, reserved=2)
    if spec.needs_conv_head:
        params.install_conv_heads(slots=spec.merge_slots, kernel_size=3, seed=0)
    rec = tracing.SpanRecorder()
    rec.begin_op(tracing.WORKLOAD)
    with tracing.Tracer(rec):
        convkv.forward_segmented(params, np.arange(16), spec, 2)
    traced = {rec.names[i] for i in rec.name} & set().union(*POLICY_SPANS.values())
    assert traced == POLICY_SPANS[policy]
    assert (rec.stats["evicted_cols"] > 0) == (policy in ("h2o", "sink_window"))


# what the benchmark's calibrate figures are read from
CALIBRATION_SPANS = {
    "model.sequence_loss",
    "numerics.backward",
    "training.adam_step",
    "compressor.synthesize_weights",
}


def test_calibration_runs_under_the_spans_the_benchmark_traces(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    import tracing

    params = convkv.ModelParams.init(convkv.ModelConfig(n_heads=1, head_dim=8))
    spec = convkv.PolicySpec("lococo", capacity=8)
    cfg = convkv.TrainConfig(steps=1, batch_size=2, context_length=16)
    rec = tracing.SpanRecorder()
    rec.begin_op(tracing.WORKLOAD)
    with tracing.Tracer(rec):
        convkv.calibrate_conv_heads(params, np.arange(64), spec, 4, cfg, kernel_size=3)
    calls = Counter(rec.names[i] for i in rec.name)
    assert CALIBRATION_SPANS <= set(calls)
    # one merge serves both layers and both sequences of the batch: of the merges
    # after blocks 3 and 4 of 4, the last is never read and is not run
    assert calls["compressor.synthesize_weights"] == 1


def test_merge_statistics_match_a_full_width_scatter(monkeypatch):
    # a lococo+h2o merge of two sequences: the first keeps two cache columns,
    # the second two block columns, so the block/cache split differs by row
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    import tracing

    rng = np.random.default_rng(0)
    n, d, cached, b, heavy = 2, 4, 6, 3, 2
    scores = np.zeros((n, cached + b))
    scores[0, [1, 3]] = scores[1, [cached, cached + 2]] = 1.0
    kept = convkv.KeepRule(heavy=heavy).keep(cached + b, n, scores)
    rest = np.ones_like(scores, dtype=bool)
    rest[np.arange(n)[:, None], kept] = False
    merged = np.concatenate([rest[:, cached:], rest[:, :cached]], 1)  # block first
    head = convkv.new_conv_head(d, cached - heavy, kernel_size=3, rng=rng)
    both = rng.standard_normal((n, 2 * d, b + cached))  # keys over values, block first
    cols = np.nonzero(merged)[1].reshape(n, -1)
    picked = convkv.Tensor2(np.take_along_axis(both, cols[:, None], -1))
    result = convkv.synthesize_weights(picked, cols < b, [head])
    assert result.from_block.sum(axis=1).tolist() == [3, 1]
    rec = tracing.SpanRecorder()
    tracing._observe_weights(rec, convkv.synthesize_weights, (), {}, result)

    full = np.zeros((n, head.slots, b + cached))
    for s in range(n):
        full[s][:, merged[s]] = result.weights.data[s]
    rows = full.reshape(-1, b + cached)
    logs = np.log(rows, out=np.zeros_like(rows), where=rows > 0)
    assert rec.stats["slot_rows"] == n * head.slots
    assert abs(rec.stats["new_share_sum"] - rows[:, :b].sum()) < 1e-12
    assert abs(rec.stats["entropy_exp_sum"] - np.exp(-(rows * logs).sum(axis=1)).sum()) < 1e-12


def _rules(policy: str, knob: str, values) -> set[tuple[int, int, int]]:
    """The budgets of every rule ``policy`` accepts at capacity 8 with ``knob`` set to a value."""
    budgets = set()
    for value in values:
        try:
            rule = convkv.PolicySpec(policy, **{"capacity": 8, knob: value}).rule
        except convkv.CacheError:
            continue
        budgets.add((rule.n_sink, rule.recent, rule.heavy))
    return budgets


def test_every_policy_knob_can_change_a_rule():
    # a field that one value alone passes, or whose values all give one rule,
    # is no knob: its value follows from the others
    for field in dataclasses.fields(convkv.PolicySpec):
        if field.init and field.name != "name":
            values = (field.default, 1, 2, 3, 4, 6)
            changed = [p for p in convkv.POLICY_NAMES if len(_rules(p, field.name, values)) > 1]
            assert changed, field.name


def test_every_name_the_benchmark_uses_exists():
    tree = ast.parse((BENCHMARKS / "workloads.py").read_text())
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "convkv"
        for alias in node.names
    }
    called = {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name) and node.value.id == "convkv"
    }
    assert imported and called
    assert sorted(n for n in imported | called if not hasattr(convkv, n)) == []


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound, trees = set(), [tree]
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (
            isinstance(node, ast.ImportFrom) and node.module != "__future__"
        ):
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        # a quoted annotation such as -> "GradTape | None" uses names too
        annotation = getattr(node, "annotation", None) or getattr(node, "returns", None)
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            trees.append(ast.parse(annotation.value, mode="eval"))
    used = {n.id for t in trees for n in ast.walk(t) if isinstance(n, ast.Name)}
    return sorted(bound - used)


@pytest.mark.parametrize(
    "module", sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
)
def test_no_module_imports_a_name_it_never_uses(module):
    assert _unused_imports((PACKAGE / module).read_text()) == []


def test_unused_import_scan_sees_an_unused_name():
    source = "from dataclasses import dataclass, field\n\n@dataclass\nclass A:\n    x: 'B'\n"
    assert _unused_imports(source) == ["field"]


# defined for ROADMAP item 2 (the eval trace CSV and the attention peak), which
# gives them their program callers
AWAITING_CALLERS = {"write_csv", "peak_attn_entries"}


def _defined_names(source: str) -> set[str]:
    """Every function and class a module defines, nested ones too; dunders are
    called by the language, not by name."""
    return {
        node.name for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("__")
    }


def _referenced_names(source: str) -> set[str]:
    refs = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
    return refs


def _uncalled(defined: set[str], sources: list[str], dotted: list[str]) -> list[str]:
    refs = set().union(*map(_referenced_names, sources), *(path.split(".") for path in dotted))
    return sorted(defined - refs)


def test_every_name_src_defines_has_a_program_caller(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    import tracing

    defined = set().union(*(_defined_names(p.read_text()) for p in PACKAGE.glob("*.py")))
    # a re-export in the package's __init__ is not a caller
    callers = [p for d in ("src", "benchmarks", "tools") for p in sorted((ROOT / d).rglob("*.py"))
               if p != PACKAGE / "__init__.py"]
    dotted = [path for _, _, path, _ in tracing.TARGETS]
    assert _uncalled(defined, [p.read_text() for p in callers], dotted) == sorted(AWAITING_CALLERS)


def test_caller_scan_sees_an_unused_def():
    defined = _defined_names("def used():\n    pass\n\n\nclass Planted:\n    def method(self):\n        pass\n")
    caller = "used()\nobj.method()\n"
    assert _uncalled(defined, [caller], []) == ["Planted"]
    assert _uncalled(defined, [caller], ["module.Planted.run"]) == []
