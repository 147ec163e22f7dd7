"""The package API the benchmark depends on, and imports that nothing uses.

``benchmarks/`` drives ``convkv`` from outside and traces its functions by
name, so a deletion in ``src/`` can break it without any other test noticing.
"""

import ast
from pathlib import Path

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
