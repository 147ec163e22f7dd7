"""List the lines of ``src/convkv`` that the tests never run.

    PYTHONPATH=src python tools/unhit_lines.py [pytest args]

Runs pytest in-process under ``sys.settrace`` and ``threading.settrace``,
then compares the lines hit in each module with the lines its code objects
list (``co_lines``), leaving out docstrings and the ``if __name__ ==
"__main__"`` block. Prints each unhit line as ``path:line: text`` and exits
1 if there are any. Run it from the repository root; it needs only the
standard library and pytest, and takes about four times as long as the
plain test run.
"""

import ast
import sys
import threading
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "convkv"


def _code_lines(code) -> set[int]:
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def _skipped_lines(tree: ast.Module) -> set[int]:
    """Docstrings and the ``if __name__ == "__main__"`` block."""
    skipped = set()
    for node in ast.walk(tree):
        body = getattr(node, "body", None)
        if isinstance(body, list) and body and isinstance(body[0], ast.Expr) \
                and isinstance(body[0].value, ast.Constant) and isinstance(body[0].value.value, str):
            skipped |= set(range(body[0].lineno, body[0].end_lineno + 1))
        if isinstance(node, ast.If) and "__name__" in ast.unparse(node.test):
            skipped |= set(range(node.lineno, node.end_lineno + 1))
    return skipped


def main(argv: list[str]) -> int:
    hits: set[tuple[str, int]] = set()

    def trace(frame, event, arg):
        if not frame.f_code.co_filename.startswith(str(SRC)):
            return None
        hits.add((frame.f_code.co_filename, frame.f_lineno))
        return trace

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", *argv])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    unhit = []
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        tree = ast.parse(text)
        lines = _code_lines(compile(tree, str(path), "exec")) - _skipped_lines(tree)
        source = text.splitlines()
        unhit += [f"{path}:{n}: {source[n - 1].strip()}" for n in sorted(lines)
                  if (str(path), n) not in hits]
    for line in unhit:
        print(line)
    print(f"{len(unhit)} unhit lines in {SRC.name}; pytest exit status {status}")
    return 1 if unhit or status else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
