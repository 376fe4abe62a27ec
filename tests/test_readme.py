"""The README's python examples run, and every line commented `# True` holds."""
from __future__ import annotations

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _claims_true(line: str) -> bool:
    return line.partition("#")[2].strip().startswith("True")


def test_python_blocks_run_in_one_namespace_and_their_true_lines_hold():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert blocks
    namespace: dict = {}
    checked = claimed = 0
    for block in blocks:
        lines = block.splitlines()
        claimed += sum(map(_claims_true, lines))
        for stmt in ast.parse(block).body:
            if isinstance(stmt, ast.Expr) and _claims_true(lines[stmt.end_lineno - 1]):
                value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
                assert value is True, lines[stmt.lineno - 1]
                checked += 1
            else:
                exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
    assert checked == claimed > 0
