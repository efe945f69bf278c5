"""The package makes no assert statements: python -O strips them, so a check
written as one vanishes there.  An AST scan with the standard library only."""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "jtkit"


def assert_lines(path: Path) -> list[int]:
    """The line of each assert statement in path, nested ones included."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return sorted(node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert))


def test_no_assert_statements():
    found = [
        f"{path.relative_to(ROOT)}:{line}" for path in sorted(PACKAGE.rglob("*.py")) for line in assert_lines(path)
    ]
    assert not found, "assert statements, which python -O removes:\n" + "\n".join(found)


def test_scan_sees_nested_asserts(tmp_path):
    src = tmp_path / "sample.py"
    src.write_text(
        "assert True\n"
        "def f(x):\n"
        "    if x:\n"
        "        assert x > 0, 'positive'\n"
        "class C:\n"
        "    def g(self):\n"
        "        return [y for y in range(3) if y]\n"
        "    def h(self):\n"
        "        assert self\n"
        "check = 'assert 1'\n"
    )
    assert assert_lines(src) == [1, 4, 9]
