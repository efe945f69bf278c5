"""The docs cite only private names the package defines: a scan of README.md
and docs/*.md with the standard library only.

A citation is a private name in backticks, alone, after a module path or
with call arguments: `_name`, `module._name`, `_name(args)`.  It is
defined when some module of src/jtkit binds it at module level, by a
function or class definition or by an assignment.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "jtkit"
CITED = re.compile(r"`(?:\w+\.)*(_(?!_)\w*)(?:\([^`]*\))?`")


def module_level_names(paths) -> set[str]:
    """The names that the top-level statements of paths define or assign."""
    out = set()
    for path in paths:
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                out.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    out.update(sub.id for sub in ast.walk(target) if isinstance(sub, ast.Name))
    return out


def undefined_citations(docs, defined: set[str]) -> list[tuple[Path, int, str]]:
    """(path, line, name) for each private name cited in docs that is not in
    defined."""
    found = []
    for path in docs:
        for number, line in enumerate(path.read_text().splitlines(), start=1):
            found.extend((path, number, name) for name in CITED.findall(line) if name not in defined)
    return found


def test_docs_cite_only_defined_private_names():
    defined = module_level_names(sorted(PACKAGE.rglob("*.py")))
    docs = [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]
    lines = [f"{path.relative_to(ROOT)}:{line}: {name}" for path, line, name in undefined_citations(docs, defined)]
    assert not lines, "private names cited in the docs that src/jtkit does not define:\n" + "\n".join(lines)


def test_scan_sees_definitions_and_citation_forms(tmp_path):
    lib = tmp_path / "lib.py"
    lib.write_text(
        "def _helper():\n"
        "    _inner = 1\n"
        "class _Box:\n"
        "    _field = 2\n"
        "_CACHE: dict = {}\n"
        "_A, (_B, _C) = 1, (2, 3)\n"
    )
    defined = module_level_names([lib])
    assert defined == {"_helper", "_Box", "_CACHE", "_A", "_B", "_C"}
    doc = tmp_path / "doc.md"
    doc.write_text(
        "`_helper`, `lib._Box`, `_CACHE` and `_B(1)`\n"
        "`_gone`, `mod._gone2`, `_gone3(x, y)` and `_inner`\n"
        "`__post_init__`, `public` and _bare_name\n"
    )
    found = undefined_citations([doc], defined)
    assert [(line, name) for _, line, name in found] == [(2, "_gone"), (2, "_gone2"), (2, "_gone3"), (2, "_inner")]
