"""Every imported name is used: an AST scan of the package, the tests and the
scripts, with the standard library only.

A name counts as used when some expression in the scope that imported it,
or in a function nested there that does not import the name itself, loads
it.  The package's __init__ re-exports its imports, and __future__ imports
are directives, so neither is scanned.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("src/jtkit", "tests", "scripts")
REEXPORTS = ROOT / "src" / "jtkit" / "__init__.py"
SCOPES = (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def _bound_names(node) -> list[str]:
    if isinstance(node, ast.ImportFrom) and node.module == "__future__":
        return []
    return [a.asname or a.name.split(".")[0] for a in node.names if a.name != "*"]


def _direct_children(scope):
    """The nodes of scope's own body, not descending into nested scopes."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, SCOPES):
            stack.extend(ast.iter_child_nodes(node))


def unused_imports(path: Path) -> list[tuple[int, str]]:
    """(line, name) for each name that path imports and never uses."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imports: dict[ast.AST, dict[str, int]] = {}
    used: set[tuple[ast.AST, str]] = set()

    def visit(scope, enclosing):
        own = imports.setdefault(scope, {})
        for node in _direct_children(scope):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for name in _bound_names(node):
                    own.setdefault(name, node.lineno)
        chain = [scope] + enclosing
        for node in _direct_children(scope):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                owner = next((s for s in chain if node.id in imports[s]), None)
                if owner is not None:
                    used.add((owner, node.id))
            elif isinstance(node, SCOPES):
                # a class body is not an enclosing scope of its methods
                visit(node, enclosing if isinstance(scope, ast.ClassDef) else chain)

    visit(tree, [])
    return sorted(
        (line, name)
        for scope, names in imports.items()
        for name, line in names.items()
        if (scope, name) not in used and not (path == REEXPORTS and scope is tree)
    )


def test_no_unused_imports():
    found = []
    for folder in SCANNED:
        for path in sorted((ROOT / folder).rglob("*.py")):
            found += [f"{path.relative_to(ROOT)}:{line}: {name}" for line, name in unused_imports(path)]
    assert not found, "imported but never used:\n" + "\n".join(found)


def test_scan_sees_shadowing_and_nesting(tmp_path):
    src = tmp_path / "sample.py"
    src.write_text(
        "from __future__ import annotations\n"
        "import os\n"
        "from math import comb, gcd\n"
        "import json as js\n"
        "def f():\n"
        "    from math import comb\n"
        "    return comb(3, 1)\n"
        "def g():\n"
        "    def h():\n"
        "        return gcd(4, 2)\n"
        "    return h\n"
        "class C:\n"
        "    import sys\n"
        "    x = sys.maxsize\n"
    )
    assert unused_imports(src) == [(2, "os"), (3, "comb"), (4, "js")]
