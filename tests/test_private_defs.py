"""Every private module-level function, class and constant of the package is
used: an AST scan with the standard library only.

A definition counts as used when some other top-level statement of the
package, in any module, loads its name, reads it as an attribute or imports
it.  A use inside the definition itself, such as a recursive call, does not
count.  A constant is a module-level assignment to a name such as _NAME,
upper case after the underscore.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "jtkit"
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
CONSTANT = re.compile(r"_[A-Z][A-Z0-9_]*")


def _loaded_names(node) -> set[str]:
    """The names node loads, the attributes it reads and the names it imports."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name)
    return out


def _defined_names(node) -> list[str]:
    """The private function, class or constant names that node defines."""
    if isinstance(node, DEFS):
        return [node.name] if node.name.startswith("_") and not node.name.startswith("__") else []
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [t.id for t in targets if isinstance(t, ast.Name) and CONSTANT.fullmatch(t.id)]
    return []


def unreferenced_private_defs(paths) -> list[tuple[Path, int, str]]:
    """(path, line, name) for each private module-level function, class or
    constant in paths that no other top-level statement of paths
    references."""
    defs, uses = [], []
    for path in paths:
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            defs.extend((path, node, name) for name in _defined_names(node))
            uses.append((node, _loaded_names(node)))
    return [
        (path, node.lineno, name)
        for path, node, name in defs
        if not any(name in names for other, names in uses if other is not node)
    ]


def test_no_unreferenced_private_definitions():
    found = unreferenced_private_defs(sorted(PACKAGE.rglob("*.py")))
    lines = [f"{path.relative_to(ROOT)}:{line}: {name}" for path, line, name in found]
    assert not lines, "private definitions that nothing references:\n" + "\n".join(lines)


def test_scan_sees_imports_attributes_and_self_use(tmp_path):
    lib = tmp_path / "lib.py"
    lib.write_text(
        "def _recursive(n):\n"
        "    return _recursive(n - 1) if n else 0\n"
        "def _imported():\n"
        "    pass\n"
        "def _read():\n"
        "    pass\n"
        "class _Unused:\n"
        "    def _method(self):\n"
        "        pass\n"
        "def __dunder__():\n"
        "    pass\n"
        "def _stored():\n"
        "    pass\n"
        "x = y = None\n"
        "x._stored = 1\n"
        "_READ = 1\n"
        "_UNREAD: int = 2\n"
        "_SELF = _SELF_TOO = 3\n"
        "_lower = 4\n"
        "def _reader():\n"
        "    return _READ\n"
    )
    user = tmp_path / "user.py"
    user.write_text("from lib import _imported\nimport lib\nvalue = lib._read\nother = lib._reader\n")
    found = unreferenced_private_defs([lib, user])
    assert [(line, name) for _, line, name in found] == [
        (1, "_recursive"),
        (7, "_Unused"),
        (12, "_stored"),
        (17, "_UNREAD"),
        (18, "_SELF"),
        (18, "_SELF_TOO"),
    ]
