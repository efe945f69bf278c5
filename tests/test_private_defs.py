"""Every private module-level function, class and constant of the package is
used: an AST scan with the standard library only.

A definition counts as used when some other top-level statement of the
package, in any module, loads its name, reads it as an attribute or imports
it.  A use inside the definition itself, such as a recursive call, does not
count.  A constant is a module-level assignment to a name such as _NAME,
upper case after the underscore.

A defaulted parameter of a private module-level function is used when some
call in the package passes it, by keyword or by position; a starred
argument passes every position and a double-starred one every keyword.
Private methods are left out.

A public non-dunder method of a package class is used when the package,
scripts/ or bench/ reads its name as an attribute outside the method's own
body.  The scan does not know types, so any attribute of the same name
counts.  Dunder methods are left out, since syntax calls them and not an
attribute read.
"""

from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "jtkit"
READERS = (PACKAGE, ROOT / "scripts", ROOT / "bench")
FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)
DEFS = FUNCS + (ast.ClassDef,)
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


def _called_name(call) -> str | None:
    """The name a call calls, bare or as an attribute; None for any other
    callee."""
    func = call.func
    return func.id if isinstance(func, ast.Name) else func.attr if isinstance(func, ast.Attribute) else None


def _passes(call, index, name) -> bool:
    """Whether call passes the parameter name, whose position is index, or
    None for a keyword-only parameter."""
    keywords = {k.arg for k in call.keywords}
    if None in keywords or name in keywords:
        return True
    return index is not None and (len(call.args) > index or any(isinstance(a, ast.Starred) for a in call.args))


def unpassed_private_defaults(paths) -> list[tuple[Path, int, str, str]]:
    """(path, line, function, parameter) for each defaulted parameter of a
    private module-level function in paths that no call in paths passes."""
    funcs, calls = [], {}
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        funcs.extend((path, node) for node in tree.body if isinstance(node, FUNCS) and _defined_names(node))
        for sub in ast.walk(tree):
            if isinstance(sub, ast.Call):
                calls.setdefault(_called_name(sub), []).append(sub)
    found = []
    for path, node in funcs:
        args = node.args
        positional = args.posonlyargs + args.args
        first = len(positional) - len(args.defaults)
        defaulted = [(i, a.arg) for i, a in enumerate(positional) if i >= first]
        defaulted += [(None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
        found.extend(
            (path, node.lineno, node.name, name)
            for i, name in defaulted
            if not any(_passes(call, i, name) for call in calls.get(node.name, ()))
        )
    return found


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


def test_no_private_default_that_no_call_passes():
    found = unpassed_private_defaults(sorted(PACKAGE.rglob("*.py")))
    lines = [f"{path.relative_to(ROOT)}:{line}: {func}({name}=...)" for path, line, func, name in found]
    assert not lines, "defaulted parameters that no call passes:\n" + "\n".join(lines)


def test_default_scan_sees_positions_keywords_and_stars(tmp_path):
    lib = tmp_path / "lib.py"
    lib.write_text(
        "def _never(a, b=1):\n"
        "    pass\n"
        "def _by_position(a, b=1, c=2):\n"
        "    pass\n"
        "def _by_keyword(a, *, b=1, c=2):\n"
        "    pass\n"
        "def _starred(a, b=1):\n"
        "    pass\n"
        "def _double_starred(a, *, b=1):\n"
        "    pass\n"
        "def _recursive(n, acc=0):\n"
        "    return _recursive(n - 1, acc + n) if n else acc\n"
        "def public(a=1):\n"
        "    def _inner(b=2):\n"
        "        pass\n"
        "class _Holder:\n"
        "    def _method(self, c=3):\n"
        "        pass\n"
        "_never(0)\n"
        "_by_position(0, 1)\n"
        "_by_keyword(0, b=1)\n"
        "_starred(*[0, 1])\n"
    )
    user = tmp_path / "user.py"
    user.write_text("import lib\nlib._double_starred(0, **{})\nlib._recursive(3)\n")
    found = unpassed_private_defaults([lib, user])
    assert [(line, func, name) for _, line, func, name in found] == [
        (1, "_never", "b"),
        (3, "_by_position", "c"),
        (5, "_by_keyword", "c"),
    ]


# Public methods that nothing in READERS reads, each kept for the caller or
# the README mention named.
KEPT_METHODS = {
    "TruncSeries.monomial": "README, Design notes: monomials are the small dicts the checked constructor takes",
    "TruncSeries.univariate": "tests/test_powerseries.py, the one-variable series of the inverse round trip",
    "TruncSeries.coefficient": "tests/oracles.py, multigraded_hs_report",
    "TruncSeries.constant": "tests/oracles.py, inverse_geometric and series_div_tuples",
    "SchurClass.coefficient": "tests/test_acceptance.py, the coefficients of class minors",
    "TruncSeries.univariate_coeffs": "tests/oracles.py, purity_by_series",
    "SkewShape.cells": "tests/oracles.py, attach_by_boxes",
}


def _attribute_reads(node) -> Counter:
    """How many times node reads each attribute name."""
    return Counter(s.attr for s in ast.walk(node) if isinstance(s, ast.Attribute) and isinstance(s.ctx, ast.Load))


def unread_public_methods(package, readers) -> list[tuple[Path, int, str]]:
    """(path, line, "Class.method") for each public non-dunder method of a
    class in package whose name no file of readers reads as an attribute
    outside the method itself; readers must include package."""
    reads = Counter()
    for path in readers:
        reads.update(_attribute_reads(ast.parse(path.read_text(), filename=str(path))))
    found = []
    for path in package:
        for cls in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(cls, ast.ClassDef):
                found.extend(
                    (path, node.lineno, f"{cls.name}.{node.name}")
                    for node in cls.body
                    if isinstance(node, FUNCS)
                    and not node.name.startswith("_")
                    and reads[node.name] == _attribute_reads(node)[node.name]
                )
    return found


def test_every_public_method_is_read():
    package = sorted(PACKAGE.rglob("*.py"))
    readers = sorted(path for folder in READERS for path in folder.rglob("*.py"))
    found = unread_public_methods(package, readers)
    unread = [f"{path.relative_to(ROOT)}:{line}: {name}" for path, line, name in found if name not in KEPT_METHODS]
    assert not unread, "public methods that nothing reads:\n" + "\n".join(unread)
    # a kept method that something now reads leaves the list
    assert sorted(name for _, _, name in found) == sorted(KEPT_METHODS)


def test_method_scan_sees_reads_outside_the_method(tmp_path):
    lib = tmp_path / "lib.py"
    lib.write_text(
        "class Value:\n"
        "    def unread(self):\n"
        "        pass\n"
        "    def recursive(self, n):\n"
        "        return self.recursive(n - 1) if n else 0\n"
        "    def called(self):\n"
        "        return self.helper()\n"
        "    def helper(self):\n"
        "        pass\n"
        "    @property\n"
        "    def prop(self):\n"
        "        pass\n"
        "    @classmethod\n"
        "    def make(cls):\n"
        "        pass\n"
        "    def stored(self):\n"
        "        pass\n"
        "    def _private(self):\n"
        "        pass\n"
        "    def __len__(self):\n"
        "        return 0\n"
        "def function():\n"
        "    pass\n"
        "Value().stored = 1\n"
    )
    user = tmp_path / "user.py"
    user.write_text("import lib\nlib.Value.make().prop\nlib.Value().called()\n")
    found = unread_public_methods([lib], [lib, user])
    assert [(line, name) for _, line, name in found] == [
        (2, "Value.unread"),
        (4, "Value.recursive"),
        (16, "Value.stored"),
    ]
