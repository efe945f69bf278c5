"""Every Python file of the package, the tests, the scripts and the docs
parses as Python 3.10, the oldest version that requires-python in
pyproject.toml admits.  This checks syntax only: nothing here runs the code
under 3.10."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PARSED = ("src/jtkit", "tests", "scripts", "docs")
OLDEST = (3, 10)


def syntax_errors(paths) -> list[str]:
    out = []
    for path in paths:
        try:
            ast.parse(path.read_text(), str(path), feature_version=OLDEST)
        except SyntaxError as e:
            out.append(f"{path.relative_to(ROOT)}:{e.lineno} {e.msg}")
    return out


def test_sources_parse_as_the_oldest_supported_python():
    assert 'requires-python = ">=3.10"' in (ROOT / "pyproject.toml").read_text()
    paths = sorted(path for top in PARSED for path in (ROOT / top).rglob("*.py"))
    assert {path.relative_to(ROOT).parts[0] for path in paths} == {"src", "tests", "scripts", "docs"}
    assert syntax_errors(paths) == []


def test_newer_syntax_is_caught():
    """except* is 3.11 syntax: this interpreter parses it, 3.10 does not."""
    source = "try:\n    pass\nexcept* ValueError:\n    pass\n"
    ast.parse(source)
    with pytest.raises(SyntaxError):
        ast.parse(source, feature_version=OLDEST)
