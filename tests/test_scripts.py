"""Smoke tests: each script in scripts/ runs from the repository root."""
from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    out = subprocess.run(
        [sys.executable, f"scripts/{name}", *args], cwd=ROOT, capture_output=True, text=True, timeout=300
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip()
    return out.stdout


def test_hadamard_scan():
    lines = run_script("hadamard_scan.py").splitlines()
    assert "  quadric:2 (*) squares              NEGATIVE at (2, 2, 2): -60" in lines


def test_segre_expansion():
    run_script("segre_expansion.py")


def test_build_tables(tmp_path):
    out = run_script("build_tables.py", "--out", str(tmp_path))
    assert out.startswith("wrote ")
    assert any(tmp_path.glob("*.json")) and any(tmp_path.glob("*.csv"))
