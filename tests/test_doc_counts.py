"""README.md states how many calls the CLI answer corpus, tests/cli_corpus.json,
holds; the stated number is the number of calls in the file."""

from __future__ import annotations

import json
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
STATED = re.compile(r"`tests/cli_corpus\.json` holds ([\d,]+) CLI calls")


def test_readme_states_the_corpus_call_count():
    readme = " ".join((ROOT / "README.md").read_text().split())
    stated = [int(n.replace(",", "")) for n in STATED.findall(readme)]
    calls = len(json.loads((ROOT / "tests" / "cli_corpus.json").read_text())["calls"])
    assert stated == [calls], f"README.md states {stated} corpus calls, tests/cli_corpus.json holds {calls}"
