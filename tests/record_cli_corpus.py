"""Record the CLI answer corpus, tests/cli_corpus.json.

Each call of the corpus is an argv for ``jtkit.cli.run``, stored with one
sha256 of its (exit code, stdout, stderr); tests/test_cli_corpus.py replays
every call and names the ones whose digest moved.

    python tests/record_cli_corpus.py           # list the calls whose answer moved
    python tests/record_cli_corpus.py --write   # re-record them and fill in new calls

A new call is added to the file by hand with "sha256": null; --write records
it.  The rules for moving a digest are in the file's "rules".
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

CORPUS = Path(__file__).resolve().parent / "cli_corpus.json"


def call_digest(argv: list[str]) -> str:
    """sha256 of the JSON list [exit code, stdout, stderr] of one in-process
    jtkit.cli.run call.  argparse wraps help and usage to the terminal's
    width, so the call runs at 80 columns, the width of a run without one."""
    from jtkit.cli import run

    out, err = io.StringIO(), io.StringIO()
    columns = os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = "80"
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(list(argv))
    finally:
        if columns is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = columns
    text = json.dumps([code, out.getvalue(), err.getvalue()])
    return hashlib.sha256(text.encode()).hexdigest()


def moved(corpus: dict) -> list[tuple[int, list[str], str]]:
    """(index, argv, new digest) of every call whose digest differs from the
    recorded one, or has none yet."""
    out = []
    for i, call in enumerate(corpus["calls"]):
        got = call_digest(call["argv"])
        if got != call["sha256"]:
            out.append((i, call["argv"], got))
    return out


def main(argv: list[str]) -> int:
    corpus = json.loads(CORPUS.read_text())
    changes = moved(corpus)
    for i, call, _ in changes:
        shown = " ".join(a if len(a) <= 60 else a[:57] + "..." for a in call)
        print(f"{i}: {shown}")
    if "--write" in argv:
        for i, _, got in changes:
            corpus["calls"][i]["sha256"] = got
        CORPUS.write_text(json.dumps(corpus, indent=1) + "\n")
        print(f"recorded {len(changes)} of {len(corpus['calls'])} calls")
    else:
        print(f"{len(changes)} of {len(corpus['calls'])} calls moved")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(CORPUS.parent.parent / "src"))
    sys.exit(main(sys.argv[1:]))
