"""Every call of the committed CLI answer corpus, tests/cli_corpus.json,
still gives the recorded exit code, stdout and stderr, with the caches on
and with them off."""

from __future__ import annotations

import json
import os
import subprocess
import sys

from record_cli_corpus import CORPUS, moved

TESTS = CORPUS.parent

# JTKIT_CACHE_SIZE is read once, at import, so the uncached replay runs in a
# child process.
_UNCACHED_REPLAY = """
import json
from jtkit import memo
from record_cli_corpus import CORPUS, moved
changed = [" ".join(argv) for _, argv, _ in moved(json.loads(CORPUS.read_text()))]
print(json.dumps({"cap": memo.CAP, "changed": changed}))
"""


def test_cli_corpus_digests_unchanged():
    corpus = json.loads(CORPUS.read_text())
    assert len(corpus["calls"]) >= 600
    assert all(call["sha256"] for call in corpus["calls"])
    changed = [" ".join(argv) for _, argv, _ in moved(corpus)]
    assert not changed, f"{len(changed)} calls answer differently:\n" + "\n".join(changed)


def test_cli_corpus_replays_with_no_cache():
    path = os.pathsep.join([str(TESTS.parent / "src"), str(TESTS)])
    env = {**os.environ, "JTKIT_CACHE_SIZE": "0", "PYTHONPATH": path}
    out = subprocess.run([sys.executable, "-c", _UNCACHED_REPLAY], capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
    run = json.loads(out.stdout)
    assert run["cap"] == 0
    changed = run["changed"]
    assert not changed, f"{len(changed)} calls answer differently with no cache:\n" + "\n".join(changed)
