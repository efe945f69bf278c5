"""Every call of the committed CLI answer corpus, tests/cli_corpus.json,
still gives the recorded exit code, stdout and stderr."""

from __future__ import annotations

import json

from record_cli_corpus import CORPUS, moved


def test_cli_corpus_digests_unchanged():
    corpus = json.loads(CORPUS.read_text())
    assert len(corpus["calls"]) >= 600
    assert all(call["sha256"] for call in corpus["calls"])
    changed = [" ".join(argv) for _, argv, _ in moved(corpus)]
    assert not changed, f"{len(changed)} calls answer differently:\n" + "\n".join(changed)
