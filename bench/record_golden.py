"""Record the result digests that bench/run.py checks each seed against.

    python3 bench/record_golden.py

Runs one untraced pass of every workload for seeds 0-31 against this tree's
src/ and writes their digests to bench/golden.json, replacing the file.
Record only from a commit whose answers are trusted: a later change to jtkit
must reproduce these digests exactly.
"""

from __future__ import annotations

import json
import sys
import tempfile

from run import HERE, ROOT, WORKLOADS, run_pass

SEEDS = range(32)


def main() -> int:
    golden = {}
    with tempfile.TemporaryDirectory(prefix=".bench-tmp-", dir=ROOT) as tmp:
        for workload in WORKLOADS:
            for seed in SEEDS:
                rec = run_pass(workload, seed, tmp, verified=True)
                if rec["failed_ops"]:
                    print(f"{workload} seed {seed}: {rec['failures']}", file=sys.stderr)
                    return 1
                golden.setdefault(workload, {})[str(seed)] = rec["digest"]
                print(f"{workload} {seed} {rec['digest'][:16]}", flush=True)
    (HERE / "golden.json").write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
