"""One pass of a workload in a fresh interpreter.

    python3 bench/child.py WORKLOAD SEED TRACE VERIFY OUT_JSON

Imports jtkit, generates the pass's ops from the seed (the end of set-up),
runs them as a closed loop with one client, timing each op, and only then
digests the results and, with VERIFY 1, verifies every one of them.  At 25
fixed points between the library ops it times a reference loop that runs no
jtkit, whose times tell how fast the host ran during the pass.  The record written to OUT_JSON carries
time.monotonic() stamps, which share one clock with the parent on Linux.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import time

import jtkit
from workloads import digest, make_ops, run_op, verify

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_POINTS = 25


def reference() -> float:
    """Time a fixed piece of pure-Python work made of dict, str and int
    operations like jtkit's own.  It allocates nothing the garbage collector
    tracks, so what the ops left on the heap cannot change its cost."""
    t0 = time.monotonic()
    d, s = {}, 0
    for i in range(12000):
        key = (i * 7919) & 4095
        d[key] = str(i * i)
        s += len(d.get(key ^ 1, ""))
    return time.monotonic() - t0


def run_library(ops, tracer):
    results, errors, op_s, ref_s = [], [], [], []
    every = -(-len(ops) // REFERENCE_POINTS)
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        t0 = time.monotonic()
        try:
            results.append(run_op(op))
        except Exception as e:  # an op that raises is a failed op, the pass goes on
            results.append(None)
            errors.append((i, f"{type(e).__name__}: {e}"))
        op_s.append(time.monotonic() - t0)
        if i % every == 0:
            ref_s.append(reference())
    return results, errors, {"op_s": op_s, "ref_s": ref_s}


def run_cli(ops, trace_dir):
    """Each op is one subprocess call, issued after the previous returned.
    Traced calls go through traced_cli.py, which writes its own trace."""
    results, op_s, extra = [], [], {"interp_s": [], "import_s": [], "traces": [], "spans": []}
    for i, op in enumerate(ops):
        if trace_dir is None:
            argv = [sys.executable, "-m", "jtkit", *op["argv"]]
        else:
            out = os.path.join(trace_dir, f"call-{i}.json")
            argv = [sys.executable, os.path.join(HERE, "traced_cli.py"), out, *op["argv"]]
        t0 = time.monotonic()
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=120)
        op_s.append(time.monotonic() - t0)
        results.append({"code": proc.returncode, "stdout": proc.stdout})
        if trace_dir is not None:
            with open(out) as fh:
                rec = json.load(fh)
            extra["interp_s"].append(rec["t_first"] - t0)
            extra["import_s"].append(rec["import_s"])
            extra["traces"].append(rec["trace"])
            base = len(extra["spans"])
            extra["spans"].extend(
                [name, start, end, parent + base if parent >= 0 else -1, i] for name, start, end, parent, _ in rec["spans"]
            )
    # no reference: a call's time is mostly process start-up, which the
    # reference loop does not follow
    extra.update(op_s=op_s, ref_s=[])
    return results, [], extra


def main() -> int:
    workload, seed, out_path = sys.argv[1], int(sys.argv[2]), sys.argv[5]
    traced, verified = sys.argv[3] == "1", sys.argv[4] == "1"
    ops = make_ops(workload, seed)
    t_setup = time.monotonic()

    tracer = None
    if traced and workload != "cli":
        from tracing import Tracer

        tracer = Tracer().install()
    if workload == "cli":
        results, errors, extra = run_cli(ops, os.path.dirname(out_path) if traced else None)
        rss_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        results, errors, extra = run_library(ops, tracer)
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        tracer.uninstall()
        extra["traces"] = [tracer.summary()]
        extra["spans"] = tracer.spans

    failures = [(i, f"raised {msg}") for i, msg in errors]
    for i, (op, res) in enumerate(zip(ops, results)):
        if verified and res is not None:
            problem = verify(op, res)
            if problem:
                failures.append((i, problem))
    record = {
        "jtkit_file": jtkit.__file__,
        "t_setup": t_setup,
        "rss_kib": rss_kib,
        "attempted": len(ops),
        "failed_ops": len({i for i, _ in failures}),
        "failures": [f"op {i} ({ops[i]['op']}): {msg}" for i, msg in failures[:20]],
        "digest": digest(results),
        **extra,
    }
    with open(out_path, "w") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
