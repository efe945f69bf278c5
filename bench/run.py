"""jtkit benchmark: one workload, one seed, one result line.

    python3 bench/run.py --workload scan|class|tables|cli --seed N --seconds S --trace 0|1

Runs passes of the workload, each in a fresh interpreter against this
tree's src/, until S seconds have gone by (the cli workload also until it
has made enough calls for a 90th percentile with ten calls beyond it).  With
--trace 1 it then runs one more pass with span wrappers installed and
reports the per-layer metrics.  The first pass's results are verified, and
every other pass must give the same result digest; the last line of stdout
is the JSON result, and the exit code is 0 only when every op passed.  See
bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPAN_DIR = ROOT / ".bench_out"

WORKLOADS = ("scan", "class", "tables", "cli")
MIN_CLI_CALLS = 110
# The reference loop of child.py takes this long on the 2-core Xeon the
# benchmark was defined on, in a quiet period of the host; wall_s is given
# in seconds of that host at that speed (see bench/README.md).
REFERENCE_QUIET_S = 0.0033
PASS_TIMEOUT_S = 150

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MiB"}
PER_LAYER = {
    "determinant.det_expand.calls": "count",
    "determinant.det_expand.self_s": "s",
    "determinant.det_expand.max_order": "count",
    "determinant.det_bareiss.calls": "count",
    "determinant.det_bareiss.self_s": "s",
    "symfunc.class_mul.calls": "count",
    "symfunc.class_mul.self_s": "s",
    "symfunc.mult_one.calls": "count",
    "symfunc.mult_one.self_s": "s",
    "symfunc.mult_one.distinct_ratio": "ratio",
    "symfunc.lr_coefficient.self_s": "s",
    "symfunc.dim_super.self_s": "s",
    "symfunc.dim_gl_skew.self_s": "s",
    "sequences.jt_minor.calls": "count",
    "sequences.jt_minor.self_s": "s",
    "sequences.e_class.calls": "count",
    "sequences.e_class.self_s": "s",
    "sequences.pf_check.self_s": "s",
    "sequences.pf_check.minors_checked": "count",
    "sequences.pf_check.vanished_ratio": "ratio",
    "sequences.term.calls": "count",
    "sequences.term.distinct_ratio": "ratio",
    "shapes.scan_partitions.self_s": "s",
    "shapes.subpartitions.self_s": "s",
    "powerseries.mul.calls": "count",
    "powerseries.mul.pairs": "count",
    "powerseries.mul.self_s": "s",
    "powerseries.inverse.calls": "count",
    "powerseries.inverse.self_s": "s",
    "quadric.quadric_schur_dim.jt.self_s": "s",
    "quadric.quadric_schur_dim.vertical_strip.self_s": "s",
    "quadric.quadric_schur_dim.super.self_s": "s",
    "quadric.multigraded_hs_check.self_s": "s",
    "quadric.orthogonal_stable_decomposition.self_s": "s",
    "resolutions.validate_purity.self_s": "s",
    "resolutions.quadric_pure_resolution.self_s": "s",
    "resolutions.rnc_pure_resolution.self_s": "s",
    "resolutions.hk_solve.self_s": "s",
    "zelevinsky.jt_complex_layout.self_s": "s",
    "zelevinsky.jt_complex_layout.terms": "count",
    "cli.interp_s": "s",
    "cli.import_s": "s",
    "cli.run.self_s": "s",
    "cli.call_p50_ms": "ms",
    "cli.call_p90_ms": "ms",
    "trace.overhead_s": "s",
}

# The traced pass fails when a function the workload is built to exercise
# records no calls (a wrapper on the wrong binding), or a bypassed one does.
EXPECTED_CALLS = {
    "scan": ("determinant.det_bareiss", "sequences.jt_minor", "sequences.pf_check", "shapes.scan_partitions",
             "shapes.subpartitions", "sequences.term"),
    "class": ("determinant.det_expand", "symfunc.class_mul", "symfunc.mult_one", "sequences.e_class",
              "sequences.jt_minor", "zelevinsky.jt_complex_layout", "sequences.pf_check"),
    "tables": ("symfunc.dim_super", "symfunc.lr_coefficient", "symfunc.dim_gl_skew", "powerseries.mul",
               "powerseries.inverse", "quadric.quadric_schur_dim.jt", "quadric.quadric_schur_dim.vertical_strip",
               "quadric.quadric_schur_dim.super", "quadric.multigraded_hs_check",
               "quadric.orthogonal_stable_decomposition", "resolutions.validate_purity",
               "resolutions.quadric_pure_resolution", "resolutions.rnc_pure_resolution", "resolutions.hk_solve"),
    "cli": ("cli.run", "sequences.pf_check", "sequences.jt_minor", "resolutions.validate_purity"),
}
BYPASSED = {
    "scan": ("determinant.det_expand", "symfunc.class_mul"),
    "class": (),
    "tables": ("determinant.det_expand",),
    "cli": (),
}


def pinned_env() -> dict:
    """What every pass process sees: this tree's src/ and nothing else on
    the path, a fixed hash seed, no cache-size override (it changes what
    jtkit memoises), and bytecode caching on, as for an installed package,
    so that set-up does not include compiling jtkit."""
    env = dict(os.environ)
    env.pop("JTKIT_CACHE_SIZE", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_pass(workload: str, seed: int, tmp: str, traced: bool = False, verified: bool = False) -> dict:
    """One pass in a fresh interpreter; tmp holds its record and call traces."""
    out = os.path.join(tempfile.mkdtemp(dir=tmp), "record.json")
    argv = [sys.executable, str(HERE / "child.py"), workload, str(seed), str(int(traced)), str(int(verified)), out]
    t_spawn = time.monotonic()
    # its own process group, so a timeout also ends the jtkit calls of a cli pass
    proc = subprocess.Popen(argv, env=pinned_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        _, stderr = proc.communicate(timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"pass process ran past {PASS_TIMEOUT_S} s")
    if proc.returncode != 0 or not os.path.exists(out):
        raise RuntimeError(f"pass process exited with {proc.returncode}:\n{stderr[-2000:]}")
    with open(out) as fh:
        rec = json.load(fh)
    if not Path(rec["jtkit_file"]).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"imported jtkit from {rec['jtkit_file']}, not from {SRC}")
    rec["setup_s"] = rec["t_setup"] - t_spawn
    rec["wall_s"] = sum(rec["op_s"])
    return rec


def merge_traces(traces: list) -> dict:
    total = {"calls": {}, "self_ns": {}, "counts": {}, "distinct": {}}
    for tr in traces:
        for part, values in tr.items():
            for key, v in values.items():
                if key.endswith("max_order"):
                    total[part][key] = max(total[part].get(key, 0), v)
                else:
                    total[part][key] = total[part].get(key, 0) + v
    return total


def layer_metrics(rec: dict, untraced: list, workload: str) -> tuple[dict, list]:
    tr = merge_traces(rec["traces"])
    calls, self_ns, counts, distinct = tr["calls"], tr["self_ns"], tr["counts"], tr["distinct"]

    def ratio(num, den):
        return num / den if den else 0.0

    out = {}
    for name in PER_LAYER:
        base, _, field = name.rpartition(".")
        if field == "calls":
            out[name] = calls.get(base, 0)
        elif field == "self_s":
            out[name] = self_ns.get(base, 0) / 1e9
        else:
            out[name] = counts.get(name, 0)
    out["symfunc.mult_one.distinct_ratio"] = ratio(distinct.get("symfunc.mult_one", 0), calls.get("symfunc.mult_one", 0))
    out["sequences.term.distinct_ratio"] = ratio(distinct.get("sequences.term", 0), calls.get("sequences.term", 0))
    out["sequences.pf_check.vanished_ratio"] = ratio(
        counts.get("sequences.pf_check.vanished", 0), counts.get("sequences.pf_check.minors_checked", 0)
    )
    out["cli.interp_s"] = statistics.median(rec["interp_s"]) if rec.get("interp_s") else 0.0
    out["cli.import_s"] = statistics.median(rec["import_s"]) if rec.get("import_s") else 0.0
    latencies = [x for r in untraced for x in r["op_s"]] if workload == "cli" else []
    out["cli.call_p50_ms"] = 1e3 * statistics.median(latencies) if latencies else 0.0
    out["cli.call_p90_ms"] = 1e3 * statistics.quantiles(latencies, n=10)[8] if len(latencies) >= 10 else 0.0
    out["trace.overhead_s"] = rec["wall_s"] - min(r["wall_s"] for r in untraced)

    problems = [f"{name} recorded no calls" for name in EXPECTED_CALLS[workload] if not calls.get(name)]
    problems += [f"{name} is bypassed on {workload} but recorded {calls[name]} calls"
                 for name in BYPASSED[workload] if calls.get(name)]
    return out, problems


def host_info() -> list:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return [
        f"python {platform.python_version()}",
        f"nproc {os.cpu_count()}",
        f"cpu {cpu}",
        f"commit {git_commit()}",
    ]


def git_commit() -> str:
    """HEAD's commit, read from .git without running git; the benchmark may
    run in a plain export of the tree."""
    try:
        ref = (ROOT / ".git" / "HEAD").read_text().strip()
        return (ROOT / ".git" / ref[5:]).read_text().strip() if ref.startswith("ref: ") else ref
    except OSError:
        return "unknown"


def load_golden(workload: str, seed: int):
    path = HERE / "golden.json"
    if not path.exists():
        return None
    return json.loads(path.read_text()).get(workload, {}).get(str(seed))


def undisturbed_wall(untraced: list) -> float:
    """Time to solution of one pass with short bursts of host interference
    taken out: each op's fastest time over the passes, summed.  Every pass
    runs the same ops in the same order from the same cold start, so op i
    does the same work in each, and interference only ever slows it down."""
    return sum(min(times) for times in zip(*(r["op_s"] for r in untraced)))


def host_slowdown(untraced: list) -> float:
    """How much slower than when quiet the host ran the reference loop in
    this run, measured the way undisturbed_wall measures the ops: the loop
    runs at the same points of every pass, each point's fastest time over
    the passes is taken, and their mean is set against the quiet time.
    1 for passes that time no reference (cli)."""
    points = [min(times) for times in zip(*(r["ref_s"] for r in untraced))]
    return statistics.mean(points) / REFERENCE_QUIET_S if points else 1.0


def evaluate(workload: str, seed: int, untraced: list, traced: dict | None) -> tuple[dict, list, list]:
    """The result line, the failure messages and the human-readable lines."""
    passes = untraced + ([traced] if traced else [])
    failures = [msg for r in passes for msg in r["failures"]]
    failed = sum(r["failed_ops"] for r in passes)
    lines = []
    digests = {r["digest"] for r in passes}
    if len(digests) > 1:
        failures.append("passes of one seed, traced or not, gave different results")
        failed += 1
    golden = load_golden(workload, seed)
    if golden is None:
        lines.append(f"digest {passes[0]['digest'][:16]} unchecked (no golden for seed {seed})")
    elif digests != {golden}:
        failures.append(f"result digest differs from the golden for seed {seed}")
        failed += 1
    else:
        lines.append(f"digest {golden[:16]} matches golden")

    if traced is None:
        metrics = {
            "setup_s": min(r["setup_s"] for r in untraced),
            "wall_s": undisturbed_wall(untraced) / host_slowdown(untraced),
            "peak_rss_mb": statistics.median(r["rss_kib"] for r in untraced) / 1024,
        }
        units = END_TO_END
    else:
        metrics, problems = layer_metrics(traced, untraced, workload)
        failures += problems
        failed += len(problems)
        units = PER_LAYER
    attempted = sum(r["attempted"] for r in passes)
    lines.append(f"passes {len(untraced)} untraced{' + 1 traced' if traced else ''}, ops attempted {attempted}, "
                 f"failed {failed}, fail_ratio {failed / attempted:.6g}")
    lines.append(f"host slowdown {host_slowdown(untraced):.4f}, unscaled wall_s {undisturbed_wall(untraced):.6g} s")
    lines.append("untraced pass wall_s: " + " ".join(f"{r['wall_s']:.4f}" for r in untraced))
    lines += [f"{name} {metrics[name]:.6g} {unit}" for name, unit in units.items()]
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    return result, failures, lines


def report(result: dict, failures: list, lines: list) -> int:
    """Print the run's lines, its failures and the result line; the exit code."""
    for line in lines:
        print(line)
    for msg in failures:
        print(f"FAIL {msg}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def write_spans(workload: str, seed: int, spans: list) -> Path:
    SPAN_DIR.mkdir(exist_ok=True)
    path = SPAN_DIR / f"{workload}-{seed}.spans.jsonl"
    with open(path, "w") as fh:
        for name, start, end, parent, op in spans:
            fh.write(json.dumps({"name": name, "start_ns": start, "end_ns": end, "parent": parent, "op": op}) + "\n")
    return path


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "jtkit" / "__init__.py").is_file():
        print(f"error: no jtkit source tree at {SRC}", file=sys.stderr)
        return 2
    for line in host_info():
        print(line)
    untraced, traced = [], None
    with tempfile.TemporaryDirectory(prefix=".bench-tmp-", dir=ROOT) as tmp:
        try:
            start = time.monotonic()
            while (not untraced or time.monotonic() - start < args.seconds
                   or (args.workload == "cli" and sum(len(r["op_s"]) for r in untraced) < MIN_CLI_CALLS)):
                untraced.append(run_pass(args.workload, args.seed, tmp, verified=not untraced))
            if args.trace:
                traced = run_pass(args.workload, args.seed, tmp, traced=True)
        except RuntimeError as e:
            print(f"error: {e}", file=sys.stderr)
            return 2
    if traced is not None:
        print(f"spans written to {write_spans(args.workload, args.seed, traced.pop('spans')).relative_to(ROOT)}")
    return report(*evaluate(args.workload, args.seed, untraced, traced))


if __name__ == "__main__":
    sys.exit(main())
