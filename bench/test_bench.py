"""Self-tests of the benchmark, not of jtkit.

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, digest, make_ops, run_op, verify  # noqa: E402


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_fixes_the_op_list(workload):
    assert make_ops(workload, 7) == make_ops(workload, 7)
    assert make_ops(workload, 7) != make_ops(workload, 8)


def test_metric_tables_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("trace", ("0", "1"))
def test_printed_metrics_match_benchmark_json(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "tables", "--seed", "3", "--seconds", "0", "--trace", trace],
        capture_output=True, text=True, timeout=170, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = spec["per_layer"] if trace == "1" else spec["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in wanted}


TABLES_CORRUPTIONS = {
    "quadric_dim": lambda r: {**r, "super": r["super"] + 1},
    "lr": lambda r: r + 1,
    "dim_super": lambda r: r + 1,
    "skew": lambda r: r + [{"partitions": [[1]], "coeff": 1}],
    "hs_check": lambda r: {**r, "ok": False},
    "hk_solve": lambda r: {**r, "finite": [x * 2 for x in r["finite"]]},
    "quadric_res": lambda r: {**r, "purity": {**r["purity"], "nonnegative": False}},
}
# the scan verifier (negative witness, positive box count) and the class one
OTHER_CASES = (
    ({"op": "pf_check", "seq": "hadamard:quadric:2,squares", "order": 3, "window": 5, "skew": False},
     lambda r: {**r, "witness": {**r["witness"], "value": -r["witness"]["value"]}}),
    ({"op": "pf_check", "seq": "quadric:3", "order": 3, "window": 4, "skew": False},
     lambda r: {**r, "checked": r["checked"] - 1}),
    ({"op": "jt_minor", "seq": "poly:2", "lambda": (2, 1), "mu": ()},
     lambda r: [{**t, "coeff": t["coeff"] + 1} for t in r]),
)
NO_GOLDEN_SEED = 10**6


def _record(ops, results):
    failures = [(i, verify(op, res)) for i, (op, res) in enumerate(zip(ops, results))]
    failures = [(i, msg) for i, msg in failures if msg]
    return {
        "attempted": len(ops), "failed_ops": len(failures), "failures": [m for _, m in failures],
        "digest": digest(results), "setup_s": 0.1, "wall_s": 1.0, "op_s": [0.01] * len(ops),
        "ref_s": [run.REFERENCE_QUIET_S], "rss_kib": 1024,
    }


def test_corrupted_result_fails_the_run(capsys):
    """Each corrupted result, and only the verifier's verdict on it, must
    make the run fail: the seed has no golden digest to catch it instead."""
    assert run.load_golden("tables", NO_GOLDEN_SEED) is None
    picked = {}
    for op in make_ops("tables", 5):
        picked.setdefault(op["op"], op)
    cases = [(picked[kind], corrupt) for kind, corrupt in TABLES_CORRUPTIONS.items()] + list(OTHER_CASES)
    ops = [op for op, _ in cases]
    results = [run_op(op) for op in ops]
    assert _record(ops, results)["failed_ops"] == 0

    for k, (op, corrupt) in enumerate(cases):
        bad = list(results)
        bad[k] = corrupt(results[k])
        assert verify(op, bad[k]), op
        result, failures, lines = run.evaluate("tables", NO_GOLDEN_SEED, [_record(ops, bad)], None)
        assert failures == [verify(op, bad[k])]
        assert run.report(result, failures, lines) == 1
        printed = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert printed["correct"] is False and printed["failed"] == 1


def test_cli_verifier_checks_exit_code_and_schema():
    op = {"op": "cli", "argv": ["lr", "--lambda", "2,1", "--mu", "1", "--nu", "1"], "expect": 0}
    good = {"code": 0, "stdout": json.dumps({"lambda": [2, 1], "mu": [1], "nu": [1], "coefficient": 1})}
    assert verify(op, good) is None
    assert verify(op, {**good, "code": 1})
    assert verify(op, {**good, "stdout": json.dumps({"lambda": [2, 1]})})


def test_tracer_wraps_every_binding_and_restores():
    import jtkit.cli
    from jtkit import determinant, quadric, sequences

    originals = (determinant.det_bareiss, sequences.det_bareiss, quadric.jt_minor, jtkit.cli.jt_minor)
    tracer = Tracer().install()
    try:
        assert sequences.det_bareiss is determinant.det_bareiss is not originals[0]
        assert quadric.jt_minor is sequences.jt_minor is jtkit.cli.jt_minor is not originals[2]
        seq = sequences.parse_sequence_spec("quadric:3")
        assert sequences.jt_minor(seq, (2, 1)) == 8
    finally:
        tracer.uninstall()
    assert (determinant.det_bareiss, sequences.det_bareiss, quadric.jt_minor, jtkit.cli.jt_minor) == originals
    assert tracer.calls["sequences.jt_minor"] == 1 and tracer.calls["determinant.det_bareiss"] == 1
    assert tracer.calls["sequences.term"] == 4
