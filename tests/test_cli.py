from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import jsonschema

from jtkit import cli
from jtkit.cli import run
from jtkit.schemas import SCHEMAS


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def check_json(capsys, name, *argv):
    code, out, err = invoke(capsys, name, *argv)
    assert code == 0, err
    payload = json.loads(out)
    jsonschema.validate(payload, SCHEMAS[name])
    return payload


def test_pf_check(capsys):
    payload = check_json(capsys, "pf-check", "--seq", "quadric:3", "--order", "3", "--window", "4")
    assert payload["verdict"] == "positive-up-to-bounds"
    assert payload["witness"] is None


def test_pf_check_negative_is_still_success(capsys):
    payload = check_json(
        capsys, "pf-check", "--seq", "hadamard:quadric:2,squares", "--order", "3", "--window", "6"
    )
    assert payload["verdict"] == "negative"
    assert payload["witness"]["lambda"] == [2, 2, 2]
    assert payload["witness"]["value"] == -60


def test_pf_check_skew(capsys):
    # checked and witnesses as the scan of every pair (lambda, mu) gives them
    for spec, window, checked, witness in (
        ("quadric:3", "4", 489, None),
        ("hadamard:quadric:2,squares", "6", 90, {"lambda": [2, 2, 2], "mu": [], "value": -60}),
    ):
        args = ("pf-check", "--seq", spec, "--order", "3", "--window", window, "--skew")
        first = invoke(capsys, *args)
        assert first == invoke(capsys, *args)
        assert first[0] == 0, first[2]
        payload = json.loads(first[1])
        jsonschema.validate(payload, SCHEMAS["pf-check"])
        assert (payload["checked"], payload["witness"]) == (checked, witness)


def test_jt_minor(capsys):
    payload = check_json(capsys, "jt-minor", "--seq", "quadric:3", "--lambda", "2,1")
    assert payload["value"] == 8
    payload = check_json(capsys, "jt-minor", "--seq", "quadric:3", "--lambda", "3,2", "--mu", "1")
    assert payload["value"] == 16
    payload = check_json(capsys, "jt-minor", "--seq", "poly:2", "--lambda", "1,1")
    assert payload["value"] == [{"partitions": [[1, 1]], "coeff": 1}]


def test_lr(capsys):
    payload = check_json(capsys, "lr", "--lambda", "2,1", "--mu", "1", "--nu", "2")
    assert payload["coefficient"] == 1
    payload = check_json(capsys, "lr", "--lambda", "4,2", "--mu", "2,1", "--nu", "2,1")
    assert payload["coefficient"] == 1


def test_skew_expand(capsys):
    payload = check_json(capsys, "skew-expand", "--lambda", "2,1", "--mu", "1")
    got = {tuple(t["partitions"][0]): t["coeff"] for t in payload["terms"]}
    assert got == {(2,): 1, (1, 1): 1}


def test_dim_variants(capsys):
    payload = check_json(capsys, "dim", "gl", "--lambda", "2,1", "--m", "3")
    assert payload["value"] == 8
    payload = check_json(capsys, "dim", "super", "--lambda", "2,1", "--r", "2", "--s", "1")
    assert payload["value"] == 8
    for method in ("jt", "vertical_strip", "super"):
        payload = check_json(
            capsys, "dim", "quadric", "--lambda", "2,1", "--m", "3", "--method", method
        )
        assert payload["value"] == 8


def test_veronese(capsys):
    payload = check_json(capsys, "veronese", "--seq", "quadric:3", "--d", "2", "--lambda", "1,1")
    assert payload["value"] == 16
    assert payload["identity_ok"] is True


def test_tensor_and_segre(capsys):
    payload = check_json(capsys, "tensor", "--a", "quadric:2", "--b", "quadric:2", "--lambda", "2")
    assert payload["identity_ok"] is True
    payload = check_json(capsys, "segre", "--a", "quadric:2", "--b", "squares", "--lambda", "2,2,2")
    assert payload["value"] == -60


def test_e_class(capsys):
    payload = check_json(capsys, "e-class", "--seq", "quadric:2", "--d", "2")
    assert payload["value"] == 2


def test_schur_profile(capsys):
    payload = check_json(capsys, "schur-profile", "--seq", "quadric:3")
    assert payload["profile"] == [2, 1]
    payload = check_json(capsys, "schur-profile", "--seq", "heisenberg")
    assert payload["profile"] is None


def test_ortho_decomp(capsys):
    payload = check_json(capsys, "ortho-decomp", "--m", "4", "--lambda", "1,1")
    assert payload["entries"] == [{"mu": [], "mult": 1}, {"mu": [1, 1], "mult": 1}]
    assert payload["dimension"] == 7
    assert payload["schur_dim"] == 7
    # a large stable-range case, answered from closed forms
    payload = check_json(capsys, "ortho-decomp", "--m", "40", "--lambda", "8,6,4,2")
    assert payload["dimension"] == payload["schur_dim"]


def test_hs_check(capsys):
    payload = check_json(capsys, "hs-check", "--m", "3", "--n", "2", "--trunc", "6")
    assert payload["ok"] is True


def test_efw(capsys):
    payload = check_json(capsys, "efw", "--shifts", "2,1,2,3", "--dim", "5", "--count", "5")
    assert payload["partitions"] == [
        [3, 3, 2],
        [5, 3, 2],
        [5, 4, 2],
        [5, 4, 4],
        [5, 4, 4, 3],
    ]
    payload = check_json(capsys, "efw", "--shifts", "1,2", "--dim", "2")
    assert payload["table"]["rows"] == []


def test_efw_ladder_budget(capsys):
    for argv in (["--count", "513"], ["--count", "4000"], ["--dim", "512"]):
        start = time.perf_counter()
        code, out, err = invoke(capsys, "efw", "--shifts", "1,2,1", "--dim", "3", *argv)
        assert time.perf_counter() - start < 1.0
        assert code == 1 and out == ""
        assert err.startswith("error: a ladder of ") and err.endswith(" rungs is above the bound of 512 rungs\n")
    payload = check_json(capsys, "efw", "--shifts", "1,2,1", "--dim", "3", "--count", "512")
    assert len(payload["partitions"]) == 512


def test_tail_budget(capsys):
    for cmd in ("resolve", "validate"):
        for argv in (["quadric", "--m", "3"], ["rnc", "--d", "3"]):
            start = time.perf_counter()
            code, out, err = invoke(capsys, cmd, *argv, "--shifts", "1,1,1", "--tail", "65")
            assert time.perf_counter() - start < 1.0
            assert code == 1 and out == ""
            assert err == "error: a tail of 65 terms is above the bound of 64 terms\n"


def test_resolve_json(capsys):
    payload = check_json(capsys, "resolve", "quadric", "--m", "3", "--shifts", "1,1,1", "--tail", "2")
    ranks = [r["rank"] for r in payload["table"]["rows"]]
    assert ranks == [1, 3, 4, 4, 4]
    assert payload["table"]["tail"]["start"] == 2
    payload = check_json(capsys, "resolve", "rnc", "--d", "3", "--shifts", "1,1,1", "--tail", "2")
    assert payload["table"]["tail"]["ratio"] == 2
    payload = check_json(capsys, "resolve", "poly", "--dim", "2", "--shifts", "1,1,2")
    assert [r["rank"] for r in payload["table"]["rows"]] == [1, 2, 1]


def test_resolve_csv_golden(capsys):
    code, out, err = invoke(
        capsys, "resolve", "quadric", "--m", "3", "--shifts", "1,1,2", "--format", "csv"
    )
    assert code == 0
    assert out.splitlines() == [
        "index,twist,rank,label",
        '0,0,4,"(1,1)"',
        '1,1,8,"(2,1)"',
        '2,2,4,"(2,2)"',
    ]


def test_validate(capsys):
    payload = check_json(capsys, "validate", "quadric", "--m", "3", "--shifts", "1,1,2")
    assert payload["purity"]["is_polynomial"] is True
    assert payload["purity"]["coefficients"] == [4, 4]
    assert payload["purity"]["dimension"] == 8


def test_validate_refuses_a_horizon_that_checks_nothing(capsys):
    argv = ("validate", "quadric", "--m", "3", "--shifts", "1,1,2", "--horizon", "3")
    code, out, err = invoke(capsys, *argv, "--margin", "0")
    assert (code, out) == (1, "")
    assert err == "error: horizon 3 too small to certify, need at least 4\n"
    assert invoke(capsys, *argv, "--margin", "-2")[0] == 1
    assert check_json(capsys, *argv[:-1], "4", "--margin", "0")["purity"]["dimension"] == 8


def test_validate_default_horizon_follows_the_tail(capsys):
    argv = ("validate", "quadric", "--m", "3", "--shifts", "1,1,1", "--tail", "64")
    purity = check_json(capsys, *argv)["purity"]
    assert (purity["bound"], purity["horizon"], purity["dimension"]) == (67, 73, 1)
    code, out, err = invoke(capsys, *argv, "--horizon", "24")
    assert (code, out) == (1, "")
    assert err == "error: horizon 24 too small to certify, need at least 73\n"
    assert check_json(capsys, "validate", "quadric", "--m", "3", "--shifts", "1,1,2")["purity"]["horizon"] == 24


def test_hk_solve(capsys):
    payload = check_json(capsys, "hk-solve", "--twists", "0,1,2")
    assert payload["tail"] == [1, 3, 4]
    assert payload["finite"] == [1, 2, 1]
    assert payload["tail_raw"] == ["1/4", "3/4", "1"]


def test_zelevinsky(capsys):
    payload = check_json(capsys, "zelevinsky", "--seq", "quadric:3", "--lambda", "2,2")
    assert payload["euler"] == 4
    assert payload["minor"] == 4
    assert payload["ok"] is True
    assert payload["degrees"][1]["terms"][0]["weight"] == [3, 1]


def test_usage_errors_exit_2(capsys):
    assert invoke(capsys, "no-such-command")[0] == 2
    assert invoke(capsys, "jt-minor", "--seq", "quadric:3")[0] == 2
    assert invoke(capsys, "jt-minor", "--seq", "what:1", "--lambda", "1")[0] == 2
    code, out, err = invoke(capsys, "dim", "gl", "--lambda", "2,1")
    assert code == 2
    assert "needs --m" in err
    code, out, err = invoke(capsys, "jt-minor", "--seq", "quadric:3", "--lambda", "1", "--format", "csv")
    assert code == 2


def test_domain_errors_exit_1(capsys):
    code, out, err = invoke(capsys, "ortho-decomp", "--m", "3", "--lambda", "2,2")
    assert code == 1
    assert err.startswith("error:")
    assert invoke(capsys, "hs-check", "--m", "2", "--n", "2", "--trunc", "13")[0] == 1
    assert invoke(capsys, "resolve", "quadric", "--m", "3", "--shifts", "1,1")[0] == 1
    big = ",".join(str(9 - i) for i in range(9))
    code, out, err = invoke(capsys, "jt-minor", "--seq", "poly:2", "--lambda", big)
    assert code == 1
    assert "--max-cost" in err


def test_max_cost_is_a_budget_cap(capsys):
    lam = "2,2,1,1,1,1"
    code, out, err = invoke(
        capsys, "jt-minor", "--seq", "poly:2", "--lambda", lam, "--max-cost", "5"
    )
    assert code == 1
    assert "--max-cost" in err
    payload = check_json(capsys, "jt-minor", "--seq", "poly:2", "--lambda", lam)
    assert isinstance(payload["value"], list)
    # raising the flag past the expansion engine's own bound still fails fast
    big = ",".join(str(9 - i) for i in range(9))
    code, out, err = invoke(
        capsys, "jt-minor", "--seq", "poly:2", "--lambda", big, "--max-cost", "9"
    )
    assert code == 1


def test_pf_check_honours_max_cost(capsys):
    code, out, err = invoke(
        capsys, "pf-check", "--seq", "poly:2", "--order", "4", "--window", "3", "--max-cost", "3"
    )
    assert code == 1 and out == ""
    assert err.strip() == "error: determinant order 4 exceeds --max-cost 3"
    payload = check_json(
        capsys, "pf-check", "--seq", "poly:2", "--order", "3", "--window", "3", "--max-cost", "3"
    )
    assert payload["verdict"] == "positive-up-to-bounds"
    # the cap bounds class determinants only; integer scans are cheap at any order
    check_json(capsys, "pf-check", "--seq", "quadric:3", "--order", "4", "--window", "3", "--max-cost", "3")


def test_pf_check_sweep_budget(capsys):
    start = time.perf_counter()
    code, out, err = invoke(capsys, "pf-check", "--seq", "quadric:3", "--order", "14", "--window", "14")
    assert time.perf_counter() - start < 1.0
    assert code == 1 and out == ""
    # windows 1, 2 and 4 pass; the window-8 sweep could hold C(22, 11) subsets in one level
    assert err == (
        "error: a minor sweep at order 14, window 8 may hold 705432 partial minors in one level, "
        "above the bound 262144\n"
    )
    payload = check_json(capsys, "pf-check", "--seq", "heisenberg", "--order", "12", "--window", "30")
    assert payload["witness"]["lambda"] == [1, 1, 1]
    assert payload["checked"] == 4


def test_hs_check_budget(capsys):
    start = time.perf_counter()
    code, out, err = invoke(capsys, "hs-check", "--m", "3", "--n", "8", "--trunc", "12")
    assert time.perf_counter() - start < 1.0
    assert code == 1 and out == ""
    assert err == (
        "error: a series in 8 variables to degree 12 has 125970 coefficients, above the bound 65536\n"
    )
    start = time.perf_counter()
    code, out, err = invoke(capsys, "hs-check", "--m", "3", "--n", "300", "--trunc", "0")
    assert time.perf_counter() - start < 1.0
    assert code == 1 and out == ""
    assert err == "error: a check over 300 quadric factors is above the bound of 8 factors\n"


def test_hk_solve_budget(capsys):
    twists = ",".join(str(t) for t in range(54))
    start = time.perf_counter()
    code, out, err = invoke(capsys, "hk-solve", "--twists", twists)
    assert time.perf_counter() - start < 1.0
    assert code == 1 and out == ""
    assert err == "error: a rank system of 54 twists up to 53 has size (n - 1)^2 * 6 bits = 16854, above the bound 16384\n"
    payload = check_json(capsys, "hk-solve", "--twists", ",".join(str(t) for t in range(0, 80, 2)))
    assert len(payload["tail"]) == 40
    payload = check_json(capsys, "hk-solve", "--twists", "0,1,1000000000")
    assert payload["finite"] == [999999999, 1000000000, 1]


def test_schema_doc_matches_cli():
    """docs/cli-schema.md is what docs/render_schemas.py renders from the
    schemas and the CLI's help texts, budget prose included."""
    path = Path(__file__).resolve().parent.parent / "docs" / "render_schemas.py"
    spec = importlib.util.spec_from_file_location("render_schemas", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert (path.parent / "cli-schema.md").read_text() == module.render()


def test_ortho_decomp_budget(capsys):
    start = time.perf_counter()
    code, out, err = invoke(capsys, "ortho-decomp", "--m", "40", "--lambda", "12,10,8,6,4,2")
    assert time.perf_counter() - start < 1.0
    assert code == 1 and out == ""
    assert err == "error: a decomposition of a shape with 42 boxes is above the bound of 30 boxes\n"
    code, out, err = invoke(capsys, "ortho-decomp", "--m", "12", "--lambda", "7,6,6,6,6")
    assert code == 1 and out == ""
    assert err == "error: a decomposition of a shape with 31 boxes is above the bound of 30 boxes\n"
    payload = check_json(capsys, "ortho-decomp", "--m", "10", "--lambda", "6,6,6,6,6")
    assert payload["dimension"] == payload["schur_dim"]


def test_repeat_invocations_byte_identical(capsys):
    args = ("resolve", "rnc", "--d", "3", "--shifts", "1,2,1")
    first = invoke(capsys, *args)
    second = invoke(capsys, *args)
    assert first == second
    assert first[0] == 0


def test_text_format(capsys):
    code, out, err = invoke(
        capsys, "jt-minor", "--seq", "quadric:3", "--lambda", "2,1", "--format", "text"
    )
    assert code == 0
    assert "value" in out and "8" in out
    code, out, err = invoke(
        capsys, "resolve", "quadric", "--m", "3", "--shifts", "1,1,1", "--format", "text"
    )
    assert code == 0
    assert "tail" in out


def _subcommands():
    parser = cli._build_parser()
    return next(a for a in parser._actions if a.__class__.__name__ == "_SubParsersAction").choices


def test_every_schema_has_a_subcommand():
    assert set(SCHEMAS) == set(_subcommands())


# one valid call per subcommand, then the help, usage and error cases
PARSE_CASES = [
    ["pf-check", "--seq", "quadric:2", "--order", "2", "--window", "3"],
    ["jt-minor", "--seq", "quadric:3", "--lambda", "2,1", "--format", "text"],
    ["lr", "--lambda", "3,2,1", "--mu", "2,1", "--nu", "2,1"],
    ["skew-expand", "--lambda", "3,2,1", "--mu", "1,1"],
    ["dim", "super", "--lambda", "2,1", "--r", "2", "--s", "1"],
    ["veronese", "--seq", "quadric:2", "--d", "2", "--lambda", "2,1"],
    ["tensor", "--a", "quadric:2", "--b", "qdual:2", "--lambda", "2,1"],
    ["segre", "--a", "poly:2", "--b", "poly:2", "--lambda", "2,1"],
    ["e-class", "--seq", "poly:2", "--d", "3"],
    ["schur-profile", "--seq", "quadric:3", "--r-max", "2", "--s-max", "2"],
    ["ortho-decomp", "--m", "4", "--lambda", "2,1"],
    ["hs-check", "--m", "2", "--n", "2", "--trunc", "4"],
    ["efw", "--shifts", "1,2,1", "--dim", "3", "--format", "csv"],
    ["resolve", "quadric", "--m", "3", "--shifts", "1,1,2"],
    ["validate", "rnc", "--d", "3", "--shifts", "1,2,1", "--format", "text"],
    ["hk-solve", "--twists", "0,2,3"],
    ["zelevinsky", "--seq", "quadric:2", "--lambda", "2,1"],
    [],
    ["-h"],
    ["--format", "json", "jt-minor", "--seq", "quadric:3", "--lambda", "2,1"],
    ["no-such-command"],
    ["jt-min", "--seq", "quadric:3", "--lambda", "2,1"],
    ["dim"],
    ["dim", "gl", "--lambda", "2,1"],
    ["jt-minor", "--seq", "quadric:3"],
    ["jt-minor", "--seq", "what:1", "--lambda", "1"],
    ["jt-minor", "--seq", "quadric:3", "--seq", "quadric:2", "--lambda", "2,1", "--lambda", "1"],
    ["jt-minor", "--seq", "quadric:3", "--lambda", "2,1", "--format", "csv"],
    ["resolve", "quadric", "--m", "3", "--shifts", "1,2,x"],
    ["hk-solve", "--twists", "0,2,3", "--n", "2"],
    ["pf-check", "--seq", "quadric:2", "--bogus"],
]


def test_one_subparser_parses_as_the_full_parser(capsys, monkeypatch):
    """run() builds only the parser of argv[0]; stdout, stderr and the exit
    code must be those of a parse with every subcommand, help included."""
    names = list(_subcommands())
    cases = PARSE_CASES + [[name, "-h"] for name in names]
    assert set(names) == {case[0] for case in PARSE_CASES[: len(names)]}
    quick = [invoke(capsys, *argv) for argv in cases]
    monkeypatch.setattr(cli, "_parse", lambda argv: cli._build_parser().parse_args(argv))
    full = [invoke(capsys, *argv) for argv in cases]
    for argv, got, want in zip(cases, quick, full):
        assert got == want, argv
    # the refusal of an unknown flag prints the top-level usage, which
    # lists every subcommand
    code, out, err = quick[cases.index(["pf-check", "--seq", "quadric:2", "--bogus"])]
    assert code == 2 and out == ""
    assert err.endswith("jtkit: error: unrecognized arguments: --bogus\n")
    assert "{" + ",".join(names) + "}" in err


IMPORT_BUDGET = """
import gc, json, sys
import jtkit.cli
wrapped, deferred = json.loads(sys.argv[1]), ("fractions", "decimal", "csv")
assert all(name in sys.modules for name in wrapped), wrapped
assert not any(name in sys.modules for name in deferred), deferred
assert "typing" not in sys.modules
assert "dataclasses" not in sys.modules and "inspect" not in sys.modules
frozen = []
run = jtkit.cli.run
jtkit.cli.run = lambda argv: frozen.append(gc.get_freeze_count()) or run(argv)


def call(*argv):
    sys.argv = ["jtkit", *argv]
    try:
        jtkit.cli.main()
    except SystemExit as e:
        assert e.code == 0, (argv, e.code)
    return [name for name in deferred if name in sys.modules]


assert call("jt-minor", "--seq", "quadric:3", "--lambda", "2,1") == []
assert call("resolve", "quadric", "--m", "3", "--shifts", "1,1,2") == []
assert "fractions" in call("hk-solve", "--twists", "0,2,3")
assert "csv" in call("resolve", "quadric", "--m", "3", "--shifts", "1,1,2", "--format", "csv")
assert len(frozen) == 4 and min(frozen) > 0, frozen
"""


def test_import_budget():
    """What a CLI call imports, in a python -S process (no site packages):
    every module the bench tracer wraps loads with jtkit.cli, fractions,
    decimal and csv only with the calls that use them, typing, dataclasses
    and inspect not at all on import (annotations are strings under
    postponed evaluation, and jtkit._frozen makes the value classes), and
    main() freezes the import-time heap before run()."""
    root = Path(__file__).resolve().parent.parent
    spec = importlib.util.spec_from_file_location("tracing", root / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    wrapped = sorted({entry[0] for entry in tracing.FUNCTIONS + tracing.GENERATORS + tracing.METHODS})
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    proc = subprocess.run(
        [sys.executable, "-S", "-c", IMPORT_BUDGET, json.dumps(wrapped)], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
