"""Seeded op lists for the four benchmark workloads, their execution and
their verification.

An op is a plain dict that names what to compute; every op rebuilds its
sequence from a spec string, as a CLI call would, so per-sequence memos
start cold in each op while jtkit's module-level caches persist across the
ops of one pass.  Each generator draws from ``random.Random`` seeded with
the workload name and seed, so the same seed always gives the same list.

The mixes are stratified: the number of ops of each kind, and the expensive
parameters (scan box, class determinant order, elementary degree), are
fixed, and the seed picks the rest.  That keeps the work of a pass nearly
the same from seed to seed, so ``wall_s`` compares across seeds.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction
from math import comb, gcd, lcm

import jtkit as jt

WORKLOADS = ("scan", "class", "tables", "cli")

# Integer sequences whose scans stay positive through order 6, window 8
# (a full scan), and ones that hit a negative minor within the first few
# dozen shapes.  Checked against pf_check at the time the lists were made.
POSITIVE = (
    "quadric:2", "quadric:3", "quadric:4", "quadric:5",
    "qdual:2", "qdual:3", "qdual:4",
    "super:1,1", "super:2,1", "super:1,2", "super:3,1", "super:2,2",
    "tensor:(quadric:2),(quadric:2)", "tensor:(quadric:3),(qdual:2)",
    "tensor:(super:1,1),(quadric:2)", "tensor:heisenberg,(quadric:2)",
    "segre:quadric:2,qdual:2", "segre:super:1,1,quadric:2",
    "veronese:quadric:3,2", "veronese:qdual:3,2", "veronese:super:2,1,2",
    "veronese:heisenberg,2",
)
NEGATIVE = (
    "heisenberg", "hadamard:quadric:2,squares", "hadamard:quadric:3,qdual:2",
    "hadamard:qdual:2,heisenberg", "segre:quadric:3,quadric:2",
    "segre:heisenberg,qdual:2",
)

# Class-valued sequences by the largest order at which one straight minor
# stays well under a second at the seed commit.
CLASS_UPTO4 = (
    "poly:2", "poly:3", "poly:4", "tensoralg:2", "tensoralg:3",
    "segre:poly:2,poly:2", "tensor:(poly:2),(poly:2)", "veronese:poly:2,2",
)
CLASS_UPTO5 = ("poly:2", "poly:3", "tensoralg:2", "veronese:poly:2,2")
CLASS_UPTO6 = ("poly:2", "poly:3", "poly:4")
SHAPES_BY_ORDER = {
    2: ((1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (3, 3)),
    3: ((1, 1, 1), (2, 1, 1), (2, 2, 1), (2, 2, 2), (3, 2, 1), (3, 1, 1)),
    4: ((1, 1, 1, 1), (2, 1, 1, 1), (2, 2, 1, 1), (2, 2, 2, 1), (2, 2, 2, 2), (3, 2, 1, 1)),
    5: ((1, 1, 1, 1, 1), (2, 1, 1, 1, 1), (2, 2, 1, 1, 1), (2, 2, 2, 1, 1), (2, 2, 2, 2, 1), (2, 2, 2, 2, 2)),
    6: ((2, 2, 1, 1, 1, 1), (2, 2, 2, 1, 1, 1), (2, 2, 2, 2, 1, 1), (2, 2, 2, 2, 2, 1), (2, 2, 2, 2, 2, 2)),
}


def make_ops(workload: str, seed: int) -> list[dict]:
    """The op list of one pass of a workload."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}, pick one of {WORKLOADS}")
    rng = random.Random(f"{workload}:{int(seed)}")
    ops = _GENERATORS[workload](rng)
    rng.shuffle(ops)
    return ops


def _scan_ops(rng):
    ops = []
    for order in range(3, 7):
        for window in range(5, 9):
            for _ in range(3):
                ops.append({"op": "pf_check", "seq": rng.choice(POSITIVE), "order": order, "window": window, "skew": False})
    for _ in range(10):
        ops.append({"op": "pf_check", "seq": rng.choice(NEGATIVE), "order": rng.randint(3, 6),
                    "window": rng.randint(5, 8), "skew": False})
    for order, window in ((2, 3), (2, 4), (3, 3), (3, 4)) * 3:
        ops.append({"op": "pf_check", "seq": rng.choice(POSITIVE + NEGATIVE), "order": order, "window": window, "skew": True})
    for _ in range(3):
        ops.append({"op": "profile", "seq": rng.choice(POSITIVE + NEGATIVE), "r_max": 4, "s_max": 4})
    return ops


def _class_ops(rng):
    # every pool sequence appears equally often at each order, and the order-6
    # shapes and elementary degrees are fixed: the seed varies shapes, inner
    # shapes and ranks m, which change the answers but hardly the cost
    ops = []
    for order, pool, per_seq in ((2, CLASS_UPTO4, 2), (3, CLASS_UPTO4, 2), (4, CLASS_UPTO4, 2), (5, CLASS_UPTO5, 2)):
        for seq in pool * per_seq:
            lam = rng.choice(SHAPES_BY_ORDER[order])
            mu = _inner(rng, lam) if rng.random() < 0.3 else ()
            ops.append({"op": "jt_minor", "seq": seq, "lambda": lam, "mu": mu})
    # the sequence of an order-6 minor or a high-degree e_class moves its cost
    # up to threefold, so these are fixed and the seed only places them
    for lam, seq in zip(((2, 2, 2, 1, 1, 1), (2, 2, 2, 2, 1, 1), (2, 2, 2, 2, 2, 2)), CLASS_UPTO6):
        ops.append({"op": "jt_minor", "seq": seq, "lambda": lam, "mu": ()})
    for d, seq in zip((7, 8, 9, 10, 11), ("poly:2", "poly:3", "poly:4", "poly:2", "poly:3")):
        ops.append({"op": "e_class", "seq": seq, "d": d})
    for kind, d in (("tensoralg", 7), ("tensoralg", 8), ("veronese:poly", 8)):
        seq = f"{kind}:{rng.randint(2, 3)}" if kind == "tensoralg" else f"veronese:poly:{rng.randint(2, 3)},2"
        ops.append({"op": "e_class", "seq": seq, "d": d})
    for _ in range(6):
        lam = rng.choice(SHAPES_BY_ORDER[rng.randint(2, 3)])
        ops.append({"op": "jt_minor_dual", "seq": rng.choice(("poly:2", "poly:3", "tensoralg:2")), "lambda": lam, "mu": ()})
    for n in (3, 4, 4, 5, 5):
        lam = rng.choice(SHAPES_BY_ORDER[n])
        # a complex of length 5 over tensoralg:2 costs up to 20 times one over poly:m
        seq = rng.choice(("poly:2", "poly:3", "tensoralg:2") if n < 5 else ("poly:2", "poly:3"))
        ops.append({"op": "euler", "seq": seq, "lambda": lam, "mu": (), "n": n})
    for _ in range(3):
        ops.append({"op": "pf_check", "seq": rng.choice(("poly:2", "tensoralg:2")), "order": 2, "window": 3, "skew": False})
    return ops


def _partition_of(rng, size, max_rows=None):
    """A random partition of size, cut short after max_rows rows."""
    parts = []
    while size > 0 and (max_rows is None or len(parts) < max_rows):
        p = rng.randint(1, min(size, parts[-1] if parts else size))
        parts.append(p)
        size -= p
    return tuple(parts)


def _random_partition(rng, max_size, max_rows):
    return _partition_of(rng, rng.randint(2, max_size), max_rows)


def _inner(rng, lam):
    """A random partition inside lam, possibly empty."""
    mu = []
    for part in lam:
        cap = min(part, mu[-1]) if mu else part
        p = rng.randint(0, cap)
        if p == 0:
            break
        mu.append(p)
    return tuple(mu)


def _rows_of(lam, mu):
    """Sorted row lengths of lam/mu: a constituent of the skew Schur
    function, so its LR coefficient is at least one."""
    return tuple(sorted((p - (mu[i] if i < len(mu) else 0) for i, p in enumerate(lam)), reverse=True))


def _tables_ops(rng):
    # a seeded shape pool, so values and LR tallies repeat across ops
    pool = []
    for _ in range(150):
        lam = _random_partition(rng, 10, 4)
        pool.append((lam, _inner(rng, lam) if rng.random() < 0.6 else ()))
    ops = []
    for _ in range(600):
        lam, mu = rng.choice(pool)
        ops.append({"op": "quadric_dim", "m": rng.randint(2, 6), "lambda": lam, "mu": mu})
    for _ in range(400):
        lam, mu = rng.choice(pool)
        ops.append({"op": "dim_super", "lambda": lam, "mu": mu, "r": rng.randint(1, 4), "s": rng.randint(1, 2)})
    for _ in range(600):
        lam, mu = rng.choice(pool)
        nu = _rows_of(lam, mu) if rng.random() < 0.5 else _partition_of(rng, sum(lam) - sum(mu))
        ops.append({"op": "lr", "lambda": lam, "mu": mu, "nu": tuple(p for p in nu if p)})
    for _ in range(300):
        lam, mu = rng.choice(pool)
        ops.append({"op": "skew", "lambda": lam, "mu": mu})
    for _ in range(80):
        m = rng.choice((6, 8))
        ops.append({"op": "ortho", "m": m, "lambda": _random_partition(rng, 10, m // 2)})
    for _ in range(60):
        m = rng.randint(3, 6)
        ops.append({"op": "quadric_res", "m": m, "shifts": tuple(rng.randint(1, 2) for _ in range(m))})
    for _ in range(60):
        ops.append({"op": "rnc_res", "d": rng.randint(2, 5), "shifts": tuple(rng.randint(1, 2) for _ in range(3))})
    for _ in range(60):
        dim = rng.randint(2, 5)
        ops.append({"op": "efw_res", "dim": dim, "shifts": tuple(rng.randint(1, 2) for _ in range(dim + 1))})
    for n, trunc in ((2, 10), (2, 12), (3, 8), (3, 10), (3, 12), (4, 8)) * 8:
        ops.append({"op": "hs_check", "m": rng.randint(2, 4), "n": n, "trunc": trunc})
    for _ in range(100):
        twists = tuple(sorted(rng.sample(range(0, 10), rng.randint(3, 6))))
        ops.append({"op": "hk_solve", "twists": twists})
    return ops


def _csv(xs):
    return ",".join(str(x) for x in xs)


def _cli_ops(rng):
    """One call per template; expect is the exit code the call must give."""
    lam = rng.choice(((2, 1), (2, 2), (3, 1), (2, 1, 1)))
    q = f"quadric:{rng.randint(2, 4)}"
    calls = [
        (["pf-check", "--seq", rng.choice(POSITIVE), "--order", "3", "--window", str(rng.randint(4, 6))], 0),
        (["pf-check", "--seq", rng.choice(NEGATIVE), "--order", "4", "--window", "6", "--format", "text"], 0),
        (["jt-minor", "--seq", rng.choice(POSITIVE), "--lambda", _csv(lam)], 0),
        (["jt-minor", "--seq", rng.choice(("poly:2", "poly:3", "tensoralg:2")), "--lambda", _csv(lam), "--format", "text"], 0),
        (["jt-minor", "--seq", "poly:2", "--lambda", "1,1,1,1", "--max-cost", "3"], 1),
        (["jt-minor", "--seq", q, "--lambda", "2,1", "--format", "csv"], 2),
        (["lr", "--lambda", "3,2,1", "--mu", "2,1", "--nu", rng.choice(("2,1", "1,1,1", "3"))], 0),
        (["skew-expand", "--lambda", _csv(rng.choice(((3, 2, 1), (4, 2, 1), (3, 3, 1)))), "--mu", "1,1"], 0),
        (["dim", "gl", "--lambda", _csv(lam), "--m", str(rng.randint(2, 5))], 0),
        (["dim", "super", "--lambda", _csv(lam), "--r", "2", "--s", "1", "--format", "text"], 0),
        (["dim", "quadric", "--lambda", _csv(lam), "--m", "3", "--method", rng.choice(("jt", "vertical_strip", "super"))], 0),
        (["veronese", "--seq", q, "--d", "2", "--lambda", _csv(lam)], 0),
        (["tensor", "--a", "quadric:2", "--b", rng.choice(("qdual:2", "quadric:3")), "--lambda", "2,1"], 0),
        (["segre", "--a", "poly:2", "--b", "poly:2", "--lambda", "2,1"], 0),
        (["e-class", "--seq", rng.choice(("poly:2", "poly:3", "quadric:3")), "--d", str(rng.randint(3, 5))], 0),
        (["schur-profile", "--seq", rng.choice(("quadric:3", "super:2,1", "heisenberg")), "--r-max", "2", "--s-max", "2"], 0),
        (["ortho-decomp", "--m", "4", "--lambda", rng.choice(("2,1", "1,1", "3,1"))], 0),
        (["ortho-decomp", "--m", "3", "--lambda", "2,2"], 1),
        (["hs-check", "--m", str(rng.randint(2, 3)), "--n", "2", "--trunc", "6"], 0),
        (["efw", "--shifts", "1,2,1", "--dim", "3", "--format", "csv"], 0),
        (["resolve", "quadric", "--m", "3", "--shifts", rng.choice(("1,1,2", "1,2,1", "2,1,1")), "--format", "csv"], 0),
        (["resolve", "quadric", "--shifts", "1,1,2"], 2),
        (["validate", "quadric", "--m", "3", "--shifts", rng.choice(("1,1,2", "1,2,1"))], 0),
        (["hk-solve", "--twists", rng.choice(("0,2,3", "0,1,3,4", "1,3,4,6"))], 0),
        (["hk-solve", "--twists", "0,2,3", "--format", "csv"], 2),
        (["zelevinsky", "--seq", q, "--lambda", _csv(lam)], 0),
    ]
    return [{"op": "cli", "argv": argv, "expect": expect} for argv, expect in calls]


_GENERATORS = {"scan": _scan_ops, "class": _class_ops, "tables": _tables_ops, "cli": _cli_ops}


# ---- execution -------------------------------------------------------------

def run_op(op: dict):
    """Execute one library op against jtkit and return its JSON-able result."""
    kind = op["op"]
    if kind == "pf_check":
        return jt.pf_check(jt.parse_sequence_spec(op["seq"]), op["order"], op["window"], op["skew"]).to_json()
    if kind == "profile":
        prof = jt.schur_dimension_profile(jt.parse_sequence_spec(op["seq"]), op["r_max"], op["s_max"])
        return list(prof) if prof is not None else None
    if kind == "jt_minor":
        return _value(jt.jt_minor(jt.parse_sequence_spec(op["seq"]), jt.SkewShape(op["lambda"], op["mu"])))
    if kind == "jt_minor_dual":
        return _value(jt.jt_minor_dual(jt.parse_sequence_spec(op["seq"]), jt.SkewShape(op["lambda"], op["mu"])))
    if kind == "e_class":
        return _value(jt.e_class(jt.parse_sequence_spec(op["seq"]), op["d"]))
    if kind == "euler":
        layout = jt.jt_complex_layout(jt.parse_sequence_spec(op["seq"]), op["lambda"], op["mu"], op["n"])
        return {"layout": layout.to_json(), "euler": _value(jt.euler_characteristic(layout))}
    if kind == "quadric_dim":
        ctx = jt.QuadricContext(op["m"])
        shape = jt.SkewShape(op["lambda"], op["mu"])
        return {method: jt.quadric_schur_dim(ctx, shape, method) for method in ("jt", "vertical_strip", "super")}
    if kind == "dim_super":
        return jt.dim_super(op["lambda"], op["r"], op["s"], op["mu"])
    if kind == "lr":
        return jt.lr_coefficient(op["lambda"], op["mu"], op["nu"])
    if kind == "skew":
        return jt.skew_to_straight(jt.SkewShape(op["lambda"], op["mu"])).to_json()
    if kind == "ortho":
        ctx = jt.QuadricContext(op["m"])
        dec = jt.orthogonal_stable_decomposition(ctx, op["lambda"])
        return {"entries": dec.to_json(), "dimension": dec.dimension()}
    if kind in ("quadric_res", "rnc_res", "efw_res"):
        table, seq = _resolution(jt, op)
        return {"table": table.to_json(), "purity": jt.validate_purity(table, seq).to_json()}
    if kind == "hs_check":
        return jt.multigraded_hs_check(op["m"], op["n"], op["trunc"])
    if kind == "hk_solve":
        return jt.hk_solve(op["twists"]).to_json()
    raise ValueError(f"unknown op {kind!r}")


def _resolution(jt, op):
    if op["op"] == "quadric_res":
        return jt.quadric_pure_resolution(op["m"], op["shifts"]), jt.make_sequence("quadric", m=op["m"])
    if op["op"] == "rnc_res":
        return jt.rnc_pure_resolution(op["d"], op["shifts"]), jt.rnc_sequence(op["d"])
    return jt.efw_betti(op["shifts"], op["dim"]), jt.make_sequence("poly", m=op["dim"]).dim_view()


def _value(v):
    return v if isinstance(v, int) else v.to_json()


# ---- verification ----------------------------------------------------------

def digest(results) -> str:
    """sha256 of the canonical JSON of a list of op results."""
    text = json.dumps(results, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def verify(op: dict, result) -> str | None:
    """Cross-check one op's result by a route independent of the one that
    produced it.  Returns a description of the mismatch, or None."""
    try:
        return _VERIFIERS[op["op"]](op, result)
    except Exception as e:  # a malformed result must read as a failure, not crash the pass
        return f"verifier raised {type(e).__name__}: {e}"


def _class_dim(seq, value):
    """Dimension of a minor's value, whether integer or class JSON."""
    if seq.value_kind == "integer":
        return value
    return jt.SchurClass.from_json(value, seq.factor_count).dim(seq.factor_dims)


def _check_pf(op, res):
    if res["verdict"] == "negative":
        wit = res["witness"]
        seq = jt.parse_sequence_spec(op["seq"])
        again = _value(jt.jt_minor(seq, jt.SkewShape(tuple(wit["lambda"]), tuple(wit["mu"]))))
        if again != wit["value"]:
            return "witness value does not match its minor"
        negative = again < 0 if isinstance(again, int) else any(t["coeff"] < 0 for t in again)
        return None if negative else "witness is not negative"
    if res["witness"] is not None or res["verdict"] != "positive-up-to-bounds":
        return "positive verdict carries a witness"
    if not op["skew"] and res["checked"] != comb(op["order"] + op["window"], op["order"]) - 1:
        return f"checked {res['checked']} shapes, box holds {comb(op['order'] + op['window'], op['order']) - 1}"
    return None


def _check_profile(op, res):
    if res is None:
        return None
    r, s = res
    av = jt.parse_sequence_spec(op["seq"]).dim_view()
    for lam in jt.shapes.scan_partitions(op["r_max"] + 1, op["s_max"] + 1):
        outside = (lam[r] if r < len(lam) else 0) > s
        if outside != (jt.jt_minor(av, lam) == 0):
            return f"profile {res} disagrees with the minor of {lam}"
    return None


def _check_minor_dims(op, res):
    """The class minor evaluated at dimensions equals the integer minor of
    the dimension sequence (Bareiss route)."""
    seq = jt.parse_sequence_spec(op["seq"])
    want = jt.jt_minor(seq.dim_view(), jt.SkewShape(op["lambda"], op["mu"]))
    got = _class_dim(seq, res)
    return None if got == want else f"dimension {got} != integer minor {want}"


def _check_e_class(op, res):
    seq = jt.parse_sequence_spec(op["seq"])
    want = jt.e_class(seq.dim_view(), op["d"])
    got = _class_dim(seq, res)
    return None if got == want else f"dimension {got} != integer e_class {want}"


def _check_euler(op, res):
    return None if res["euler"] == res["layout"]["minor"] else "euler characteristic != minor"


def _check_quadric_dim(op, res):
    return None if len(set(res.values())) == 1 else f"methods disagree: {res}"


def _check_dim_super(op, res):
    """Tableau count against the Jacobi-Trudi minor of the super sequence."""
    seq = jt.make_sequence("super", r=op["r"], s=op["s"])
    want = jt.jt_minor(seq, jt.SkewShape(op["lambda"], op["mu"]))
    return None if res == want else f"dim_super {res} != super minor {want}"


def _check_lr(op, res):
    want = jt.mult_one(op["mu"], op["nu"]).get(tuple(op["lambda"]), 0)
    return None if res == want else f"lr_coefficient {res} != mult_one {want}"


def _check_skew(op, res):
    """LR expansion evaluated at m = 3 against the skew Jacobi-Trudi minor."""
    got = sum(t["coeff"] * jt.dim_gl(tuple(t["partitions"][0]), 3) for t in res)
    want = jt.jt_minor(jt.make_sequence("poly", m=3).dim_view(), jt.SkewShape(op["lambda"], op["mu"]))
    return None if got == want else f"skew expansion dimension {got} != minor {want}"


def _check_ortho(op, res):
    want = jt.quadric_schur_dim(jt.QuadricContext(op["m"]), op["lambda"])
    return None if res["dimension"] == want else f"orthogonal dimension {res['dimension']} != {want}"


def _check_purity(op, res):
    purity = res["purity"]
    if not (purity["is_polynomial"] and purity["nonnegative"]):
        return f"purity check failed: {purity}"
    return None


def _check_hs(op, res):
    return None if res["ok"] is True else f"hs check failed: {res}"


def _check_hk(op, res):
    """The finite branch against the Herzog-Kuhl closed form
    beta_i ~ prod_{j != i} 1 / |t_j - t_i|, and the tail branch against its
    own unreduced form."""
    t = op["twists"]
    closed = [Fraction(1) for _ in t]
    for i, ti in enumerate(t):
        for j, tj in enumerate(t):
            if j != i:
                closed[i] /= abs(tj - ti)
    if res["finite"] != _primitive(closed):
        return f"finite branch {res['finite']} != Herzog-Kuhl {_primitive(closed)}"
    raw = [Fraction(x) for x in res["tail_raw"]]
    if raw[-1] != 1 or res["tail"] != _primitive(raw):
        return f"tail branch {res['tail']} is not the primitive form of {res['tail_raw']}"
    return None


def _primitive(vec):
    scale = 1
    for x in vec:
        scale = lcm(scale, x.denominator)
    ints = [int(x * scale) for x in vec]
    g = 0
    for x in ints:
        g = gcd(g, x)
    ints = [x // g for x in ints]
    return [-x for x in ints] if ints[0] < 0 else ints


def check_cli(op: dict, res: dict) -> str | None:
    """Exit code as expected; JSON stdout valid under the subcommand's schema
    and its identity flags true; error exits print nothing on stdout."""
    import jsonschema
    from jtkit.schemas import SCHEMAS

    argv = op["argv"]
    if res["code"] != op["expect"]:
        return f"exit code {res['code']}, expected {op['expect']}"
    if res["code"] != 0:
        return None if res["stdout"] == "" else "error exit printed on stdout"
    fmt = argv[argv.index("--format") + 1] if "--format" in argv else "json"
    if fmt != "json":
        return None if res["stdout"].strip() else "empty output"
    payload = json.loads(res["stdout"])
    try:
        jsonschema.validate(payload, SCHEMAS[argv[0]])
    except jsonschema.ValidationError as e:
        return f"schema violation: {e.message}"
    for flag in ("identity_ok", "ok"):
        if payload.get(flag) is False:
            return f"{flag} is false"
    if argv[0] == "validate" and not payload["purity"]["nonnegative"]:
        return "purity check failed"
    return None


_VERIFIERS = {
    "pf_check": _check_pf,
    "profile": _check_profile,
    "jt_minor": _check_minor_dims,
    "jt_minor_dual": _check_minor_dims,
    "e_class": _check_e_class,
    "euler": _check_euler,
    "quadric_dim": _check_quadric_dim,
    "dim_super": _check_dim_super,
    "lr": _check_lr,
    "skew": _check_skew,
    "ortho": _check_ortho,
    "quadric_res": _check_purity,
    "rnc_res": _check_purity,
    "efw_res": _check_purity,
    "hs_check": _check_hs,
    "hk_solve": _check_hk,
    "cli": check_cli,
}
