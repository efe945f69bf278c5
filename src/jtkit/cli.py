"""Command line front end.

Every operation is exposed as a subcommand with deterministic output: JSON
by default, aligned text or CSV via --format.  Exit codes: 0 success, 1
domain error, 2 usage error.
"""

from __future__ import annotations

import argparse
import gc
import sys

from .quadric import (
    QuadricContext,
    multigraded_hs_check,
    orthogonal_stable_decomposition,
    quadric_schur_dim,
)
from .resolutions import (
    efw_betti,
    efw_partitions,
    hk_solve,
    quadric_pure_resolution,
    rnc_pure_resolution,
    rnc_sequence,
    validate_purity,
)
from .sequences import (
    e_class,
    jt_minor,
    make_sequence,
    parse_sequence_spec,
    pf_check,
    schur_dimension_profile,
    segre,
    tensor_identity_check,
    tensor_product,
    veronese,
    veronese_identity_check,
)
from .shapes import SkewShape, trim
from .symfunc import dim_gl, dim_gl_skew, dim_super, lr_coefficient, skew_to_straight, value_json
from .zelevinsky import euler_characteristic, jt_complex_layout


class UsageError(Exception):
    pass


def _ints_arg(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _parts_arg(text: str) -> tuple[int, ...]:
    vals = _ints_arg(text)
    try:
        return trim(vals)
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e))


def _seq_arg(text: str):
    try:
        return text, parse_sequence_spec(text)
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e))


def _guard_cost(seq, lam, mu, pad, max_cost: int) -> None:
    need = max(len(lam), len(mu), 1)
    r = need if pad is None else pad
    if seq.value_kind == "class" and r > max_cost:
        raise ValueError(f"determinant order {r} exceeds --max-cost {max_cost}")


def _cmd_pf_check(args):
    text, seq = args.seq
    _guard_cost(seq, (), (), args.order, args.max_cost)
    rep = pf_check(seq, max_order=args.order, window=args.window, scan_skew=args.skew)
    payload = {"seq": text}
    payload.update(rep.to_json())
    return payload, None


def _minor(args, seq, head: dict, check=None):
    """The payload of a minor command: head, the shape and padding, seq's
    minor on them and, given check, whether check(shape) holds.  Text output
    prints the keys in this order."""
    _guard_cost(seq, args.lam, args.mu, args.pad, args.max_cost)
    shape = SkewShape(args.lam, args.mu)
    value = value_json(jt_minor(seq, shape, args.pad))
    payload = {**head, "lambda": list(args.lam), "mu": list(args.mu), "pad": args.pad, "value": value}
    if check is not None:
        payload["identity_ok"] = check(shape)
    return payload, None


def _cmd_jt_minor(args):
    text, seq = args.seq
    return _minor(args, seq, {"seq": text})


def _cmd_lr(args):
    c = lr_coefficient(args.lam, args.mu, args.nu)
    return {"lambda": list(args.lam), "mu": list(args.mu), "nu": list(args.nu), "coefficient": c}, None


def _cmd_skew_expand(args):
    cls = skew_to_straight(SkewShape(args.lam, args.mu))
    return {"lambda": list(args.lam), "mu": list(args.mu), "terms": cls.to_json()}, None


def _cmd_dim(args):
    lam, mu = args.lam, args.mu
    payload = {"kind": args.kind, "lambda": list(lam), "mu": list(mu)}
    if args.kind == "gl":
        if args.m is None:
            raise UsageError("dim gl needs --m")
        value = dim_gl_skew(SkewShape(lam, mu), args.m) if mu else dim_gl(lam, args.m)
        payload["m"] = args.m
    elif args.kind == "super":
        if args.r is None or args.s is None:
            raise UsageError("dim super needs --r and --s")
        value = dim_super(lam, args.r, args.s, mu)
        payload["r"] = args.r
        payload["s"] = args.s
    else:
        if args.m is None:
            raise UsageError("dim quadric needs --m")
        value = quadric_schur_dim(QuadricContext(args.m), SkewShape(lam, mu), method=args.method)
        payload["m"] = args.m
        payload["method"] = args.method
    payload["value"] = value
    return payload, None


def _cmd_veronese(args):
    text, seq = args.seq
    if args.d < 1:
        raise UsageError("--d must be at least 1")
    head = {"seq": text, "d": args.d}
    return _minor(args, veronese(seq, args.d), head, lambda s: veronese_identity_check(seq, args.d, s, args.pad))


def _cmd_tensor(args):
    (atext, a), (btext, b) = args.a, args.b
    head = {"a": atext, "b": btext}
    return _minor(args, tensor_product(a, b), head, lambda s: tensor_identity_check(a, b, s, args.pad))


def _cmd_segre(args):
    (atext, a), (btext, b) = args.a, args.b
    return _minor(args, segre(a, b), {"a": atext, "b": btext})


def _cmd_e_class(args):
    text, seq = args.seq
    value = e_class(seq, args.d)
    return {"seq": text, "d": args.d, "value": value_json(value)}, None


def _cmd_schur_profile(args):
    text, seq = args.seq
    profile = schur_dimension_profile(seq, args.r_max, args.s_max)
    return {
        "seq": text,
        "r_max": args.r_max,
        "s_max": args.s_max,
        "profile": list(profile) if profile is not None else None,
    }, None


def _cmd_ortho_decomp(args):
    ctx = QuadricContext(args.m)
    dec = orthogonal_stable_decomposition(ctx, args.lam)
    return {
        "m": args.m,
        "lambda": list(args.lam),
        "entries": dec.to_json(),
        "dimension": dec.dimension(),
        "schur_dim": quadric_schur_dim(ctx, args.lam),
    }, None


def _cmd_hs_check(args):
    return multigraded_hs_check(args.m, args.n, args.trunc), None


def _cmd_efw(args):
    count = args.count if args.count is not None else args.e_dim + 1
    parts = efw_partitions(args.shifts, count)
    table = efw_betti(args.shifts, args.e_dim, args.count)
    return {
        "shifts": list(args.shifts),
        "e_dim": args.e_dim,
        "partitions": [list(p.parts) for p in parts],
        "table": table.to_json(),
    }, table.to_csv


# the ring-specific flags of resolve and validate that each ring reads, the
# one it needs first; each of them is None unless given
_RING_FLAGS = {"quadric": ("m", "tail"), "rnc": ("d", "tail"), "poly": ("dim", "count")}


def _build_table(args):
    for flag in ("m", "d", "dim", "tail", "count"):
        readers = [ring for ring, flags in _RING_FLAGS.items() if flag in flags]
        if getattr(args, flag) is not None and args.ring not in readers:
            raise UsageError(f"--{flag} is read by {' and '.join(readers)} only, not by {args.cmd} {args.ring}")
    needed = _RING_FLAGS[args.ring][0]
    if getattr(args, needed) is None:
        raise UsageError(f"{args.cmd} {args.ring} needs --{needed}")
    tail = 4 if args.tail is None else args.tail
    if args.ring == "quadric":
        seq = make_sequence("quadric", m=args.m)
        table = quadric_pure_resolution(args.m, args.shifts, tail)
        params = {"ring": "quadric", "m": args.m, "shifts": list(args.shifts)}
    elif args.ring == "rnc":
        seq = rnc_sequence(args.d)
        table = rnc_pure_resolution(args.d, args.shifts, tail)
        params = {"ring": "rnc", "d": args.d, "shifts": list(args.shifts)}
    else:
        seq = make_sequence("poly", m=args.dim).dim_view()
        table = efw_betti(args.shifts, args.dim, args.count)
        params = {"ring": "poly", "dim": args.dim, "shifts": list(args.shifts)}
    return seq, table, params


def _cmd_resolve(args):
    _, table, params = _build_table(args)
    payload = dict(params)
    payload["table"] = table.to_json()
    return payload, table.to_csv


def _cmd_hk_solve(args):
    sol = hk_solve(args.twists, args.n)
    return sol.to_json(), None


def _cmd_validate(args):
    seq, table, params = _build_table(args)
    rep = validate_purity(table, seq, tail_horizon=args.horizon, margin=args.margin)
    payload = dict(params)
    payload["table"] = table.to_json()
    payload["purity"] = rep.to_json()
    return payload, table.to_csv


def _cmd_zelevinsky(args):
    text, seq = args.seq
    n = args.n
    if n is None:
        n = max(len(args.lam), len(args.mu), 1)
    _guard_cost(seq, args.lam, args.mu, n, args.max_cost)
    layout = jt_complex_layout(seq, args.lam, args.mu, n)
    chi = euler_characteristic(layout)
    payload = layout.to_json()
    payload["seq"] = text
    payload["euler"] = value_json(chi)
    payload["ok"] = chi == layout.minor
    return payload, None


def _add_shape_flags(p, mu_default=True):
    p.add_argument("--lambda", dest="lam", type=_parts_arg, required=True, help="outer partition, comma separated")
    if mu_default:
        p.add_argument("--mu", type=_parts_arg, default=(), help="inner partition, default empty")


class _QuietParser(argparse.ArgumentParser):
    """A parser that prints no help, usage or error; it still exits."""

    def _print_message(self, message, file=None):
        pass


class _Skipped:
    """Takes the arguments of a subcommand that _build_parser leaves out."""

    def add_argument(self, *args, **kwargs):
        pass

    set_defaults = add_argument


def _build_parser(only: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand or, given only, a quiet parser of that
    one alone (of none when only names no subcommand)."""
    cls = argparse.ArgumentParser if only is None else _QuietParser
    parser = cls(prog="jtkit", description="Total positivity certificates and pure resolution tables for graded sequences.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "text", "csv"), default="json")
    common.add_argument("--max-cost", dest="max_cost", type=int, default=8, help="reject class determinants above this order")
    sub = parser.add_subparsers(dest="cmd", required=True)

    def add(name, help):
        if only is not None and name != only:
            return _Skipped()
        return sub.add_parser(name, parents=[common], help=help)

    p = add("pf-check", "scan minors for a negative witness")
    p.add_argument("--seq", type=_seq_arg, required=True)
    p.add_argument("--order", type=int, default=4)
    p.add_argument("--window", type=int, default=8)
    p.add_argument("--skew", action="store_true", help="also scan skew shapes")
    p.set_defaults(handler=_cmd_pf_check)

    p = add("jt-minor", "one Jacobi-Trudi minor")
    p.add_argument("--seq", type=_seq_arg, required=True)
    _add_shape_flags(p)
    p.add_argument("--pad", type=int, default=None)
    p.set_defaults(handler=_cmd_jt_minor)

    p = add("lr", "one Littlewood-Richardson coefficient")
    _add_shape_flags(p)
    p.add_argument("--nu", type=_parts_arg, required=True)
    p.set_defaults(handler=_cmd_lr)

    p = add("skew-expand", "expand a skew Schur class into straight terms")
    _add_shape_flags(p)
    p.set_defaults(handler=_cmd_skew_expand)

    p = add("dim", "Schur functor dimensions")
    p.add_argument("kind", choices=("gl", "super", "quadric"))
    _add_shape_flags(p)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--r", type=int, default=None)
    p.add_argument("--s", type=int, default=None)
    p.add_argument("--method", choices=("jt", "vertical_strip", "super"), default="jt")
    p.set_defaults(handler=_cmd_dim)

    p = add("veronese", "minor of a Veronese subsequence plus the translation identity")
    p.add_argument("--seq", type=_seq_arg, required=True)
    p.add_argument("--d", type=int, required=True)
    _add_shape_flags(p)
    p.add_argument("--pad", type=int, default=None)
    p.set_defaults(handler=_cmd_veronese)

    p = add("tensor", "minor of a tensor product plus the Cauchy-Binet identity")
    p.add_argument("--a", type=_seq_arg, required=True)
    p.add_argument("--b", type=_seq_arg, required=True)
    _add_shape_flags(p)
    p.add_argument("--pad", type=int, default=None)
    p.set_defaults(handler=_cmd_tensor)

    p = add("segre", "minor of a Segre product")
    p.add_argument("--a", type=_seq_arg, required=True)
    p.add_argument("--b", type=_seq_arg, required=True)
    _add_shape_flags(p)
    p.add_argument("--pad", type=int, default=None)
    p.set_defaults(handler=_cmd_segre)

    p = add("e-class", "elementary class of a sequence")
    p.add_argument("--seq", type=_seq_arg, required=True)
    p.add_argument("--d", type=int, required=True)
    p.set_defaults(handler=_cmd_e_class)

    p = add("schur-profile", "hook bound matching the vanishing of minors")
    p.add_argument("--seq", type=_seq_arg, required=True)
    p.add_argument("--r-max", dest="r_max", type=int, default=4)
    p.add_argument("--s-max", dest="s_max", type=int, default=4)
    p.set_defaults(handler=_cmd_schur_profile)

    p = add("ortho-decomp", "stable-range orthogonal decomposition over a quadric")
    p.add_argument("--m", type=int, required=True)
    _add_shape_flags(p, mu_default=False)
    p.set_defaults(handler=_cmd_ortho_decomp, mu=())

    p = add("hs-check", "multigraded Hilbert series verification")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trunc", type=int, default=8)
    p.set_defaults(handler=_cmd_hs_check)

    p = add("efw", "partition ladder and Betti table over a polynomial ring")
    p.add_argument("--shifts", type=_ints_arg, required=True)
    p.add_argument("--dim", dest="e_dim", type=int, required=True)
    p.add_argument("--count", type=int, default=None)
    p.set_defaults(handler=_cmd_efw)

    for name, handler in (("resolve", _cmd_resolve), ("validate", _cmd_validate)):
        p = add(name, f"{name} a pure resolution table")
        p.add_argument("ring", choices=("quadric", "rnc", "poly"))
        p.add_argument("--shifts", type=_ints_arg, required=True)
        p.add_argument("--m", type=int, default=None)
        p.add_argument("--d", type=int, default=None)
        p.add_argument("--dim", type=int, default=None, metavar="E_DIM")
        p.add_argument("--tail", type=int, default=None)
        p.add_argument("--count", type=int, default=None)
        if name == "validate":
            p.add_argument("--horizon", type=int, default=None)
            p.add_argument("--margin", type=int, default=6)
        p.set_defaults(handler=handler)

    p = add("hk-solve", "pure Betti vectors from the rank conditions")
    p.add_argument("--twists", type=_ints_arg, required=True)
    p.add_argument("--n", type=int, default=None)
    p.set_defaults(handler=_cmd_hk_solve)

    p = add("zelevinsky", "layout of the Jacobi-Trudi complex")
    p.add_argument("--seq", type=_seq_arg, required=True)
    _add_shape_flags(p)
    p.add_argument("--n", type=int, default=None)
    p.set_defaults(handler=_cmd_zelevinsky)

    return parser


def _scalar_text(v) -> str:
    if v is None:
        return "null"
    if v is True:
        return "true"
    if v is False:
        return "false"
    if isinstance(v, list):
        return "[" + ", ".join(_scalar_text(x) for x in v) + "]"
    return str(v)


def _is_flat(v) -> bool:
    if isinstance(v, dict):
        return False
    if isinstance(v, list):
        return all(_is_flat(x) for x in v)
    return True


def _render_text(obj, indent: int, out: list) -> None:
    pad = " " * indent
    if isinstance(obj, dict):
        for k, v in obj.items():
            if k == "table" and isinstance(v, dict) and "rows" in v:
                out.append(f"{pad}{k}:")
                out.extend(f"{pad}  {line}" for line in _table_text(v))
            elif _is_flat(v):
                out.append(f"{pad}{k}: {_scalar_text(v)}")
            else:
                out.append(f"{pad}{k}:")
                _render_text(v, indent + 2, out)
    elif isinstance(obj, list):
        for item in obj:
            if _is_flat(item):
                out.append(f"{pad}- {_scalar_text(item)}")
            else:
                out.append(f"{pad}-")
                _render_text(item, indent + 2, out)
    else:
        out.append(f"{pad}{_scalar_text(obj)}")


def _table_text(table_json: dict) -> list:
    rows = table_json.get("rows", [])
    headers = ("index", "twist", "rank", "label")
    grid = [headers]
    for r in rows:
        grid.append((str(r["index"]), str(r["twist"]), str(r["rank"]), str(r.get("label", "") or "")))
    widths = [max(len(row[i]) for row in grid) for i in range(4)]
    out = ["  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip() for row in grid]
    tail = table_json.get("tail")
    if tail:
        bits = [f"start {tail['start']}", f"rank {tail['rank']}", f"step {tail['step']}"]
        if "ratio" in tail:
            bits.append(f"ratio {tail['ratio']}")
        out.append("tail: " + ", ".join(bits))
    return out


def _parse(argv: list) -> argparse.Namespace:
    """Parse argv with the parser of argv[0] alone; whatever that parser
    refuses, or answers with help, the full parser parses again, so every
    message is the full parser's own (its usage lists every subcommand)."""
    if argv:
        try:
            return _build_parser(argv[0]).parse_args(argv)
        except SystemExit:
            pass
    return _build_parser().parse_args(argv)


def run(argv) -> int:
    try:
        args = _parse(list(argv))
    except SystemExit as e:
        return int(e.code or 0)
    try:
        payload, to_csv = args.handler(args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 2
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    if args.format == "json":
        import json

        print(json.dumps(payload, indent=2, sort_keys=True))
    elif args.format == "text":
        lines = []
        _render_text(payload, 0, lines)
        print("\n".join(lines))
    else:
        if to_csv is None:
            print("usage error: --format csv is not available for this subcommand", file=sys.stderr)
            return 2
        sys.stdout.write(to_csv())
    return 0


def main() -> None:
    # the import-time heap lives until exit: frozen, neither the run's
    # collections nor the ones at interpreter shutdown walk it
    gc.freeze()
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
