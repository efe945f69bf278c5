"""Build a directory of pure resolution tables in JSON and CSV form.

Covers the quadric rings for small m, rational normal curves for small d,
and the polynomial-ring ladders, over a default grid of shift vectors.  Each
table is validated against the ring's Hilbert series before it is written.
"""
from __future__ import annotations

import argparse
import itertools
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from jtkit.resolutions import (
    efw_betti,
    quadric_pure_resolution,
    rnc_pure_resolution,
    rnc_sequence,
    validate_purity,
)
from jtkit.sequences import make_sequence


def shift_grid(n: int, top: int):
    return itertools.product(range(1, top + 1), repeat=n)


def _require_pure(report, what: str) -> None:
    if not (report.is_polynomial and report.nonnegative):
        raise RuntimeError(f"{what}: table failed its purity check")


def write_table(out_dir: Path, name: str, table, report=None) -> None:
    payload = {"table": table.to_json()}
    if report is not None:
        payload["purity"] = report.to_json()
    (out_dir / f"{name}.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    (out_dir / f"{name}.csv").write_text(table.to_csv())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", type=Path, default=Path("tables"))
    ap.add_argument("--max-m", type=int, default=3)
    ap.add_argument("--max-d", type=int, default=4)
    ap.add_argument("--max-shift", type=int, default=2)
    ap.add_argument("--tail", type=int, default=4)
    args = ap.parse_args(argv)
    args.out.mkdir(parents=True, exist_ok=True)

    count = 0
    for m in range(1, args.max_m + 1):
        seq = make_sequence("quadric", m=m)
        for e in shift_grid(m, args.max_shift):
            table = quadric_pure_resolution(m, e, tail_terms=args.tail)
            rep = validate_purity(table, seq)
            _require_pure(rep, f"quadric m={m} shifts {e}")
            write_table(args.out, "quadric_m%d_e%s" % (m, "".join(map(str, e))), table, rep)
            count += 1
    for d in range(1, args.max_d + 1):
        seq = rnc_sequence(d)
        for e in shift_grid(3, args.max_shift):
            table = rnc_pure_resolution(d, e, tail_terms=args.tail)
            rep = validate_purity(table, seq)
            _require_pure(rep, f"rnc d={d} shifts {e}")
            write_table(args.out, "rnc_d%d_e%s" % (d, "".join(map(str, e))), table, rep)
            count += 1
    for e_dim in (2, 3):
        for e in shift_grid(e_dim + 1, args.max_shift):
            table = efw_betti(e, e_dim)
            if table.is_empty():
                continue
            write_table(args.out, "poly_dim%d_e%s" % (e_dim, "".join(map(str, e))), table)
            count += 1
    print(f"wrote {count} tables to {args.out}/")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
