"""Regenerate cli-schema.md from the schema definitions in the package."""
from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from jtkit.cli import _build_parser
from jtkit.schemas import SCHEMAS

HEADER = """# CLI JSON payloads

Every subcommand prints a single JSON object on stdout when run with the
default `--format json`.  The draft-07 schemas below are the source of
truth for those payloads; they live in `jtkit.schemas.SCHEMAS` and the
test suite validates real CLI output against them.  Regenerate this file
with `python3 docs/render_schemas.py` after changing a payload.

Exit codes: 0 on success (including negative scan verdicts), 1 for
domain errors reported as `error: ...` on stderr, 2 for usage errors.

`pf-check` and `schur-profile` evaluate the straight minors of their box of
shapes in one sweep, grown window by window (README, "Design notes").  A
window whose largest level could hold more than 2^18 = 262,144 partial
minors is a domain error: `error: a minor sweep at order R, window W may
hold N partial minors in one level, above the bound 262144`, exit code 1,
nothing on stdout.  `pf-check` grows its sweep through windows 1, 2, 4, ...
up to `--window` and stops at an early witness, so only a scan that
reaches such a window fails:
`--seq quadric:3 --order 14 --window 14` exits 1 at window 8, while
`--seq heisenberg --order 12 --window 30` finds its witness at window 4.
A negative `--order` or `--window` is a domain error (`error: scan order
and window must be nonnegative`, exit code 1); a zero one scans the empty
box and reports `checked` 0.

A sequence spec (`--seq`, `--a`, `--b`) holds at most 128 separators (`:`,
`,` and `(`), checked before any parsing: a longer one is a usage error,
`argument --seq: sequence spec has N separators (':', ',' and '('), more
than 128`, exit code 2.

`hs-check` solves every coefficient of an n-variable series to degree
`--trunc`, C(n + trunc, n) of them, after about n^2 series products.  More
than 8 factors (`error: a check over N quadric factors is above the bound
of 8 factors`) or more than 2^16 = 65,536 coefficients (`error: a series in
N variables to degree T has C coefficients, above the bound 65536`) is a
domain error, exit code 1, raised before any work: `--n 7 --trunc 12`
(50,388 coefficients) runs, `--n 8 --trunc 12` (125,970) does not.

`hk-solve` solves two square systems of n - 1 equations, n the number of
twists, by fraction-free elimination, whose cost grows with the size of the
system: (n - 1)^2 times the bit length B of the largest twist.  A size above
2^14 = 16,384 (`error: a rank system of N twists up to T has size (n - 1)^2
* B bits = S, above the bound 16384`) is a domain error, exit code 1, raised
before any work: `--twists 0,2,...,78` (40 twists, size 10,647) and
`--twists 0,1,1000000000` (size 120) run, `--twists 0,1,...,53` (54 twists,
size 16,854) does not.

`ortho-decomp` fills lambda/delta with LR tableaux for every delta inside
lambda whose columns all have even length; the decomposition of any 30-box
shape takes at most about 0.1 s on a 2-vCPU Xeon.
A shape with more than 30 boxes (`error: a decomposition of a shape with N
boxes is above the bound of 30 boxes`) is a domain error, exit code 1,
raised before any work and after the stable-range check: `--m 10 --lambda
6,6,6,6,6` runs, `--m 40 --lambda 12,10,8,6,4,2` (42 boxes) does not.

`resolve` and `validate` on `quadric` and `rnc` compute one minor of
order about m + j for each tail term j, so `--tail` T costs about T^4.
More than 64 tail terms (`error: a tail of T terms is above the bound of 64
terms`) is a domain error, exit code 1, nothing on stdout, raised before
any work: `resolve quadric --m 3 --shifts 1,1,1 --tail 64` runs in about
0.5 s on a 2-vCPU Xeon, `--tail 65` is refused.

`efw` prints a ladder of `--count` rungs (default `--dim` + 1), each with
about `--count` parts, so its size and time grow as the square of the
count; the table under it, and `resolve poly` and `validate poly`, build
min(count, dim + 1) rungs.  A ladder of more than 512 rungs (`error: a
ladder of N rungs is above the bound of 512 rungs`) is a domain error, exit
code 1, nothing on stdout, raised before any work: `efw --shifts 1,2,1
--dim 3 --count 512` runs, `--count 513` and `--dim 512` (with the default
count) do not.

`validate` checks the coefficients past the degree bound B, one more than
the largest twist, up to `--horizon`.  A horizon below B + max(`--margin`,
1) would check too few of them, or none, and is a domain error (`error:
horizon H too small to certify, need at least N`), exit code 1, nothing on
stdout: `validate quadric --m 3 --shifts 1,1,2` has B = 3, so `--horizon 4
--margin 0` runs and `--horizon 3 --margin 0` does not.  Without
`--horizon` the horizon is 24, or B + max(`--margin`, 1) where that is
more: `validate quadric --m 3 --shifts 1,1,1 --tail 64` has B = 67 and
certifies with horizon 73.

`resolve` and `validate` read `--m` for `quadric`, `--d` for `rnc`, `--dim`
and `--count` for `poly`, and `--tail` for `quadric` and `rnc`.  Giving a
ring a flag that it does not read is a usage error (`usage error: --tail is
read by quadric and rnc only, not by resolve poly`), exit code 2, nothing
on stdout.

Partitions are encoded as arrays of weakly decreasing positive integers.
Class values (for sequences carrying symbolic terms) are arrays of
`{"partitions": [...], "coeff": n}` entries; integer values stay bare.
"""


def render() -> str:
    """The text of cli-schema.md: the header, then one section per schema."""
    parser = _build_parser()
    sub = next(a for a in parser._actions if a.__class__.__name__ == "_SubParsersAction")
    helps = {a.dest: a.help for a in sub._choices_actions}
    lines = [HEADER]
    for name in sorted(SCHEMAS):
        lines.append(f"## `{name}`")
        lines.append("")
        blurb = helps.get(name)
        if blurb:
            lines.append(blurb[0].upper() + blurb[1:] + ".")
            lines.append("")
        lines.append("```json")
        lines.append(json.dumps(SCHEMAS[name], indent=2, sort_keys=True))
        lines.append("```")
        lines.append("")
    return "\n".join(lines)


def main() -> int:
    target = Path(__file__).resolve().parent / "cli-schema.md"
    target.write_text(render())
    print(f"wrote {target}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
