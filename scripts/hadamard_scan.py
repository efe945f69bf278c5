"""Scan Hadamard products of catalog sequences for lost positivity.

Quick experiment driver: pair up a few named sequences, run the minor scan
on each termwise product, and print whichever witness shows up first.
"""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from jtkit.sequences import hadamard, parse_sequence_spec, pf_check

CATALOG = [
    "quadric:2",
    "quadric:3",
    "qdual:3",
    "super:2,1",
    "squares",
    "heisenberg",
]

ORDER = 4
WINDOW = 7


def main():
    specs = sys.argv[1:] or CATALOG
    seqs = [(s, parse_sequence_spec(s)) for s in specs]
    print(f"pf scan, order <= {ORDER}, parts <= {WINDOW}")
    for i, (name_a, a) in enumerate(seqs):
        for name_b, b in seqs[i:]:
            h = hadamard(a, b)
            rep = pf_check(h, max_order=ORDER, window=WINDOW)
            tag = f"{name_a} (*) {name_b}"
            if rep.witness is None:
                print(f"  {tag:34s} ok ({rep.checked} minors)")
            else:
                lam, mu, value = rep.witness
                where = f"{lam}" if not mu else f"{lam}/{mu}"
                print(f"  {tag:34s} NEGATIVE at {where}: {value}")


if __name__ == "__main__":
    main()
