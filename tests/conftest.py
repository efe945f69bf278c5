from __future__ import annotations

from hypothesis import strategies as st


def outcome(f, *args, **kwargs):
    """f's value, or the type and message of the exception it raised."""
    try:
        return f(*args, **kwargs)
    except Exception as exc:
        return type(exc).__name__, str(exc)


def partitions(max_size=8, max_part=8, max_length=4):
    """Strategy for partition tuples within the given box and size cap."""

    def clip(xs):
        xs = tuple(sorted((x for x in xs if x > 0), reverse=True))
        total = 0
        out = []
        for x in xs:
            if total + x > max_size:
                break
            out.append(x)
            total += x
        return tuple(out)

    return st.lists(st.integers(1, max_part), max_size=max_length).map(clip)


def sub_partition(lam):
    """Strategy for a partition contained in lam, given lam as a tuple."""
    if not lam:
        return st.just(())

    def build(seed):
        out = []
        prev = None
        for i, top in enumerate(lam):
            hi = top if prev is None else min(top, prev)
            v = seed[i] % (hi + 1)
            out.append(v)
            prev = v
        return tuple(x for x in out if x)

    return st.lists(st.integers(0, 10 ** 6), min_size=len(lam), max_size=len(lam)).map(build)


# one sequence spec of each kind that ran away before parse_sequence_spec
# bounded its separators, with that count: unbounded recursion, a nested
# tensor: that did not finish in 30 s, a long list: that every cut split
# again (6 s), and deep parentheses (0.9 s)
RUNAWAY_SPECS = {
    "veronese": ("veronese:" * 600 + "quadric:2" + ",2" * 600, 1201),
    "tensor": ("tensor:" * 400 + "quadric:2" + ",quadric:2" * 400, 1201),
    "list": ("tensor:list:" + "1," * 4000 + "quadric:2", 4003),
    "parens": ("(" * 4000 + "quadric:2" + ")" * 4000, 4001),
}
