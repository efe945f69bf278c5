"""Exact determinants for integer and ring-valued matrices."""

from __future__ import annotations

from operator import index


def det_bareiss(rows: list[list[int]]) -> int:
    """Fraction-free determinant of a square integer matrix.

    Bareiss elimination keeps every intermediate entry an exact integer
    (each division is exact by Sylvester's identity).  Entries must be
    integers (ints, bools and types with __index__); anything else raises
    ValueError rather than being truncated.
    """
    n = len(rows)
    if n == 0:
        return 1
    try:
        m = [list(map(index, r)) for r in rows]
    except TypeError:
        bad = next(x for r in rows for x in r if not hasattr(type(x), "__index__"))
        raise ValueError(f"det_bareiss needs integer entries, got {bad!r}") from None
    if any(len(r) != n for r in m):
        raise ValueError("det_bareiss needs a square matrix")
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = m[i][j] * m[k][k] - m[i][k] * m[k][j]
                q, r = divmod(num, prev)
                if r:
                    raise ArithmeticError(f"Bareiss step {num} not divisible by pivot {prev}")
                m[i][j] = q
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


# The largest order det_expand takes; its memo then holds C(8, 4) = 70 subsets.
_EXPAND_MAX_ORDER = 8


def det_expand(rows: list[list], zero):
    """Determinant of a square matrix over any commutative ring exposing
    +, - and *; zero is the ring's additive identity.

    Laplace expansion row by row, memoised on column subsets: after row i
    there is one partial minor per (i+1)-subset of columns, and each one
    spreads over the next row's entries.  Zero entries and zero partial
    minors are skipped.  That is fewer than n*2^(n-1) ring multiplications and
    no division, so it is exact over any ring; orders above
    _EXPAND_MAX_ORDER are refused.
    """
    n = len(rows)
    if n > _EXPAND_MAX_ORDER:
        raise ValueError(f"matrix order {n} exceeds expansion bound {_EXPAND_MAX_ORDER}")
    if n == 0:
        raise ValueError("det_expand needs a nonempty matrix; use the caller's unit for order 0")
    if any(len(r) != n for r in rows):
        raise ValueError("det_expand needs a square matrix")
    # minors[S]: determinant of the rows so far on the column set S (a bitmask)
    minors = {1 << j: entry for j, entry in enumerate(rows[0]) if entry != zero}
    for row in rows[1:]:
        nxt = {}
        for cols, minor in minors.items():
            for j, entry in enumerate(row):
                if cols >> j & 1 or entry == zero:
                    continue
                term = minor * entry
                # the cofactor sign is the parity of the columns of S right of j
                if (cols >> j).bit_count() % 2:
                    term = -term
                key = cols | 1 << j
                nxt[key] = nxt[key] + term if key in nxt else term
        minors = {cols: m for cols, m in nxt.items() if m != zero}
    return minors.get((1 << n) - 1, zero)
