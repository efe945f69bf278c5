"""Exact determinants for integer and ring-valued matrices."""

from __future__ import annotations

from bisect import bisect_right
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
    return _bareiss(m) * m[n - 1][n - 1]


def _bareiss(m: list[list[int]]) -> int:
    """Bareiss elimination (Math. Comp. 22, 1968), in place, of the n rows
    of the integer matrix m on their first n columns, updating every column
    the rows hold and leaving the entries below the diagonal as they were:
    m[n-1][n-1] ends as the determinant of the row-swapped first n columns.
    Each step divides exactly by the previous pivot (Sylvester's identity),
    else ArithmeticError.  Returns the sign of the row swaps, or 0 when a
    pivot column before the last is zero on and below the diagonal."""
    n = len(m)
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
        top = m[k]
        p = top[k]
        for i in range(k + 1, n):
            row = m[i]
            f = row[k]
            for j in range(k + 1, len(row)):
                num = row[j] * p - f * top[j]
                q, r = divmod(num, prev)
                if r:
                    raise ArithmeticError(f"Bareiss step {num} not divisible by pivot {prev}")
                row[j] = q
        prev = p
    return sign


def _signed_sum(zero, products, start=None):
    """start (zero when None) plus the sum of sign * x * y over the
    (sign, x, y) triples of products, in the ring whose additive identity
    is zero.  A ring type with a sum_of_products(k, products, start)
    classmethod (SchurClass) sums them in one pass, called with k = zero.k,
    the ring's factor count; any other ring, such as the integers, adds
    them one by one."""
    fused = getattr(type(zero), "sum_of_products", None)
    if fused is not None:
        return fused(zero.k, products, start)
    return sum((sign * x * y for sign, x, y in products), zero if start is None else start)


def _laplace_step(zero, level, entries, seen=0, sums=None, limit=0):
    """One Laplace level step: the next level of partial minors.

    level maps a subset bitmask of the lines taken so far to its partial
    minor, every subset of one size.  entries holds the next line's
    (bit, entry) pairs over every line a subset can hold, a zero entry
    flagged as None, in the order in which the cofactor sign flips: a
    subset's product with an entry has the sign (-1)^j, j the number of the
    subset's bits before it.  So each subset walks the entries once with a
    running sign that flips at each of its own bits, and no product is
    compared with zero.  A subset with no bit at or above seen takes only the
    entries at or above seen, which come after all its bits: with the sign
    (-1)^|S|, the same for the whole level.  The integers and other plain
    rings add the products one by one; a ring with a sum_of_products
    (SchurClass) collects each new subset's triples and sums them once
    through _signed_sum.  The step never divides, so it is exact over any
    commutative ring with +, - and *.

    Given sums, which holds the sum of the bit positions of every subset of
    level, the entries must come in ascending bit order: the step then forms
    only the subsets whose position sum is at most limit, each subset
    walking its entries only as far as that allows, and records each new
    subset's sum in sums.
    """
    fresh = [e for e in entries if e[0] >> seen and e[1] is not None]
    odd = bool(level) and next(iter(level)).bit_count() % 2
    if sums is not None:
        # how many of its lines each subset walks, and the new subsets' sums
        cuts = {}
        bits = [e[0] for e in entries], [e[0] for e in fresh]
        for subset in level:
            total, old = sums[subset], not subset >> seen
            cut = cuts[subset] = bisect_right(bits[old], 1 << (limit - total)) if limit >= total else 0
            for bit, entry in (fresh if old else entries)[:cut]:
                if entry is not None and not subset & bit:
                    sums[subset | bit] = total + bit.bit_length() - 1
    nxt: dict = {}
    if getattr(type(zero), "sum_of_products", None) is not None:
        for subset, minor in level.items():
            if minor == zero:
                continue
            if subset >> seen:
                lines, sign = entries, 1
            else:
                lines, sign = fresh, -1 if odd else 1
            if sums is not None:
                lines = lines[: cuts[subset]]
            for bit, entry in lines:
                if subset & bit:
                    sign = -sign
                elif entry is not None:
                    key = subset | bit
                    if key in nxt:
                        nxt[key].append((sign, minor, entry))
                    else:
                        nxt[key] = [(sign, minor, entry)]
        return {key: _signed_sum(zero, triples) for key, triples in nxt.items()}
    for subset, minor in level.items():
        if minor == zero:
            continue
        if subset >> seen:
            lines = entries
        else:
            lines = fresh
            if odd:
                minor = -minor
        if sums is not None:
            lines = lines[: cuts[subset]]
        for bit, entry in lines:
            if subset & bit:
                minor = -minor
            elif entry is not None:
                key = subset | bit
                if key in nxt:
                    nxt[key] += minor * entry
                else:
                    nxt[key] = minor * entry
    return nxt


# The largest order det_expand takes; its memo then holds C(8, 4) = 70 subsets.
_EXPAND_MAX_ORDER = 8


def det_expand(rows: list[list], zero):
    """Determinant of a square matrix over any commutative ring exposing
    +, - and *; zero is the ring's additive identity.

    Laplace expansion row by row on column subsets: row 0 seeds one partial
    minor per nonzero entry, and each later row is one _laplace_step over
    its entries in descending column order, as the cofactor sign is the
    parity of the subset's columns right of the new column.  That is fewer
    than n*2^(n-1) ring multiplications and no division; orders above
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
        entries = [(1 << j, None if row[j] == zero else row[j]) for j in range(n - 1, -1, -1)]
        minors = _laplace_step(zero, minors, entries)
    return minors.get((1 << n) - 1, zero)
