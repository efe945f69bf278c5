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


def _laplace_step(zero, level, entries, seen=0):
    """One Laplace level step: the next level of partial minors.

    level maps a subset bitmask of the lines taken so far to its partial
    minor; entries holds the next line's nonzero (bit, sign_mask, entry)
    triples.  Each nonzero minor spreads over the entries whose bit is not in
    its subset, with the cofactor sign the parity of subset & sign_mask; a
    subset with no bit at or above seen takes only the entries whose bit is
    at or above seen.  The integers and other plain rings add the products
    one by one; a ring with a sum_of_products (SchurClass) collects each new
    subset's triples and sums them once through _signed_sum.  The step never
    divides, so it is exact over any commutative ring with +, - and *.
    """
    fresh = [e for e in entries if e[0] >> seen]
    if getattr(type(zero), "sum_of_products", None) is None:
        nxt = {}
        for subset, minor in level.items():
            if minor == zero:
                continue
            for bit, sign_mask, entry in entries if subset >> seen else fresh:
                if subset & bit:
                    continue
                term = minor * entry
                if (subset & sign_mask).bit_count() % 2:
                    term = -term
                key = subset | bit
                nxt[key] = nxt[key] + term if key in nxt else term
        return nxt
    products: dict[int, list] = {}
    for subset, minor in level.items():
        if minor == zero:
            continue
        for bit, sign_mask, entry in entries if subset >> seen else fresh:
            if not subset & bit:
                sign = -1 if (subset & sign_mask).bit_count() % 2 else 1
                products.setdefault(subset | bit, []).append((sign, minor, entry))
    return {key: _signed_sum(zero, triples) for key, triples in products.items()}


# The largest order det_expand takes; its memo then holds C(8, 4) = 70 subsets.
_EXPAND_MAX_ORDER = 8


def det_expand(rows: list[list], zero):
    """Determinant of a square matrix over any commutative ring exposing
    +, - and *; zero is the ring's additive identity.

    Laplace expansion row by row on column subsets: row 0 seeds one partial
    minor per nonzero entry, and each later row is one _laplace_step, whose
    cofactor sign is the parity of the subset's columns right of the new
    column.  That is fewer than n*2^(n-1) ring multiplications and no
    division; orders above _EXPAND_MAX_ORDER are refused.
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
        minors = _laplace_step(zero, minors, [(1 << j, -1 << j, e) for j, e in enumerate(row) if e != zero])
    return minors.get((1 << n) - 1, zero)
