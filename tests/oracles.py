"""Independent reference implementations used only by the test suite.

Everything here recomputes library results by a different algorithm:
shape canonicalization, conjugates and containment one part at a time,
the partitions inside a shape by choosing every row and sorting the set,
tableau counts by direct chain recursion and, for super tableaux, by
filling the diagram cell by cell and by strip chains grown forward from
the inner shape alone, determinants by fraction Gaussian
elimination and by the permutation sum, elementary classes by the sum over
compositions, Schur polynomials by brute monomial expansion, orthogonal
character dimensions by peeling doubled rows off the GL dimension,
Schur products by strip chains taken in the argument order given, each
strip picked from a product of row ranges, one letter's strips with their
lattice records by a pruned recursion over the rows, class products from
those expansions one term pair at a time, Jacobi-Trudi complex terms by
one product per weight entry, positivity scans and hook
profiles by one Jacobi-Trudi minor per shape, skew positivity scans by
one minor per pair of shapes,
series inverses by summing geometric powers, the multigraded Hilbert
series by multiplying with those inverses instead of dividing, and its
check's report one exponent tuple at a time, series
products and quotients on exponent tuples instead of packed keys,
Taylor coefficients at t = 1 by repeated synthetic division, linear
systems, hk_solve's among them, by Gauss-Jordan over Fraction,
hk_solve's own elimination with its unknowns kept as Fractions, and the
minors of tensoralg in closed form by the hook length formula.  None of
these call the library code paths they check.

The last few helpers instead cross two library routes against each other:
the h-type and e-type minors of one shape, a class minor whatever side
jt_minor picks against its h-form, the Pieri rule on minors, and the
quadric sequences as virtual GL classes read at dimension level.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb, factorial, gcd, lcm, prod
from operator import add


def trim_by_loop(parts) -> tuple[int, ...]:
    """Shape canonicalization one part at a time: the same checks, in the
    same order and with the same messages, as jtkit.shapes.trim on integer
    parts."""
    t = tuple(int(p) for p in parts)
    for a, b in zip(t, t[1:]):
        if a < b:
            raise ValueError(f"parts not weakly decreasing: {t}")
    if t and t[-1] < 0:
        raise ValueError(f"negative part in {t}")
    while t and t[-1] == 0:
        t = t[:-1]
    return t


def conjugate_by_count(parts) -> tuple[int, ...]:
    """Column lengths, each counted over the rows."""
    t = trim_by_loop(parts)
    if not t:
        return ()
    return tuple(sum(1 for p in t if p >= c + 1) for c in range(t[0]))


def contains_by_index(outer, inner) -> bool:
    """Whether inner fits inside outer, compared row by row."""
    o, i = trim_by_loop(outer), trim_by_loop(inner)
    if len(i) > len(o):
        return False
    return all(i[k] <= o[k] for k in range(len(i)))


def subpartitions_by_sorting(lam) -> list[tuple[int, ...]]:
    """The partitions inside lam: each row picked in turn up to the one
    above it, trimmed, deduplicated in a set and sorted by size, then
    lexicographically."""

    def rec(bounds):
        if not bounds:
            yield ()
            return
        for first in range(bounds[0] + 1):
            for rest in rec(tuple(min(p, first) for p in bounds[1:])):
                yield trim_by_loop((first,) + rest)

    return sorted(set(rec(trim_by_loop(lam))), key=lambda t: (sum(t), t))


_SSYT_MEMO = {}


def _betweens(lam, mu):
    """All partitions alpha with mu <= alpha <= lam rowwise."""
    lam = tuple(lam)
    mu = tuple(mu) + (0,) * (len(lam) - len(mu))
    ranges = [range(mu[i], lam[i] + 1) for i in range(len(lam))]
    for pick in itertools.product(*ranges):
        if all(pick[i] >= pick[i + 1] for i in range(len(pick) - 1)):
            yield tuple(x for x in pick if x)


def ssyt_count(lam, mu, m) -> int:
    """Number of semistandard fillings of lam/mu with entries 1..m, by
    peeling the horizontal strip of the largest letter."""
    lam = tuple(x for x in lam if x)
    mu = tuple(x for x in mu if x)
    if any(a < b for a, b in zip(lam + (0,) * len(mu), mu)) or len(mu) > len(lam):
        return 0
    key = (lam, mu, m)
    hit = _SSYT_MEMO.get(key)
    if hit is not None:
        return hit
    if m == 0:
        val = 1 if lam == mu else 0
    else:
        val = 0
        for alpha in _betweens(lam, mu):
            # lam/alpha must be a horizontal strip: alpha_i >= lam_{i+1}
            apad = alpha + (0,) * (len(lam) - len(alpha))
            if all(apad[i] >= lam[i + 1] for i in range(len(lam) - 1)):
                val += ssyt_count(alpha, mu, m - 1)
    _SSYT_MEMO[key] = val
    return val


def mult_one_given_order(mu, nu) -> dict:
    """s_mu * s_nu by adding the rows of nu to mu as horizontal strips, in
    the order given and without a memo.

    Letter i adds nu_i boxes, at most one per column, so row r of the new
    shape stays within row r - 1 of the old.  Its boxes in rows 1..r never
    outnumber those of letter i - 1 in rows 1..r - 1 (the lattice condition;
    no later letter enters row 1).  Each strip is picked from the product of
    the row ranges and kept when its size is nu_i.
    """
    states = {(tuple(x for x in mu if x), None): 1}
    for k in (x for x in nu if x):
        nxt = {}
        for (shape, prev), cnt in states.items():
            padded = shape + (0,)
            ranges = [range(k + 1)] + [range(min(k, padded[r - 1] - padded[r]) + 1) for r in range(1, len(padded))]
            for add in itertools.product(*ranges):
                if sum(add) != k:
                    continue
                cum = tuple(itertools.accumulate(add))
                if prev is not None:
                    limits = (0,) + prev + (prev[-1],) * len(cum)
                    if any(c > limit for c, limit in zip(cum, limits)):
                        continue
                new = tuple(x for x in (p + a for p, a in zip(padded, add)) if x)
                nxt[(new, cum)] = nxt.get((new, cum), 0) + cnt
        states = nxt
    out = {}
    for (shape, _), cnt in states.items():
        out[shape] = out.get(shape, 0) + cnt
    return out


def strips_by_recursion(cur, k, prev_cum) -> list:
    """All ways to add a horizontal strip of k boxes to the canonical shape
    cur, as (new shape, record) pairs, where record[r] counts the boxes
    added in rows 0..r, by a recursion over the rows.

    prev_cum is the record of the previous letter, or None for the first
    letter: boxes of this letter through row r may not outnumber those of
    the previous letter through row r - 1.  Row r takes at most room[r]
    boxes, so the strip stays under row r - 1 of cur, and at least what the
    rows below it cannot hold; the new last row takes what is left.
    """
    last = len(cur)
    room = (k,) + tuple(a - b for a, b in zip(cur, cur[1:] + (0,)))
    below = [0] * (last + 2)
    for r in range(last, -1, -1):
        below[r] = below[r + 1] + room[r]
    if prev_cum is None:
        limit = (k,) * (last + 1)
    else:
        limit = ((0,) + tuple(prev_cum) + (prev_cum[-1],) * last)[: last + 1]
    out = []
    newparts, cum = [], []

    def rec(r, rem, added):
        if r == last:
            if rem <= room[r] and added + rem <= limit[r]:
                parts = tuple(newparts) + (rem,) if rem else tuple(newparts)
                out.append((parts, tuple(cum) + (added + rem,)))
            return
        for c in range(max(0, rem - below[r + 1]), min(rem, room[r], limit[r] - added) + 1):
            newparts.append(cur[r] + c)
            cum.append(added + c)
            rec(r + 1, rem - c, added + c)
            newparts.pop()
            cum.pop()

    rec(0, k, 0)
    return out


def class_mul_by_partials(a, b):
    """The product of two SchurClasses term pair by term pair: each factor
    pair expanded by mult_one_given_order, the expansions combined as a
    cartesian product of partial keys, and no memo read."""
    from jtkit.symfunc import SchurClass

    if a.k != b.k:
        raise ValueError("factor_count mismatch")
    out = {}
    for key1, c1 in a.terms.items():
        for key2, c2 in b.terms.items():
            partials = [((), c1 * c2)]
            for mu, nu in zip(key1, key2):
                expansion = mult_one_given_order(mu, nu)
                partials = [
                    (built + (lam,), coeff * lr) for built, coeff in partials for lam, lr in expansion.items()
                ]
            for key, coeff in partials:
                out[key] = out.get(key, 0) + coeff
    return SchurClass(a.k, out)


def layout_by_products(a, lam, mu, n) -> list:
    """The Jacobi-Trudi complex's terms as (degree, sigma, weight, value):
    each value multiplied out from the unit along the weight in its given
    order, one product per entry, class products by class_mul_by_partials.
    lam and mu are canonical and n at least their length."""
    from jtkit.shapes import dotted_action, permutations_by_length
    from jtkit.symfunc import SchurClass

    lampad = tuple(lam) + (0,) * (n - len(lam))
    mupad = tuple(mu) + (0,) * (n - len(mu))
    out = []
    grouped = permutations_by_length(n)
    for degree in sorted(grouped):
        for sigma in grouped[degree]:
            weight = tuple(x - y for x, y in zip(lampad, dotted_action(sigma, mupad)))
            value = a.unit_value()
            for w in weight:
                term = a.term(w)
                value = class_mul_by_partials(value, term) if isinstance(value, SchurClass) else value * term
            out.append((degree, sigma.word, weight, value))
    return out


def super_count(lam, mu, r, s) -> int:
    """Super tableau count via the splitting into an even SSYT below and a
    transposed SSYT above."""
    lam = tuple(x for x in lam if x)
    mu = tuple(x for x in mu if x)
    total = 0
    for alpha in _betweens(lam, mu):
        total += ssyt_count(alpha, mu, r) * ssyt_count(conjugate_by_count(lam), conjugate_by_count(alpha), s)
    return total


def super_fillings(lam, mu, r, s) -> int:
    """Super tableau count by filling lam/mu cell by cell in row-major order
    with letters 1..r+s, where 1..r are even and r+1..r+s odd: rows repeat
    only even letters, columns repeat only odd ones."""
    lam = tuple(x for x in lam if x)
    mu = tuple(x for x in mu if x) + (0,) * len(lam)
    cells = [(row, c) for row in range(len(lam)) for c in range(mu[row], lam[row])]
    grid = {}

    def rec(idx):
        if idx == len(cells):
            return 1
        row, c = cells[idx]
        left = grid.get((row, c - 1))
        above = grid.get((row - 1, c))
        total = 0
        for v in range(1, r + s + 1):
            if left is not None and (v < left or (v == left and v > r)):
                continue
            if above is not None and (v < above or (v == above and v <= r)):
                continue
            grid[(row, c)] = v
            total += rec(idx + 1)
            del grid[(row, c)]
        return total

    return rec(0)


def _add_strips_forward(counts, outer, letters):
    """Extend each chain in counts {shape: chains} by letters horizontal
    strips inside outer, nonempty strips only, a chain of k of them spread
    over the letters in C(letters, k) ways.  Shapes are padded to
    len(outer) rows; row i of a new shape runs from alpha_i to
    min(outer_i, alpha_{i-1})."""
    total = dict(counts)
    for k in range(1, letters + 1):
        nxt = {}
        for alpha, cnt in counts.items():
            rows = [range(a, min(o, above) + 1) for a, o, above in zip(alpha, outer, outer[:1] + alpha)]
            for nu in itertools.islice(itertools.product(*rows), 1, None):
                nxt[nu] = nxt.get(nu, 0) + cnt
        counts = nxt
        if not counts:
            break
        for nu, cnt in counts.items():
            total[nu] = total.get(nu, 0) + comb(letters, k) * cnt
    return total


def dim_super_forward(lam, r, s, mu=()) -> int:
    """Super tableau count by one forward strip DP: r horizontal strips
    grown from mu inside lam, the tally conjugated, then s more horizontal
    strips grown inside lam' and the count read off at lam'."""
    lam = trim_by_loop(lam)
    mu = trim_by_loop(mu) + (0,) * len(lam)
    evens = _add_strips_forward({mu[: len(lam)]: 1}, lam, r)
    lamt = conjugate_by_count(lam)
    padt = (0,) * len(lamt)
    odds = _add_strips_forward({(conjugate_by_count(a) + padt)[: len(lamt)]: c for a, c in evens.items()}, lamt, s)
    return odds.get(lamt, 0)


_CHI_MEMO = {}


def chi_o_peeling(mu, m) -> int:
    """Stable orthogonal character dimension by peeling doubled-row LR terms
    out of the GL dimension: chi(mu) = dim_gl(mu, m) minus the sum over
    nonempty nu and alpha of c^mu_{alpha, 2 nu} chi(alpha)."""
    from jtkit.shapes import partitions_of, subpartitions
    from jtkit.symfunc import dim_gl, lr_coefficient

    mu = tuple(x for x in mu if x)
    key = (mu, m)
    hit = _CHI_MEMO.get(key)
    if hit is not None:
        return hit
    total = dim_gl(mu, m)
    size = sum(mu)
    for half in range(1, size // 2 + 1):
        for nu in partitions_of(half):
            doubled = tuple(2 * p for p in nu)
            for alpha in subpartitions(mu):
                if sum(alpha) == size - 2 * half:
                    c = lr_coefficient(mu, alpha, doubled)
                    if c:
                        total -= c * chi_o_peeling(alpha, m)
    _CHI_MEMO[key] = total
    return total


def det_fraction(rows) -> Fraction:
    """Plain Gaussian elimination over Fraction."""
    n = len(rows)
    m = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, n):
            f = m[r][col] * inv
            if f:
                m[r] = [a - f * b for a, b in zip(m[r], m[col])]
    return det


def det_permutations(rows, zero):
    """Signed sum over all n! permutations, for entries in any commutative
    ring exposing + and *; zero is the ring's additive identity."""
    n = len(rows)
    total = zero
    for perm in itertools.permutations(range(n)):
        inv = sum(1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j])
        term = rows[0][perm[0]]
        for i in range(1, n):
            term = term * rows[i][perm[i]]
        total = total + (-term if inv % 2 else term)
    return total


def minor_by_toeplitz(seq, j_idx, i_idx):
    """The Toeplitz minor det(A_{i - j}) on row set i_idx and column set
    j_idx, by the permutation sum."""
    rows = [[seq.term(i - j) for j in j_idx] for i in i_idx]
    return det_permutations(rows, seq.zero_value())


def compositions_of(d: int):
    """All 2^(d-1) compositions of d (d >= 1), plus the empty one for d = 0."""
    if d == 0:
        yield ()
        return
    for first in range(1, d + 1):
        for rest in compositions_of(d - first):
            yield (first,) + rest


def e_class_compositions(seq, d: int):
    """Degree-d elementary class of a graded sequence: the alternating sum,
    over all compositions of d, of the products of the terms."""
    acc = seq.zero_value()
    for comp in compositions_of(d):
        prod = seq.unit_value()
        for part in comp:
            prod = prod * seq.term(part)
        acc = acc + (-prod if (d - len(comp)) % 2 else prod)
    return acc


def ssyt_fillings(lam, mu, nvars):
    """Yield every semistandard filling as a row-major tuple of entries."""
    lam = tuple(x for x in lam if x)
    mu = tuple(x for x in mu if x) + (0,) * (len(lam) - len(mu))
    cells = [(r, c) for r in range(len(lam)) for c in range(mu[r], lam[r])]
    values = {}

    def fill(i):
        if i == len(cells):
            yield tuple(values[c] for c in cells)
            return
        r, c = cells[i]
        lo = 1
        if (r, c - 1) in values:
            lo = max(lo, values[(r, c - 1)])
        if (r - 1, c) in values:
            lo = max(lo, values[(r - 1, c)] + 1)
        for v in range(lo, nvars + 1):
            values[(r, c)] = v
            yield from fill(i + 1)
        values.pop((r, c), None)

    yield from fill(0)


def schur_monomials(lam, mu, nvars) -> dict:
    """Monomial expansion of the skew Schur polynomial in nvars variables."""
    out = {}
    for filling in ssyt_fillings(lam, mu, nvars):
        exps = [0] * nvars
        for v in filling:
            exps[v - 1] += 1
        key = tuple(exps)
        out[key] = out.get(key, 0) + 1
    return out


def poly_mul(a: dict, b: dict) -> dict:
    out = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            k = tuple(x + y for x, y in zip(ka, kb))
            out[k] = out.get(k, 0) + ca * cb
    return {k: c for k, c in out.items() if c}


def poly_combine(terms, nvars) -> dict:
    """Integer combination of straight Schur polynomials given as
    {partition: coeff}."""
    out = {}
    for lam, coeff in terms.items():
        for k, c in schur_monomials(lam, (), nvars).items():
            out[k] = out.get(k, 0) + coeff * c
    return {k: c for k, c in out.items() if c}


def pf_check_per_shape(seq, max_order: int, window: int):
    """Straight positivity scan with one Jacobi-Trudi minor per shape, in
    the scan order: the first negative minor is the witness."""
    from jtkit.sequences import PFReport, jt_minor
    from jtkit.shapes import scan_partitions

    checked = 0
    for lam in scan_partitions(max_order, window):
        value = jt_minor(seq, lam)
        checked += 1
        negative = value < 0 if seq.value_kind == "integer" else not value.is_nonnegative()
        if negative:
            return PFReport("negative", max_order, window, checked, witness=(lam, (), value))
    return PFReport("positive-up-to-bounds", max_order, window, checked)


def pf_check_per_pair(seq, max_order: int, window: int):
    """Skew positivity scan with one Jacobi-Trudi minor per pair (lambda, mu),
    mu inside lambda, in the scan order: the first negative minor is the
    witness."""
    from jtkit.sequences import PFReport, _is_negative, jt_minor
    from jtkit.shapes import Partition, SkewShape, scan_partitions, subpartitions

    checked = 0
    inner = {}
    for lam in scan_partitions(max_order, window):
        outer = Partition(lam)
        for mu in subpartitions(lam):
            sub = inner.get(mu)
            if sub is None:
                sub = inner[mu] = Partition(mu)
            value = jt_minor(seq, SkewShape(outer, sub))
            checked += 1
            if _is_negative(seq, value):
                return PFReport("negative", max_order, window, checked, witness=(lam, mu, value))
    return PFReport("positive-up-to-bounds", max_order, window, checked)


def schur_dimension_profile_pairwise(seq, r_max: int, s_max: int):
    """Hook profile with one minor per shape and up-closure checked over
    all pairs of shapes in the box."""
    from jtkit.sequences import jt_minor
    from jtkit.shapes import contains, scan_partitions

    av = seq.dim_view()
    box = list(scan_partitions(r_max + 1, s_max + 1))
    vanish = {lam: jt_minor(av, lam) == 0 for lam in box}
    for lam in box:
        if vanish[lam] and any(not vanish[other] and contains(other, lam) for other in box):
            return None
    actual = {lam for lam in box if vanish[lam]}
    for r in range(r_max + 1):
        for s in range(s_max + 1):
            if actual == {lam for lam in box if (lam[r] if r < len(lam) else 0) > s}:
                return (r, s)
    return None


def inverse_geometric(f):
    """1/f for a truncated series with constant term c0 = +1 or -1: f is
    c0 (1 - r) with r of positive order, so 1/f is c0 times the sum of the
    powers of r, each a full product, up to the truncation degree."""
    from jtkit.powerseries import TruncSeries

    c0 = f.constant()
    if c0 not in (1, -1):
        raise ValueError(f"inverse needs unit constant term, got {c0}")
    one = TruncSeries.one(f.nvars, f.trunc)
    r = one - f * c0
    acc = power = one
    for _ in range(f.trunc):
        power = power * r
        if not power.coeffs:
            break
        acc = acc + power
    return acc * c0


def multigraded_hs_by_inverses(m: int, n: int, trunc: int):
    """The uncancelled multigraded Hilbert series of n quadric factors as
    num * inverse(den) * prod_i inverse(1 - x_i)^m, where num is the product
    of 1 - x_i x_j over i <= j and den the same over i < j, with
    geometric-sum inverses and no division."""
    from jtkit.powerseries import TruncSeries

    one = TruncSeries.one(n, trunc)
    xs = [TruncSeries.var(n, trunc, i) for i in range(n)]
    num = den = one
    for i in range(n):
        for j in range(i, n):
            num = num * (one - xs[i] * xs[j])
            if i < j:
                den = den * (one - xs[i] * xs[j])
    series = num * inverse_geometric(den)
    for x in xs:
        series = series * inverse_geometric(one - x) ** m
    return series


def all_exponents(n: int, trunc: int) -> list:
    """Every exponent tuple of n variables with total degree at most trunc,
    in lexicographic order."""
    out = [()]
    for _ in range(n):
        out = [e + (k,) for e in out for k in range(trunc + 1 - sum(e))]
    return out


def multigraded_hs_report(m: int, n: int, trunc: int) -> dict:
    """multigraded_hs_check's report on exponent tuples: the series of
    multigraded_hs_by_inverses; its factorization against the (n-1)-variable
    series embedded and times (1 - x^2) (1 - x)^(-m) in the last variable,
    with a geometric-sum inverse; and each coefficient, one exponent tuple at
    a time, against the product over its exponents e of the quadric
    dimensions C(m - 1 + e, e) - C(m - 3 + e, e - 2)."""
    from jtkit.powerseries import TruncSeries

    series = multigraded_hs_by_inverses(m, n, trunc)
    one = TruncSeries.one(n, trunc)
    x = TruncSeries.var(n, trunc, n - 1)
    last = (one - x * x) * inverse_geometric(one - x) ** m
    smaller = multigraded_hs_by_inverses(m, n - 1, trunc).embed(n, range(n - 1)) if n > 1 else one
    factorization = series == smaller * last
    terms = [comb(m - 1 + e, e) - (comb(m - 3 + e, e - 2) if e >= 2 else 0) for e in range(trunc + 1)]
    coefficients = all(
        series.coefficient(exps) == prod(terms[e] for e in exps) for exps in all_exponents(n, trunc)
    )
    return {
        "m": m,
        "n": n,
        "trunc": trunc,
        "factorization": factorization,
        "coefficients": coefficients,
        "ok": factorization and coefficients,
    }


def ortho_multiplicities_by_lr(lam) -> dict:
    """Stable orthogonal multiplicities of a GL shape: for each mu inside
    lam, in subpartitions' order, the sum over nu of c^lam_{mu, (2 nu)'}
    with one lr_coefficient call per pair, the transposed doubled partitions
    enumerated directly."""
    from jtkit.shapes import conjugate, partitions_of, subpartitions
    from jtkit.symfunc import lr_coefficient

    out = {}
    for mu in subpartitions(lam):
        rem = sum(lam) - sum(mu)
        if rem % 2:
            continue
        mult = sum(
            lr_coefficient(lam, mu, conjugate(tuple(2 * p for p in nu))) for nu in partitions_of(rem // 2)
        )
        if mult:
            out[mu] = mult
    return out


def _by_degree(coeffs: dict) -> list:
    """(total degree, exponents, coefficient) for each term, lowest degree
    first."""
    return sorted((sum(e), e, c) for e, c in coeffs.items())


def series_mul_tuples(a, b):
    """a * b on exponent tuples: each term of a meets the terms of b in
    degree order until the pair passes the cutoff."""
    from jtkit.powerseries import TruncSeries

    graded = _by_degree(b.coeffs)
    out: dict = {}
    for e1, c1 in a.coeffs.items():
        room = a.trunc - sum(e1)
        for d2, e2, c2 in graded:
            if d2 > room:
                break
            e = tuple(map(add, e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return TruncSeries(a.nvars, a.trunc, out)


def series_div_tuples(a, b):
    """The exact quotient a / b on exponent tuples, solved degree by degree
    with one remainder dict per degree; b needs constant term +1 or -1."""
    from jtkit.powerseries import TruncSeries

    c0 = b.constant()
    if c0 not in (1, -1):
        raise ValueError(f"inverse needs unit constant term, got {c0}")
    trunc = a.trunc
    tail = [t for t in _by_degree(b.coeffs) if t[0]]
    rest = [{} for _ in range(trunc + 1)]
    for e, c in a.coeffs.items():
        rest[sum(e)][e] = c
    quotient = {}
    for d, row in enumerate(rest):
        for e, c in row.items():
            if not c:
                continue
            q = quotient[e] = c * c0
            for d2, e2, c2 in tail:
                if d + d2 > trunc:
                    break
                k = tuple(map(add, e, e2))
                rest[d + d2][k] = rest[d + d2].get(k, 0) - q * c2
    return TruncSeries(a.nvars, trunc, quotient)


def taylor_remainders(coeffs, count: int) -> list[Fraction]:
    """First count coefficients of the expansion around t = 1 of the
    polynomial with the given coefficient list, by repeated synthetic
    division by (t - 1)."""
    p = [Fraction(c) for c in coeffs]
    out = []
    for _ in range(count):
        # Horner pass: remainder is p(1), quotient stays in the list
        acc = Fraction(0)
        for j in range(len(p) - 1, -1, -1):
            acc += p[j]
            p[j] = acc
        out.append(p[0])
        p = p[1:] or [Fraction(0)]
    return out


def solve_fraction(matrix, rhs) -> list[Fraction]:
    """Gauss-Jordan elimination over Fraction, pivot rescaled to 1."""
    n = len(matrix)
    m = [[Fraction(x) for x in row] + [Fraction(rhs[i])] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            raise ValueError("singular system")
        m[col], m[pivot] = m[pivot], m[col]
        inv = 1 / m[col][col]
        m[col] = [x * inv for x in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                factor = m[r][col]
                m[r] = [x - factor * y for x, y in zip(m[r], m[col])]
    return [m[i][n] for i in range(n)]


def hk_solve_by_fractions(twists):
    """(tail, finite, tail_raw) of the Herzog-Kuhl rank conditions: each
    branch's polynomials are expanded around t = 1 by synthetic division and
    the square system solved over Fraction, last rank fixed at 1."""
    n = len(twists)
    signs = [(-1) ** i for i in range(n)]

    def branch(patterns):
        rems = []
        for pat in patterns:
            coeffs = [0] * (max(pat) + 1)
            for j, c in pat.items():
                coeffs[j] += c
            rems.append(taylor_remainders(coeffs, n - 1))
        matrix = [[rems[i][k] for i in range(n - 1)] for k in range(n - 1)]
        return solve_fraction(matrix, [-rems[n - 1][k] for k in range(n - 1)]) + [Fraction(1)]

    def primitive(vec):
        ints = [int(x * lcm(*[f.denominator for f in vec])) for x in vec]
        g = gcd(*ints)
        ints = [x // g for x in ints]
        return tuple(-x for x in ints) if ints[0] < 0 else tuple(ints)

    tail_raw = branch([{t: s, t + 1: s} for t, s in zip(twists[:-1], signs)] + [{twists[-1]: signs[-1]}])
    finite = branch([{t: s} for t, s in zip(twists, signs)])
    return primitive(tail_raw), primitive(finite), tuple(tail_raw)


def hk_solve_over_fraction(twists):
    """hk_solve by its earlier Fraction route: Bareiss's last column divided
    by the last pivot into one Fraction per unknown, and each basis vector
    scaled by the lcm of its denominators before its gcd is divided out."""
    from jtkit.resolutions import HKSolution

    twists = tuple(twists)
    n = len(twists)
    signs = [-1 if i % 2 else 1 for i in range(n)]

    def solve(patterns):
        count = n - 1
        rems = [[sum(c * comb(j, k) for j, c in pat.items()) for k in range(count)] for pat in patterns]
        m = [[rems[i][k] for i in range(count)] + [-rems[count][k]] for k in range(count)]
        prev = 1
        for col in range(count):
            pivot = next(r for r in range(col, count) if m[r][col] != 0)
            m[col], m[pivot] = m[pivot], m[col]
            top, p = m[col][col:], m[col][col]
            for r in range(count):
                if r != col:
                    f = m[r][col]
                    m[r][col:] = [(p * x - f * y) // prev for x, y in zip(m[r][col:], top)]
            prev = p
        return [Fraction(row[count], prev) for row in m] + [Fraction(1)]

    def primitive(vec):
        scale = lcm(*[x.denominator for x in vec])
        ints = [int(x * scale) for x in vec]
        g = gcd(*ints)
        ints = [x // g for x in ints]
        return tuple(-x for x in ints) if ints[0] < 0 else tuple(ints)

    tail_raw = solve([{t: s, t + 1: s} for t, s in zip(twists[:-1], signs)] + [{twists[-1]: signs[-1]}])
    finite = solve([{t: s} for t, s in zip(twists, signs)])
    return HKSolution(twists, primitive(tail_raw), primitive(finite), tuple(tail_raw))


def jt_minor_h_side(a, shape, r=None):
    """The minor by the h-form alone: the library determinant of the order-r
    Jacobi-Trudi matrix of a's terms, each entry read on its own."""
    from jtkit.sequences import _det, _padding
    from jtkit.shapes import as_shape

    s = as_shape(shape)
    lam, mu = s.outer.parts, s.inner.parts
    r = _padding(lam, mu, r)
    lam, mu = lam + (0,) * (r - len(lam)), mu + (0,) * (r - len(mu))
    return _det(a, [[a.term(lam[i] - mu[j] - i + j) for j in range(r)] for i in range(r)])


def transpose_duality_check(a, shape, n=None) -> bool:
    """Whether the h-type and e-type minors of the same shape agree."""
    from jtkit.sequences import jt_minor, jt_minor_dual

    return jt_minor(a, shape) == jt_minor_dual(a, shape, n)


def pieri_identity_check(a, lam, d: int) -> bool:
    """Multiplying a straight minor by a term matches the horizontal-strip
    sum, with every minor padded to one more row than lam has."""
    from jtkit.sequences import jt_minor
    from jtkit.symfunc import pieri_extensions

    bound = len(lam) + 1
    lhs = jt_minor(a, lam, bound) * a.term(d)
    rhs = a.zero_value()
    for mu in pieri_extensions(lam, d):
        if len(mu) <= bound:
            rhs = rhs + jt_minor(a, mu, bound)
    return lhs == rhs


def quadric_term_class(d: int):
    """The degree-d component of the quadric ring as a virtual GL class,
    h_d - h_{d-2}; the library's quadric sequence stays integer valued."""
    from jtkit.symfunc import SchurClass

    terms = {}
    if d >= 0:
        terms[((d,) if d else (),)] = 1
    if d >= 2:
        terms[((d - 2,) if d > 2 else (),)] = -1
    return SchurClass(1, terms)


def qdual_term_class(d: int):
    """Degree-d component of the dual sequence as a sum of exterior powers."""
    from jtkit.symfunc import SchurClass

    return SchurClass(1, {((1,) * k,): 1 for k in range(d, -1, -2)})


def _partitions_of(n: int, largest: int):
    """The partitions of n with parts at most largest, largest first."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest), 0, -1):
        for rest in _partitions_of(n - first, first):
            yield (first,) + rest


def hook_count(nu) -> int:
    """Standard Young tableaux of shape nu, by the hook length formula."""
    conj = conjugate_by_count(nu)
    hooks = prod(p - j + conj[j] - i - 1 for i, p in enumerate(nu) for j in range(p))
    return factorial(sum(nu)) // hooks


def tensoralg_minor(lam, mu):
    """The Jacobi-Trudi minor of lam/mu for tensoralg:m, with no LR product.

    a_d = s_1^d is the image of h_d under the one-variable evaluation at
    s_1, which sends s_{lam/mu} to s_1^n when lam/mu is a horizontal strip
    of n boxes and to 0 otherwise (Macdonald, Symmetric Functions, I.5);
    s_1^n is the sum of f^nu s_nu over the partitions nu of n."""
    from jtkit.symfunc import SchurClass

    lam, mu = trim_by_loop(lam), trim_by_loop(mu)
    below = lam[1:] + (0,)
    padded = mu + (0,) * (len(lam) - len(mu))
    if not contains_by_index(lam, mu) or any(m < b for m, b in zip(padded, below)):
        return SchurClass.zero(1)
    n = sum(lam) - sum(mu)
    return SchurClass(1, {(nu,): hook_count(nu) for nu in _partitions_of(n, n)})
