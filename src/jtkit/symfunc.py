"""Schur classes, Littlewood-Richardson coefficients, and dimension formulas.

Two deliberately independent routes compute LR numbers:

* mult_one grows horizontal-strip chains letter by letter (the iterated
  Pieri picture with the lattice condition enforced at each letter, every
  letter's strips from _strip_shapes), and
* lr_coefficient fills the skew diagram cell by cell in reverse reading
  order, checking tableau and ballot constraints locally.

The test suite plays them against each other; do not merge them.

mult_one memoises each product once: c^lam_{mu,nu} = c^lam_{nu,mu}, so the
key puts its arguments in one total order (fewer rows, then fewer boxes,
then the parts) and the strips come from the first.  SchurClass products
read that memo directly, under the argument pair in either order, and call
mult_one only on a miss, so mult_one stays the one kernel and the one
writer of the memo.  Arithmetic results skip the constructor's per-key
checks, since their keys are canonical already.
"""

from __future__ import annotations

from itertools import accumulate, islice, product
from math import comb, prod
from operator import le, sub

from ._frozen import dataclass
from .memo import _Canonical, memo_put
from .shapes import _conj, _fits, as_parts, as_shape, trim

_MULT_CACHE: dict = {}
_SKEW_CACHE: dict = {}
_DIM_GL_CACHE: dict = {}
_DIM_SUPER_CACHE: dict = {}

# _strip_shapes runs its product when that visits at most _PRODUCT_ANY
# candidates, or at most _PRODUCT_PER_SHAPE for each shape it yields, and
# _fill_rows otherwise.
_PRODUCT_ANY = 128
_PRODUCT_PER_SHAPE = 8


def _record(part: tuple[int, ...], prev: tuple[int, ...]) -> tuple[int, ...]:
    """The lattice record of the letter that grew prev into part: entry r
    counts the boxes it added in rows 0..r.  It has len(prev) + 1 entries."""
    return tuple(accumulate(map(sub, part + (0,), prev + (0,))))


def _strip_count(rows: list[range], k: int, prev_cum) -> int:
    """How many shapes _strip_shapes yields for these row ranges, counted row
    by row over the boxes added so far, without listing them."""
    ways = [1] + [0] * k
    for r, row in enumerate(rows):
        run = [0, *accumulate(ways)]
        cap = len(row) - 1
        limit = k if prev_cum is None else prev_cum[r]
        ways = [run[s + 1] - run[max(0, s - cap)] if s <= limit else 0 for s in range(k + 1)]
    return sum(ways) if prev_cum is None else ways[k]


def _fill_rows(top: int, rows: list[range], k: int, prev_cum) -> list[tuple[int, ...]]:
    """The shapes of _strip_shapes from its row ranges, built one row at a
    time from row 1 down; top is row 0 of the base.

    Each partial carries the boxes left of k.  A row takes at most what is
    left and, with a record, at most what the record allows through that
    row, and at least what the rows below it cannot hold, so a partial that
    passes the last row has placed all k boxes.  Without a record row 0
    takes what is left, so the rows below it have no lower bound.
    """
    if prev_cum is None:
        caps = below = (k,) * len(rows)
    else:
        caps = prev_cum
        below = [*accumulate(len(row) - 1 for row in reversed(rows[1:]))][::-1] + [0]
    partials = [((), k)]
    for row, cap, room in zip(rows, caps, below):
        low = row.start
        partials = [
            (parts + (low + c,), left - c)
            for parts, left in partials
            for c in range(max(0, left - room), min(len(row) - 1, left, cap - k + left) + 1)
        ]
    out = []
    for parts, left in partials:
        new = (top + left,) + parts
        out.append(new if new[-1] else new[:-1])
    return out


def _strip_shapes(cur: tuple[int, ...], k: int, prev_cum) -> list[tuple[int, ...]]:
    """All partitions made by adding a horizontal strip of k boxes to cur,
    each once.  prev_cum is the lattice record of the letter that made cur
    (_record, at least len(cur) entries), or None for a chain's first letter.

    Row r >= 1 of the new shape ranges over [cur_r, min(cur_{r-1}, cur_r + k)]
    (cur_l = 0 for the new row l), so every candidate is a partition and the
    candidates are the tuples of itertools.product over those ranges.  Row 0
    takes what is left of k, which must not be negative.  With a record,
    row 0 takes nothing and the boxes through row r may not outnumber that
    letter's through row r - 1, so neither may the boxes of row r alone
    (the lattice condition).  A new row that came out empty is dropped.
    cur must be canonical; a negative k yields nothing.

    The product visits every candidate, and where most of them take more
    boxes than k or the record allows, _fill_rows is far cheaper:
    (50, 40, 30, 20, 10) + 10 boxes has 161,051 candidates for 3,003
    shapes.  So when the candidates number more than _PRODUCT_ANY and more
    than _PRODUCT_PER_SHAPE per shape, the shapes come from _fill_rows.
    """
    top = cur[0] if cur else 0
    lows = cur[1:] + (0,)
    if prev_cum is None:
        rows = [range(b, min(a, b + k) + 1) for a, b in zip(cur, lows)]
    else:
        rows = [range(b, min(a, b + k, b + c) + 1) for a, b, c in zip(cur, lows, prev_cum)]
    size = prod(map(len, rows))
    if size > _PRODUCT_ANY and size > _PRODUCT_PER_SHAPE * _strip_count(rows, k, prev_cum):
        return _fill_rows(top, rows, k, prev_cum)
    total = k + sum(lows)
    out = []
    if prev_cum is None:
        for t in product(*rows):
            share = total - sum(t)
            if share >= 0:
                new = (top + share,) + t
                out.append(new if new[-1] else new[:-1])
        return out
    for t in product(*rows):
        if sum(t) == total and all(map(le, accumulate(map(sub, t, lows)), prev_cum)):
            new = (top,) + t
            out.append(new if new[-1] else new[:-1])
    return out


def _mult_key(mu: tuple[int, ...], nu: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The memo key (base, strips) of s_mu * s_nu for canonical parts.

    The strips come from the partition that is first in one total order:
    fewer rows, then fewer boxes, then the smaller parts.  Since
    c^lam_{mu,nu} = c^lam_{nu,mu}, both argument orders share one entry, and
    the chain has as few letters as the pair allows.
    """
    if (len(mu), sum(mu), mu) < (len(nu), sum(nu), nu):
        return nu, mu
    return mu, nu


def mult_one(mu, nu) -> dict[tuple[int, ...], int]:
    """Expand the product s_mu * s_nu in the Schur basis.

    Keys are partitions, values the (positive) LR multiplicities.  The
    result is a fresh dict; the memoised one is never handed out.
    """
    key = _mult_key(as_parts(mu), as_parts(nu))
    hit = _MULT_CACHE.get(key)
    if hit is None:
        base, strips = key
        # an empty strips partition adds one empty strip: {base: 1}
        *firsts, last = strips or (0,)
        # a chain state is (shape, shape before its last letter); the two
        # determine that letter's lattice record, which the next one reads
        states: dict[tuple, int] = {(base, None): 1}
        for k in firsts:
            nxt: dict[tuple, int] = {}
            for (part, prev), cnt in states.items():
                for newpart in _strip_shapes(part, k, None if prev is None else _record(part, prev)):
                    skey = (newpart, part)
                    nxt[skey] = nxt.get(skey, 0) + cnt
            states = nxt
        out: dict[tuple[int, ...], int] = {}
        for (part, prev), cnt in states.items():
            for newpart in _strip_shapes(part, last, None if prev is None else _record(part, prev)):
                out[newpart] = out.get(newpart, 0) + cnt
        hit = memo_put(_MULT_CACHE, key, out)
    return dict(hit)


def _expansion(mu: tuple[int, ...], nu: tuple[int, ...]) -> dict[tuple[int, ...], int]:
    """s_mu * s_nu for canonical parts, read from the memo under the argument
    pair in either order; on a miss mult_one computes and stores it.  The
    memoised dict is handed out, so callers must not change it."""
    hit = _MULT_CACHE.get((mu, nu))
    if hit is None:
        hit = _MULT_CACHE.get((nu, mu))
        if hit is None:
            hit = mult_one(mu, nu)
    return hit


def pieri_extensions(lam, k: int) -> list[tuple[int, ...]]:
    """Partitions obtained from lam by adding a horizontal strip of k boxes.
    A negative k is refused."""
    lam, k = as_parts(lam), int(k)
    if k < 0:
        raise ValueError(f"pieri_extensions needs k >= 0, got {k}")
    return sorted(_strip_shapes(lam, k, None))


def _lr_contents(outer, inner, cap=None) -> dict[tuple[int, ...], int]:
    """Tally the contents of all LR (lattice-word) tableaux on outer/inner.

    Cells are visited in reverse reading order, rows top to bottom and right
    to left within a row, so the ballot prefix property can be checked as
    each letter is placed.  cap bounds the count of each letter (used when a
    single coefficient is wanted).  outer and inner must be canonical parts
    tuples.
    """
    if not _fits(outer, inner):
        raise ValueError(f"inner {inner} not inside outer {outer}")
    nrows = len(outer)
    nletters = min(nrows, len(cap)) if cap is not None else nrows
    cells = []
    for r in range(nrows):
        lo = inner[r] if r < len(inner) else 0
        cells.extend((r, c) for c in range(outer[r] - 1, lo - 1, -1))
    n = len(cells)
    index = {cell: i for i, cell in enumerate(cells)}
    # per cell: the slots of the cells above it and to its right, both placed
    # earlier, and its row's letter bound; slot n holds 0 for a cell with
    # none above, slot n + 1 holds nletters for one with none to its right
    bounds = [(index.get((r - 1, c), n), index.get((r, c + 1), n + 1), min(r + 1, nletters)) for r, c in cells]
    placed = [0] * n + [0, nletters]
    counts = [0] * nletters
    tally: dict[tuple[int, ...], int] = {}

    def rec(idx: int):
        if idx == n:
            content = trim(counts)
            tally[content] = tally.get(content, 0) + 1
            return
        above, right, hi = bounds[idx]
        for v in range(placed[above] + 1, min(hi, placed[right]) + 1):
            if v > 1 and counts[v - 2] < counts[v - 1] + 1:
                continue
            if cap is not None and counts[v - 1] + 1 > cap[v - 1]:
                continue
            counts[v - 1] += 1
            placed[idx] = v
            rec(idx + 1)
            counts[v - 1] -= 1

    rec(0)
    return tally


def lr_coefficient(lam, mu, nu) -> int:
    """The Littlewood-Richardson coefficient c^lam_{mu,nu}.

    Counts lattice-word tableaux of shape lam/mu and content nu directly.
    """
    lam, mu, nu = as_parts(lam), as_parts(mu), as_parts(nu)
    if sum(lam) != sum(mu) + sum(nu):
        return 0
    if not _fits(lam, mu):
        return 0
    tally = _lr_contents(lam, mu, cap=nu)
    return tally.get(nu, 0)


def _skew_tally(s) -> dict[tuple[int, ...], int]:
    """The memoized content tally of the SkewShape s, shared: callers only
    read it."""
    key = (s.outer.parts, s.inner.parts)
    hit = _SKEW_CACHE.get(key)
    if hit is None:
        hit = memo_put(_SKEW_CACHE, key, _lr_contents(key[0], key[1]))
    return hit


def skew_contents(shape) -> dict[tuple[int, ...], int]:
    """Content tally nu -> c^lam_{mu,nu} for a skew shape lam/mu, memoized;
    the result is a fresh dict."""
    return dict(_skew_tally(as_shape(shape)))


def dim_gl(lam, m: int) -> int:
    """Dimension of the Schur functor S_lam of an m-dimensional space.

    Hook content formula; every division is exact.  Zero exactly when lam has
    more than m rows.
    """
    lam = as_parts(lam)
    m = int(m)
    if m < 0:
        raise ValueError(f"dim_gl needs m >= 0, got {m}")
    if len(lam) > m:
        return 0
    key = (lam, m)
    hit = _DIM_GL_CACHE.get(key)
    if hit is not None:
        return hit
    lamt = _conj(lam)
    num = 1
    den = 1
    for i, row in enumerate(lam, start=1):
        for j in range(1, row + 1):
            num *= m + j - i
            den *= row - j + lamt[j - 1] - i + 1
    q, r = divmod(num, den)
    if r:
        raise ArithmeticError(f"hook content formula for {lam} at m = {m} is not an integer")
    return memo_put(_DIM_GL_CACHE, key, q)


def dim_gl_skew(shape, m: int) -> int:
    """Dimension of the skew Schur functor on an m-dimensional space."""
    return sum(c * dim_gl(nu, m) for nu, c in _skew_tally(as_shape(shape)).items())


def _strip_chains(start: tuple[int, ...], letters: int, rows) -> dict:
    """Count the chains of letters horizontal strips, added or removed,
    that lead from start to each shape: {shape: chains}.  rows(alpha) gives
    a range per row whose product lists the shapes one strip from alpha,
    alpha itself (the empty strip) first.

    Most strips are empty when letters is large: the chains are grown by
    nonempty strips only, at most |shape| passes, and a chain of k nonempty
    strips is spread over the letters in C(letters, k) ways."""
    counts = {start: 1}
    total = dict(counts)
    for k in range(1, letters + 1):
        nxt: dict = {}
        for alpha, cnt in counts.items():
            for nu in islice(product(*rows(alpha)), 1, None):
                nxt[nu] = nxt.get(nu, 0) + cnt
        counts = nxt
        if not counts:
            break
        ways = comb(letters, k)
        for nu, cnt in counts.items():
            total[nu] = total.get(nu, 0) + ways * cnt
    return total


def dim_super(lam, r: int, s: int, mu=()) -> int:
    """Z/2-graded SSYT count for the hook-shaped general linear superalgebra.

    Letters 1..r are even, r+1..r+s odd.  Rows repeat only even letters,
    columns repeat only odd letters.  Vanishes on straight shapes exactly
    when lam_{r+1} > s.  A skew shape is accepted via mu.

    Such a tableau is a chain of shapes from mu to lam: a horizontal strip
    for each even letter, then a vertical strip for each odd one (Berele and
    Regev's hook Schur functions).  The chains meet in the middle: the even
    strips are added to mu inside lam, the odd ones removed from lam as
    horizontal strips of the conjugate lam' that keep mu' inside, and the
    count is the sum over nu of evens[nu] * odds[nu'].  Only nonempty strips
    are taken, weighted by binomials, so the cost does not grow with r or s.
    """
    lam, mu = as_parts(lam), as_parts(mu)
    r, s = int(r), int(s)
    if r < 0 or s < 0:
        raise ValueError(f"dim_super needs r, s >= 0, got r={r}, s={s}")
    if not _fits(lam, mu):
        raise ValueError(f"inner {mu} not inside outer {lam}")
    key = (lam, mu, r, s)
    hit = _DIM_SUPER_CACHE.get(key)
    if hit is not None:
        return hit
    lamt, mut = _conj(lam), _conj(mu)
    padt = (0,) * len(lamt)
    mut += padt[len(mut) :]
    # s strips leave row j of lam' at least lam'_{j+s}, and a shape r strips
    # from mu has nu'_j <= mu'_j + r, so no chain meets when one row is above
    if not all(map(le, lamt[s:], [m + r for m in mut])):
        return memo_put(_DIM_SUPER_CACHE, key, 0)
    # row i of a grown shape runs from alpha_i to min(lam_i, alpha_{i-1})
    evens = _strip_chains(
        mu + (0,) * (len(lam) - len(mu)),
        r,
        lambda alpha: [range(a, min(o, above) + 1) for a, o, above in zip(alpha, lam, lam[:1] + alpha)],
    )
    # row i of a shrunk shape runs down from beta_i to max(beta_{i+1}, mu'_i)
    odds = _strip_chains(
        lamt,
        s,
        lambda beta: [range(b, max(below, m) - 1, -1) for b, below, m in zip(beta, beta[1:] + (0,), mut)],
    )
    total = sum(cnt * odds.get((_conj(nu) + padt)[: len(lamt)], 0) for nu, cnt in evens.items())
    return memo_put(_DIM_SUPER_CACHE, key, total)


@dataclass(frozen=True, slots=True, repr=False)
class SchurClass:
    """An integer combination of products of Schur functors.

    k is the number of tensor factors; each term maps a tuple of that many
    partitions to a nonzero integer coefficient.  The constructor checks and
    normalises every key and coefficient.  Sums, negatives, integer
    multiples, products, sums of products and external products combine keys
    that are already canonical, so they hand their terms over as a
    _Canonical dict, from which the constructor only drops the zero
    coefficients.
    """

    k: int
    terms: dict | None = None

    def __post_init__(self):
        k = int(self.k)
        if k < 1:
            raise ValueError("factor_count must be at least 1")
        if type(self.terms) is _Canonical:
            clean = {key: c for key, c in self.terms.items() if c}
        else:
            merged: dict[tuple[tuple[int, ...], ...], int] = {}
            for key, coeff in (self.terms or {}).items():
                coeff = int(coeff)
                if coeff == 0:
                    continue
                tkey = tuple(as_parts(p) for p in key)
                if len(tkey) != k:
                    raise ValueError(f"term {tkey} has {len(tkey)} factors, expected {k}")
                merged[tkey] = merged.get(tkey, 0) + coeff
            clean = {key: c for key, c in merged.items() if c != 0}
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "terms", clean)

    @classmethod
    def zero(cls, k: int) -> "SchurClass":
        return cls(k, {})

    @classmethod
    def unit(cls, k: int) -> "SchurClass":
        return cls(k, {((),) * k: 1})

    @classmethod
    def schur(cls, lam, k: int = 1, factor: int = 0) -> "SchurClass":
        """The class of a single Schur functor placed in one tensor factor."""
        key = tuple(as_parts(lam) if f == factor else () for f in range(k))
        return cls(k, {key: 1})

    def is_zero(self) -> bool:
        return not self.terms

    def is_nonnegative(self) -> bool:
        return all(c >= 0 for c in self.terms.values())

    def coefficient(self, key) -> int:
        tkey = tuple(as_parts(p) for p in key)
        return self.terms.get(tkey, 0)

    def support_size(self) -> int:
        return len(self.terms)

    def dim(self, dims) -> int:
        """Evaluate at concrete vector space dimensions, one per factor."""
        dims = tuple(int(d) for d in dims)
        if len(dims) != self.k:
            raise ValueError(f"dim needs {self.k} dimensions, one per factor, got {len(dims)}")
        total = 0
        for key, coeff in self.terms.items():
            prod = coeff
            for lam, m in zip(key, dims):
                prod *= dim_gl(lam, m)
                if prod == 0:
                    break
            total += prod
        return total

    def sorted_items(self):
        def order(item):
            key, _ = item
            return (sum(sum(p) for p in key), tuple((sum(p), p) for p in key))

        return sorted(self.terms.items(), key=order)

    def __add__(self, other):
        if not isinstance(other, SchurClass):
            return NotImplemented
        if other.k != self.k:
            raise ValueError("factor_count mismatch")
        out = _Canonical(self.terms)
        for key, c in other.terms.items():
            out[key] = out.get(key, 0) + c
        return SchurClass(self.k, out)

    def __neg__(self):
        return SchurClass(self.k, _Canonical({key: -c for key, c in self.terms.items()}))

    def __sub__(self, other):
        if not isinstance(other, SchurClass):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return SchurClass(self.k, _Canonical({key: c * other for key, c in self.terms.items()}))
        if not isinstance(other, SchurClass):
            return NotImplemented
        return SchurClass.sum_of_products(self.k, [(1, self, other)])

    @classmethod
    def sum_of_products(cls, k: int, products, start: "SchurClass | None" = None) -> "SchurClass":
        """start (zero when None) plus the sum of sign * x * y over the
        (sign, x, y) triples of products: sign an integer, x and y classes
        of k factors.

        Every product's LR expansion is added straight into one dict, so no
        single product, negated product or partial sum becomes a class of
        its own; the one class is built at the end.
        """
        if start is not None and start.k != k:
            raise ValueError("factor_count mismatch")
        out = _Canonical() if start is None else _Canonical(start.terms)
        for sign, x, y in products:
            if x.k != k or y.k != k:
                raise ValueError("factor_count mismatch")
            if k == 1:
                for (mu,), c1 in x.terms.items():
                    for (nu,), c2 in y.terms.items():
                        c = sign * c1 * c2
                        for lam, lr in _expansion(mu, nu).items():
                            key = (lam,)
                            out[key] = out.get(key, 0) + c * lr
                continue
            for key1, c1 in x.terms.items():
                for key2, c2 in y.terms.items():
                    # expand factorwise, then take the cartesian product of
                    # the per-factor Schur expansions
                    partials = [((), sign * c1 * c2)]
                    for mu, nu in zip(key1, key2):
                        expansion = _expansion(mu, nu)
                        partials = [
                            (built + (lam,), coeff * lr)
                            for built, coeff in partials
                            for lam, lr in expansion.items()
                        ]
                    for key, coeff in partials:
                        out[key] = out.get(key, 0) + coeff
        return cls(k, out)

    def __rmul__(self, other):
        if isinstance(other, int):
            return self * other
        return NotImplemented

    def __hash__(self):
        return hash((self.k, tuple(self.sorted_items())))

    def to_json(self) -> list[dict]:
        return [
            {"partitions": [list(p) for p in key], "coeff": c}
            for key, c in self.sorted_items()
        ]

    @classmethod
    def from_json(cls, data, k: int | None = None) -> "SchurClass":
        terms = {}
        for entry in data:
            key = tuple(tuple(p) for p in entry["partitions"])
            if k is None:
                k = len(key)
            terms[key] = terms.get(key, 0) + int(entry["coeff"])
        if k is None:
            raise ValueError("factor_count needed for an empty class")
        return cls(k, terms)

    def __repr__(self):
        items = self.sorted_items()
        body = ", ".join(f"{key}: {c}" for key, c in items[:6])
        if len(items) > 6:
            body += f", ... ({len(items)} terms)"
        return f"SchurClass(k={self.k}, {{{body}}})"


def value_json(v):
    """A sequence value as JSON: a SchurClass's to_json(), an integer as is."""
    return v.to_json() if isinstance(v, SchurClass) else v


def skew_to_straight(shape) -> SchurClass:
    """Expand a skew Schur functor into straight ones, one tensor factor."""
    s = as_shape(shape)
    return SchurClass(1, {(nu,): c for nu, c in _skew_tally(s).items()})


def external_product(a: SchurClass, b: SchurClass) -> SchurClass:
    """Tensor the factor lists of two classes (no LR expansion)."""
    out = _Canonical()
    for key1, c1 in a.terms.items():
        for key2, c2 in b.terms.items():
            key = key1 + key2
            out[key] = out.get(key, 0) + c1 * c2
    return SchurClass(a.k + b.k, out)


def binom(n: int, k: int) -> int:
    """Binomial coefficient that is zero for negative or overdrawn arguments."""
    if k < 0 or n < 0 or k > n:
        return 0
    return comb(n, k)
