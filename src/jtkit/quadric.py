"""Schur functor dimensions over a smooth quadric hypersurface ring.

Three genuinely different routes compute the same dimension: a Jacobi-Trudi
determinant, a vertical-strip sum, and a direct count of Z/2-graded tableaux.
The test suite runs them against each other; keep them independent.
"""

from __future__ import annotations

from itertools import combinations, product, zip_longest
from math import comb, prod

from ._frozen import dataclass, field
from .memo import memo_put
from .powerseries import TruncSeries, _packed_div, _packed_mul, _packed_pow, _packing
from .sequences import GradedSequence, jt_minor, make_sequence
from .shapes import SkewShape, _conj, _int, as_parts, as_shape, subpartitions
from .symfunc import _lr_contents, dim_gl_skew, dim_super

_QSD_CACHE: dict = {}


@dataclass(frozen=True, slots=True, eq=False)
class QuadricContext:
    """The quadric hypersurface ring in m variables, with its coordinate
    sequence.  The Koszul-type dual sequence is make_sequence("qdual", m=m)."""

    m: int
    sequence: GradedSequence = field(init=False, repr=False)

    def __post_init__(self):
        m = _int(self.m, "m")
        if m < 1:
            raise ValueError("quadric context needs m >= 1")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "sequence", make_sequence("quadric", m=m))


METHODS = ("jt", "vertical_strip", "super")


def quadric_schur_dim(ctx: QuadricContext, shape, method: str = "jt") -> int:
    """Dimension of the skew Schur functor of the quadric sequence.

    method picks the route: "jt" takes the Jacobi-Trudi determinant of the
    dimension sequence, "vertical_strip" sums ordinary skew Schur dimensions
    in one fewer variable over vertical strips peeled off the outer shape,
    and "super" counts Z/2-graded tableaux with m-1 even letters and one odd
    letter.  All three agree; they are kept separate on purpose.
    """
    s = as_shape(shape)
    lam, mu = s.outer.parts, s.inner.parts
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}, pick one of {METHODS}")
    key = (ctx.m, lam, mu, method)
    hit = _QSD_CACHE.get(key)
    if hit is not None:
        return hit
    if method == "jt":
        value = jt_minor(ctx.sequence, s)
    elif method == "vertical_strip":
        value = 0
        # alpha runs over shapes with lam/alpha a vertical strip, mu inside:
        # column j of alpha runs over [max(lam'_{j+1}, mu'_j), lam'_j]
        lam_c = _conj(lam)
        cols = zip_longest(lam_c, lam_c[1:], _conj(mu), fillvalue=0)
        heights = [range(max(nxt, inner), top + 1) for top, nxt, inner in cols]
        for alpha_c in product(*heights):
            value += dim_gl_skew(SkewShape(_conj(alpha_c), s.inner), ctx.m - 1)
    else:
        value = dim_super(lam, ctx.m - 1, 1, mu)
    return memo_put(_QSD_CACHE, key, value)


def chi_o_dim(mu, m: int) -> int:
    """Dimension of the stable orthogonal character attached to mu.

    Weyl's dimension formula for SO(m), with n = m // 2 and
    l_i = mu_i + n - i, plus 1/2 when m is odd: the product of
    l_i^2 - l_j^2 over i < j, times the product of the l_i when m is odd,
    divided by the same product at mu = 0.  When m is even and l(mu) = m/2,
    mu and its reflection under O(m) give one character, so the value
    doubles.  The l_i are doubled to keep every step in integers.  Requires
    the stable range 2 l(mu) <= m.
    """
    mu = as_parts(mu)
    m = _int(m, "m")
    if 2 * len(mu) > m:
        raise ValueError(f"stable range needs 2*l(mu) <= m, got mu={mu}, m={m}")
    n, odd = divmod(m, 2)

    def weyl(parts):
        ls = [2 * (p + n - i) + odd for i, p in enumerate(parts + (0,) * (n - len(parts)), start=1)]
        return prod(a * a - b * b for a, b in combinations(ls, 2)) * (prod(ls) if odd else 1)

    q, r = divmod(weyl(mu), weyl(()))
    if r:
        raise ArithmeticError(f"Weyl dimension of {mu} at m = {m} is not an integer")
    return 2 * q if mu and 2 * len(mu) == m else q


@dataclass(frozen=True, slots=True)
class OrthogonalDecomposition:
    m: int
    lam: tuple
    entries: tuple  # ((mu, mult), ...) sorted by size then lexicographically

    def to_json(self) -> list[dict]:
        return [{"mu": list(mu), "mult": mult} for mu, mult in self.entries]

    def dimension(self) -> int:
        return sum(mult * chi_o_dim(mu, self.m) for mu, mult in self.entries)


# The decomposition fills lam/delta with LR tableaux for every delta with
# even columns inside lam, and that count grows with each added row: every
# shape of 30 boxes takes at most about 0.1 s (the slowest is
# 8,6,4,3,2,2,1,1,1,1,1 on a 2-vCPU Xeon, all 5,604 take 77 s), while
# (12,10,8,6,4,2), 42 boxes, takes 0.44 s.
_ORTHO_MAX_BOXES = 30


def orthogonal_stable_decomposition(ctx: QuadricContext, lam) -> OrthogonalDecomposition:
    """Decompose a stable-range Schur functor of the quadric into orthogonal
    characters: the multiplicity of mu is the sum of c^lam_{delta,mu} over
    the delta inside lam whose columns all have even length, that is, the
    coefficient of s_mu in the sum of the skew Schur functions s_{lam/delta}.
    Those delta are the doubled rows of the partitions inside lam[1::2], and
    one content tally of lam/delta each gives every mu at once.  The entries
    come in subpartitions' order, by size then lexicographically.  Raises
    ValueError, before any work, when lam has more than _ORTHO_MAX_BOXES
    boxes."""
    lam = as_parts(lam)
    if 2 * len(lam) > ctx.m:
        raise ValueError(f"stable range needs 2*l(lambda) <= m, got lambda={lam}, m={ctx.m}")
    if sum(lam) > _ORTHO_MAX_BOXES:
        raise ValueError(
            f"a decomposition of a shape with {sum(lam)} boxes is above the bound of {_ORTHO_MAX_BOXES} boxes"
        )
    mults: dict[tuple[int, ...], int] = {}
    for half in subpartitions(lam[1::2]):
        delta = tuple(p for p in half for _ in (0, 1))
        for mu, c in _lr_contents(lam, delta).items():
            mults[mu] = mults.get(mu, 0) + c
    entries = sorted(mults.items(), key=lambda e: (sum(e[0]), e[0]))
    return OrthogonalDecomposition(ctx.m, lam, tuple(entries))


def _quadric_hs_factor(m: int, trunc: int) -> TruncSeries:
    """(1 - x^2) / (1 - x)^m as a one-variable series.

    Built from inverse() and a power, not by division, so the two sides of
    multigraded_hs_check's factorization come from different routes."""
    one = TruncSeries.one(1, trunc)
    x = TruncSeries.var(1, trunc, 0)
    num = one - x * x
    inv = (one - x).inverse()
    return num * inv**m


def _multigraded_hs(m: int, n: int, trunc: int) -> dict:
    """The uncancelled numerator-over-denominator form of the multigraded
    Hilbert series for n quadric factors, as a packed dict (powerseries,
    with the keys of _packing(n, trunc)).

    The numerator and denominator products, of 1 - x_i x_j over i <= j and
    over i < j, are built as written, the first divided exactly by the
    second, and the quotient divided by (1 - x_i)^m for each i; the mixed
    factors the two products share are never cancelled by hand, since the
    check exists to verify that form.  x_i is the key weights[i]; at n = 0
    the series is 1.
    """
    weights, limit = _packing(n, trunc)

    def one_minus(key):
        return {0: 1, key: -1} if key < limit else {0: 1}

    num = den = {0: 1}
    for i in range(n):
        for j in range(i, n):
            factor = one_minus(weights[i] + weights[j])
            num = _packed_mul(num, factor, limit)
            if i < j:
                den = _packed_mul(den, factor, limit)
    series = _packed_div(num, den, trunc, limit)
    for w in weights:
        series = _packed_div(series, _packed_pow(one_minus(w), m, limit), trunc, limit)
    return series


# The check multiplies about n^2 factors over series with C(n + trunc, n)
# coefficients, so both counts are bounded: n = 7 at trunc 12 has 50,388
# coefficients, and n = 8 at trunc 10 has 43,758.
_HS_MAX_FACTORS = 8
_HS_BOUND = 1 << 16


def multigraded_hs_check(m: int, n: int, trunc: int = 8) -> dict:
    """Verify the closed multigraded Hilbert series of a product of quadric
    rings against its factored form, coefficient by coefficient.

    Checks that the n-variable series, computed by exact division from its
    uncancelled form, splits off the last variable as a univariate quadric
    factor built from inverse(), and that every coefficient is the product
    of the per-factor dimensions.  Symmetric powers of the defining space
    are read at dimension level throughout.  Raises ValueError, before any
    work, when n exceeds _HS_MAX_FACTORS or the series has more than
    _HS_BOUND coefficients.

    Every comparison is of packed dicts.  The (n-1)-variable series gains
    x_(n-1) at exponent 0 when each key k becomes (k mod B^(n-1)) +
    (k div B^(n-1)) B^n, B = trunc + 1, which moves its degree digit up;
    the expected coefficients are built one variable at a time.
    """
    m, n, trunc = _int(m, "m"), _int(n, "n"), _int(trunc, "trunc")
    if m < 1 or n < 1:
        raise ValueError("need m >= 1 and n >= 1")
    if trunc < 0 or trunc > 12:
        raise ValueError("trunc must be between 0 and 12")
    if n > _HS_MAX_FACTORS:
        raise ValueError(f"a check over {n} quadric factors is above the bound of {_HS_MAX_FACTORS} factors")
    count = comb(n + trunc, n)
    if count > _HS_BOUND:
        raise ValueError(
            f"a series in {n} variables to degree {trunc} has {count} coefficients, above the bound {_HS_BOUND}"
        )
    weights, limit = _packing(n, trunc)
    base = trunc + 1
    low, top = base ** (n - 1), limit // base
    series = _multigraded_hs(m, n, trunc)
    smaller = {k % low + k // low * top: c for k, c in _multigraded_hs(m, n - 1, trunc).items()}
    last = {d * weights[-1]: c for (d,), c in _quadric_hs_factor(m, trunc).coeffs.items()}
    factorization = series == _packed_mul(smaller, last, limit)
    quadric = make_sequence("quadric", m=m)
    terms = [quadric.term(d) for d in range(base)]
    expected = {0: 1}
    for w in weights:
        expected = {k + e * w: c * terms[e] for k, c in expected.items() for e in range(base - k // top) if terms[e]}
    coefficients = series == expected
    return {
        "m": m,
        "n": n,
        "trunc": trunc,
        "factorization": factorization,
        "coefficients": coefficients,
        "ok": factorization and coefficients,
    }
