"""Truncated power series over the integers, in any number of variables.

Coefficients live in a dict keyed by exponent tuples, nonzero terms only;
everything past the total-degree cutoff is discarded.  Arithmetic is exact,
and division by a series with constant term +1 or -1 is exact too.

Products, quotients and powers run on packed keys, a Kronecker substitution
(von zur Gathen and Gerhard, Modern Computer Algebra, 8.4) with the total
degree on top: with B = trunc + 1, the exponents e of n variables pack to
the integer sum(e_i B^i) + |e| B^n.  Every exponent of a term under the
cutoff is below B, so adding two keys adds their exponents, keys sort by
total degree, and a sum of two keys is under the cutoff exactly when it is
below B^(n+1).  A product thus builds no tuple per pair of terms and
truncates by one integer comparison; operands are packed, and the result
unpacked, once per operation.  The packed kernels are private and shared
with quadric's multigraded Hilbert series check, which runs on packed keys
from its chain of factors to its last comparison.

Results of arithmetic, and sequences' Hilbert series, are canonical by
construction, so they reach the constructor as a _Canonical dict, from
which it only drops zero coefficients; everything else it is given, a few
small dicts such as monomials, is checked and coerced term by term.
"""

from __future__ import annotations

from bisect import bisect_left
from operator import mul

from ._frozen import dataclass
from .memo import _Canonical
from .shapes import _int


def _packing(nvars: int, trunc: int) -> tuple[tuple[int, ...], int]:
    """(weights, limit): exponents e pack to sum(e_i * weights_i), and a
    packed key is under the cutoff exactly when it is below limit."""
    base = trunc + 1
    top = base**nvars
    return tuple(base**i + top for i in range(nvars)), top * base


def _pack(coeffs: dict, weights) -> dict:
    """Packed terms of exponent-tuple terms, with weights from _packing."""
    return {sum(map(mul, e, weights)): c for e, c in coeffs.items()}


def _unpack(packed: dict, nvars: int, trunc: int) -> _Canonical:
    """Exponent-tuple terms of a packed series, one digit column at a time."""
    base = trunc + 1
    keys = list(packed)
    digits = []
    for _ in range(nvars):
        digits.append([k % base for k in keys])
        keys = [k // base for k in keys]
    return _Canonical(zip(zip(*digits), packed.values()))


def _packed_mul(a: dict, b: dict, limit: int) -> dict:
    """The product of two packed series, without the terms at or above
    limit and without zero coefficients.

    The larger operand is sorted once, so each term of the other pairs only
    with the prefix that stays under the cutoff."""
    if len(a) > len(b):
        a, b = b, a
    keys = sorted(b)
    coeffs = [b[k] for k in keys]
    out: dict = {}
    get = out.get
    for k1, c1 in a.items():
        room = bisect_left(keys, limit - k1)
        for k2, c2 in zip(keys[:room], coeffs[:room]):
            k = k1 + k2
            out[k] = get(k, 0) + c1 * c2
    return {k: c for k, c in out.items() if c}


def _packed_div(a: dict, b: dict, trunc: int, limit: int) -> dict:
    """The exact quotient q of packed series with q * b == a; b needs
    constant term +1 or -1.

    The quotient is solved degree by degree: its coefficient at a key is c0
    times what is left of a there once every quotient term of lower degree
    has been pushed through the nonconstant terms of b.  That costs
    |quotient| * |b| pair visits and no powers of b.
    """
    c0 = b.get(0, 0)
    if c0 not in (1, -1):
        raise ValueError(f"inverse needs unit constant term, got {c0}")
    top = limit // (trunc + 1)
    tail = [[] for _ in range(trunc + 1)]
    for k, c in b.items():
        if k:
            tail[k // top].append((k, c))
    rest = [{} for _ in range(trunc + 1)]
    for k, c in a.items():
        rest[k // top][k] = c
    quotient = {}
    for d, row in enumerate(rest):
        pushes = [(rest[d + d2], k2, c2) for d2 in range(1, trunc + 1 - d) for k2, c2 in tail[d2]]
        for k, c in row.items():
            if not c:
                continue
            q = quotient[k] = c * c0
            for later, k2, c2 in pushes:
                key = k + k2
                later[key] = later.get(key, 0) - q * c2
    return quotient


def _packed_pow(a: dict, n: int, limit: int) -> dict:
    """a**n for a packed series, by square-and-multiply."""
    result = {0: 1}
    while n:
        if n & 1:
            result = _packed_mul(result, a, limit)
        n >>= 1
        if n:
            a = _packed_mul(a, a, limit)
    return result


@dataclass(frozen=True, slots=True)
class TruncSeries:
    """A power series in nvars variables, cut off above total degree trunc."""

    nvars: int
    trunc: int
    coeffs: dict | None = None

    def __post_init__(self):
        nvars, trunc = _int(self.nvars, "nvars"), _int(self.trunc, "trunc")
        if nvars < 1 or trunc < 0:
            raise ValueError(f"series need nvars >= 1 and trunc >= 0, got {nvars}, {trunc}")
        coeffs = self.coeffs
        if type(coeffs) is not _Canonical:
            merged = {}
            for exps, c in (coeffs or {}).items():
                exps = tuple(_int(e, "an exponent") for e in exps)
                if len(exps) != nvars or any(e < 0 for e in exps):
                    raise ValueError(f"exponent {exps} is not {nvars} nonnegative integers")
                c = _int(c, "a coefficient")
                if sum(exps) <= trunc and c:
                    merged[exps] = merged.get(exps, 0) + c
            coeffs = merged
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "trunc", trunc)
        object.__setattr__(self, "coeffs", {e: c for e, c in coeffs.items() if c})

    @classmethod
    def zero(cls, nvars: int, trunc: int) -> "TruncSeries":
        return cls(nvars, trunc, {})

    @classmethod
    def one(cls, nvars: int, trunc: int) -> "TruncSeries":
        return cls(nvars, trunc, {(0,) * nvars: 1})

    @classmethod
    def monomial(cls, nvars: int, trunc: int, exps, coeff: int = 1) -> "TruncSeries":
        return cls(nvars, trunc, {tuple(exps): coeff})

    @classmethod
    def var(cls, nvars: int, trunc: int, i: int) -> "TruncSeries":
        exps = [0] * nvars
        exps[i] = 1
        return cls(nvars, trunc, {tuple(exps): 1})

    @classmethod
    def univariate(cls, coeff_list, trunc: int) -> "TruncSeries":
        return cls(1, trunc, {(d,): c for d, c in enumerate(coeff_list)})

    def coefficient(self, exps) -> int:
        return self.coeffs.get(tuple(exps), 0)

    def constant(self) -> int:
        return self.coeffs.get((0,) * self.nvars, 0)

    def _check(self, other: "TruncSeries"):
        if self.nvars != other.nvars or self.trunc != other.trunc:
            raise ValueError("series differ in variable count or truncation")

    def _packed_with(self, other: "TruncSeries"):
        """Both operands packed, with the cutoff for their keys."""
        self._check(other)
        weights, limit = _packing(self.nvars, self.trunc)
        return _pack(self.coeffs, weights), _pack(other.coeffs, weights), limit

    def _from_packed(self, packed: dict) -> "TruncSeries":
        return TruncSeries(self.nvars, self.trunc, _unpack(packed, self.nvars, self.trunc))

    def __add__(self, other):
        if not isinstance(other, TruncSeries):
            return NotImplemented
        self._check(other)
        out = _Canonical(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, 0) + c
        return TruncSeries(self.nvars, self.trunc, out)

    def __neg__(self):
        return TruncSeries(self.nvars, self.trunc, _Canonical({e: -c for e, c in self.coeffs.items()}))

    def __sub__(self, other):
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return TruncSeries(self.nvars, self.trunc, _Canonical({e: c * other for e, c in self.coeffs.items()}))
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return self._from_packed(_packed_mul(*self._packed_with(other)))

    def __truediv__(self, other):
        """The exact quotient q with q * other == self; other needs constant
        term +1 or -1.  Costs |quotient| * |other| pair visits (_packed_div)."""
        if not isinstance(other, TruncSeries):
            return NotImplemented
        a, b, limit = self._packed_with(other)
        return self._from_packed(_packed_div(a, b, self.trunc, limit))

    def __rmul__(self, other):
        if isinstance(other, int):
            return self * other
        return NotImplemented

    def __pow__(self, n: int):
        n = _int(n, "a series power")
        if n < 0:
            raise ValueError(f"series power needs n >= 0, got {n}")
        weights, limit = _packing(self.nvars, self.trunc)
        return self._from_packed(_packed_pow(_pack(self.coeffs, weights), n, limit))

    def inverse(self) -> "TruncSeries":
        """Multiplicative inverse, the exact quotient one / self; requires
        constant term +1 or -1."""
        return TruncSeries.one(self.nvars, self.trunc) / self

    def __hash__(self):
        return hash((self.nvars, self.trunc, tuple(sorted(self.coeffs.items()))))

    def univariate_coeffs(self, upto: int | None = None) -> list[int]:
        """Coefficient list [c_0, ..., c_N] for a one-variable series."""
        if self.nvars != 1:
            raise ValueError("univariate_coeffs needs a one-variable series")
        n = self.trunc if upto is None else min(upto, self.trunc)
        return [self.coeffs.get((d,), 0) for d in range(n + 1)]

    def __repr__(self):
        items = sorted(self.coeffs.items())[:8]
        body = ", ".join(f"{e}: {c}" for e, c in items)
        more = "" if len(self.coeffs) <= 8 else f", ... ({len(self.coeffs)} terms)"
        return f"TruncSeries(nvars={self.nvars}, trunc={self.trunc}, {{{body}{more}}})"
