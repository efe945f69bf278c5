"""Truncated power series over the integers, in any number of variables.

Coefficients live in a dict keyed by exponent tuples, nonzero terms only;
everything past the total-degree cutoff is discarded.  Arithmetic is exact,
and division by a series with constant term +1 or -1 is exact too.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from operator import add


def _int_terms(coeffs: dict, nvars: int) -> bool:
    """True when every key is a tuple of nvars nonnegative ints and every
    coefficient an int, so construction needs no coercion."""
    keys = coeffs.keys()
    if set(map(type, keys)) - {tuple} or set(map(len, keys)) - {nvars}:
        return False
    exps = list(chain.from_iterable(keys))
    return set(map(type, chain(exps, coeffs.values()))) <= {int} and min(exps, default=0) >= 0


def _by_degree(coeffs: dict) -> list:
    """(total degree, exponents, coefficient) for each term, lowest degree
    first."""
    return sorted((sum(e), e, c) for e, c in coeffs.items())


@dataclass(frozen=True, slots=True, repr=False)
class TruncSeries:
    """A power series in nvars variables, cut off above total degree trunc."""

    nvars: int
    trunc: int
    coeffs: dict | None = None

    def __post_init__(self):
        nvars, trunc = self.nvars, self.trunc
        if nvars < 1 or trunc < 0:
            raise ValueError(f"series need nvars >= 1 and trunc >= 0, got {nvars}, {trunc}")
        coeffs = self.coeffs or {}
        if not _int_terms(coeffs, nvars):
            clean = {}
            for exps, c in coeffs.items():
                exps = tuple(int(e) for e in exps)
                if len(exps) != nvars or any(e < 0 for e in exps):
                    raise ValueError(f"exponent {exps} is not {nvars} nonnegative integers")
                if sum(exps) <= trunc and c != 0:
                    clean[exps] = clean.get(exps, 0) + int(c)
            coeffs = clean
        object.__setattr__(self, "coeffs", {e: c for e, c in coeffs.items() if c != 0 and sum(e) <= trunc})

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

    def __add__(self, other):
        if not isinstance(other, TruncSeries):
            return NotImplemented
        self._check(other)
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, 0) + c
        return TruncSeries(self.nvars, self.trunc, out)

    def __neg__(self):
        return TruncSeries(self.nvars, self.trunc, {e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other):
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return TruncSeries(self.nvars, self.trunc, {e: c * other for e, c in self.coeffs.items()})
        if not isinstance(other, TruncSeries):
            return NotImplemented
        self._check(other)
        graded = _by_degree(other.coeffs)
        out: dict = {}
        get = out.get
        for e1, c1 in self.coeffs.items():
            room = self.trunc - sum(e1)
            for d2, e2, c2 in graded:
                if d2 > room:
                    break
                e = tuple(map(add, e1, e2))
                out[e] = get(e, 0) + c1 * c2
        return TruncSeries(self.nvars, self.trunc, out)

    def __truediv__(self, other):
        """The exact quotient q with q * other == self; other needs constant
        term +1 or -1.

        The quotient is solved degree by degree: its coefficient at e is c0
        times what is left of self at e once every quotient term of lower
        degree has been pushed through the nonconstant terms of other.  That
        costs |quotient| * |other| pair visits and no powers of other.
        """
        if not isinstance(other, TruncSeries):
            return NotImplemented
        self._check(other)
        c0 = other.constant()
        if c0 not in (1, -1):
            raise ValueError(f"inverse needs unit constant term, got {c0}")
        trunc = self.trunc
        tail = [t for t in _by_degree(other.coeffs) if t[0]]
        rest = [{} for _ in range(trunc + 1)]
        for e, c in self.coeffs.items():
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
                    later = rest[d + d2]
                    k = tuple(map(add, e, e2))
                    later[k] = later.get(k, 0) - q * c2
        return TruncSeries(self.nvars, trunc, quotient)

    def __rmul__(self, other):
        if isinstance(other, int):
            return self * other
        return NotImplemented

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError(f"series power needs n >= 0, got {n}")
        result = TruncSeries.one(self.nvars, self.trunc)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def inverse(self) -> "TruncSeries":
        """Multiplicative inverse, the exact quotient one / self; requires
        constant term +1 or -1."""
        return TruncSeries.one(self.nvars, self.trunc) / self

    def __hash__(self):
        return hash((self.nvars, self.trunc, tuple(sorted(self.coeffs.items()))))

    def embed(self, nvars: int, positions) -> "TruncSeries":
        """Reinterpret in a larger variable set; positions[k] is the new index
        of the current k-th variable."""
        positions = tuple(positions)
        if len(positions) != self.nvars or nvars < self.nvars:
            raise ValueError(f"embed needs one position per variable and nvars >= {self.nvars}")
        out = {}
        for e, c in self.coeffs.items():
            ne = [0] * nvars
            for k, p in enumerate(positions):
                ne[p] = e[k]
            out[tuple(ne)] = c
        return TruncSeries(nvars, self.trunc, out)

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
