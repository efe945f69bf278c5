"""Dense truncated power series over the integers, in any number of variables.

Coefficients live in a dict keyed by exponent tuples; everything past the
total-degree cutoff is discarded.  Arithmetic is exact.
"""

from __future__ import annotations

from dataclasses import dataclass


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
        clean = {}
        for exps, c in (self.coeffs or {}).items():
            exps = tuple(int(e) for e in exps)
            if len(exps) != nvars or any(e < 0 for e in exps):
                raise ValueError(f"exponent {exps} is not {nvars} nonnegative integers")
            if sum(exps) <= trunc and c != 0:
                clean[exps] = clean.get(exps, 0) + int(c)
        object.__setattr__(self, "coeffs", {e: c for e, c in clean.items() if c != 0})

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
        out: dict = {}
        for e1, c1 in self.coeffs.items():
            d1 = sum(e1)
            for e2, c2 in other.coeffs.items():
                if d1 + sum(e2) > self.trunc:
                    continue
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return TruncSeries(self.nvars, self.trunc, out)

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
        """Multiplicative inverse; requires constant term +1 or -1."""
        c0 = self.constant()
        if c0 not in (1, -1):
            raise ValueError(f"inverse needs unit constant term, got {c0}")
        # self = c0 (1 - r) with r of positive order, so 1/self = c0 sum r^k
        r = TruncSeries.one(self.nvars, self.trunc) - (self * c0)
        acc = TruncSeries.one(self.nvars, self.trunc)
        power = TruncSeries.one(self.nvars, self.trunc)
        for _ in range(self.trunc):
            power = power * r
            if not power.coeffs:
                break
            acc = acc + power
        return acc * c0

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
