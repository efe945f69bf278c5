"""Betti tables of pure free resolutions and their Hilbert series checks.

Tables store explicit rows plus an optional tail descriptor for eventually
geometric ranks (step-1 twists).  A ratio of 1 is the constant tail over a
quadric; the rational normal curve of degree d produces ratio d - 1.
"""

from __future__ import annotations

import io
from itertools import accumulate
from math import comb, gcd

from ._frozen import dataclass
from .determinant import _bareiss
from .quadric import QuadricContext, quadric_schur_dim
from .sequences import GradedSequence, hs_series, jt_minor
from .shapes import Partition, SkewShape, _int, attach_dot
from .symfunc import dim_gl
from .powerseries import TruncSeries


@dataclass(frozen=True, slots=True)
class BettiRow:
    index: int
    twist: int
    rank: int
    label: str | None = None

    def to_json(self) -> dict:
        out = {"index": self.index, "twist": self.twist, "rank": self.rank}
        if self.label is not None:
            out["label"] = self.label
        return out


@dataclass(frozen=True, slots=True)
class BettiTail:
    """Eventually geometric continuation: from start onward the twist grows
    by 1 and the rank picks up a factor of ratio per index."""

    start: int
    rank: int
    ratio: int = 1

    def to_json(self) -> dict:
        out = {"start": self.start, "rank": self.rank, "step": 1}
        if self.ratio != 1:
            out["ratio"] = self.ratio
        return out


@dataclass(frozen=True, slots=True)
class BettiTable:
    rows: tuple
    tail: BettiTail | None = None

    def __post_init__(self):
        rows = tuple(self.rows)
        object.__setattr__(self, "rows", rows)
        for a, b in zip(rows, rows[1:]):
            if a.index >= b.index:
                raise ValueError("row indices must strictly increase")
            if a.twist >= b.twist:
                raise ValueError("twists must strictly increase")
        for row in rows:
            if row.rank <= 0:
                raise ValueError(f"stored ranks must be positive, got {row.rank} at index {row.index}")
        if self.tail is not None:
            t = self.tail
            anchored = [r for r in rows if r.index == t.start]
            if len(anchored) != 1:
                raise ValueError("tail start must match exactly one stored row")
            base = anchored[0]
            if base.rank != t.rank:
                raise ValueError("tail rank must match the anchor row")
            for row in rows:
                if row.index <= t.start:
                    continue
                k = row.index - t.start
                if row.twist != base.twist + k:
                    raise ValueError(f"tail twist mismatch at index {row.index}")
                if row.rank != t.rank * t.ratio**k:
                    raise ValueError(f"tail rank mismatch at index {row.index}")

    def is_empty(self) -> bool:
        return not self.rows

    def max_twist(self) -> int:
        return max(r.twist for r in self.rows)

    def rank_at(self, index: int) -> int:
        """Rank at a homological index, extrapolating through the tail."""
        for row in self.rows:
            if row.index == index:
                return row.rank
        if self.tail is not None and index > self.tail.start:
            return self.tail.rank * self.tail.ratio ** (index - self.tail.start)
        return 0

    def twist_at(self, index: int) -> int:
        for row in self.rows:
            if row.index == index:
                return row.twist
        if self.tail is not None and index > self.tail.start:
            base = next(r for r in self.rows if r.index == self.tail.start)
            return base.twist + index - self.tail.start
        raise ValueError(f"no row at index {index}")

    def to_json(self) -> dict:
        return {
            "rows": [r.to_json() for r in self.rows],
            "tail": self.tail.to_json() if self.tail is not None else None,
        }

    def to_csv(self) -> str:
        import csv

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["index", "twist", "rank", "label"])
        for r in self.rows:
            writer.writerow([r.index, r.twist, r.rank, r.label or ""])
        return buf.getvalue()


def _extended_shift(e: tuple[int, ...], k: int) -> int:
    """The k-th shift (1-based), with e extended by ones past its length."""
    return e[k - 1] if k <= len(e) else 1


# Rung i of a ladder holds max(count, len(e)) + 1 parts, so a ladder's size
# and time grow as count^2: 500 rungs take 0.02 s on a 2-vCPU Xeon, while
# 4,000 took 8.2 s and printed 72 MB through the CLI.
_EFW_MAX_RUNGS = 512


def efw_partitions(e, count: int) -> list[Partition]:
    """The partition ladder attached to a shift composition.

    The 0-th partition has j-th row equal to the total excess of the shifts
    past position j; each later one appends the next shift's worth of boxes
    to the next row.  Raises ValueError, before any work, when count is
    above _EFW_MAX_RUNGS.
    """
    e = tuple(_int(x, "a shift") for x in e)
    if not e or any(x < 1 for x in e):
        raise ValueError(f"shifts must be positive integers, got {e}")
    count = _int(count, "count")
    if count < 1:
        raise ValueError("count must be at least 1")
    if count > _EFW_MAX_RUNGS:
        raise ValueError(f"a ladder of {count} rungs is above the bound of {_EFW_MAX_RUNGS} rungs")
    n = len(e)
    width = max(count, n) + 1
    lam0 = [sum(_extended_shift(e, k) - 1 for k in range(j + 1, n + 1)) for j in range(1, width + 1)]
    out = [Partition(lam0)]
    cur = list(lam0)
    for i in range(1, count):
        cur[i - 1] += _extended_shift(e, i)
        out.append(Partition(cur))
    return out


def efw_betti(e, e_dim: int, count: int | None = None) -> BettiTable:
    """Betti table of the pure resolution with the given shifts over a
    polynomial ring whose space of variables has dimension e_dim.

    Empty exactly when the shift at position e_dim (extended by ones)
    exceeds 1, the obstruction to the complex being nonzero.  Rung i of the
    ladder has at least i rows, so its rank vanishes past e_dim, and only
    the first min(count, e_dim + 1) rungs are built; efw_partitions refuses
    more than _EFW_MAX_RUNGS of them, so e_dim of 512 or more is refused
    unless count is at most 512.
    """
    e = tuple(_int(x, "a shift") for x in e)
    e_dim = _int(e_dim, "e_dim")
    if e_dim < 1:
        raise ValueError("e_dim must be at least 1")
    count = e_dim + 1 if count is None else _int(count, "count")
    if _extended_shift(e, e_dim) > 1:
        return BettiTable(())
    lams = efw_partitions(e, min(count, e_dim + 1))
    rows = []
    twist = 0
    for i, lam in enumerate(lams):
        if i > 0:
            twist += _extended_shift(e, i)
        rank = dim_gl(lam, e_dim)
        if rank == 0:
            continue
        rows.append(BettiRow(i, twist, rank, label=SkewShape(lam.parts).label()))
    return BettiTable(tuple(rows))


# Tail row j of a resolution is a minor of order about m + j, so checking T
# tail terms costs about T^4: 64 terms take 0.33 s (quadric, m = 3) and
# 0.52 s (rational normal curve, d = 3) on a 2-vCPU Xeon, and 300 did not
# finish in 60 s.
_TAIL_MAX_TERMS = 64


def _check_tail_terms(tail_terms) -> int:
    tail_terms = _int(tail_terms, "tail_terms")
    if tail_terms < 1:
        raise ValueError("tail_terms must be at least 1")
    if tail_terms > _TAIL_MAX_TERMS:
        raise ValueError(f"a tail of {tail_terms} terms is above the bound of {_TAIL_MAX_TERMS} terms")
    return tail_terms


def _pure_table(lams, e, rank, tail_terms: int, ratio: int = 1, tail_label=None) -> BettiTable:
    """The ladder table: row i has shape lams[i], twist e_1 + ... + e_i and
    rank rank(shape), which must be positive or RuntimeError is raised.

    A last shift above 1 ends the table there.  A last shift of 1 grows the
    last shape by a column of j boxes for j = 1..tail_terms, whose rank must
    be the last head rank times ratio^j, or RuntimeError is raised; the tail
    is then recorded, unless a zero rank (ratio 0) ends the table first.
    Tail rows carry tail_label(j), or else the grown shape."""
    rows = []
    for i, (lam, twist) in enumerate(zip(lams, accumulate(e, initial=0))):
        value = rank(lam.parts)
        if value <= 0:
            raise RuntimeError(f"head rank {value} at index {i} is not positive")
        rows.append(BettiRow(i, twist, value, label=SkewShape(lam.parts).label()))
    if e[-1] > 1:
        return BettiTable(tuple(rows))
    last, base = rows[-1].index, rows[-1].rank
    for j in range(1, tail_terms + 1):
        shape = lams[-1].parts + (1,) * j
        value = rank(shape)
        expected = base * ratio**j
        if value != expected:
            raise RuntimeError(f"tail rank {value} at step {j}, expected {expected}")
        if value == 0:
            return BettiTable(tuple(rows))
        label = SkewShape(shape).label() if tail_label is None else tail_label(j)
        rows.append(BettiRow(last + j, twist + j, value, label=label))
    return BettiTable(tuple(rows), BettiTail(start=last, rank=base, ratio=ratio))


def quadric_pure_resolution(m: int, e, tail_terms: int = 4) -> BettiTable:
    """Betti table of the pure resolution with shifts e over the quadric ring
    in m variables.  A final shift above 1 gives a finite table; a final
    shift of 1 gives a linear constant tail, checked and recorded; a tail
    rank that breaks constancy raises RuntimeError.  More than
    _TAIL_MAX_TERMS tail terms raise ValueError before any work."""
    m = _int(m, "m")
    e = tuple(_int(x, "a shift") for x in e)
    if len(e) != m:
        raise ValueError(f"need exactly m = {m} shifts, got {len(e)}")
    if any(x < 1 for x in e):
        raise ValueError("shifts must be positive")
    tail_terms = _check_tail_terms(tail_terms)
    ctx = QuadricContext(m)
    return _pure_table(efw_partitions(e, m), e, lambda shape: quadric_schur_dim(ctx, shape), tail_terms)


def rnc_sequence(d: int) -> GradedSequence:
    """Dimension sequence of the degree-d Veronese of a polynomial ring in
    two variables: 1, d + 1, 2d + 1, ..."""
    d = _int(d, "d")
    if d < 1:
        raise ValueError("need d >= 1")
    return GradedSequence(f"veronese(dims(poly:2),{d})", lambda seq, i: d * i + 1)


def rnc_pure_resolution(d: int, e, tail_terms: int = 4) -> BettiTable:
    """Betti table of the pure resolution with three shifts over the
    homogeneous coordinate ring of the rational normal curve of degree d.

    A final shift above 1 gives a finite table.  A final shift of 1 gives a
    linear tail whose ranks grow geometrically with ratio d - 1 (so d = 1
    degenerates to a finite table).  Head rows are labelled by partitions;
    tail rows carry the ribbon-extended skew shapes whose functors realize
    them.  More than _TAIL_MAX_TERMS tail terms raise ValueError before any
    work."""
    d = _int(d, "d")
    e = tuple(_int(x, "a shift") for x in e)
    if len(e) != 3:
        raise ValueError(f"need exactly 3 shifts, got {len(e)}")
    if any(x < 1 for x in e):
        raise ValueError("shifts must be positive")
    seq = rnc_sequence(d)  # refuses d < 1
    tail_terms = _check_tail_terms(tail_terms)
    dee = SkewShape((d * e[0] + d * e[1] - 1, d * e[1]), (d - 1,) if d > 1 else ())
    return _pure_table(
        efw_partitions(e, 3),
        e,
        lambda shape: jt_minor(seq, shape),
        tail_terms,
        ratio=d - 1,
        tail_label=lambda j: attach_dot(dee, (d,) * j).label(),
    )


@dataclass(frozen=True, slots=True)
class PurityReport:
    is_polynomial: bool
    nonnegative: bool
    coefficients: tuple
    dimension: int | None
    bound: int
    horizon: int

    def to_json(self) -> dict:
        return {
            "is_polynomial": self.is_polynomial,
            "nonnegative": self.nonnegative,
            "coefficients": list(self.coefficients),
            "dimension": self.dimension,
            "bound": self.bound,
            "horizon": self.horizon,
        }


def validate_purity(
    table: BettiTable, a: GradedSequence, tail_horizon: int | None = None, margin: int = 6
) -> PurityReport:
    """Check that the alternating sum of shifted copies of the sequence's
    Hilbert series collapses to a polynomial with nonnegative coefficients.

    The candidate module series is computed as a truncated power series up to
    tail_horizon, with the tail (when present) summed in closed geometric
    form.  Coefficients past the degree bound (one more than the largest
    stored twist) must vanish through the horizon; the horizon must clear
    the bound by at least margin, and by at least 1 so that some
    coefficient is checked, or the certification refuses to answer.  None
    takes the horizon 24, or the least that clears the bound if that is
    more.  The numerator has one term per degree, since twists strictly
    increase and the tail, whose twists step by 1, starts at its anchor row.
    """
    if table.is_empty():
        return PurityReport(True, True, (), 0, 0, 24 if tail_horizon is None else _int(tail_horizon, "tail_horizon"))
    bound = table.max_twist() + 1
    need = bound + max(_int(margin, "margin"), 1)
    tail_horizon = max(24, need) if tail_horizon is None else _int(tail_horizon, "tail_horizon")
    if tail_horizon < need:
        raise ValueError(f"horizon {tail_horizon} too small to certify, need at least {need}")
    t = table.tail
    numerator = {}
    for row in table.rows:
        if t is None or row.index < t.start:
            numerator[(row.twist,)] = -row.rank if row.index % 2 else row.rank
    if t is not None:
        anchor = next(r for r in table.rows if r.index == t.start)
        sign = -1 if t.start % 2 else 1
        for j in range(tail_horizon - anchor.twist + 1):
            numerator[(anchor.twist + j,)] = sign * t.rank * (-t.ratio) ** j
    series = TruncSeries(1, tail_horizon, numerator) * hs_series(a, tail_horizon)
    coeffs = series.univariate_coeffs()
    is_poly = all(c == 0 for c in coeffs[bound + 1 :])
    reported = coeffs[: bound + 1]
    while reported and reported[-1] == 0:
        reported.pop()
    nonneg = is_poly and all(c >= 0 for c in reported)
    dim = sum(reported) if is_poly else None
    return PurityReport(is_poly, nonneg, tuple(reported), dim, bound, tail_horizon)


@dataclass(frozen=True, slots=True)
class HKSolution:
    """The two-dimensional space of pure Betti vectors for a quadric ring in
    n variables, presented by two primitive basis vectors: one with a
    constant tail, one finite (the classical polynomial-ring solution in one
    fewer variable)."""

    twists: tuple
    tail: tuple
    finite: tuple
    tail_raw: tuple

    def to_json(self) -> dict:
        return {
            "twists": list(self.twists),
            "tail": list(self.tail),
            "finite": list(self.finite),
            "tail_raw": [str(x) for x in self.tail_raw],
        }


def _solve_square(matrix: list[list[int]], rhs: list[int]) -> tuple[list[int], int]:
    """The solution of an integer square system as integer numerators over
    one common denominator D, the last pivot.

    determinant._bareiss triangulates the augmented matrix; its diagonal
    ends as U, its last column as b', and D = U[n-1][n-1] is the
    determinant of the row-swapped matrix.  By Cramer's rule each D * x_i
    is an integer, so back substitution N_i = (D * b'_i - sum_{j>i} U_ij *
    N_j) / U_ii divides exactly."""
    n = len(matrix)
    m = [row[:] + [rhs[i]] for i, row in enumerate(matrix)]
    if _bareiss(m) == 0 or m[n - 1][n - 1] == 0:
        raise ValueError("singular system")
    den = m[n - 1][n - 1]
    nums = [0] * n
    for i in range(n - 1, -1, -1):
        row = m[i]
        nums[i] = (den * row[n] - sum(row[j] * nums[j] for j in range(i + 1, n))) // row[i]
    return nums, den


def _primitive(ints: list[int]) -> tuple[int, ...]:
    """ints divided by their gcd, with the sign that makes the first
    positive.  hk_solve's first rank is never 0: by Descartes's rule of
    signs, the other n - 1 patterns, whose coefficients change sign at
    most n - 2 times, cannot vanish to order n - 1 at t = 1."""
    g = gcd(*ints)
    if ints[0] < 0:
        g = -g
    return tuple(x // g for x in ints)


def _taylor_at_one(pattern: dict[int, int], count: int) -> list[int]:
    """First count coefficients of sum_j p_j t^j expanded around t = 1:
    the k-th is sum_j p_j C(j, k), over the pattern's few terms."""
    return [sum(c * comb(j, k) for j, c in pattern.items()) for k in range(count)]


def _solve_branch(patterns: list[dict[int, int]]) -> list[int]:
    """Integer ranks that make the ranked sum of the patterns vanish to
    order len(patterns) - 1 at t = 1: the ranks with the last one fixed at
    1, times their common denominator, which is then the last rank."""
    count = len(patterns) - 1
    rems = [_taylor_at_one(pat, count) for pat in patterns]
    matrix = [[rem[k] for rem in rems[:-1]] for k in range(count)]
    nums, den = _solve_square(matrix, [-rems[-1][k] for k in range(count)])
    return nums + [den]


# Bareiss's exact divisions dominate hk_solve, on minors of about
# (n - 1)^2 * bits(largest twist) / 2 bits, so the solve is bounded by that
# size: at the bound of 2^14 the slowest case found, 35 twists spread to
# 2^14, takes 0.12 s on a 2-vCPU Xeon (Python 3.11).  40 twists 0, 2, ..., 78
# have size 10,647 and (0, 1, 10**9) size 120; 32 twists spread to 10**6,
# size 19,220, would take 0.17 s, and 40 spread to 10**9 about 1.8 s.
_HK_MAX_SIZE = 1 << 14


def hk_solve(twists, n: int | None = None) -> HKSolution:
    """Solve the pure-resolution rank conditions for a quadric ring in n
    variables with the given strictly increasing twists.

    The space of solutions is two dimensional.  The tail branch normalizes
    the constant tail rank to 1 before clearing denominators; the finite
    branch is the classical solution for a polynomial ring in n - 1
    variables, which here resolves a module of finite length.  Raises
    ValueError, before any work, when the system's size, (n - 1)^2 times the
    bit length of the largest twist, is above _HK_MAX_SIZE."""
    twists = tuple(_int(x, "a twist") for x in twists)
    n = len(twists) if n is None else _int(n, "n")
    if n != len(twists):
        raise ValueError(f"need n = {n} twists, got {len(twists)}")
    if n < 2:
        raise ValueError("need at least two twists")
    if any(a >= b for a, b in zip(twists, twists[1:])):
        raise ValueError("twists must strictly increase")
    if twists[0] < 0:
        raise ValueError("twists must be nonnegative")
    bits = twists[-1].bit_length()
    if (n - 1) ** 2 * bits > _HK_MAX_SIZE:
        raise ValueError(
            f"a rank system of {n} twists up to {twists[-1]} has size (n - 1)^2 * {bits} bits = "
            f"{(n - 1) ** 2 * bits}, above the bound {_HK_MAX_SIZE}"
        )
    from fractions import Fraction

    signs = [-1 if i % 2 else 1 for i in range(n)]
    # tail branch: head terms carry t^d + t^(d+1), the tail collapses to t^d
    patterns = [{t: sign, t + 1: sign} for t, sign in zip(twists[:-1], signs)]
    tail = _solve_branch(patterns + [{twists[-1]: signs[-1]}])
    tail_raw = tuple(Fraction(x, tail[-1]) for x in tail)
    # finite branch: plain monomials, same vanishing conditions
    finite = _solve_branch([{t: sign} for t, sign in zip(twists, signs)])
    return HKSolution(twists, _primitive(tail), _primitive(finite), tail_raw)
