"""Graded sequences and their Jacobi-Trudi minors.

A GradedSequence assigns a value to every degree d >= 0.  Values are either
plain integers (dimensions) or SchurClass elements (virtual characters with
a fixed number of tensor factors).  Negative degrees silently yield zero, so
Toeplitz-style minors can index freely.

Terms and elementary classes are memoised per sequence instance, under the
policy of jtkit.memo.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable
from math import comb
from operator import mul

from ._frozen import dataclass, field
from .determinant import _EXPAND_MAX_ORDER, _laplace_step, _signed_sum, det_bareiss, det_expand
from .memo import _Canonical, memo_put
from .powerseries import TruncSeries
from .shapes import (
    SkewShape,
    _conj,
    _fits,
    _int,
    as_shape,
    conjugate,
    scan_partitions,
    subpartitions,
    trim,
)
from .symfunc import SchurClass, binom, external_product, value_json


@dataclass(frozen=True, slots=True, eq=False)
class GradedSequence:
    """A graded sequence of integers or Schur classes, total in the degree.
    Given factor_dims, one dimension per tensor factor, its terms are
    classes over len(factor_dims) factors; without, they are integers.
    value_kind and factor_count are derived from factor_dims.  Equality is
    identity, as each instance owns its memos."""

    name: str
    term_fn: Callable
    factor_dims: tuple[int, ...] | None = None
    value_kind: str = field(init=False)
    factor_count: int = field(init=False)
    _terms: dict = field(init=False, default_factory=dict)
    _eclasses: dict = field(init=False, default_factory=dict)
    _dim_view: GradedSequence | None = field(init=False, default=None)
    _zero: object = field(init=False, default=0)
    _unit: object = field(init=False, default=1)

    def __post_init__(self):
        object.__setattr__(self, "name", str(self.name))
        if self.factor_dims is None:
            object.__setattr__(self, "value_kind", "integer")
            object.__setattr__(self, "factor_count", 1)
            return
        dims = tuple(_int(x, "a factor dimension") for x in self.factor_dims)
        object.__setattr__(self, "factor_dims", dims)
        object.__setattr__(self, "value_kind", "class")
        object.__setattr__(self, "factor_count", len(dims))
        view = GradedSequence(f"dims({self.name})", lambda seq, d: self.dims(d))
        object.__setattr__(self, "_dim_view", view)
        # immutable, so one zero and one unit serve every call
        object.__setattr__(self, "_zero", SchurClass.zero(len(dims)))
        object.__setattr__(self, "_unit", SchurClass.unit(len(dims)))

    def zero_value(self):
        return self._zero

    def unit_value(self):
        return self._unit

    def term(self, d: int):
        """The degree-d value: zero below degree 0.  A degree or an integer
        value that is not an integer raises ValueError."""
        if type(d) is not int:
            d = _int(d, "a degree")
        if d < 0:
            return self.zero_value()
        hit = self._terms.get(d)
        if hit is not None:
            return hit
        value = self.term_fn(self, d)
        if self.value_kind == "integer":
            value = _int(value, f"term {d} of {self.name}")
        return memo_put(self._terms, d, value)

    def dims(self, d: int) -> int:
        value = self.term(d)
        if self.value_kind == "integer":
            return value
        return value.dim(self.factor_dims)

    def dim_view(self) -> "GradedSequence":
        """The same sequence with every class collapsed to its dimension."""
        return self._dim_view or self

    def __repr__(self):
        return f"GradedSequence({self.name!r}, {self.value_kind})"


@dataclass(frozen=True, slots=True)
class PFReport:
    """Outcome of a finite total-positivity scan."""

    verdict: str
    order: int
    window: int
    checked: int
    witness: tuple | None = None

    def to_json(self) -> dict:
        wit = None
        if self.witness is not None:
            lam, mu, value = self.witness
            wit = {"lambda": list(lam), "mu": list(mu), "value": value_json(value)}
        return {
            "verdict": self.verdict,
            "order": self.order,
            "window": self.window,
            "checked": self.checked,
            "witness": wit,
        }


def _check(ok: bool, message: str) -> None:
    if not ok:
        raise ValueError(message)


def _poly(m):
    _check(m >= 1, "poly needs m >= 1")
    return lambda seq, d: SchurClass(1, {(trim((d,)),): 1})


def _tensoralg(m):
    _check(m >= 1, "tensoralg needs m >= 1")
    return lambda seq, d: seq.term(d - 1) * SchurClass.schur((1,)) if d else SchurClass.unit(1)


def _quadric(m):
    _check(m >= 1, "quadric needs m >= 1")
    return lambda seq, d: binom(m + d - 1, d) - binom(m + d - 3, d - 2)


def _qdual(m):
    _check(m >= 1, "qdual needs m >= 1")
    return lambda seq, d: sum(binom(m, d - 2 * k) for k in range(d // 2 + 1))


def _super(r, s):
    _check(r >= 0 and s >= 0 and r + s >= 1, "super needs r, s >= 0 with r + s >= 1")

    def term(seq, d):
        total = 0
        for i in range(d + 1):
            even = binom(r + i - 1, i) if r >= 1 else (1 if i == 0 else 0)
            total += even * binom(s, d - i)
        return total

    return term


def _heisenberg(u):
    _check(u >= 1, "heisenberg needs u >= 1")
    return lambda seq, d: sum(binom(d - 2 * k + u - 1, u - 1) for k in range(d // 2 + 1))


def _squares():
    return lambda seq, d: (d + 1) ** 2


def _list(dims):
    _check(len(dims) > 0, "list needs at least one value")

    def term(seq, d):
        if d >= len(dims):
            raise ValueError(f"degree {d} beyond stored range of list sequence (length {len(dims)})")
        return dims[d]

    return term


# The named kinds, read by make_sequence and parse_sequence_spec alike:
# kind -> (value kind, parameter names, parameter defaults, term builder).
# A builder takes the parameters as ints, in order, raises ValueError when
# they are out of range and returns the term function.  list's one
# parameter, dims, is a tuple of ints and takes every value of a spec.  A
# class kind's parameters are the dimensions of its one tensor factor.
_KINDS = {
    "poly": ("class", ("m",), {}, _poly),
    "tensoralg": ("class", ("m",), {}, _tensoralg),
    "quadric": ("integer", ("m",), {}, _quadric),
    "qdual": ("integer", ("m",), {}, _qdual),
    "super": ("integer", ("r", "s"), {}, _super),
    "heisenberg": ("integer", ("u",), {"u": 2}, _heisenberg),
    "squares": ("integer", (), {}, _squares),
    "list": ("integer", ("dims",), {}, _list),
}
_ALIASES = {"polynomial": "poly", "tensor_algebra": "tensoralg", "quadric_dual": "qdual"}


def make_sequence(kind: str, **params) -> GradedSequence:
    """Build one of the named sequences.

    Integer-valued kinds: quadric(m), qdual(m), super(r, s), heisenberg(u),
    squares(), list(dims).  Class-valued kinds: poly(m), tensoralg(m).
    """
    kind = kind.lower()
    name = _ALIASES.get(kind, kind)
    if name not in _KINDS:
        raise ValueError(f"unknown sequence kind {kind!r}")
    value_kind, names, defaults, build = _KINDS[name]
    params = {**defaults, **params}
    values = []
    for p in names:
        _check(p in params, f"{kind} needs parameter {p!r}")
        value = params.pop(p)
        if p == "dims":
            values.append(tuple(_int(x, f"a {kind} value") for x in value))
        else:
            values.append(_int(value, f"{kind} parameter {p}"))
    _check(not params, f"unexpected parameters for {kind}: {sorted(params)}")
    term = build(*values)
    flat = values[0] if names == ("dims",) else values
    if flat:
        name += ":" + ",".join(map(str, flat))
    return GradedSequence(name, term, tuple(values) if value_kind == "class" else None)


def veronese(a: GradedSequence, d: int) -> GradedSequence:
    """Degree-d Veronese subsequence: term i is a's term d*i."""
    d = _int(d, "veronese d")
    if d < 1:
        raise ValueError("veronese needs d >= 1")
    return GradedSequence(f"veronese({a.name},{d})", lambda seq, i: a.term(d * i), a.factor_dims)


def tensor_product(a: GradedSequence, b: GradedSequence) -> GradedSequence:
    """Graded tensor product: degree n collects all A_i (x) B_{n-i}.

    Class inputs keep their factor structure (factor lists concatenate).  If
    either side is integer valued both collapse to dimensions.
    """
    if a.value_kind == "class" and b.value_kind == "class":
        def term(seq, n):
            acc = seq.zero_value()
            for i in range(n + 1):
                acc = acc + external_product(a.term(i), b.term(n - i))
            return acc

        return GradedSequence(f"tensor({a.name},{b.name})", term, a.factor_dims + b.factor_dims)
    av, bv = a.dim_view(), b.dim_view()
    return GradedSequence(
        f"tensor({a.name},{b.name})",
        lambda seq, n: sum(av.term(i) * bv.term(n - i) for i in range(n + 1)),
    )


def segre(a: GradedSequence, b: GradedSequence) -> GradedSequence:
    """Termwise tensor product: degree d is A_d (x) B_d."""
    if a.value_kind == "class" and b.value_kind == "class":
        return GradedSequence(
            f"segre({a.name},{b.name})",
            lambda seq, d: external_product(a.term(d), b.term(d)),
            a.factor_dims + b.factor_dims,
        )
    return GradedSequence(f"segre({a.name},{b.name})", hadamard(a, b).term_fn)


def hadamard(a: GradedSequence, b: GradedSequence) -> GradedSequence:
    """Termwise product of dimensions, always integer valued."""
    av, bv = a.dim_view(), b.dim_view()
    return GradedSequence(f"hadamard({a.name},{b.name})", lambda seq, d: av.term(d) * bv.term(d))


def jt_minor(a: GradedSequence, shape, r: int | None = None):
    """The Jacobi-Trudi minor det(A_{lambda_i - mu_j - i + j}) of order r.

    r defaults to the number of rows needed, need, and must not be smaller.
    Padding to r multiplies the minor by a_0^(r - need), so a larger r gives
    the same value only when a_0 is the unit.  Integer sequences use Bareiss
    elimination.  Class-valued sequences use det_expand, one _laplace_step
    per row on column subsets: fewer than r*2^(r-1) ring multiplications at
    order r.  When a_0 is the unit and lambda_1 < r <= 8, a class minor is
    also the e-form jt_minor_dual of order lambda_1 (Macdonald, Symmetric
    Functions, I (5.4)-(5.5)), and that side runs when _dual_is_cheaper says
    so.  Orders above 8 are refused as before, whatever lambda_1 is, and the
    CLI's --max-cost is still the order r.
    """
    s = as_shape(shape)
    lam, mu = s.outer.parts, s.inner.parts
    r = _padding(lam, mu, r)
    lam, mu = lam + (0,) * (r - len(lam)), mu + (0,) * (r - len(mu))
    rows = [[a.term(lam[i] - mu[j] - i + j) for j in range(r)] for i in range(r)]
    if (
        a.value_kind == "class"
        and 0 < r <= _EXPAND_MAX_ORDER
        and 0 < lam[0] < r
        and a.term(0) == a.unit_value()
        and _dual_is_cheaper(a, lam, mu, rows)
    ):
        return jt_minor_dual(a, s)
    return _det(a, rows)


def _dual_is_cheaper(a: GradedSequence, lam, mu, rows) -> bool:
    """Whether the e-form of the minor lam/mu, of order n = lam_1 < r, should
    cost less than rows, its h-matrix of order r (lam and mu padded to r):
    whether the e-matrix's entries hold no more terms in all than rows'.

    The classes are built one degree at a time, so the count stops at the
    first degree that passes the h side's total and builds nothing above it.
    The README's ring-multiplication counts need no test of their own: the
    e-matrix's largest degree D is at most r + n - 1, so for n < r the e
    side's n*2^(n-1) + D(D-1)/2 is always below the h side's r*2^(r-1).
    """
    n = lam[0]
    lamt, mut = _conj(lam), _conj(mu)
    mut += (0,) * (n - len(mut))
    budget = sum(entry.support_size() for row in rows for entry in row)
    uses = Counter(lamt[i] - mut[j] - i + j for i in range(n) for j in range(n))
    spent = uses[0]
    for d in range(1, lamt[0] - mut[-1] + n):
        spent += uses[d] * e_class(a, d).support_size()
        if spent > budget:
            return False
    return True


def _padding(lam, mu, r, what="the shape") -> int:
    """The order of a minor on lam/mu: r, or the rows needed when r is None.
    Raises ValueError when r is smaller than that."""
    need = max(len(lam), len(mu))
    if r is None:
        return need
    r = _int(r, "the padding")
    if r < need:
        raise ValueError(f"padding {r} smaller than {what} needs ({need})")
    return r


def _det(a: GradedSequence, rows):
    """Determinant of a square matrix of a's values: a's unit when empty,
    Bareiss elimination for integers, det_expand for classes."""
    if not rows:
        return a.unit_value()
    if a.value_kind == "integer":
        return det_bareiss(rows)
    return det_expand(rows, a.zero_value())


def index_to_shapes(j_idx, i_idx):
    """Translate strictly increasing index sets to the (lambda, mu) pair whose
    Jacobi-Trudi minor the index minor computes."""
    j_idx = tuple(_int(x, "an index") for x in j_idx)
    i_idx = tuple(_int(x, "an index") for x in i_idx)
    r = len(j_idx)
    if len(i_idx) != r or r == 0:
        raise ValueError("index sets must be nonempty and the same length")
    for seq in (j_idx, i_idx):
        if seq[0] < 1 or any(x >= y for x, y in zip(seq, seq[1:])):
            raise ValueError("index sets must be strictly increasing and positive")
    lam = trim(tuple(i_idx[r - 1 - k] - (r - k) for k in range(r)))
    mu = trim(tuple(j_idx[r - 1 - k] - (r - k) for k in range(r)))
    return lam, mu


def minor_from_indices(a: GradedSequence, j_idx, i_idx):
    """Minor of the Toeplitz array on row set j_idx and column set i_idx,
    entry convention A_{i - j}.  Its matrix is the Jacobi-Trudi matrix of
    the translated shapes from index_to_shapes, padded to len(j_idx), with
    rows and columns both reversed, so it is that jt_minor."""
    j_idx, i_idx = tuple(j_idx), tuple(i_idx)
    lam, mu = index_to_shapes(j_idx, i_idx)
    if not _fits(lam, mu):
        raise ValueError(f"index sets give mu {mu} not inside lambda {lam}")
    return jt_minor(a, SkewShape(lam, mu), len(j_idx))


def _is_negative(a: GradedSequence, value) -> bool:
    if a.value_kind == "integer":
        return value < 0
    return not value.is_nonnegative()


# Largest row-subset level a minor sweep may hold; see _box_minors.
_SWEEP_BOUND = 1 << 18


def _box_minors(a: GradedSequence, r: int, windows: list[int], cap=(None,)):
    """Sweep the boxes of shapes with at most r rows and parts at most w,
    for each w of the increasing list windows in turn, and yield for each box a
    dict of the nonzero straight Jacobi-Trudi minors of the shapes that the
    previous box did not hold, keyed by the row subset that _shape_of_rows
    turns into the shape.

    The (w+r) x r Toeplitz block T[k][c] = a_{k-r+1+c} holds the box: the
    minor of lambda is the determinant of T's rows k_i = lambda_i + r - i,
    i = 1..len(lambda) in decreasing order, on its first len(lambda)
    columns, so row 0 is never used.  The sweep starts from the empty
    subset and takes one _laplace_step per column c, over the rows from
    max(1, r-1-c) up in ascending order: column c is zero below row r-1-c,
    so these rows hold every row of a c-subset, and the cofactor sign is the
    parity of the subset's rows below the new row.  After column c it holds
    the partial minor of every (c+1)-subset of rows on columns 0..c, and the
    subsets whose lowest row is at least r - c are the shapes with c+1 rows.
    T's entries do not depend on w, so a wider box only adds rows: the sweep
    keeps its partial minors and passes the step seen, the first new row, so
    that a subset the previous box held takes only the new rows.  All the
    boxes together cost at most sum_c c*C(w+r, c) ring multiplications at
    the last window w, r*C(w+r, r) when a_0 != 0, and no division.

    cap is a one-element list that the caller may set between boxes to a
    shape size: later boxes then yield only the shapes of at most that size.
    A partial minor on rows k_1 > k_2 > ... feeds only the shapes whose row
    set holds its rows, and in each of them the row k_i has a part of at
    least max(1, k_i - r + i), so the sweep keeps no subset whose sum of
    those bounds exceeds the cap.  A c-subset's parts k_i - r + i are at
    least 0, so that sum is its row sum minus c(2r-c-1)/2, plus one for
    each of the bottom rows r-c, r-c+1, ... that it holds: the step carries
    each subset's row sum and forms no subset that the row sum alone puts
    over the cap, and the sweep drops those that the bottom rows put over.

    Each box reads every term up to degree w + r - 1.  Raises ValueError,
    before the box's first step, when C(w+r, min(r, (w+r)//2)), the largest
    level a (w+r)-row block allows, exceeds _SWEEP_BOUND.
    """
    zero = a.zero_value()
    # levels[c]: the partial minors on columns 0..c-1, for c < r; the last
    # column's are never extended, so they are not kept
    levels = [{0: a.unit_value()}] + [{} for _ in range(r - 1)]
    sums = None  # the row sum of every subset held, once cap is set
    seen = 1  # rows below seen were in the previous block; row 0 never is
    for w in windows:
        n = w + r
        worst = comb(n, min(r, n // 2))
        if worst > _SWEEP_BOUND:
            raise ValueError(
                f"a minor sweep at order {r}, window {w} may hold {worst} partial minors "
                f"in one level, above the bound {_SWEEP_BOUND}"
            )
        # vals[k + c] = T[k][c]: degree k + c - r + 1; a zero is None
        vals = [None] * (r - 1) + [None if t == zero else t for t in [a.term(d) for d in range(n)]]
        if cap[0] is not None and sums is None:
            sums = {rows: sum(k for k in range(n) if rows >> k & 1) for level in levels for rows in level}
        last = w == windows[-1]
        new = {}
        for c in range(r):
            # rows from max(1, r-1-c) hold every row of a c-subset; the cofactor
            # sign is the parity of the subset's rows below the new row
            lo = max(1, r - 1 - c)
            entries = [(1 << k, vals[k + c]) for k in range(lo, n)]
            limit = None if sums is None else cap[0] + (c + 1) * (2 * r - c - 2) // 2
            nxt = _laplace_step(zero, levels[c], entries, seen, sums, limit)
            if last:
                levels[c] = None  # no later box extends it
            if sums is not None and lo == r - 1 - c:
                # each of the bottom rows lo, lo+1, ... that a subset holds adds one to its bound
                for rows in [rows for rows in nxt if rows >> lo & 1]:
                    run = rows >> lo
                    if sums[rows] + (run ^ (run + 1)).bit_length() - 1 > limit:
                        del nxt[rows]
            if c + 1 < r:
                levels[c + 1].update(nxt)
            # shapes with c+1 rows: lambda_{c+1} = k_{c+1} - r + c + 1 >= 1
            low = (1 << (r - c)) - 1
            for rows, m in nxt.items():
                if not rows & low and m != zero:
                    new[rows] = m
        seen = n
        yield new


def _shape_of_rows(rows: int, r: int) -> tuple[int, ...]:
    """The shape lambda_i = k_i - r + i of a row subset k_1 > k_2 > ...
    of _box_minors at order r."""
    parts = []
    while rows:
        k = rows.bit_length() - 1
        rows ^= 1 << k
        parts.append(k - r + 1 + len(parts))
    return tuple(parts)


def pf_check(a: GradedSequence, max_order: int = 4, window: int = 8, scan_skew: bool = False) -> PFReport:
    """Scan Jacobi-Trudi minors for a negative value.

    Straight shapes lambda with at most max_order rows and parts at most
    window, in order of size then lexicographic; scan_skew additionally runs
    over every inner shape mu inside each lambda.  The first offender (under
    that order) becomes the witness, and checked counts the shapes scanned up
    to and including it, or every shape of the scan when none is negative.

    Straight scans grow one _box_minors sweep through windows 1, 2, 4, ...
    up to window, and stop at the first window whose least negative shape
    has size at most that window: every shape before it in the scan order
    lies in that smaller box, so it is the witness of the whole box.  Until
    then the least negative size n found so far caps the sweep at n - 1: a
    later window's shapes have larger first parts than any shape found, so
    of them only the smaller ones can come before it in the scan order, and
    the later windows make no partial minor that feeds only shapes of size
    n or more.  A positive box costs one sweep of the largest window.  Each
    window reads terms up to degree window + max_order - 1, and raises
    ValueError before its step when its largest level could exceed
    _SWEEP_BOUND subsets, cap or no cap.
    Skew scans walk lambda once and count the pairs (lambda, mu) with mu
    inside lambda, in the scan order of lambda and then of mu, so mu = ()
    comes first.  When a_0 is the unit, d -> a_d extends to a ring map that
    sends h_d to a_d, so the minor of lambda/mu is the image of
    s_{lambda/mu}, a sum of s_nu with nonnegative coefficients over shapes
    nu inside lambda and no later in the scan order (Macdonald, Symmetric
    Functions, I.5).  The first negative pair is then (lambda, ()) for the
    first lambda whose straight minor is negative, so mu runs over () alone
    and the scan adds lambda's other subshapes to checked.  That pair also
    reads the largest degree of any pair on lambda, so a term that cannot be
    read raises at the same lambda as a scan of every pair.  Otherwise mu
    runs over every subshape of lambda, one jt_minor per pair.  A negative
    max_order or window raises ValueError; a zero one scans the empty box.
    """
    max_order, window = _int(max_order, "the scan order"), _int(window, "the scan window")
    if max_order < 0 or window < 0:
        raise ValueError("scan order and window must be nonnegative")
    if scan_skew:
        derived = a.term(0) == a.unit_value()
        checked = 0
        for lam in scan_partitions(max_order, window):
            for mu in [()] if derived else subpartitions(lam):
                value = jt_minor(a, SkewShape(lam, mu))
                checked += 1
                if _is_negative(a, value):
                    return PFReport("negative", max_order, window, checked, witness=(lam, mu, value))
            if derived:
                checked += sum(1 for _ in subpartitions(lam)) - 1
        return PFReport("positive-up-to-bounds", max_order, window, checked)
    if max_order < 1 or window < 1:
        return PFReport("positive-up-to-bounds", max_order, window, 0)
    # the powers of two below window, then window
    steps = [1 << i for i in range((window - 1).bit_length())] + [window]
    negative = {}
    cap = [None]
    for step, minors in zip(steps, _box_minors(a, max_order, steps, cap)):
        # an integer box whose least minor is not negative adds no shape
        if a.value_kind == "class" or (minors and min(minors.values()) < 0):
            negative.update(
                (_shape_of_rows(rows, max_order), value) for rows, value in minors.items() if _is_negative(a, value)
            )
        if negative:
            lam = min(negative, key=lambda p: (sum(p), p))
            if sum(lam) <= step or step == window:
                shapes = enumerate(scan_partitions(max_order, window), 1)
                checked = next(i for i, shape in shapes if shape == lam)
                return PFReport("negative", max_order, window, checked, witness=(lam, (), negative[lam]))
            # a later window's shapes have larger first parts than lam, so only
            # the smaller ones can come before it in the scan order
            cap[0] = sum(lam) - 1
    return PFReport("positive-up-to-bounds", max_order, window, comb(max_order + window, window) - 1)


def e_class(a: GradedSequence, d: int):
    """Degree-d elementary class, from the recurrence
    e_n = sum_{k=1..n} (-1)^(k-1) a_k e_{n-k} with e_0 = 1 (Macdonald,
    Symmetric Functions, I.2), which the alternating sum of products of terms
    over all compositions of n satisfies.  Every e_n with n <= d is memoised
    on the way; from a cold memo that is d(d-1)/2 ring multiplications at
    most, skipping zero terms.  Each e_n is one _signed_sum: the k = n
    summand +-a_n needs no product and is its start, and every other summand
    is a (sign, a_k, e_{n-k}) triple, so a class e_n is summed in one dict
    with no negated copy of any product."""
    d = _int(d, "the degree")
    if d < 0:
        return a.zero_value()
    hit = a._eclasses.get(d)
    if hit is not None:
        return hit
    zero = a.zero_value()
    es = [a.unit_value()]
    for n in range(1, d + 1):
        value = a._eclasses.get(n)
        if value is None:
            products = [
                (1 if k % 2 else -1, ak, es[n - k])
                for k in range(1, n)
                if (ak := a.term(k)) != zero and es[n - k] != zero
            ]
            start = a.term(n) if n % 2 else -a.term(n)
            value = memo_put(a._eclasses, n, _signed_sum(zero, products, start))
        es.append(value)
    return es[d]


def jt_minor_dual(a: GradedSequence, shape, n: int | None = None):
    """The dual (elementary) Jacobi-Trudi minor, indexed by the transposed
    shape.  n is the padding and must be at least lambda_1."""
    s = as_shape(shape)
    lam, mu = s.outer.parts, s.inner.parts
    lamt, mut = conjugate(lam), conjugate(mu)
    n = _padding(lamt, mut, n, "the transposed shape")
    lamt, mut = lamt + (0,) * (n - len(lamt)), mut + (0,) * (n - len(mut))
    rows = [[e_class(a, lamt[i] - mut[j] - i + j) for j in range(n)] for i in range(n)]
    return _det(a, rows)


def veronese_identity_check(a: GradedSequence, d: int, shape, r: int | None = None) -> bool:
    """Whether the order-r minor of the d-Veronese equals the stretched-shape
    minor of the original sequence."""
    s = as_shape(shape)
    lam, mu = s.outer.parts, s.inner.parts
    r = _padding(lam, mu, r)
    d = _int(d, "veronese d")
    lhs = jt_minor(veronese(a, d), s, r)  # veronese refuses d < 1
    alpha = trim(tuple(d * (lam[i - 1] if i <= len(lam) else 0) + (d - 1) * (r - i) for i in range(1, r + 1)))
    beta = trim(tuple(d * (mu[j - 1] if j <= len(mu) else 0) + (d - 1) * (r - j) for j in range(1, r + 1)))
    rhs = jt_minor(a, SkewShape(alpha, beta), r)
    return lhs == rhs


def tensor_identity_check(a: GradedSequence, b: GradedSequence, shape, r: int | None = None) -> bool:
    """Cauchy-Binet: the minor of a tensor product expands over intermediate
    shapes nu between mu and lambda, read at dimension level unless both
    factors are class valued."""
    s = as_shape(shape)
    lam, mu = s.outer.parts, s.inner.parts
    c = tensor_product(a, b)
    lhs = jt_minor(c, s, r)
    if c.value_kind == "class":
        product = external_product
    else:
        a, b, product = a.dim_view(), b.dim_view(), mul
    rhs = c.zero_value()
    for nu in subpartitions(lam):
        if _fits(nu, mu):
            rhs = rhs + product(jt_minor(a, SkewShape(lam, nu), r), jt_minor(b, SkewShape(nu, mu), r))
    return lhs == rhs


def hs_series(a: GradedSequence, trunc: int) -> TruncSeries:
    """Hilbert series of dimensions, truncated at total degree trunc; built
    canonical, so it skips the constructor's term-by-term check."""
    return TruncSeries(1, trunc, _Canonical({(d,): a.dims(d) for d in range(trunc + 1)}))


def schur_dimension_profile(a: GradedSequence, r_max: int, s_max: int):
    """Look for a hook bound (r, s) whose vanishing law lambda_{r+1} > s
    matches the observed vanishing of minors at dimension level.

    Scans the (r_max + 1) x (s_max + 1) box of shapes, whose minors come
    from one sweep of _box_minors (ValueError above its bound).  The law
    (r, s) vanishes on exactly the shapes that contain the (r+1) x (s+1)
    rectangle, its first shape in scan order.  So the answer is read off
    the first vanishing shape: its (r, s) when it is a rectangle that the
    vanishing shapes, and only they, contain, else None."""
    r_max, s_max = _int(r_max, "r_max"), _int(s_max, "s_max")
    if r_max < 0 or s_max < 0:
        raise ValueError("profile bounds must be nonnegative")
    (minors,) = _box_minors(a.dim_view(), r_max + 1, [s_max + 1])
    nonzero = {_shape_of_rows(rows, r_max + 1) for rows in minors}
    box = list(scan_partitions(r_max + 1, s_max + 1))
    rect = next((lam for lam in box if lam not in nonzero), None)
    # a shape must vanish exactly when it holds rect
    if rect is None or rect[-1] != rect[0] or any(_fits(lam, rect) == (lam in nonzero) for lam in box):
        return None
    return (len(rect) - 1, rect[0] - 1)


# Each cut of a combinator spec tries the prefixes before its top-level
# commas, so parsing time grows steeply with nesting: the slowest spec found
# within the bound, "tensor:" 63 deep over squares, parses in 0.07 s on a
# 2-vCPU Xeon, while "tensor:" 85 deep (256 separators) takes 0.2 s and 400
# deep does not finish in 30 s.  The longest spec in the docs, tests and
# benchmark has 22.
_SPEC_MAX_SEPARATORS = 128


def parse_sequence_spec(text: str) -> GradedSequence:
    """Parse the colon-and-comma mini grammar for sequences.

    Examples: "quadric:3", "super:2,1", "list:1,2,2,2",
    "veronese:poly:2,2", "hadamard:quadric:2,squares",
    "tensor:(quadric:2),(quadric:2)".  A spec holds at most
    _SPEC_MAX_SEPARATORS of the separators ':', ',' and '(', checked before
    any parsing.
    """
    separators = sum(map(text.count, ":,("))
    if separators > _SPEC_MAX_SEPARATORS:
        raise ValueError(f"sequence spec has {separators} separators (':', ',' and '('), more than {_SPEC_MAX_SEPARATORS}")
    seq = _parse_spec(text.strip(), {})
    if seq is None:
        raise ValueError(f"cannot parse sequence spec {text!r}")
    return seq


def _strip_parens(text: str) -> str:
    text = text.strip()
    while text.startswith("(") and text.endswith(")"):
        depth = 0
        for ch in text[:-1]:
            depth += (ch == "(") - (ch == ")")
            if not depth:
                # the first "(" closes before the last ")"
                return text
        text = text[1:-1].strip()
    return text


def _top_level_commas(text: str) -> list[int]:
    out = []
    depth = 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "," and depth == 0:
            out.append(i)
    return out


def _parse_spec(text: str, seen: dict):
    """The sequence text spells, or None, parsed once per parse_sequence_spec
    call: seen maps the texts its cuts have tried to their results."""
    if text not in seen:
        seen[text] = _parse_uncached(text, seen)
    return seen[text]


def _parse_uncached(text: str, seen: dict):
    text = _strip_parens(text)
    if not text:
        return None
    head, sep, rest = text.partition(":")
    head = head.strip().lower()
    head = _ALIASES.get(head, head)
    if head in _KINDS:
        _, names, defaults, _ = _KINDS[head]
        if not sep:
            return make_sequence(head) if set(names) <= set(defaults) else None
        parts = [p.strip() for p in rest.split(",")]
        if not all(_is_int(p) for p in parts):
            return None
        values = [int(p) for p in parts]
        if names == ("dims",):
            return make_sequence(head, dims=values)
        if len(values) != len(names):
            return None
        return make_sequence(head, **dict(zip(names, values)))
    if head == "veronese":
        if not sep:
            return None
        for cut in reversed(_top_level_commas(rest)):
            left, right = rest[:cut], rest[cut + 1 :].strip()
            if not _is_int(right):
                continue
            inner = _parse_spec(left, seen)
            if inner is not None:
                try:
                    return veronese(inner, int(right))
                except ValueError:
                    return None
        return None
    if head in ("tensor", "hadamard", "segre"):
        if not sep:
            return None
        builder = {"tensor": tensor_product, "hadamard": hadamard, "segre": segre}[head]
        for cut in _top_level_commas(rest):
            left, right = rest[:cut], rest[cut + 1 :]
            sa = _parse_spec(left, seen)
            if sa is None:
                continue
            sb = _parse_spec(right, seen)
            if sb is None:
                continue
            return builder(sa, sb)
        return None
    return None


def _is_int(text: str) -> bool:
    return text.strip().removeprefix("-").isdecimal()
