"""Partitions, skew shapes, ribbons, and permutations.

Conventions used throughout the package:

* every integer a caller passes goes through operator.index, in trim for
  the parts of a partition and in _int for one integer: ints, bools and
  types with __index__ are taken, anything else raises ValueError.
* partitions are tuples of weakly decreasing positive integers; the empty
  tuple is the empty partition.  trim builds one from raw parts and drops
  trailing zeros.
* compositions are tuples of positive integers (order matters).
* weights are plain integer tuples of a fixed length; entries may be
  negative.  They are produced by the dotted action and never validated
  beyond their length.
* box coordinates are 0-based (row, col) pairs in English orientation
  (row 0 on top, columns growing to the right).

The public functions accept either a raw tuple or the matching wrapper
class and normalize it once, at that boundary.  The private helpers _fits
and _conj take canonical tuples (_conj also zero-padded ones) and check
nothing again, so kernels that already hold canonical parts call them
instead of contains and conjugate.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Iterator
from operator import gt, index, lt

from ._frozen import dataclass


def _int(x, what: str) -> int:
    """x through operator.index; ValueError naming what, never truncation."""
    try:
        return index(x)
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {x!r}") from None


def trim(parts: Iterable[int]) -> tuple[int, ...]:
    """Canonicalize a weakly decreasing sequence by dropping trailing zeros.

    Raises ValueError if a part is not an integer (ints, bools and types
    with __index__ are), if the sequence increases anywhere, or if it dips
    below zero, checked in that order.
    """
    raw = tuple(parts)
    try:
        t = tuple(map(index, raw))
    except TypeError:
        bad = tuple(p for p in raw if not hasattr(type(p), "__index__"))
        raise ValueError(f"parts must be integers, got {bad} in {raw}") from None
    if any(map(lt, t, t[1:])):
        raise ValueError(f"parts not weakly decreasing: {t}")
    if t and t[-1] < 0:
        raise ValueError(f"negative part in {t}")
    if t and not t[-1]:
        # weakly decreasing and nonnegative, so the zeros are a suffix
        t = t[: t.index(0)]
    return t


def as_parts(p) -> tuple[int, ...]:
    """Coerce a Partition or raw iterable to a canonical parts tuple."""
    if isinstance(p, Partition):
        return p.parts
    return trim(p)


def _conj(t: tuple[int, ...]) -> tuple[int, ...]:
    """Column lengths of a canonical parts tuple, which may also carry
    trailing zeros.  Reading the rows bottom up, the columns that row i
    (1-based) ends beyond the row below it have length i."""
    out: list[int] = []
    prev = 0
    for i in range(len(t), 0, -1):
        p = t[i - 1]
        if p > prev:
            out += [i] * (p - prev)
            prev = p
    return tuple(out)


def _fits(outer: tuple[int, ...], inner: tuple[int, ...]) -> bool:
    """Whether canonical inner fits inside canonical outer componentwise."""
    return len(inner) <= len(outer) and not any(map(gt, inner, outer))


def conjugate(parts) -> tuple[int, ...]:
    """Transpose of a partition as a raw tuple: column lengths of the diagram."""
    return _conj(as_parts(parts))


def contains(outer, inner) -> bool:
    """Whether inner fits inside outer componentwise (after zero padding)."""
    return _fits(as_parts(outer), as_parts(inner))


@dataclass(frozen=True, slots=True)
class Partition:
    """A partition stored canonically (weakly decreasing, no trailing zeros).

    It equals and hashes like its parts tuple."""

    parts: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "parts", trim(self.parts))

    def size(self) -> int:
        return sum(self.parts)

    def length(self) -> int:
        return len(self.parts)

    def part(self, i: int) -> int:
        """The i-th part, 1-based, zero beyond the length."""
        if i < 1:
            raise ValueError(f"part index is 1-based, got {i}")
        return self.parts[i - 1] if i <= len(self.parts) else 0

    def transpose(self) -> "Partition":
        return Partition(_conj(self.parts))

    def contains(self, other) -> bool:
        return _fits(self.parts, as_parts(other))

    def to_json(self) -> list[int]:
        return list(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __len__(self):
        return len(self.parts)

    def __getitem__(self, i):
        return self.parts[i]

    def __eq__(self, other):
        if isinstance(other, Partition):
            return self.parts == other.parts
        if isinstance(other, tuple):
            return self.parts == other
        return NotImplemented

    def __hash__(self):
        return hash(self.parts)

    def __repr__(self):
        return f"Partition{self.parts!r}"


@dataclass(frozen=True, slots=True)
class SkewShape:
    """A skew shape outer/inner with inner contained in outer."""

    outer: Partition
    inner: Partition = Partition()

    def __post_init__(self):
        o, i = (p if isinstance(p, Partition) else Partition(p) for p in (self.outer, self.inner))
        if not _fits(o.parts, i.parts):
            raise ValueError(f"inner {i.parts} not contained in outer {o.parts}")
        object.__setattr__(self, "outer", o)
        object.__setattr__(self, "inner", i)

    def size(self) -> int:
        return self.outer.size() - self.inner.size()

    def cells(self) -> list[tuple[int, int]]:
        """Boxes of the shape as 0-based (row, col) pairs, row-major order."""
        out = []
        for r, o in enumerate(self.outer.parts):
            i = self.inner.part(r + 1)
            out.extend((r, c) for c in range(i, o))
        return out

    def is_horizontal_strip(self) -> bool:
        """At most one box in each column."""
        o, i = self.outer, self.inner
        return all(i.part(r) >= o.part(r + 1) for r in range(1, len(o)))

    def is_vertical_strip(self) -> bool:
        """At most one box in each row."""
        o, i = self.outer, self.inner
        return all(o.part(r) - i.part(r) <= 1 for r in range(1, len(o) + 1))

    def transpose(self) -> "SkewShape":
        return SkewShape(_conj(self.outer.parts), _conj(self.inner.parts))

    def to_json(self) -> dict:
        return {"outer": list(self.outer.parts), "inner": list(self.inner.parts)}

    def label(self) -> str:
        """Compact text form, used as a Betti row label."""
        o = "(" + ",".join(map(str, self.outer.parts)) + ")"
        if not self.inner.parts:
            return o
        return o + "/(" + ",".join(map(str, self.inner.parts)) + ")"

    def __repr__(self):
        return f"SkewShape({self.outer.parts!r}, {self.inner.parts!r})"


def as_shape(s) -> SkewShape:
    """Coerce a SkewShape, Partition, or raw tuple (straight shape) to SkewShape."""
    if isinstance(s, SkewShape):
        return s
    return SkewShape(s if isinstance(s, Partition) else Partition(s))


def skew_from_boxes(boxes: Iterable[tuple[int, int]]) -> SkewShape:
    """Build the skew shape with the given box set, translated so the minimal
    row and column are 0.

    Raises ValueError when the boxes do not form a skew shape: every row in
    range must be a contiguous, nonempty run, runs must be pairwise disjoint,
    and both boundary profiles must be weakly decreasing going down.
    """
    blist = [(_int(r, "a box row"), _int(c, "a box column")) for r, c in boxes]
    if not blist:
        return SkewShape((), ())
    if len(set(blist)) != len(blist):
        raise ValueError("overlapping boxes")
    rows: dict = {}
    for r, c in blist:
        rows.setdefault(r, []).append(c)
    r0, c0 = min(rows), min(map(min, rows.values()))
    outer, inner = [], []
    for r in range(max(rows) + 1 - r0):
        cols = rows.get(r + r0)
        if not cols:
            raise ValueError(f"row {r} empty, not a skew shape")
        lo, hi = min(cols), max(cols)
        if hi - lo + 1 != len(cols):
            raise ValueError(f"row {r} not contiguous")
        outer.append(hi + 1 - c0)
        inner.append(lo - c0)
    try:
        return SkewShape(outer, inner)
    except ValueError as exc:
        raise ValueError(f"boxes do not normalize to a skew shape: {exc}") from exc


def ribbon_of(c) -> SkewShape:
    """The ribbon (border strip) of a composition.

    Row lengths are c_r, ..., c_1 reading top to bottom and consecutive rows
    share exactly one column.
    """
    alpha = tuple(_int(a, "a composition part") for a in c)
    if not alpha or any(a < 1 for a in alpha):
        raise ValueError(f"composition parts must be positive: {alpha}")
    r = len(alpha)
    boxes = []
    start = 0
    for i, a in enumerate(alpha):
        # rows are laid out bottom-up: c_1 is the lowest row, each next row
        # starts at the previous row's last column
        row = r - 1 - i
        boxes.extend((row, start + k) for k in range(a))
        start += a - 1
    return skew_from_boxes(boxes)


def _attach(d: SkewShape, c, merge_row: bool) -> SkewShape:
    rib = ribbon_of(c)
    dcells = as_shape(d).cells()
    if not dcells:
        return rib
    h = len(as_shape(d).outer)
    rib_cells = rib.cells()
    top_end = max(col for row, col in rib_cells if row == 0)
    bottom_start = as_shape(d).inner.part(h)
    if merge_row:
        # ribbon top row continues d's bottom row to the left, same row
        row_shift, col_shift = h - 1, bottom_start - 1 - top_end
    else:
        # ribbon top row sits below d's bottom row, sharing one column
        row_shift, col_shift = h, bottom_start - top_end
    boxes = dcells + [(r + row_shift, col + col_shift) for r, col in rib_cells]
    return skew_from_boxes(boxes)


def attach_odot(d: SkewShape, c) -> SkewShape:
    """Glue a ribbon onto a skew shape, merging the ribbon's top row into the
    bottom row of d (contiguously, to its left); the rest of the ribbon hangs
    below."""
    return _attach(as_shape(d), c, merge_row=True)


def attach_dot(d: SkewShape, c) -> SkewShape:
    """Stack a ribbon below a skew shape: the ribbon's top row goes directly
    under d's bottom row with its rightmost box sharing that row's leftmost
    column."""
    return _attach(as_shape(d), c, merge_row=False)


@dataclass(frozen=True, slots=True)
class Permutation:
    """A permutation of {1..n} in one-line notation."""

    word: tuple[int, ...]

    def __post_init__(self):
        w = tuple(_int(x, "a permutation entry") for x in self.word)
        if sorted(w) != list(range(1, len(w) + 1)):
            raise ValueError(f"not a permutation of 1..{len(w)}: {w}")
        object.__setattr__(self, "word", w)

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(range(1, n + 1))

    def n(self) -> int:
        return len(self.word)

    def length(self) -> int:
        """Number of inversions."""
        w = self.word
        return sum(1 for i in range(len(w)) for j in range(i + 1, len(w)) if w[i] > w[j])

    def sign(self) -> int:
        return -1 if self.length() % 2 else 1

    def apply(self, v: Iterable[int]) -> tuple[int, ...]:
        """Permute a vector: result_i = v_{sigma(i)}."""
        v = tuple(v)
        if len(v) != len(self.word):
            raise ValueError(f"vector length {len(v)} != permutation size {len(self.word)}")
        return tuple(v[self.word[i] - 1] for i in range(len(v)))

    def __repr__(self):
        return f"Permutation{self.word!r}"


def dotted_action(s: Permutation, w: Iterable[int]) -> tuple[int, ...]:
    """The dotted action s(w + rho) - rho with rho = (n-1, ..., 1, 0)."""
    w = tuple(_int(x, "a weight entry") for x in w)
    n = s.n()
    if len(w) != n:
        raise ValueError(f"weight length {len(w)} != permutation size {n}")
    rho = tuple(range(n - 1, -1, -1))
    shifted = tuple(a + b for a, b in zip(w, rho))
    return tuple(a - b for a, b in zip(s.apply(shifted), rho))


# permutations_by_length lists all n! permutations, 40,320 at this bound.
_PERMUTATIONS_MAX_N = 8


def permutations_by_length(n: int) -> dict[int, list[Permutation]]:
    """All permutations of {1..n}, n at most _PERMUTATIONS_MAX_N, grouped
    by inversion count."""
    if n < 1 or n > _PERMUTATIONS_MAX_N:
        raise ValueError(f"n must be in 1..{_PERMUTATIONS_MAX_N}, got {n}")
    out: dict[int, list[Permutation]] = {}
    for w in itertools.permutations(range(1, n + 1)):
        p = Permutation(w)
        out.setdefault(p.length(), []).append(p)
    return out


def partitions_of(n: int, max_part: int | None = None, max_length: int | None = None) -> Iterator[tuple[int, ...]]:
    """Partitions of n in lexicographically ascending order as tuples.

    The first part increases outermost, so for n=4 the order is
    (1,1,1,1), (2,1,1), (2,2), (3,1), (4).
    """
    # no part and no length exceeds n, so a huge bound builds no huge
    # tuple; n = 0 reaches _inside with no rows and yields ()
    n = _int(n, "n")
    part = n if max_part is None else min(_int(max_part, "max_part"), n)
    rows = n if max_length is None else min(_int(max_length, "max_length"), n)
    if n and (min(part, rows) <= 0 or n > part * rows):
        return iter(())
    return _inside(n, (part,) * rows, part)


def scan_partitions(max_length: int, max_part: int) -> Iterator[tuple[int, ...]]:
    """Nonempty partitions inside the max_length x max_part box, ordered by
    size and then lexicographically.  This is the deterministic order used by
    positivity scans."""
    max_length, max_part = _int(max_length, "max_length"), _int(max_part, "max_part")
    return (lam for n in range(1, max_length * max_part + 1) for lam in partitions_of(n, max_part, max_length))


def subpartitions(lam) -> Iterator[tuple[int, ...]]:
    """All partitions contained in lam, ordered by size then
    lexicographically, generated in that order one at a time."""
    lam = as_parts(lam)
    for n in range(sum(lam) + 1):
        yield from _inside(n, lam, lam[0] if lam else 0)


def _inside(n: int, bounds: tuple[int, ...], cap: int, row: int = 0) -> Iterator[tuple[int, ...]]:
    """Partitions of n with parts at most cap whose i-th part is at most
    bounds[row + i], in lexicographically ascending order.  bounds is weakly
    decreasing and some such partition must exist.  The first part starts
    at the least value whose rows can hold n, so every call yields."""
    if not n:
        yield ()
        return
    left = len(bounds) - row
    first = -(-n // left)
    # left rows of a first part within every bound below already hold n
    if first > bounds[-1]:
        while first + sum(min(b, first) for b in bounds[row + 1 :]) < n:
            first += 1
    top = min(n, cap, bounds[row])
    row += 1
    for first in range(first, top + 1):
        rest = n - first
        if rest <= 1 or left == 2:
            # the tail is empty, a single 1 or the last row: no call needed
            yield (first, rest) if rest else (first,)
        else:
            for tail in _inside(rest, bounds, first, row):
                yield (first,) + tail
