from __future__ import annotations

import ast
from fractions import Fraction
from pathlib import Path

import pytest
from math import comb

from hypothesis import example, given, settings
from hypothesis import strategies as st

import jtkit
from jtkit.shapes import (
    Partition,
    Permutation,
    SkewShape,
    _conj,
    _fits,
    as_parts,
    as_shape,
    attach_dot,
    attach_odot,
    conjugate,
    contains,
    dotted_action,
    partitions_of,
    permutations_by_length,
    ribbon_of,
    scan_partitions,
    skew_from_boxes,
    subpartitions,
    trim,
)
from jtkit.symfunc import dim_gl, pieri_extensions

from conftest import outcome, partitions, sub_partition
from oracles import (
    attach_by_boxes,
    conjugate_by_count,
    contains_by_index,
    is_horizontal_strip,
    is_vertical_strip,
    partitions_by_first_part,
    ribbon_by_boxes,
    subpartitions_by_sorting,
    trim_by_loop,
)

PARTS = partitions(max_size=12, max_part=8, max_length=5)
PAIRS = PARTS.flatmap(lambda lam: st.tuples(st.just(lam), sub_partition(lam)))
# raw part lists: increasing, negative, zero-padded and empty ones, plus
# weakly decreasing ones so that the zero strip is reached often
RAW = st.one_of(
    st.lists(st.integers(-2, 6), max_size=6),
    st.lists(st.integers(-1, 6), max_size=6).map(lambda xs: sorted(xs, reverse=True)),
)


def _outcome(fn, *args):
    """fn's value, or the text of the ValueError it raised."""
    try:
        return fn(*args)
    except ValueError as e:
        return ("ValueError", str(e))


def test_trim():
    assert trim((3, 2, 0, 0)) == (3, 2)
    assert trim([]) == ()
    assert trim((5,)) == (5,)
    with pytest.raises(ValueError):
        trim((1, 2))
    with pytest.raises(ValueError):
        trim((2, -1))


def test_trim_refuses_non_integral_parts():
    for raw in ((2.5, 1), ("3", 1), (Fraction(3, 2),), (2.0,)):
        with pytest.raises(ValueError, match="parts must be integers"):
            trim(raw)
    with pytest.raises(ValueError, match=r"got \(2\.5,\) in \(2\.5, 1\)"):
        Partition((2.5, 1))
    with pytest.raises(ValueError, match=r"2\.7"):
        dim_gl((2.7, 1), 3)

    class Two:
        def __index__(self):
            return 2

    assert trim((Two(), True, False)) == (2, 1)
    assert all(type(p) is int for p in trim((Two(), True)))


@given(RAW)
@settings(deadline=None)
def test_trim_matches_oracle(raw):
    assert _outcome(trim, raw) == _outcome(trim_by_loop, raw)


@given(PARTS, st.integers(0, 3))
@settings(deadline=None)
def test_conj_of_padded_matches_oracle(lam, pad):
    assert _conj(lam + (0,) * pad) == conjugate_by_count(lam)
    assert conjugate(lam) == conjugate_by_count(lam)


@given(PARTS, PARTS, PAIRS)
@settings(deadline=None)
def test_fits_matches_oracle(outer, inner, pair):
    lam, mu = pair
    assert _fits(lam, mu)
    for o, i in ((outer, inner), (inner, outer), (mu, lam)):
        assert _fits(o, i) == contains_by_index(o, i) == contains(o, i)


@given(RAW, RAW)
@settings(deadline=None)
def test_shape_errors_unchanged(outer, inner):
    def built():
        s = SkewShape(outer, inner)
        return s.outer.parts, s.inner.parts

    def expected():
        o, i = trim_by_loop(outer), trim_by_loop(inner)
        if not contains_by_index(o, i):
            raise ValueError(f"inner {i} not contained in outer {o}")
        return o, i

    assert _outcome(built) == _outcome(expected)
    assert _outcome(lambda: as_shape(outer).outer.parts) == _outcome(trim_by_loop, outer)


def test_conjugate_examples():
    assert conjugate((4, 2, 1)) == (3, 2, 1, 1)
    assert conjugate(()) == ()
    assert conjugate((1, 1, 1)) == (3,)


@given(PARTS)
@settings(deadline=None)
def test_conjugate_involution(lam):
    assert conjugate(conjugate(lam)) == lam


@given(PARTS)
@settings(deadline=None)
def test_conjugate_preserves_size(lam):
    assert sum(conjugate(lam)) == sum(lam)


def test_partition_class():
    p = Partition((3, 2, 0))
    assert p.parts == (3, 2)
    assert p.size() == 5
    assert p.length() == 2
    assert p.part(1) == 3 and p.part(5) == 0
    assert conjugate(p) == (2, 2, 1)
    assert p == (3, 2)
    assert (p == [3, 2]) is False  # a partition equals its parts tuple only
    assert list(p) == [3, 2]
    assert p.to_json() == [3, 2]
    with pytest.raises(AttributeError):
        p.parts = ()


def test_skew_shape_basics():
    s = SkewShape((4, 2), (1,))
    assert s.size() == 5
    assert s.cells() == [(0, 1), (0, 2), (0, 3), (1, 0), (1, 1)]
    assert s.label() == "(4,2)/(1)"
    assert SkewShape((3,)).label() == "(3)"
    with pytest.raises(ValueError):
        SkewShape((2,), (3,))


def test_as_shape():
    s = as_shape((3, 1))
    assert s.outer.parts == (3, 1) and s.inner.parts == ()
    assert as_shape(s) is s
    assert as_shape(Partition((2,))).outer.parts == (2,)


def test_strip_predicates():
    assert is_horizontal_strip((3, 1), (1,))
    assert not is_horizontal_strip((2, 2), ())
    assert is_vertical_strip((2, 2), (1, 1))
    assert not is_vertical_strip((3, 1), (1,))
    # pieri_extensions adds exactly the horizontal strips of k boxes
    for lam in ((), (2,), (3, 1), (2, 2, 1)):
        for k in range(4):
            nus = partitions_of(sum(lam) + k)
            assert pieri_extensions(lam, k) == sorted(
                nu for nu in nus if contains_by_index(nu, lam) and is_horizontal_strip(nu, lam)
            )


@given(PARTS.flatmap(lambda lam: st.tuples(st.just(lam), sub_partition(lam))))
@settings(deadline=None)
def test_strip_transpose_duality(pair):
    lam, mu = pair
    assert is_horizontal_strip(lam, mu) == is_vertical_strip(conjugate(lam), conjugate(mu))


def test_skew_from_boxes():
    s = skew_from_boxes([(0, 1), (0, 2), (1, 0), (1, 1)])
    assert s.outer.parts == (3, 2) and s.inner.parts == (1,)
    # offsets normalize away
    s2 = skew_from_boxes([(5, 11), (5, 12), (6, 10), (6, 11)])
    assert s2 == s
    with pytest.raises(ValueError):
        skew_from_boxes([(0, 0), (0, 2)])
    with pytest.raises(ValueError):
        skew_from_boxes([(0, 0), (0, 0)])
    with pytest.raises(ValueError):
        skew_from_boxes([(0, 0), (1, 1)])
    # the label of the 64th tail row of the degree-3 rational normal curve's
    # pure resolution with shifts 1,1,1: 66 rows of three boxes, each two
    # columns left of the row above; boxes in any order and offset
    tail = attach_dot(SkewShape((5, 3), (2,)), (3,) * 64)
    assert tail == SkewShape(tuple(range(133, 2, -2)), tuple(range(130, 0, -2)))
    assert skew_from_boxes([(r + 7, c - 4) for r, c in reversed(tail.cells())]) == tail


def test_ribbon_of():
    # one row per entry, reading the composition bottom-up
    r = ribbon_of((2, 2))
    assert r.outer.parts == (3, 2) and r.inner.parts == (1,)
    assert ribbon_of((3,)).outer.parts == (3,)
    r2 = ribbon_of((1, 1, 1))
    assert r2.outer.parts == (1, 1, 1)
    with pytest.raises(ValueError):
        ribbon_of(())
    with pytest.raises(ValueError):
        ribbon_of((0, 1))


@given(st.lists(st.integers(1, 5), min_size=1, max_size=5).map(tuple))
@settings(deadline=None)
def test_ribbon_size_and_connectivity(alpha):
    r = ribbon_of(alpha)
    assert r.size() == sum(alpha)
    # a ribbon has no 2x2 block: cell set never contains a full square
    boxes = set()
    for row, (hi, lo) in enumerate(zip(r.outer.parts, r.inner.parts + (0,) * len(r.outer.parts))):
        for c in range(lo, hi):
            boxes.add((row, c))
    assert not any({(a, b), (a + 1, b), (a, b + 1), (a + 1, b + 1)} <= boxes for a, b in boxes)


def test_attach_examples():
    d = SkewShape((3, 3, 2), (1,))
    merged = attach_odot(d, (2, 2))
    assert merged.outer.parts == (6, 6, 5, 2) and merged.inner.parts == (4, 3, 1)
    stacked = attach_dot(d, (2, 2))
    assert stacked.outer.parts == (5, 5, 4, 3, 2) and stacked.inner.parts == (3, 2, 2, 1)


def test_attach_chain():
    d = SkewShape((5, 3), (2,))
    one = attach_dot(d, (3,))
    assert one.outer.parts == (7, 5, 3) and one.inner.parts == (4, 2)
    two = attach_dot(d, (3, 3))
    assert two.outer.parts == (9, 7, 5, 3) and two.inner.parts == (6, 4, 2)
    assert two.size() == d.size() + 6


@given(st.lists(st.integers(1, 4), min_size=1, max_size=4).map(tuple))
@settings(deadline=None)
def test_attach_sizes(alpha):
    d = SkewShape((4, 3), (1,))
    assert attach_dot(d, alpha).size() == d.size() + sum(alpha)
    assert attach_odot(d, alpha).size() == d.size() + sum(alpha)


# compositions, with now and then a part that is zero, negative or not an
# integer, or no part at all
COMPOSITIONS = st.lists(
    st.one_of(st.integers(1, 4), st.sampled_from((0, -1, 2.5, True))), max_size=5
).map(tuple)


@given(COMPOSITIONS)
@settings(deadline=None)
@example((2, 2))
@example(())
def test_ribbon_of_matches_box_oracle(alpha):
    assert outcome(ribbon_of, alpha) == outcome(ribbon_by_boxes, alpha)


@given(PAIRS, COMPOSITIONS, st.booleans())
@settings(deadline=None, max_examples=300)
@example(((3, 3, 2), (1,)), (2, 2), True)
@example(((3, 3, 2), (1,)), (2, 2), False)
@example(((3, 2), (2, 2)), (2, 1), False)  # d's bottom row is empty
@example(((3, 2), (2, 2)), (2, 1), True)
@example(((3, 3, 1), (3, 1)), (1,), True)  # d's top row is empty
@example(((3, 2, 2), (2, 2, 1)), (1,), True)  # an empty row inside d
@example(((3, 3, 1), (3, 1, 1)), (2,), False)  # empty rows at d's top and bottom
@example(((2,), (2,)), (3, 1), True)  # d has no boxes
@example(((1,), ()), (3,), True)  # the merged row reaches left of column 0
@example(((5, 3), (2,)), (3,) * 64, False)
def test_attach_matches_box_oracle(pair, alpha, merge_row):
    d = SkewShape(*pair)
    attach = attach_odot if merge_row else attach_dot
    assert outcome(attach, d, alpha) == outcome(attach_by_boxes, d, alpha, merge_row)


def test_permutation():
    p = Permutation((2, 3, 1))
    assert p.n() == 3
    assert p.length() == 2
    assert p.apply((10, 20, 30)) == (20, 30, 10)
    assert Permutation((1, 2, 3, 4)).length() == 0
    with pytest.raises(ValueError):
        Permutation((1, 1))


def test_mahonian_counts():
    # inversion-number generating function is the q-factorial
    for n in range(1, 7):
        by_len = permutations_by_length(n)
        coeffs = [0] * (n * (n - 1) // 2 + 1)
        for length, group in by_len.items():
            coeffs[length] = len(group)
        expect = [1]
        for k in range(2, n + 1):
            nxt = [0] * (len(expect) + k - 1)
            for i, c in enumerate(expect):
                for j in range(k):
                    nxt[i + j] += c
            expect = nxt
        assert coeffs == expect


def test_permutations_bound():
    with pytest.raises(ValueError):
        permutations_by_length(9)
    with pytest.raises(ValueError):
        permutations_by_length(0)


def test_dotted_action():
    swap = Permutation((2, 1))
    assert dotted_action(swap, (0, 0)) == (-1, 1)
    assert dotted_action(Permutation((1, 2, 3)), (2, 1, 0)) == (2, 1, 0)
    with pytest.raises(ValueError):
        dotted_action(swap, (1, 2, 3))


@given(st.integers(2, 5), st.lists(st.integers(-3, 5), min_size=2, max_size=5))
@settings(deadline=None)
def test_dotted_action_is_action(n, w):
    w = tuple(w[:n]) + (0,) * max(0, n - len(w))
    perms = [p for group in permutations_by_length(n).values() for p in group]
    a, b = perms[0], perms[-1]
    ab = Permutation(a.apply(b.word))
    assert dotted_action(ab, w) == dotted_action(b, dotted_action(a, w))


def test_partitions_of_order():
    assert list(partitions_of(4)) == [(1, 1, 1, 1), (2, 1, 1), (2, 2), (3, 1), (4,)]
    assert list(partitions_of(0)) == [()]
    assert list(partitions_of(3, max_part=2)) == [(1, 1, 1), (2, 1)]
    assert list(partitions_of(3, max_length=2)) == [(2, 1), (3,)]


def test_scan_partitions():
    box = list(scan_partitions(2, 2))
    assert box == [(1,), (1, 1), (2,), (2, 1), (2, 2)]


def test_subpartitions():
    subs = list(subpartitions((2, 1)))
    assert subs == [(), (1,), (1, 1), (2,), (2, 1)]


@given(partitions(max_size=25, max_part=5, max_length=5))
@example(())
@settings(deadline=None)
def test_subpartitions_match_sorted_oracle(lam):
    assert list(subpartitions(lam)) == subpartitions_by_sorting(lam)


def test_scan_partitions_fill_the_box():
    """The box's nonempty partitions in the sorted oracle's order; a box
    with no rows or no columns holds none."""
    for rows in range(-2, 7):
        for cols in range(-2, 7):
            box = list(scan_partitions(rows, cols))
            if min(rows, cols) <= 0:
                assert box == [], (rows, cols)
                continue
            assert box == subpartitions_by_sorting((cols,) * rows)[1:]
            assert len(box) == comb(rows + cols, rows) - 1


BOUND = st.none() | st.integers(-2, 9)


@given(st.integers(-3, 30), BOUND, BOUND)
@example(5, None, 10**9)
@example(5, 10**9, None)
@example(30, 10**9, 10**9)
@example(0, -2, -2)
@settings(deadline=None)
def test_partitions_of_past_the_box_is_empty(n, max_part, max_length):
    """partitions_of lists what the first-part recursion lists, with no
    bound meaning n and huge bounds at no cost, and lists nothing exactly
    when n is negative or, for positive n, outside the bounds' box."""
    got = list(partitions_of(n, max_part, max_length))
    assert got == list(partitions_by_first_part(n, max_part, max_length))
    part = n if max_part is None else max_part
    rows = n if max_length is None else max_length
    assert (got == []) == (n < 0 or n > 0 and (min(part, rows) <= 0 or n > part * rows))


def _self_recursive_generators(tree: ast.AST, module: str) -> list[str]:
    """module.name for each function in tree that yields and calls itself by
    name."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            body = list(ast.walk(node))
            yields = any(isinstance(sub, (ast.Yield, ast.YieldFrom)) for sub in body)
            calls = {sub.func.id for sub in body if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name)}
            if yields and node.name in calls:
                out.append(f"{module}.{node.name}")
    return out


def test_one_partition_enumerator():
    """Every listing of partitions goes through shapes._inside: it is the one
    function of the package that yields and calls itself."""
    found = []
    for path in sorted(Path(jtkit.__file__).parent.glob("*.py")):
        found += _self_recursive_generators(ast.parse(path.read_text()), path.stem)
    assert found == ["shapes._inside"]


@given(PARTS.flatmap(lambda lam: st.tuples(st.just(lam), sub_partition(lam))))
@settings(deadline=None)
def test_contains_and_transpose(pair):
    lam, mu = pair
    assert contains(lam, mu)
    assert contains(conjugate(lam), conjugate(mu))
    assert conjugate(Partition(lam)) == conjugate_by_count(lam)
    assert as_parts(Partition(lam)) == lam
