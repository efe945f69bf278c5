from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jtkit.determinant import _laplace_step, det_bareiss, det_expand
from jtkit.sequences import parse_sequence_spec
from jtkit.symfunc import SchurClass

from conftest import partitions, sub_partition
from oracles import det_fraction, det_permutations, laplace_step_by_sign_mask

MATS = st.integers(1, 5).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(-9, 9), min_size=n, max_size=n), min_size=n, max_size=n
    )
)
FRACTION_MATS = st.integers(1, 5).flatmap(
    lambda n: st.lists(
        st.lists(st.fractions(-9, 9, max_denominator=7), min_size=n, max_size=n), min_size=n, max_size=n
    )
)


@given(MATS)
@settings(deadline=None)
def test_bareiss_matches_fraction_elimination(rows):
    assert det_bareiss(rows) == det_fraction(rows)


@given(MATS, FRACTION_MATS)
@settings(deadline=None)
def test_expand_matches_bareiss(rows, fractions):
    """det_expand on integers, and on Fraction, a plain ring that is neither
    int nor SchurClass, against elimination."""
    assert det_expand(rows, 0) == det_bareiss(rows)
    assert det_expand(fractions, Fraction(0)) == det_fraction(fractions)


def test_empty_matrix():
    assert det_bareiss([]) == 1
    with pytest.raises(ValueError):
        det_expand([], 0)


def test_pivot_swap():
    # leading zero forces a row swap and a sign flip
    rows = [[0, 1], [1, 0]]
    assert det_bareiss(rows) == -1


def test_singular():
    rows = [[1, 2], [2, 4]]
    assert det_bareiss(rows) == 0
    assert det_expand(rows, 0) == 0


def test_expand_order_cap():
    n = 9
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    with pytest.raises(ValueError):
        det_expand(rows, 0)


def test_known_values():
    assert det_bareiss([[5]]) == 5
    assert det_bareiss([[1, 2], [3, 4]]) == -2
    assert det_bareiss([[2, 0, 1], [1, 1, 0], [0, 3, 1]]) == 5


def test_bareiss_refuses_non_integer_entries():
    # int() would truncate these to det 2 and det 1
    with pytest.raises(ValueError, match="integer entries, got 2.5"):
        det_bareiss([[2.5]])
    with pytest.raises(ValueError, match="integer entries, got 1.9"):
        det_bareiss([[1.9, 0], [0, 1]])
    assert det_bareiss([[True, 0], [0, 3]]) == 3


def test_random_larger_orders():
    rng = random.Random(11)
    for _ in range(25):
        n = rng.randint(2, 7)
        rows = [[rng.randint(-20, 20) for _ in range(n)] for _ in range(n)]
        assert det_bareiss(rows) == det_fraction(rows)


def test_square_check_raises_value_error():
    with pytest.raises(ValueError):
        det_bareiss([[1, 2], [3]])
    with pytest.raises(ValueError):
        det_expand([[1, 2], [3]], 0)


@st.composite
def sparse_matrices(draw):
    """Integer matrices of order 1-6, mostly zeros, sometimes with a zero
    row or column."""
    n = draw(st.integers(1, 6))
    entry = st.sampled_from((0, 0, 0, 0, 1, -1, 2, -3, 5))
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    k = draw(st.integers(0, n - 1))
    blank = draw(st.sampled_from(["none", "row", "column"]))
    for i in range(n):
        if blank == "row":
            rows[k][i] = 0
        elif blank == "column":
            rows[i][k] = 0
    return rows


@given(sparse_matrices())
@settings(deadline=None, max_examples=150)
def test_expand_matches_permutations_sparse(rows):
    assert det_expand(rows, 0) == det_permutations(rows, 0)


def jt_rows(seq, lam, mu):
    r = max(len(lam), len(mu))
    lampad = lam + (0,) * (r - len(lam))
    mupad = mu + (0,) * (r - len(mu))
    return [[seq.term(lampad[i] - mupad[j] - i + j) for j in range(r)] for i in range(r)]


CLASS_SPECS = ("poly:2", "poly:3", "tensoralg:2", "segre:poly:2,poly:2", "tensor:(poly:2),(poly:2)")
JT_SHAPES = partitions(max_size=7, max_part=4, max_length=5).filter(bool)


@given(
    st.sampled_from(CLASS_SPECS),
    JT_SHAPES.flatmap(lambda lam: st.tuples(st.just(lam), st.one_of(st.just(()), sub_partition(lam)))),
)
@settings(deadline=None, max_examples=40)
def test_expand_matches_permutations_class_jt(spec, pair):
    seq = parse_sequence_spec(spec)
    lam, mu = pair
    rows = jt_rows(seq, lam, mu)
    zero = seq.zero_value()
    assert det_expand(rows, zero) == det_permutations(rows, zero)


@given(
    st.sampled_from(CLASS_SPECS),
    JT_SHAPES.filter(lambda lam: len(lam) > 1).flatmap(
        lambda lam: st.tuples(st.just(lam), st.one_of(st.just(()), sub_partition(lam)))
    ),
    st.data(),
)
@settings(deadline=None, max_examples=20)
def test_expand_class_equal_rows_vanish(spec, pair, data):
    """A class matrix with two equal rows has the zero class as its
    determinant: the signed products of det_expand must cancel."""
    seq = parse_sequence_spec(spec)
    lam, mu = pair
    rows = jt_rows(seq, lam, mu)
    i, j = data.draw(st.lists(st.integers(0, len(rows) - 1), min_size=2, max_size=2, unique=True))
    rows[j] = list(rows[i])
    zero = seq.zero_value()
    got = det_expand(rows, zero)
    assert got == det_permutations(rows, zero)
    assert got.is_zero()


# Laplace steps against the sign-mask step they replace.  A level holds
# subsets of one size on lines 0..L-1; the entries cover every line, zeros
# included, so that the new step flags them and the old one drops them.
_CLASS_PARTS = st.sampled_from([(), (1,), (2,), (1, 1)])
RING_VALUES = {
    "int": (0, st.integers(-4, 4)),
    "fraction": (Fraction(0), st.fractions(-3, 3, max_denominator=4)),
    "class1": (
        SchurClass.zero(1),
        st.dictionaries(st.tuples(_CLASS_PARTS), st.integers(-2, 2), max_size=2).map(lambda t: SchurClass(1, t)),
    ),
    "class2": (
        SchurClass.zero(2),
        st.dictionaries(st.tuples(_CLASS_PARTS, _CLASS_PARTS), st.integers(-2, 2), max_size=2).map(
            lambda t: SchurClass(2, t)
        ),
    ),
}


@st.composite
def step_inputs(draw):
    """(ring, zero, level, entries, ascending, seen): a level of c-subsets of
    L lines with their partial minors, one entry per line, and the order in
    which the step walks the lines.  Zeros are drawn often, among the
    minors and the entries; seen splits the subsets only in ascending order,
    as in the sweep, and is 0 in descending order, as in det_expand."""
    ring = draw(st.sampled_from(sorted(RING_VALUES)))
    zero, values = RING_VALUES[ring]
    value = st.one_of(st.just(zero), values)
    lines = draw(st.integers(1, 6))
    size = draw(st.integers(0, lines - 1))
    subsets = draw(
        st.lists(st.sets(st.integers(0, lines - 1), min_size=size, max_size=size), min_size=1, max_size=8)
    )
    level = {sum(1 << b for b in s): draw(value) for s in subsets}
    entries = [draw(value) for _ in range(lines)]
    ascending = draw(st.booleans())
    seen = draw(st.integers(0, lines)) if ascending else 0
    return ring, zero, level, entries, ascending, seen


def _old_and_new_entries(zero, entries, ascending):
    order = range(len(entries)) if ascending else range(len(entries) - 1, -1, -1)
    new = [(1 << j, None if entries[j] == zero else entries[j]) for j in order]
    # the old step's sign mask: the lines the walk passes before line j
    old = [(1 << j, (1 << j) - 1 if ascending else -2 << j, e) for j, e in enumerate(entries) if e != zero]
    return old, new


@given(step_inputs())
@example(("int", 0, {0b011: 2, 0b101: 0, 0b100: 1}, [3, 0, -1, 2], True, 2))
@settings(deadline=None, max_examples=300)
def test_laplace_step_matches_sign_mask_step(case):
    ring, zero, level, entries, ascending, seen = case
    old, new = _old_and_new_entries(zero, entries, ascending)
    assert _laplace_step(zero, level, new, seen) == laplace_step_by_sign_mask(zero, level, old, seen)


@given(step_inputs().filter(lambda case: case[4]), st.integers(0, 20))
@settings(deadline=None, max_examples=200)
def test_capped_laplace_step_keeps_the_subsets_within_the_limit(case, limit):
    """With sums, the step forms exactly the uncapped step's subsets whose
    sum of bit positions is at most limit, with the same minors, and
    records each one's sum."""
    ring, zero, level, entries, ascending, seen = case
    old, new = _old_and_new_entries(zero, entries, ascending)
    position_sum = lambda subset: sum(k for k in range(subset.bit_length()) if subset >> k & 1)
    sums = {subset: position_sum(subset) for subset in level}
    capped = _laplace_step(zero, level, new, seen, sums, limit)
    whole = laplace_step_by_sign_mask(zero, level, old, seen)
    assert capped == {key: m for key, m in whole.items() if position_sum(key) <= limit}
    assert all(sums[key] == position_sum(key) for key in capped)
