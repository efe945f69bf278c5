from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jtkit.determinant import det_bareiss, det_expand
from jtkit.sequences import parse_sequence_spec

from conftest import partitions, sub_partition
from oracles import det_fraction, det_permutations

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
