from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jtkit.sequences import jt_minor, make_sequence, parse_sequence_spec, segre
from jtkit.shapes import SkewShape
from jtkit.symfunc import SchurClass, dim_gl_skew
from jtkit.zelevinsky import euler_characteristic, euler_check, jt_complex_layout

from conftest import partitions, sub_partition
from oracles import layout_by_products

Q3 = make_sequence("quadric", m=3)
SKEW = partitions(max_size=6, max_part=4, max_length=3).flatmap(
    lambda lam: st.tuples(st.just(lam), sub_partition(lam))
)


def test_frozen_two_row_layout():
    lay = jt_complex_layout(Q3, (2, 2))
    assert lay.n == 2
    assert lay.max_degree() == 1
    assert lay.value_at(0) == 25
    assert lay.value_at(1) == 21
    assert lay.minor == 4
    assert euler_characteristic(lay) == 4
    (top,) = lay.terms_at(1)
    assert top.weight == (3, 1)
    assert top.sigma == (2, 1)
    data = lay.to_json()
    assert data["minor"] == 4
    assert data["degrees"][1]["terms"] == [
        {"sigma": [2, 1], "weight": [3, 1], "value": 21}
    ]


def test_single_row_is_trivial():
    lay = jt_complex_layout(Q3, (3,))
    assert lay.n == 1
    assert lay.max_degree() == 0
    assert lay.value_at(0) == Q3.term(3) == lay.minor


def test_degree_zero_term_is_product_of_terms():
    lay = jt_complex_layout(Q3, (3, 2, 1), n=3)
    (base,) = lay.terms_at(0)
    assert base.weight == (3, 2, 1)
    assert base.value == Q3.term(3) * Q3.term(2) * Q3.term(1)


def test_negative_weights_contribute_zero():
    lay = jt_complex_layout(Q3, (1,), n=3)
    for term in lay.terms:
        if term.degree > 0:
            assert min(term.weight) < 0
            assert term.value == 0
    assert euler_characteristic(lay) == 3


def test_term_count_is_factorial():
    lay = jt_complex_layout(Q3, (2, 1, 1), n=3)
    assert len(lay.terms) == 6
    assert lay.max_degree() == 3
    by_degree = [len(lay.terms_at(d)) for d in range(4)]
    assert by_degree == [1, 2, 2, 1]


def test_padding_validation():
    with pytest.raises(ValueError):
        jt_complex_layout(Q3, (2, 1, 1), n=2)
    with pytest.raises(ValueError):
        jt_complex_layout(Q3, (2, 1), (3,))


def test_class_valued_layout():
    p2 = make_sequence("poly", m=2)
    lay = jt_complex_layout(p2, (2, 1), (1,))
    chi = euler_characteristic(lay)
    assert isinstance(chi, SchurClass)
    assert chi.coefficient(((2,),)) == 1
    assert chi.coefficient(((1, 1),)) == 1
    assert chi == lay.minor
    assert lay.rank_at(0, (2,)) == 4


def test_poly_euler_equals_skew_dimension():
    p3 = make_sequence("poly", m=3)
    for lam, mu in (((2, 1), ()), ((3, 2), (1,)), ((2, 2, 1), (1, 1))):
        chi = euler_characteristic(jt_complex_layout(p3, lam, mu))
        assert chi.dim((3,)) == dim_gl_skew(SkewShape(lam, mu), 3)


def test_segre_class_euler_matches_minor():
    p2 = make_sequence("poly", m=2)
    seq = segre(p2, p2)
    lay = jt_complex_layout(seq, (2, 1))
    assert euler_characteristic(lay) == lay.minor
    assert lay.minor == jt_minor(seq, (2, 1))


@given(SKEW, st.integers(0, 1))
@settings(deadline=None, max_examples=40)
def test_euler_check_quadric(pair, extra):
    lam, mu = pair
    n = max(len(lam), len(mu), 1) + extra
    assert euler_check(Q3, lam, mu, n=n)


@given(SKEW)
@settings(deadline=None, max_examples=15)
def test_euler_check_other_sequences(pair):
    lam, mu = pair
    assert euler_check(make_sequence("super", r=2, s=1), lam, mu)
    assert euler_check(make_sequence("heisenberg", u=2), lam, mu)


@given(partitions(max_size=5, max_part=3, max_length=3))
@settings(deadline=None, max_examples=10)
def test_euler_check_class_sequences(lam):
    assert euler_check(make_sequence("poly", m=2), lam)
    assert euler_check(make_sequence("tensoralg", m=2), lam)


LAYOUT_SPECS = (
    "quadric:2",
    "quadric:3",
    "list:2,3,1,4,1,5,9,2,6,5,3,5,8,9,7,9,3,2,3,8,4,6",
    "poly:2",
    "poly:3",
    "tensoralg:2",
    "segre:poly:2,poly:2",
)
PADDED_SKEW = partitions(max_size=6, max_part=3, max_length=5).flatmap(
    lambda lam: st.tuples(st.just(lam), sub_partition(lam), st.integers(0, 5 - max(len(lam), 1)))
)


@given(st.sampled_from(LAYOUT_SPECS), PADDED_SKEW)
@settings(deadline=None, max_examples=60)
def test_layout_matches_products_along_each_weight(spec, shape):
    """Values read from sorted weight prefixes equal the products taken
    along each weight; negative weights skip straight to zero."""
    a = parse_sequence_spec(spec)
    lam, mu, extra = shape
    n = max(len(lam), len(mu), 1) + extra
    lay = jt_complex_layout(a, lam, mu, n)
    got = [(t.degree, t.sigma, t.weight, t.value) for t in lay.terms]
    assert got == layout_by_products(a, lam, mu, n)
    zero = a.zero_value()
    for t in lay.terms:
        if min(t.weight) < 0:
            assert t.value == zero
