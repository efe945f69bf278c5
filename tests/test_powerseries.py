from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jtkit.powerseries import TruncSeries

from oracles import inverse_geometric, series_div_tuples, series_mul_tuples


def _sparse(n):
    return st.dictionaries(st.tuples(*[st.integers(0, 4)] * n), st.integers(-3, 3), max_size=5)


def _series_pairs(constants):
    """(a, b): random sparse series in 1-4 variables cut off at degree 0-10,
    b with its constant term drawn from constants."""

    def build(drawn):
        (n, trunc), a, b, c0 = drawn
        return TruncSeries(n, trunc, a), TruncSeries(n, trunc, {**b, (0,) * n: c0})

    return (
        st.tuples(st.integers(1, 4), st.integers(0, 10))
        .flatmap(lambda nt: st.tuples(st.just(nt), _sparse(nt[0]), _sparse(nt[0]), constants))
        .map(build)
    )


UNIT_PAIRS = _series_pairs(st.sampled_from((1, -1)))
NONUNIT_PAIRS = _series_pairs(st.integers(-3, 3).filter(lambda c: c not in (1, -1)))


def test_constructors():
    one = TruncSeries.one(2, 4)
    assert one.constant() == 1
    z = TruncSeries.zero(1, 3)
    assert z.coeffs == {}
    t = TruncSeries.var(1, 5, 0)
    assert t.coefficient((1,)) == 1
    u = TruncSeries.univariate([1, 2, 3], 5)
    assert u.coefficient((1,)) == 2
    # truncation drops high monomials silently
    m = TruncSeries.monomial(1, 2, (5,), 7)
    assert m.coeffs == {}


def test_arithmetic():
    t = TruncSeries.var(1, 6, 0)
    p = (TruncSeries.one(1, 6) + t) ** 3
    assert p.univariate_coeffs() == [1, 3, 3, 1, 0, 0, 0]
    assert (p - p).coeffs == {}
    assert (-p).constant() == -1
    assert (2 * p).constant() == 2
    q = p * p
    assert q.univariate_coeffs(6) == [1, 6, 15, 20, 15, 6, 1]


def test_inverse():
    t = TruncSeries.var(1, 8, 0)
    g = (TruncSeries.one(1, 8) - t).inverse()
    assert g.univariate_coeffs() == [1] * 9
    assert (g * (TruncSeries.one(1, 8) - t)).univariate_coeffs() == [1] + [0] * 8
    with pytest.raises(ValueError):
        t.inverse()


@given(st.lists(st.integers(-4, 4), min_size=1, max_size=6), st.integers(0, 8))
@settings(deadline=None, max_examples=50)
def test_inverse_round_trip(coeffs, trunc):
    coeffs = [1] + coeffs
    f = TruncSeries.univariate(coeffs, trunc)
    assert (f * f.inverse()).univariate_coeffs() == [1] + [0] * trunc


@given(UNIT_PAIRS)
@settings(deadline=None, max_examples=80)
def test_division_is_exact(pair):
    a, b = pair
    q = a / b
    assert q * b == a
    assert q == a * inverse_geometric(b)
    assert b.inverse() == inverse_geometric(b)


@given(NONUNIT_PAIRS)
@settings(deadline=None, max_examples=40)
def test_division_needs_unit_constant(pair):
    a, b = pair
    message = f"^inverse needs unit constant term, got {b.constant()}$"
    with pytest.raises(ValueError, match=message):
        a / b
    with pytest.raises(ValueError, match=message):
        b.inverse()


def test_division_checks_operands():
    one = TruncSeries.one(2, 3)
    with pytest.raises(ValueError):
        one / TruncSeries.one(2, 4)
    with pytest.raises(TypeError):
        one / 2
    x = TruncSeries.var(2, 3, 0)
    assert (x / (one - x)).coeffs == {(1, 0): 1, (2, 0): 1, (3, 0): 1}


def test_construction_coerces_and_checks():
    class One:
        def __index__(self):
            return 1

    s = TruncSeries(2, 3, {(One(), 0): 3, (True, 1): One(), (3, 1): 5, (0, 2): 0})
    assert s.coeffs == {(1, 0): 3, (1, 1): 1}
    assert all(type(e) is int for exps in s.coeffs for e in exps)
    assert all(type(c) is int for c in s.coeffs.values())
    # floats are refused, whole ones too, not truncated
    for coeffs in ({(1.0, 0): 3}, {(1, 0): 2.0}, {(3, 1): 2.5}):
        with pytest.raises(ValueError, match="must be an integer"):
            TruncSeries(2, 3, coeffs)
    with pytest.raises(ValueError, match="not 2 nonnegative"):
        TruncSeries(2, 3, {(1, -1): 1})
    with pytest.raises(ValueError, match="not 2 nonnegative"):
        TruncSeries(2, 3, {(1,): 1})


def test_multivariate_truncation():
    x = TruncSeries.var(2, 2, 0)
    y = TruncSeries.var(2, 2, 1)
    p = (x + y) ** 3
    assert p.coeffs == {}
    q = (TruncSeries.one(2, 2) + x * y) * (TruncSeries.one(2, 2) + x)
    assert q.coefficient((1, 1)) == 1
    assert q.coefficient((2, 1)) == 0


def test_embed():
    x = TruncSeries.var(1, 4, 0)
    f = TruncSeries.one(1, 4) + 2 * x
    g = f.embed(3, (2,))
    assert g.nvars == 3
    assert g.coefficient((0, 0, 1)) == 2
    assert g.coefficient((0, 0, 0)) == 1

    class Two:
        def __index__(self):
            return 2

    # positions go through operator.index, as every integer does
    assert f.embed(3, (Two(),)) == g


@pytest.mark.parametrize("positions", [(0, 0), (0, -1), (0, 3), (1, 5), (0, 1.0), (0, "1")])
def test_embed_rejects_bad_positions(positions):
    # a repeated position would silently turn a variable into 1, a negative
    # one would count from the end
    f = TruncSeries(2, 3, {(1, 0): 1, (0, 1): 2})
    with pytest.raises(ValueError, match="distinct indices"):
        f.embed(3, positions)
    assert f.embed(3, (2, 0)).coeffs == {(0, 0, 1): 1, (1, 0, 0): 2}


def test_geometric():
    t = TruncSeries.var(1, 4, 0)
    g = (TruncSeries.one(1, 4) - 3 * t).inverse()
    assert g.univariate_coeffs() == [1, 3, 9, 27, 81]
    t = TruncSeries.var(1, 3, 0)
    assert (TruncSeries.one(1, 3) - t).inverse().univariate_coeffs() == [1, 1, 1, 1]


def _cancelling_pairs(constants):
    """(a, b) in 1-4 variables cut off at degree 0-12, their terms drawn from
    one pool of at most four exponents with coefficients in -2..2, so sums
    and products often cancel; b's constant term comes from constants."""

    def build(drawn):
        (n, trunc, pool), a, b, c0 = drawn
        a = TruncSeries(n, trunc, {pool[i % len(pool)]: c for i, c in a.items()})
        b = TruncSeries(n, trunc, {**{pool[i % len(pool)]: c for i, c in b.items()}, (0,) * n: c0})
        return a, b

    coeffs = st.dictionaries(st.integers(0, 3), st.integers(-2, 2), max_size=4)
    return (
        st.tuples(st.integers(1, 4), st.integers(0, 12))
        .flatmap(
            lambda nt: st.tuples(
                st.just(nt[0]),
                st.just(nt[1]),
                st.lists(st.tuples(*[st.integers(0, 6)] * nt[0]), min_size=1, max_size=4, unique=True),
            )
        )
        .flatmap(lambda ntp: st.tuples(st.just(ntp), coeffs, coeffs, constants))
        .map(build)
    )


@given(_cancelling_pairs(st.integers(-2, 2)))
@settings(deadline=None, max_examples=150)
def test_packed_product_matches_tuple_product(pair):
    a, b = pair
    assert a * b == series_mul_tuples(a, b)
    assert b * a == series_mul_tuples(b, a)
    assert a * a == series_mul_tuples(a, a)
    assert b**3 == series_mul_tuples(series_mul_tuples(b, b), b)


@given(_cancelling_pairs(st.sampled_from((1, -1))))
@settings(deadline=None, max_examples=150)
def test_packed_quotient_matches_tuple_quotient(pair):
    a, b = pair
    assert a / b == series_div_tuples(a, b)
    assert (a * b) / b == a
    assert b.inverse() == series_div_tuples(TruncSeries.one(b.nvars, b.trunc), b)


@given(_cancelling_pairs(st.sampled_from((1, -1))), st.integers(-2, 2))
@settings(deadline=None, max_examples=80)
def test_arithmetic_results_are_canonical(pair, n):
    """Sums, differences, negatives, integer multiples, products, quotients,
    powers and embeddings skip the constructor's checks; their results must
    be what the checked constructor makes of the same terms."""
    a, b = pair
    nvars, trunc = a.nvars, a.trunc
    for result in (a + b, a - b, -a, a * n, n * a, a * b, a / b, b**2, a.embed(nvars + 1, range(nvars))):
        assert type(result.coeffs) is dict
        assert result == TruncSeries(result.nvars, trunc, dict(result.coeffs))
        assert all(type(c) is int and c != 0 for c in result.coeffs.values())
        for e in result.coeffs:
            assert type(e) is tuple and len(e) == result.nvars
            assert all(type(x) is int and x >= 0 for x in e) and sum(e) <= trunc
