from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jtkit.powerseries import TruncSeries


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


def test_geometric():
    t = TruncSeries.var(1, 4, 0)
    g = (TruncSeries.one(1, 4) - 3 * t).inverse()
    assert g.univariate_coeffs() == [1, 3, 9, 27, 81]
    t = TruncSeries.var(1, 3, 0)
    assert (TruncSeries.one(1, 3) - t).inverse().univariate_coeffs() == [1, 1, 1, 1]
