from __future__ import annotations

from fractions import Fraction
import hashlib
import json
import time
from itertools import product
from math import gcd, lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jtkit.resolutions import (
    BettiRow,
    BettiTable,
    BettiTail,
    efw_betti,
    efw_partitions,
    hk_solve,
    quadric_pure_resolution,
    rnc_pure_resolution,
    rnc_sequence,
    validate_purity,
)
from jtkit import determinant, resolutions
from jtkit.sequences import make_sequence
from jtkit.symfunc import dim_gl

from oracles import det_fraction, hk_solve_by_fractions, hk_solve_over_fraction, solve_fraction, taylor_remainders

Q3 = make_sequence("quadric", m=3)


def rows_of(table):
    return [(r.index, r.twist, r.rank) for r in table.rows]


def labels_of(table):
    return [r.label for r in table.rows]


# --- closed forms used as independent oracles for hk_solve -----------------


def finite_betti_oracle(twists):
    """Classical pure Betti numbers, proportional to prod 1/|d_j - d_i|."""
    raw = []
    for i, d in enumerate(twists):
        denom = 1
        for j, other in enumerate(twists):
            if j != i:
                denom *= abs(other - d)
        raw.append(Fraction(1, denom))
    scale = lcm(*[f.denominator for f in raw])
    ints = [int(f * scale) for f in raw]
    g = gcd(*ints)
    return tuple(x // g for x in ints)


def tail_system_holds(twists, raw):
    """Check the normalized tail solution against the explicit linear system
    written in terms of falling factorials of the twists."""
    n = len(twists)
    assert raw[-1] == 1
    lhs = sum(Fraction((-1) ** i * 2) * raw[i] for i in range(n - 1))
    if lhs != Fraction((-1) ** n):
        return False
    for k in range(1, n - 1):
        total = Fraction(0)
        for i in range(n - 1):
            coeff = 2 * twists[i] - k + 2
            for t in range(k - 1):
                coeff *= twists[i] - t
            total += Fraction((-1) ** i * coeff) * raw[i]
        rhs = 1
        for t in range(k):
            rhs *= twists[n - 1] - t
        if total != Fraction((-1) ** n * rhs):
            return False
    return True


# --- Betti table container -------------------------------------------------


def test_betti_table_validation():
    good = BettiTable((BettiRow(0, 0, 1), BettiRow(1, 2, 3)))
    assert rows_of(good) == [(0, 0, 1), (1, 2, 3)]
    with pytest.raises(ValueError):
        BettiTable((BettiRow(0, 0, 1), BettiRow(0, 1, 1)))
    with pytest.raises(ValueError):
        BettiTable((BettiRow(0, 0, 1), BettiRow(1, 0, 1)))
    with pytest.raises(ValueError):
        BettiTable((BettiRow(0, 0, 0),))
    with pytest.raises(ValueError):
        BettiTable((BettiRow(0, 0, 1),), tail=BettiTail(start=3, rank=1))
    with pytest.raises(ValueError):
        BettiTable((BettiRow(0, 0, 1),), tail=BettiTail(start=0, rank=2))
    with pytest.raises(ValueError):
        BettiTable(
            (BettiRow(0, 0, 2), BettiRow(1, 1, 3)),
            tail=BettiTail(start=0, rank=2),
        )
    with pytest.raises(ValueError):
        BettiTable(
            (BettiRow(0, 0, 2), BettiRow(1, 3, 2)),
            tail=BettiTail(start=0, rank=2),
        )


def test_betti_table_lookup_and_csv():
    t = quadric_pure_resolution(3, (1, 1, 1), tail_terms=3)
    assert t.rank_at(1) == 3
    assert t.rank_at(9) == 4
    assert t.twist_at(9) == 9
    assert t.rank_at(-1) == 0
    assert t.max_twist() == 5
    assert not t.is_empty()
    finite = quadric_pure_resolution(3, (1, 1, 2))
    assert finite.rank_at(5) == 0
    with pytest.raises(ValueError):
        finite.twist_at(5)
    csv_text = finite.to_csv()
    lines = csv_text.splitlines()
    assert lines[0] == "index,twist,rank,label"
    assert lines[1] == '0,0,4,"(1,1)"'
    assert lines[3] == '2,2,4,"(2,2)"'
    data = t.to_json()
    assert data["tail"] == {"start": 2, "rank": 4, "step": 1}
    assert data["rows"][0] == {"index": 0, "twist": 0, "rank": 1, "label": "()"}


def test_geometric_tail_json_keeps_ratio():
    t = rnc_pure_resolution(3, (1, 1, 1))
    assert t.to_json()["tail"]["ratio"] == 2
    assert t.rank_at(7) == 9 * 2**5
    assert t.twist_at(7) == 7


# --- shift ladders ---------------------------------------------------------


def test_efw_partitions_example():
    lams = efw_partitions((2, 1, 2, 3), 5)
    assert [tuple(l.parts) for l in lams] == [
        (3, 3, 2),
        (5, 3, 2),
        (5, 4, 2),
        (5, 4, 4),
        (5, 4, 4, 3),
    ]
    with pytest.raises(ValueError):
        efw_partitions((0, 1), 3)
    with pytest.raises(ValueError):
        efw_partitions((), 3)
    with pytest.raises(ValueError):
        efw_partitions((1, 1), 0)


def test_efw_betti_frozen():
    t = efw_betti((1, 1), 2)
    assert rows_of(t) == [(0, 0, 1), (1, 1, 2), (2, 2, 1)]
    assert labels_of(t) == ["()", "(1)", "(1,1)"]
    t = efw_betti((2, 1, 1), 2)
    assert rows_of(t) == [(0, 0, 1), (1, 2, 3), (2, 3, 2)]
    assert labels_of(t) == ["()", "(2)", "(2,1)"]
    assert efw_betti((1, 2), 2).is_empty()
    t = efw_betti((1, 1, 2), 2)
    assert rows_of(t) == [(0, 0, 1), (1, 1, 2), (2, 2, 1)]
    assert labels_of(t) == ["(1,1)", "(2,1)", "(2,2)"]
    with pytest.raises(ValueError):
        efw_betti((1, 1), 0)


def test_efw_ladder_budget():
    start = time.perf_counter()
    with pytest.raises(ValueError, match="^a ladder of 513 rungs is above the bound of 512 rungs$"):
        efw_partitions((1, 2, 1), 513)
    # a default-count table builds e_dim + 1 rungs, so e_dim 512 is refused too
    with pytest.raises(ValueError, match="^a ladder of 513 rungs is above the bound of 512 rungs$"):
        efw_betti((1, 1), 512)
    assert time.perf_counter() - start < 0.1
    assert len(efw_partitions((1, 2, 1), 512)) == 512
    assert len(efw_betti((1, 1), 511).rows) == 512
    assert len(efw_betti((1, 1), 512, 512).rows) == 512


@given(
    st.lists(st.integers(1, 3), min_size=1, max_size=4).map(tuple),
    st.integers(1, 4),
    st.integers(1, 12),
)
@settings(deadline=None, max_examples=60)
def test_efw_betti_ladder_stops_past_e_dim(e, e_dim, count):
    # rung i has at least i rows, so no rung past e_dim has a nonzero rank
    ranks = [dim_gl(lam, e_dim) for lam in efw_partitions(e, count)]
    assert not any(ranks[e_dim + 1 :])
    full = efw_betti(e, e_dim, e_dim + 1)
    assert efw_betti(e, e_dim, count).rows == tuple(r for r in full.rows if r.index < count)


def test_efw_betti_long_ladder_is_cheap():
    start = time.perf_counter()
    assert efw_betti((1, 2, 1), 3, 4000) == efw_betti((1, 2, 1), 3)
    assert time.perf_counter() - start < 0.5


@given(
    st.lists(st.integers(1, 3), min_size=1, max_size=4).map(tuple),
    st.integers(1, 4),
)
@settings(deadline=None, max_examples=40)
def test_efw_betti_twists_accumulate_shifts(e, e_dim):
    t = efw_betti(e, e_dim)
    if t.is_empty():
        return
    assert t.rows[0].twist == 0
    shifts = [e[k] if k < len(e) else 1 for k in range(len(t.rows))]
    for prev, cur in zip(t.rows, t.rows[1:]):
        assert cur.twist - prev.twist == shifts[prev.index]


# --- pure resolutions over the quadric ------------------------------------


def test_quadric_resolution_koszul_like():
    t = quadric_pure_resolution(3, (1, 1, 1), tail_terms=3)
    assert rows_of(t) == [(0, 0, 1), (1, 1, 3), (2, 2, 4), (3, 3, 4), (4, 4, 4), (5, 5, 4)]
    assert labels_of(t)[:4] == ["()", "(1)", "(1,1)", "(1,1,1)"]
    assert t.tail == BettiTail(start=2, rank=4)


def test_quadric_resolution_finite_cases():
    t = quadric_pure_resolution(3, (1, 1, 2))
    assert rows_of(t) == [(0, 0, 4), (1, 1, 8), (2, 2, 4)]
    assert labels_of(t) == ["(1,1)", "(2,1)", "(2,2)"]
    assert t.tail is None
    t = quadric_pure_resolution(3, (2, 1, 2))
    assert rows_of(t) == [(0, 0, 4), (1, 2, 12), (2, 3, 8)]
    t = quadric_pure_resolution(3, (1, 2, 2))
    assert rows_of(t) == [(0, 0, 8), (1, 1, 12), (2, 3, 4)]
    assert labels_of(t) == ["(2,1)", "(3,1)", "(3,3)"]


def test_quadric_resolution_infinite_cases():
    t = quadric_pure_resolution(3, (1, 2, 1), tail_terms=2)
    assert rows_of(t) == [(0, 0, 3), (1, 1, 5), (2, 3, 4), (3, 4, 4), (4, 5, 4)]
    assert labels_of(t)[2:] == ["(2,2)", "(2,2,1)", "(2,2,1,1)"]
    t = quadric_pure_resolution(3, (2, 1, 1), tail_terms=2)
    assert rows_of(t) == [(0, 0, 1), (1, 2, 5), (2, 3, 8), (3, 4, 8), (4, 5, 8)]


def test_quadric_resolution_small_m():
    t = quadric_pure_resolution(2, (5, 1), tail_terms=2)
    assert rows_of(t) == [(0, 0, 1), (1, 5, 2), (2, 6, 2), (3, 7, 2)]
    assert t.tail == BettiTail(start=1, rank=2)
    assert rows_of(quadric_pure_resolution(1, (2,))) == [(0, 0, 1)]
    t = quadric_pure_resolution(1, (1,), tail_terms=3)
    assert rows_of(t) == [(0, 0, 1), (1, 1, 1), (2, 2, 1), (3, 3, 1)]
    with pytest.raises(ValueError):
        quadric_pure_resolution(3, (1, 1))
    with pytest.raises(ValueError):
        quadric_pure_resolution(2, (0, 1))


@given(st.lists(st.integers(1, 3), min_size=2, max_size=4).map(tuple))
@settings(deadline=None, max_examples=30)
def test_quadric_resolution_ranks_are_minors(e):
    m = len(e)
    t = quadric_pure_resolution(m, e, tail_terms=2)
    a = make_sequence("quadric", m=m)
    # every stored rank is a Jacobi-Trudi minor of the coordinate sequence,
    # so cross-check the first rows against an independent recomputation
    for row in t.rows:
        assert row.rank > 0
        assert row.rank == t.rank_at(row.index)
    if e[m - 1] == 1 and t.tail is not None:
        base = next(r for r in t.rows if r.index == t.tail.start)
        assert all(
            r.rank == base.rank for r in t.rows if r.index >= t.tail.start
        )


# --- rational normal curves ------------------------------------------------


def test_rnc_sequence_dims():
    r = rnc_sequence(3)
    assert [r.term(i) for i in range(4)] == [1, 4, 7, 10]
    r = rnc_sequence(1)
    assert [r.term(i) for i in range(4)] == [1, 2, 3, 4]


def test_rnc_resolution_twisted_koszul():
    t = rnc_pure_resolution(3, (1, 1, 1))
    assert rows_of(t) == [
        (0, 0, 1),
        (1, 1, 4),
        (2, 2, 9),
        (3, 3, 18),
        (4, 4, 36),
        (5, 5, 72),
        (6, 6, 144),
    ]
    assert t.tail == BettiTail(start=2, rank=9, ratio=2)
    assert labels_of(t)[3] == "(7,5,3)/(4,2)"
    assert labels_of(t)[4] == "(9,7,5,3)/(6,4,2)"


def test_rnc_resolution_shifted():
    t = rnc_pure_resolution(3, (1, 2, 1), tail_terms=3)
    assert rows_of(t) == [
        (0, 0, 4),
        (1, 1, 7),
        (2, 3, 9),
        (3, 4, 18),
        (4, 5, 36),
        (5, 6, 72),
    ]
    assert labels_of(t)[3] == "(10,8,3)/(4,2)"


def test_rnc_degenerate_degrees():
    # degree 1 is a coordinate subspace; the resolution collapses to Koszul
    assert rows_of(rnc_pure_resolution(1, (1, 1, 1))) == [(0, 0, 1), (1, 1, 2), (2, 2, 1)]
    t = rnc_pure_resolution(1, (1, 1, 2))
    assert rows_of(t) == [(0, 0, 1), (1, 1, 2), (2, 2, 1)]
    assert labels_of(t) == ["(1,1)", "(2,1)", "(2,2)"]
    # degree 2 coincides with the quadric in three variables
    assert rows_of(rnc_pure_resolution(2, (1, 2, 1), tail_terms=2)) == rows_of(
        quadric_pure_resolution(3, (1, 2, 1), tail_terms=2)
    )
    t = rnc_pure_resolution(4, (2, 1, 2))
    assert rows_of(t) == [(0, 0, 16), (1, 2, 48), (2, 3, 32)]
    with pytest.raises(ValueError):
        rnc_pure_resolution(3, (1, 1))
    with pytest.raises(ValueError):
        rnc_pure_resolution(0, (1, 1, 1))


@given(st.integers(2, 5), st.integers(1, 3), st.integers(1, 3))
@settings(deadline=None, max_examples=25)
def test_rnc_tail_ratio_is_degree_minus_one(d, e1, e2):
    t = rnc_pure_resolution(d, (e1, e2, 1), tail_terms=3)
    assert t.tail is not None
    assert t.tail.ratio == d - 1
    base = next(r for r in t.rows if r.index == t.tail.start)
    for row in t.rows:
        if row.index > t.tail.start:
            assert row.rank == base.rank * (d - 1) ** (row.index - t.tail.start)


def test_tail_budget():
    start = time.perf_counter()
    with pytest.raises(ValueError, match="^a tail of 65 terms is above the bound of 64 terms$"):
        quadric_pure_resolution(3, (1, 1, 1), tail_terms=65)
    with pytest.raises(ValueError, match="^a tail of 65 terms is above the bound of 64 terms$"):
        rnc_pure_resolution(3, (1, 1, 1), tail_terms=65)
    assert time.perf_counter() - start < 0.1
    assert len(quadric_pure_resolution(1, (1,), tail_terms=64).rows) == 65


# --- purity checks ---------------------------------------------------------


def test_validate_purity_frozen():
    rep = validate_purity(quadric_pure_resolution(3, (1, 1, 1)), Q3)
    assert rep.is_polynomial and rep.nonnegative
    assert rep.coefficients == (1,)
    assert rep.dimension == 1
    rep = validate_purity(quadric_pure_resolution(3, (1, 1, 2)), Q3)
    assert rep.coefficients == (4, 4)
    assert rep.dimension == 8
    rep = validate_purity(quadric_pure_resolution(3, (1, 2, 1)), Q3)
    assert rep.coefficients == (3, 4)
    rep = validate_purity(quadric_pure_resolution(3, (2, 1, 1)), Q3)
    assert rep.coefficients == (1, 3)
    rep = validate_purity(quadric_pure_resolution(3, (2, 1, 2)), Q3)
    assert rep.coefficients == (4, 12, 8)
    rep = validate_purity(quadric_pure_resolution(3, (1, 2, 2)), Q3)
    assert rep.coefficients == (8, 12, 4)
    assert rep.dimension == 24


def test_validate_purity_rnc():
    seq = rnc_sequence(3)
    rep = validate_purity(rnc_pure_resolution(3, (1, 1, 1)), seq)
    assert rep.is_polynomial and rep.coefficients == (1,)
    rep = validate_purity(rnc_pure_resolution(3, (1, 2, 1)), seq)
    assert rep.coefficients == (4, 9)
    assert rep.dimension == 13


def test_validate_purity_flags_bad_table():
    bad = BettiTable((BettiRow(0, 0, 1),))
    rep = validate_purity(bad, Q3)
    assert not rep.is_polynomial
    assert not rep.nonnegative
    assert rep.dimension is None
    data = rep.to_json()
    assert data["is_polynomial"] is False
    assert data["dimension"] is None


def test_validate_purity_empty_and_horizon():
    rep = validate_purity(BettiTable(()), Q3)
    assert rep.is_polynomial and rep.nonnegative
    assert rep.coefficients == () and rep.dimension == 0
    big = quadric_pure_resolution(2, (20, 1))
    with pytest.raises(ValueError):
        validate_purity(big, make_sequence("quadric", m=2), tail_horizon=10)


def test_validate_purity_checks_a_coefficient():
    # with the horizon at the bound no coefficient past it was read, and
    # this table, which is not pure, was certified with dimension 4
    bad = BettiTable((BettiRow(0, 0, 1),))
    with pytest.raises(ValueError, match="horizon 1 too small to certify, need at least 2"):
        validate_purity(bad, Q3, tail_horizon=1, margin=0)
    with pytest.raises(ValueError, match="horizon 3 too small to certify, need at least 4"):
        validate_purity(quadric_pure_resolution(3, (1, 1, 2)), Q3, tail_horizon=3, margin=-2)
    assert not validate_purity(bad, Q3, tail_horizon=2, margin=0).is_polynomial


def test_validate_purity_nonnegative_with_an_interior_zero():
    # over super:1,0 every dimension is 1, so the ranks 1, 1, 1, 1 at
    # twists 0..3 leave (1 - t)(1 + t^2)/(1 - t) = 1 + t^2: a zero
    # coefficient inside a nonnegative numerator
    table = BettiTable(tuple(BettiRow(i, i, 1) for i in range(4)))
    rep = validate_purity(table, make_sequence("super", r=1, s=0))
    assert rep.is_polynomial and rep.nonnegative
    assert rep.coefficients == (1, 0, 1)
    assert rep.dimension == 2


def test_validate_purity_checks_twists():
    # the numerator keeps the series constructor's check, so a negative twist is refused
    negative = BettiTable((BettiRow(0, -1, 1),))
    with pytest.raises(ValueError, match=r"^exponent \(-1,\) is not 1 nonnegative integers$"):
        validate_purity(negative, Q3)


def test_validate_purity_default_horizon_clears_the_bound():
    """The default horizon is 24 wherever that clears the bound by the
    margin, and the least horizon that does so elsewhere; an explicit one is
    taken as given."""
    small = quadric_pure_resolution(3, (1, 1, 2))
    assert validate_purity(small, Q3) == validate_purity(small, Q3, tail_horizon=24)
    assert validate_purity(small, Q3, margin=30).horizon == 3 + 30
    long_tail = quadric_pure_resolution(3, (1, 1, 1), tail_terms=64)
    rep = validate_purity(long_tail, Q3)
    assert (rep.bound, rep.horizon, rep.nonnegative) == (67, 73, True)
    assert validate_purity(long_tail, Q3, margin=0).horizon == 68
    with pytest.raises(ValueError, match="horizon 24 too small to certify, need at least 73"):
        validate_purity(long_tail, Q3, tail_horizon=24)
    assert validate_purity(BettiTable(()), Q3, margin=30).horizon == 24


def test_validate_purity_matches_direct_convolution():
    # independent route: the module Hilbert function is the alternating Betti
    # numerator convolved with the coordinate ring dimensions, and for a
    # finite-length module it must land exactly on the reported polynomial
    for e in ((1, 1, 2), (2, 1, 2), (1, 2, 2)):
        table = quadric_pure_resolution(3, e)
        rep = validate_purity(table, Q3)
        numerator = {}
        for r in table.rows:
            numerator[r.twist] = numerator.get(r.twist, 0) + (-1) ** r.index * r.rank
        hilbert = [
            sum(c * Q3.term(d - tw) for tw, c in numerator.items()) for d in range(8)
        ]
        want = list(rep.coefficients) + [0] * (8 - len(rep.coefficients))
        assert hilbert == want, e


# --- Hilbert series twists in the style of intersection multiplicities ------


def test_hk_frozen_triples():
    s = hk_solve((0, 1, 2))
    assert s.tail == (1, 3, 4) and s.finite == (1, 2, 1)
    assert s.tail_raw == (Fraction(1, 4), Fraction(3, 4), Fraction(1))
    s = hk_solve((0, 1, 3))
    assert s.tail == (3, 5, 4) and s.finite == (2, 3, 1)
    s = hk_solve((0, 2, 3))
    assert s.tail == (1, 5, 8) and s.finite == (1, 3, 2)
    s = hk_solve((0, 5))
    assert s.tail == (1, 2) and s.finite == (1, 1)
    data = s.to_json()
    assert data["twists"] == [0, 5]
    assert data["tail_raw"] == ["1/2", "1"]


def test_hk_koszul_four_twists():
    s = hk_solve((0, 1, 2, 3))
    assert s.finite == (1, 3, 3, 1)
    assert s.tail == (1, 4, 7, 8)


def test_hk_errors():
    with pytest.raises(ValueError):
        hk_solve((0, 1, 2), n=2)
    with pytest.raises(ValueError):
        hk_solve((5,))
    with pytest.raises(ValueError):
        hk_solve((0, 2, 1))
    with pytest.raises(ValueError):
        hk_solve((-1, 0, 1))


@given(st.sets(st.integers(0, 9), min_size=2, max_size=4))
@settings(deadline=None, max_examples=50)
def test_hk_against_closed_forms(tw_set):
    twists = tuple(sorted(tw_set))
    s = hk_solve(twists)
    assert s.finite == finite_betti_oracle(twists)
    assert tail_system_holds(twists, s.tail_raw)
    assert all(x > 0 for x in s.tail)
    assert gcd(*s.tail) == 1


def test_hk_budget():
    # 54 twists 0..53 are the smallest that reach size 53^2 * 6 = 16854
    with pytest.raises(
        ValueError, match=r"^a rank system of 54 twists up to 53 has size \(n - 1\)\^2 \* 6 bits = 16854, above the bound 16384$"
    ):
        hk_solve(range(54))
    start = time.perf_counter()
    with pytest.raises(ValueError, match=r"^a rank system of 40 twists up to 1000000000 has size .* = 45630, above"):
        hk_solve([k * 25641025 for k in range(39)] + [10**9])
    assert time.perf_counter() - start < 0.1
    assert hk_solve(range(53)).finite[0] == 1
    assert len(hk_solve(range(0, 80, 2)).tail) == 40


def test_hk_budget_edge():
    # five twists up to 2^1023 have size 4^2 * 1024 bits, the bound itself,
    # and one more bit in the largest twist puts them above it
    assert len(hk_solve((0, 1, 2, 3, 2**1023)).tail) == 5
    with pytest.raises(ValueError, match=r"^a rank system of 5 twists up to \d+ has size .* = 16400, above the bound 16384$"):
        hk_solve((0, 1, 2, 3, 2**1024))


def test_hk_cost_does_not_grow_with_twist_size():
    start = time.perf_counter()
    s = hk_solve((0, 1, 10**9))
    assert time.perf_counter() - start < 0.1
    assert s.finite == finite_betti_oracle((0, 1, 10**9))
    assert tail_system_holds((0, 1, 10**9), s.tail_raw)


@given(st.sets(st.integers(0, 60), min_size=2, max_size=8))
# 35 twists spread to 16,354: size 34^2 * 14 bits = 16,184, at the budget's edge
@example({481 * k for k in range(35)})
@settings(deadline=None, max_examples=60)
def test_hk_matches_fraction_route(tw_set):
    twists = tuple(sorted(tw_set))
    s = hk_solve(twists)
    assert (s.tail, s.finite, s.tail_raw) == hk_solve_by_fractions(twists)


@given(st.lists(st.integers(1, 2**40), min_size=1, max_size=7), st.integers(0, 2**40))
@example([1, 1, 1, 2**1023 - 3], 0)
@example([1], 0)
@settings(deadline=None, max_examples=60)
def test_hk_integer_route_matches_fraction_route(gaps, first):
    """The solve kept in integers against the earlier route that divided
    each unknown into a Fraction and cleared the denominators by their lcm,
    on strictly increasing twists up to the budget's edge."""
    twists = tuple(first + sum(gaps[:i]) for i in range(len(gaps) + 1))
    s = hk_solve(twists)
    old = hk_solve_over_fraction(twists)
    assert s == old
    assert s.to_json() == old.to_json()


@given(st.dictionaries(st.integers(0, 40), st.integers(-3, 3).filter(bool), min_size=1, max_size=2), st.integers(1, 8))
@settings(deadline=None, max_examples=80)
def test_taylor_at_one_matches_synthetic_division(pattern, count):
    coeffs = [pattern.get(j, 0) for j in range(max(pattern) + 1)]
    assert resolutions._taylor_at_one(pattern, count) == taylor_remainders(coeffs, count)


def _system(order):
    entries = st.integers(-9, 9)
    return st.tuples(
        st.lists(st.lists(entries, min_size=order, max_size=order), min_size=order, max_size=order),
        st.lists(entries, min_size=order, max_size=order),
    )


@given(st.integers(1, 6).flatmap(_system))
@settings(deadline=None, max_examples=150)
def test_bareiss_solve_matches_fraction_solve(system):
    matrix, rhs = system
    if det_fraction(matrix) == 0:
        with pytest.raises(ValueError, match="^singular system$"):
            resolutions._solve_square(matrix, rhs)
        return
    nums, den = resolutions._solve_square(matrix, rhs)
    assert [Fraction(x, den) for x in nums] == solve_fraction(matrix, rhs)


def test_solve_goes_through_bareiss(monkeypatch):
    """_solve_square eliminates with determinant's one Bareiss pass, and
    hk_solve solves once per branch."""
    assert resolutions._bareiss is determinant._bareiss
    calls = []

    def recording(m):
        calls.append((len(m), len(m[0])))
        return determinant._bareiss(m)

    monkeypatch.setattr(resolutions, "_bareiss", recording)
    assert resolutions._solve_square([[0, 2], [3, 1]], [4, 5]) == ([6, 12], 6)
    assert calls == [(2, 3)]
    calls.clear()
    s = hk_solve((0, 1, 3, 4, 7))
    assert calls == [(4, 5), (4, 5)]
    assert (s.tail, s.finite, s.tail_raw) == hk_solve_by_fractions((0, 1, 3, 4, 7))



# sha256 of the sorted-key JSON of every table below: a change to any row,
# label or tail of any of them changes it
PINNED_GRID_DIGEST = "093baa0c108fe69aefca0cc7d27e5a2f67c1eb1401b2d14ef7682ba1cbefb9c9"


def test_pure_tables_match_pinned_digest():
    """Quadric tables for m <= 5 and rational normal curve tables for d <= 6,
    on every composition of shifts in {1, 2, 3}, with 6 tail terms: 525
    tables, rows, labels and tails included, byte for byte."""
    tables = {}
    for m in range(1, 6):
        for e in product((1, 2, 3), repeat=m):
            tables[f"quadric {m} {e}"] = quadric_pure_resolution(m, e, tail_terms=6).to_json()
    for d in range(1, 7):
        for e in product((1, 2, 3), repeat=3):
            tables[f"rnc {d} {e}"] = rnc_pure_resolution(d, e, tail_terms=6).to_json()
    assert len(tables) == 525
    assert hashlib.sha256(json.dumps(tables, sort_keys=True).encode()).hexdigest() == PINNED_GRID_DIGEST

def test_broken_quadric_tail_raises(monkeypatch):
    real, calls = resolutions.quadric_schur_dim, []

    def drifting(ctx, shape):
        # the true ranks for the m head rows, one more for every tail row
        calls.append(shape)
        return real(ctx, shape) + (len(calls) > ctx.m)

    monkeypatch.setattr(resolutions, "quadric_schur_dim", drifting)
    with pytest.raises(RuntimeError, match="^tail rank 5 at step 1, expected 4$"):
        quadric_pure_resolution(3, (1, 1, 1))


def test_broken_rnc_tail_raises(monkeypatch):
    real, calls = resolutions.jt_minor, []

    def drifting(seq, shape):
        calls.append(shape)
        return real(seq, shape) + (len(calls) > 3)

    monkeypatch.setattr(resolutions, "jt_minor", drifting)
    with pytest.raises(RuntimeError, match="^tail rank 19 at step 1, expected 18$"):
        rnc_pure_resolution(3, (1, 2, 1))


def test_nonpositive_head_rank_raises(monkeypatch):
    monkeypatch.setattr(resolutions, "quadric_schur_dim", lambda ctx, shape: 0)
    with pytest.raises(RuntimeError, match="^head rank 0 at index 0 is not positive$"):
        quadric_pure_resolution(3, (1, 1, 2))
    monkeypatch.setattr(resolutions, "jt_minor", lambda seq, shape: -1)
    with pytest.raises(RuntimeError, match="^head rank -1 at index 0 is not positive$"):
        rnc_pure_resolution(3, (1, 2, 2))
