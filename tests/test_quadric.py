from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jtkit import quadric, symfunc
from jtkit.powerseries import TruncSeries, _unpack
from jtkit.quadric import (
    METHODS,
    QuadricContext,
    _multigraded_hs,
    chi_o_dim,
    multigraded_hs_check,
    orthogonal_stable_decomposition,
    quadric_schur_dim,
)
from jtkit.sequences import GradedSequence, make_sequence
from jtkit.shapes import SkewShape, conjugate, partitions_of
from jtkit.symfunc import binom, dim_gl

from conftest import partitions, sub_partition
from oracles import (
    chi_o_peeling,
    super_fillings,
    multigraded_hs_by_inverses,
    multigraded_hs_report,
    ortho_multiplicities_by_lr,
    qdual_term_class,
    quadric_term_class,
)

CTX2 = QuadricContext(2)
CTX3 = QuadricContext(3)
CTX4 = QuadricContext(4)

SKEW = partitions(max_size=7, max_part=5, max_length=4).flatmap(
    lambda lam: st.tuples(st.just(lam), sub_partition(lam))
)


def test_context_basics():
    assert CTX3.m == 3
    assert CTX3.sequence.term(2) == 5
    assert make_sequence("qdual", m=3).term(2) == 4
    with pytest.raises(AttributeError):
        CTX3.m = 5
    with pytest.raises(ValueError):
        QuadricContext(0)


def test_frozen_dimensions():
    table = {
        (1, 1): 4,
        (2, 1): 8,
        (3, 1): 12,
        (3, 2): 8,
        (3, 3): 4,
        (2, 2): 4,
        (2, 1, 1): 8,
        (2, 2, 1): 4,
    }
    for lam, want in table.items():
        assert quadric_schur_dim(CTX3, lam) == want, lam
    for d in range(1, 6):
        assert quadric_schur_dim(CTX3, (1,) * d) == 4 or d == 1
    assert quadric_schur_dim(CTX3, (1,)) == 3
    assert quadric_schur_dim(CTX2, (1, 1)) == 2


def test_vanishing_law():
    # columns deeper than one box below row m kill the functor
    assert quadric_schur_dim(CTX3, (2, 2, 2)) == 0
    assert quadric_schur_dim(CTX2, (2, 2)) == 0
    assert quadric_schur_dim(CTX2, (3, 2)) == 0
    assert quadric_schur_dim(CTX3, (4, 4, 4)) == 0
    assert quadric_schur_dim(CTX3, (2, 2, 1)) != 0


def test_unknown_method():
    with pytest.raises(ValueError):
        quadric_schur_dim(CTX3, (1,), method="nope")


@given(st.integers(2, 5), SKEW)
# long columns: the vertical-strip route lists only the shapes it sums over,
# not the 2^l(lam) row picks
@example(3, ((1,) * 30, ()))
@example(5, ((1,) * 30, (1, 1, 1)))
@example(4, ((2,) * 10 + (1,) * 10, ()))
@example(5, ((2,) * 10 + (1,) * 10, (2, 2, 1)))
@settings(deadline=None, max_examples=80)
def test_three_routes_agree(m, pair):
    lam, mu = pair
    ctx = QuadricContext(m)
    shape = SkewShape(lam, mu)
    values = {method: quadric_schur_dim(ctx, shape, method) for method in METHODS}
    assert len(set(values.values())) == 1, values
    assert values["jt"] >= 0


def test_routes_reach_kernels_through_quadric_bindings(monkeypatch):
    """The vertical-strip and super routes call dim_gl_skew and dim_super by
    quadric's own names, so a wrapper bound there (as the benchmark's tracer
    binds one) sees every call the routes make."""
    calls = Counter()
    for name in ("dim_gl_skew", "dim_super"):

        def counting(*args, _fn=getattr(quadric, name), _name=name):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(quadric, name, counting)
    monkeypatch.setattr(quadric, "_QSD_CACHE", {})
    shape = SkewShape((3, 2, 1), (1,))
    jt = quadric_schur_dim(CTX3, shape, "jt")
    assert not calls
    assert quadric_schur_dim(CTX3, shape, "vertical_strip") == jt
    # one call per shape alpha with lam/alpha a vertical strip and mu inside alpha
    assert calls == Counter(dim_gl_skew=8)
    assert quadric_schur_dim(CTX3, shape, "super") == jt
    assert calls == Counter(dim_gl_skew=8, dim_super=1)


def test_super_route_calls_no_other_kernel(monkeypatch):
    """dim_super and the super route count chains of strips: with the LR,
    hook-content and determinant kernels made to raise, they still give
    the cell-by-cell counts, so no speed-up can fold this route into the
    other two."""
    cases = [((3, 2, 1), (1,)), ((4, 3, 1), (2, 1)), ((5, 5, 4, 4), ()), ((3, 3), (2,))]
    want = {(lam, mu): (super_fillings(lam, mu, 2, 1), super_fillings(lam, mu, 3, 2)) for lam, mu in cases}

    def refuse(*args, **kwargs):
        raise AssertionError("the super route reached another kernel")

    for name in ("_lr_contents", "dim_gl", "dim_gl_skew", "mult_one"):
        monkeypatch.setattr(symfunc, name, refuse)
    for name in ("_lr_contents", "dim_gl_skew", "jt_minor"):
        monkeypatch.setattr(quadric, name, refuse)
    monkeypatch.setattr(symfunc, "_DIM_SUPER_CACHE", {})
    monkeypatch.setattr(quadric, "_QSD_CACHE", {})
    for (lam, mu), (route, wide) in want.items():
        assert quadric_schur_dim(CTX3, SkewShape(lam, mu), "super") == route
        assert symfunc.dim_super(lam, 3, 2, mu) == wide


def test_term_class_matches_sequence():
    for m in (1, 2, 3, 4):
        ctx = QuadricContext(m)
        for d in range(8):
            assert quadric_term_class(d).dim((m,)) == ctx.sequence.term(d)
            assert qdual_term_class(d).dim((m,)) == make_sequence("qdual", m=m).term(d)


def test_term_class_negative_coefficient():
    cls = quadric_term_class(2)
    assert cls.coefficient(((2,),)) == 1
    assert cls.coefficient(((),)) == -1


def test_chi_o_frozen():
    assert chi_o_dim((), 2) == 1
    assert chi_o_dim((1, 1), 4) == 6
    assert chi_o_dim((1,), 5) == 5
    # a large stable-range case, which needs the closed form
    assert chi_o_dim((8, 6, 4, 2), 40) == 4414185462816189175752
    for m in (2, 3, 4, 6):
        assert chi_o_dim((1,), m) == m
        assert chi_o_dim((2,), m) == binom(m + 1, 2) - 1
    with pytest.raises(ValueError):
        chi_o_dim((1, 1), 3)
    with pytest.raises(ValueError):
        chi_o_dim((2, 1, 1), 4)


ORTHO = partitions(max_size=8, max_part=4, max_length=6).flatmap(
    lambda mu: st.tuples(
        st.just(mu),
        st.one_of(st.just(max(2, 2 * len(mu))), st.integers(max(2, 2 * len(mu)), 12)),
    )
)


@given(ORTHO)
@example(((1, 1), 4))
@example(((3, 2, 1), 6))
@example(((2, 1, 1, 1, 1, 1), 12))
@settings(deadline=None, max_examples=60)
def test_chi_o_weyl_matches_peeling(pair):
    """Weyl's formula against the doubled-row peeling, in the stable range
    for m = 2..12; m = 2 l(mu) is the case the doubling rule covers."""
    mu, m = pair
    assert chi_o_dim(mu, m) == chi_o_peeling(mu, m)


def test_ortho_decomposition_frozen():
    dec = orthogonal_stable_decomposition(CTX4, (1, 1))
    assert dec.entries == (((), 1), ((1, 1), 1))
    assert dec.dimension() == 7
    assert dec.dimension() == quadric_schur_dim(CTX4, (1, 1))
    only = orthogonal_stable_decomposition(CTX4, (2,))
    assert only.entries == (((2,), 1),)
    assert only.to_json() == [{"mu": [2], "mult": 1}]
    with pytest.raises(ValueError):
        orthogonal_stable_decomposition(CTX3, (1, 1))


def test_ortho_route_tallies_even_column_shapes(monkeypatch):
    """The decomposition takes one plain content tally of lam/delta for each
    delta inside lam whose columns all have even length, 85 of them for this
    30-box shape, and no tally per mu."""
    calls = []
    tally = quadric._lr_contents

    def record(*args, **kwargs):
        calls.append((args, kwargs))
        return tally(*args, **kwargs)

    monkeypatch.setattr(quadric, "_lr_contents", record)
    lam = (7, 6, 5, 4, 3, 2, 1, 1, 1)
    orthogonal_stable_decomposition(QuadricContext(18), lam)
    assert len(calls) == 85
    assert len({args for args, _ in calls}) == 85
    for args, kwargs in calls:
        assert not kwargs and len(args) == 2 and args[0] == lam
        assert all(c % 2 == 0 for c in conjugate(args[1])), args[1]


def test_ortho_decomposition_budget():
    """Shapes above 30 boxes are refused before any filling; the stable
    range is checked first."""
    with pytest.raises(ValueError, match="^a decomposition of a shape with 31 boxes is above the bound of 30 boxes$"):
        orthogonal_stable_decomposition(QuadricContext(62), (1,) * 31)
    with pytest.raises(ValueError, match="^stable range needs"):
        orthogonal_stable_decomposition(QuadricContext(40), (1,) * 31)
    dec = orthogonal_stable_decomposition(QuadricContext(60), (1,) * 30)
    assert dec.dimension() == quadric_schur_dim(QuadricContext(60), (1,) * 30)


@given(partitions(max_size=6, max_part=4, max_length=3))
@settings(deadline=None, max_examples=30)
def test_ortho_decomposition_dimension(lam):
    for m in (2 * max(len(lam), 1), 2 * max(len(lam), 1) + 1):
        ctx = QuadricContext(m)
        dec = orthogonal_stable_decomposition(ctx, lam)
        assert dec.dimension() == quadric_schur_dim(ctx, lam)
        assert all(mult > 0 for _, mult in dec.entries)


@given(partitions(max_size=15, max_part=6, max_length=6))
@example((6, 4, 2))
@example((3, 2, 2, 2, 2, 2, 1, 1, 1, 1, 1, 1))
@settings(deadline=None, max_examples=40)
def test_ortho_decomposition_matches_lr_pairs(lam):
    """One content tally of lam/delta per delta with even columns against
    one LR coefficient c^lam_{mu,nu} per (mu, nu), nu with even rows
    transposed: the oracle tallies lam/mu, the other side of the LR
    symmetry.  Both list their entries in subpartitions' order."""
    dec = orthogonal_stable_decomposition(QuadricContext(2 * max(len(lam), 1)), lam)
    assert dec.entries == tuple(ortho_multiplicities_by_lr(lam).items())


@given(partitions(max_size=6, max_part=4, max_length=3))
@settings(deadline=None, max_examples=25)
def test_littlewood_branching_dimension(lam):
    # restricting the GL irrep to the orthogonal group pairs mu with doubled
    # rows; summing dimensions must recover the full GL dimension
    from jtkit.shapes import subpartitions
    from jtkit.symfunc import lr_coefficient

    m = 2 * max(len(lam), 1)
    total = 0
    for mu in subpartitions(lam):
        rem = sum(lam) - sum(mu)
        if rem % 2:
            continue
        mult = sum(
            lr_coefficient(lam, mu, tuple(2 * p for p in nu))
            for nu in partitions_of(rem // 2)
        )
        total += mult * chi_o_dim(mu, m)
    assert total == dim_gl(lam, m)


def test_multigraded_hs():
    for m in (1, 2, 3, 4):
        for n in (1, 2, 3):
            report = multigraded_hs_check(m, n, trunc=5)
            assert report["ok"], (m, n)
            assert report["m"] == m and report["n"] == n
    with pytest.raises(ValueError):
        multigraded_hs_check(2, 2, trunc=13)
    with pytest.raises(ValueError):
        multigraded_hs_check(2, 2, trunc=-1)


@given(st.integers(1, 4), st.integers(1, 4), st.integers(0, 8))
@example(4, 4, 8)
@settings(deadline=None, max_examples=30)
def test_multigraded_hs_division_matches_inverses(m, n, trunc):
    series = TruncSeries(n, trunc, _unpack(_multigraded_hs(m, n, trunc), n, trunc))
    assert series == multigraded_hs_by_inverses(m, n, trunc)


@given(st.integers(1, 5), st.integers(1, 5), st.integers(0, 8))
@example(1, 1, 0)
@example(3, 1, 8)
@example(5, 5, 8)
@settings(deadline=None, max_examples=30)
def test_multigraded_hs_check_matches_tuple_report(m, n, trunc):
    assert multigraded_hs_check(m, n, trunc) == multigraded_hs_report(m, n, trunc)


@pytest.mark.parametrize("n", [1, 3])
def test_multigraded_hs_flags_catch_wrong_inputs(monkeypatch, n):
    real, factor = quadric.make_sequence("quadric", m=3), quadric._quadric_hs_factor
    bad = GradedSequence("quadric with a wrong degree-2 term", lambda seq, d: real.term(d) + (d == 2))
    with monkeypatch.context() as patch:
        patch.setattr(quadric, "make_sequence", lambda kind, m: bad)
        report = multigraded_hs_check(3, n, trunc=4)
    assert (report["factorization"], report["coefficients"], report["ok"]) == (True, False, False)
    with monkeypatch.context() as patch:
        patch.setattr(quadric, "_quadric_hs_factor", lambda m, trunc: factor(m + 1, trunc))
        report = multigraded_hs_check(3, n, trunc=4)
    assert (report["factorization"], report["coefficients"], report["ok"]) == (False, True, False)


def test_multigraded_hs_budget():
    assert multigraded_hs_check(2, 8, trunc=1)["ok"]
    with pytest.raises(ValueError, match="^a check over 9 quadric factors is above the bound of 8 factors$"):
        multigraded_hs_check(2, 9, trunc=0)
    with pytest.raises(ValueError, match="^a series in 8 variables to degree 11 has 75582 coefficients, above"):
        multigraded_hs_check(2, 8, trunc=11)


def test_multigraded_hs_payload_shape():
    report = multigraded_hs_check(3, 2, trunc=6)
    assert set(report) >= {"m", "n", "trunc", "ok"}
    assert report["ok"] is True
