from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jtkit import determinant, memo, quadric, sequences, symfunc
from jtkit.quadric import METHODS, QuadricContext, quadric_schur_dim
from jtkit.sequences import (
    GradedSequence,
    PFReport,
    _box_minors,
    _shape_of_rows,
    e_class,
    hadamard,
    hs_series,
    index_to_shapes,
    jt_minor,
    make_sequence,
    minor_from_indices,
    parse_sequence_spec,
    pf_check,
    schur_dimension_profile,
    segre,
    tensor_identity_check,
    tensor_product,
    veronese,
    veronese_identity_check,
)
from jtkit.shapes import SkewShape, scan_partitions, subpartitions
from jtkit.symfunc import SchurClass, binom, dim_super, skew_to_straight

from conftest import RUNAWAY_SPECS, partitions, sub_partition
from oracles import (
    compositions_of,
    det_fraction,
    e_class_compositions,
    jt_minor_h_side,
    minor_by_toeplitz,
    pf_check_per_pair,
    pf_check_per_shape,
    pf_check_uncapped,
    pieri_identity_check,
    schur_dimension_profile_pairwise,
    tensor_poly_minor,
    tensoralg_minor,
    transpose_duality_check,
)

SHAPES = partitions(max_size=8, max_part=6, max_length=4)
SKEW = SHAPES.flatmap(lambda lam: st.tuples(st.just(lam), sub_partition(lam)))

POLY3 = make_sequence("poly", m=3)
Q2 = make_sequence("quadric", m=2)
Q3 = make_sequence("quadric", m=3)
HEIS = make_sequence("heisenberg", u=2)
LIST2 = make_sequence("list", dims=(2, 3, 1, 4) + (0,) * 12)


def test_poly_dims():
    assert [POLY3.dims(d) for d in range(5)] == [1, 3, 6, 10, 15]
    assert POLY3.value_kind == "class"
    assert POLY3.term(2) == SchurClass.schur((2,))
    assert POLY3.term(-1).is_zero()


def test_quadric_dims():
    assert [Q3.term(d) for d in range(6)] == [1, 3, 5, 7, 9, 11]
    assert [Q2.term(d) for d in range(5)] == [1, 2, 2, 2, 2]
    q1 = make_sequence("quadric", m=1)
    assert [q1.term(d) for d in range(4)] == [1, 1, 0, 0]


def test_qdual_dims():
    qd = make_sequence("qdual", m=3)
    assert [qd.term(d) for d in range(6)] == [1, 3, 4, 4, 4, 4]


def test_tensoralg():
    t = make_sequence("tensoralg", m=2)
    assert [t.dims(d) for d in range(5)] == [1, 2, 4, 8, 16]
    expanded = t.term(2)
    assert expanded.coefficient(((2,),)) == 1
    assert expanded.coefficient(((1, 1),)) == 1


def test_super_dims():
    s = make_sequence("super", r=2, s=1)
    assert [s.term(d) for d in range(5)] == [1, 3, 5, 7, 9]
    odd_only = make_sequence("super", r=0, s=2)
    assert [odd_only.term(d) for d in range(4)] == [1, 2, 1, 0]


def test_heisenberg_dims():
    assert [HEIS.term(d) for d in range(7)] == [1, 2, 4, 6, 9, 12, 16]
    h3 = make_sequence("heisenberg", u=3)
    assert [h3.term(d) for d in range(4)] == [1, 3, 7, 13]


def test_squares_and_list():
    sq = make_sequence("squares")
    assert [sq.term(d) for d in range(4)] == [1, 4, 9, 16]
    ls = make_sequence("list", dims=(1, 2, 2))
    assert [ls.term(d) for d in range(3)] == [1, 2, 2]
    with pytest.raises(ValueError):
        ls.term(3)


def test_make_sequence_errors():
    for kind, params, message in [
        ("nope", {}, "unknown sequence kind 'nope'"),
        ("poly", {}, "poly needs parameter 'm'"),
        ("Polynomial", {}, "polynomial needs parameter 'm'"),
        ("poly", {"m": 0}, "poly needs m >= 1"),
        ("tensor_algebra", {"m": 0}, "tensoralg needs m >= 1"),
        ("quadric", {"m": 2, "extra": 1}, "unexpected parameters for quadric: ['extra']"),
        ("super", {"r": 1}, "super needs parameter 's'"),
        ("super", {"r": 0, "s": 0}, "super needs r, s >= 0 with r + s >= 1"),
        ("heisenberg", {"u": 0}, "heisenberg needs u >= 1"),
        ("squares", {"m": 1}, "unexpected parameters for squares: ['m']"),
        ("list", {"dims": ()}, "list needs at least one value"),
    ]:
        with pytest.raises(ValueError) as err:
            make_sequence(kind, **params)
        assert str(err.value) == message


def test_derived_sequences():
    v = veronese(Q3.dim_view(), 2)
    assert [v.term(i) for i in range(4)] == [1, 5, 9, 13]
    t = tensor_product(Q2, Q2)
    assert [t.term(d) for d in range(4)] == [1, 4, 8, 12]
    s = segre(Q2.dim_view(), make_sequence("squares"))
    assert [s.term(d) for d in range(4)] == [1, 8, 18, 32]
    h = hadamard(Q2, make_sequence("squares"))
    assert [h.term(d) for d in range(5)] == [1, 8, 18, 32, 50]
    assert h.value_kind == "integer"
    with pytest.raises(ValueError):
        veronese(Q3, 0)


def test_class_tensor_and_segre():
    p2 = make_sequence("poly", m=2)
    seg = segre(p2, p2)
    assert seg.value_kind == "class"
    assert seg.factor_count == 2
    assert seg.term(1).coefficient(((1,), (1,))) == 1
    ten = tensor_product(p2, p2)
    assert ten.term(1).coefficient(((1,), ())) == 1
    assert ten.term(1).coefficient(((), (1,))) == 1
    assert ten.dims(2) == 10


def test_dim_view():
    dv = POLY3.dim_view()
    assert dv.value_kind == "integer"
    assert dv.term(3) == 10
    assert dv is POLY3.dim_view()
    assert Q3.dim_view() is Q3


@given(SKEW)
@settings(deadline=None, max_examples=60)
def test_jt_minor_matches_fraction_determinant(pair):
    lam, mu = pair
    r = max(len(lam), len(mu), 1)
    mupad = mu + (0,) * (r - len(mu))
    lampad = lam + (0,) * (r - len(lam))
    rows = [
        [Q3.term(lampad[i] - mupad[j] - i + j) for j in range(r)]
        for i in range(r)
    ]
    assert jt_minor(Q3, SkewShape(lam, mu)) == det_fraction(rows)


@given(SKEW, st.integers(0, 3))
@settings(deadline=None, max_examples=40)
def test_jt_minor_padding_stable(pair, extra):
    """Each padding row multiplies the minor by a_0, so the value is stable
    only when a_0 = 1, as for quadric:3."""
    lam, mu = pair
    need = max(len(lam), len(mu))
    for seq in (Q3, LIST2):
        base = jt_minor(seq, SkewShape(lam, mu))
        assert jt_minor(seq, SkewShape(lam, mu), need + extra) == base * seq.term(0) ** extra
    short = parse_sequence_spec("list:2,3,1,4")
    assert [jt_minor(short, (1,), pad) for pad in (1, 2, 3)] == [3, 6, 12]


def test_jt_minor_unit_and_errors():
    assert jt_minor(Q3, ()) == 1
    assert jt_minor(POLY3, ()) == SchurClass.unit(1)
    with pytest.raises(ValueError):
        jt_minor(Q3, (2, 1), 1)


CLASS_SPECS = ("poly:2", "poly:3", "tensoralg:2", "tensor:(poly:2),(poly:2)", "segre:poly:2,poly:2", "veronese:poly:2,2")
TALL = partitions(max_size=8, max_part=3, max_length=5)
TALL_SKEW = TALL.flatmap(lambda lam: st.tuples(st.just(lam), sub_partition(lam)))


def test_zero_and_unit_are_shared():
    for spec in CLASS_SPECS:
        a = parse_sequence_spec(spec)
        k = a.factor_count
        assert (a.zero_value(), a.unit_value()) == (SchurClass.zero(k), SchurClass.unit(k))
        assert a.zero_value() is a.zero_value() and a.unit_value() is a.unit_value()
    assert (Q3.zero_value(), Q3.unit_value()) == (0, 1)


@given(st.sampled_from(CLASS_SPECS), TALL_SKEW, st.integers(0, 1))
@settings(deadline=None, max_examples=40)
@example("tensoralg:2", ((2, 2, 2, 2, 1), ()), 0)
@example("tensoralg:2", ((2, 2, 1, 1), (1,)), 1)
@example("veronese:poly:2,2", ((2, 2, 2, 1, 1), ()), 0)
@example("poly:3", ((2, 2, 1), ()), 1)
@example("segre:poly:2,poly:2", ((1, 1, 1), (1,)), 0)
def test_class_minor_matches_h_side(spec, pair, extra):
    """Whichever side jt_minor evaluates, a class minor over a unit a_0 is
    the determinant of its h-matrix, padded or not."""
    lam, mu = pair
    r = max(len(lam), len(mu)) + extra
    got = jt_minor(parse_sequence_spec(spec), SkewShape(lam, mu), r if extra else None)
    assert got == jt_minor_h_side(parse_sequence_spec(spec), SkewShape(lam, mu), r)


def test_class_minor_side(monkeypatch):
    """Tall minors take the e-form when its classes are small.  Large
    e-classes, a shape no taller than wide, a non-unit a_0 or an order above
    det_expand's bound keep the h-form."""
    calls = []
    real = sequences.jt_minor_dual
    monkeypatch.setattr(sequences, "jt_minor_dual", lambda a, s: calls.append(s.outer.parts) or real(a, s))
    jt_minor(parse_sequence_spec("tensoralg:2"), (2, 2, 2, 2, 1))
    assert calls == [(2, 2, 2, 2, 1)]
    calls.clear()
    ver = parse_sequence_spec("veronese:poly:2,2")
    jt_minor(ver, (2, 2, 2, 1, 1))
    jt_minor(ver, SkewShape((3, 2, 1), (2,)))
    assert calls == []
    # the term count stops before e_6, the e-matrix's largest degree
    assert max(ver._eclasses) < 6
    # padding multiplies by a_0 = 2, which the h-form keeps
    twice = GradedSequence("twice", lambda seq, d: POLY3.term(d) * (2 if d == 0 else 1), (3,))
    assert jt_minor(twice, (1, 1), 3) == 2 * jt_minor(twice, (1, 1))
    assert calls == []
    with pytest.raises(ValueError, match="exceeds expansion bound 8"):
        jt_minor(make_sequence("poly", m=2), (1,) * 9)
    assert calls == []


def test_class_minor_quadric_relation():
    # the class-level minor of the polynomial sequence at a one-column shape
    value = jt_minor(POLY3, (1, 1))
    assert value.coefficient(((1, 1),)) == 1
    assert value.support_size() == 1


def test_pf_check_positive():
    rep = pf_check(Q3, max_order=3, window=4)
    assert rep.verdict == "positive-up-to-bounds"
    assert rep.witness is None
    assert rep.checked == sum(1 for _ in scan_partitions(3, 4))


def test_pf_check_negative_witness():
    h = hadamard(Q2, make_sequence("squares"))
    rep = pf_check(h, max_order=3, window=6)
    assert rep.verdict == "negative"
    lam, mu, value = rep.witness
    assert lam == (2, 2, 2) and mu == () and value == -60
    assert rep.checked == 16
    data = rep.to_json()
    assert data["witness"]["value"] == -60


@pytest.mark.parametrize("skew", [False, True])
def test_pf_check_bounds(skew):
    """A negative order or window is refused; a zero one scans the empty box."""
    for order, window in ((-1, -3), (-1, 2), (2, -1)):
        with pytest.raises(ValueError, match="^scan order and window must be nonnegative$"):
            pf_check(Q3, order, window, scan_skew=skew)
    for order, window in ((0, 3), (3, 0), (0, 0)):
        assert pf_check(Q3, order, window, scan_skew=skew) == PFReport("positive-up-to-bounds", order, window, 0)


def test_pf_check_heisenberg():
    rep = pf_check(HEIS, max_order=3, window=3)
    assert rep.verdict == "negative"
    assert rep.witness[0] == (1, 1, 1)
    assert rep.witness[2] == -2


# Integer sequences of the benchmark's scan families, positive through order
# 6 and window 8 or negative early; two list sequences whose a_0 is not 1, so
# that a minor read at the wrong padding shows; and one whose first negative
# shape (2) lies outside the window-1 box, where (1, 1, 1) is negative.
SCAN_SPECS = (
    "quadric:2", "quadric:4", "qdual:3", "super:2,1", "super:2,2",
    "tensor:(quadric:2),(quadric:2)", "segre:quadric:2,qdual:2", "veronese:heisenberg,2",
    "heisenberg", "hadamard:quadric:2,squares", "hadamard:quadric:3,qdual:2",
    "hadamard:qdual:2,heisenberg", "segre:quadric:3,quadric:2", "segre:heisenberg,qdual:2",
    "list:2,3,1,4,1,5,9,2,6,5,3", "list:0,1,1,2,3,5,8,13,21,34,55", "list:1,2,-1,-20,3,1,4,1,5,9,2",
)
# Class scans keep order + window <= 8: the per-shape oracle takes about 40 s
# on tensoralg:2 at order 5, window 6.
SCAN_CASES = st.one_of(
    st.tuples(st.sampled_from(SCAN_SPECS), st.integers(1, 5), st.integers(1, 6)),
    st.tuples(st.sampled_from(("poly:2", "tensoralg:2")), st.integers(1, 5)).flatmap(
        lambda case: st.tuples(st.just(case[0]), st.just(case[1]), st.integers(1, min(6, 8 - case[1])))
    ),
)


@given(SCAN_CASES)
@settings(deadline=None, max_examples=60)
def test_box_minors_match_jt_minor(case):
    spec, order, window = case
    a = parse_sequence_spec(spec)
    (sweep,) = _box_minors(a, order, [window])
    minors = {_shape_of_rows(rows, order): value for rows, value in sweep.items()}
    box = list(scan_partitions(order, window))
    assert set(minors) <= set(box)
    for lam in box:
        assert minors.get(lam, a.zero_value()) == jt_minor(a, lam)


# Increasing window lists: up to window 6 on the integer specs, and on the
# class specs with order + window <= 8 as above.
GROWN_CASES = st.one_of(
    st.tuples(st.sampled_from(SCAN_SPECS), st.integers(1, 5), st.just(6)),
    st.tuples(st.sampled_from(("poly:2", "tensoralg:2")), st.integers(1, 5)).map(
        lambda case: (case[0], case[1], min(6, 8 - case[1]))
    ),
).flatmap(
    lambda case: st.tuples(
        st.just(case[0]),
        st.just(case[1]),
        st.lists(st.integers(1, case[2]), min_size=1, max_size=4, unique=True).map(sorted),
    )
)


@given(GROWN_CASES)
@settings(deadline=None, max_examples=60)
def test_grown_sweep_yields_each_new_shape_once(case):
    spec, order, windows = case
    a = parse_sequence_spec(spec)
    grown = list(_box_minors(a, order, windows))
    assert len(grown) == len(windows)
    union = {}
    for prev, window, sweep in zip([0] + windows, windows, grown):
        assert not set(sweep) & set(union)
        union.update(sweep)
        new = [lam for lam in scan_partitions(order, window) if lam[0] > prev]
        values = {lam: jt_minor(a, lam) for lam in new}
        expect = {lam: value for lam, value in values.items() if value != a.zero_value()}
        assert {_shape_of_rows(rows, order): value for rows, value in sweep.items()} == expect
    (whole,) = _box_minors(a, order, windows[-1:])
    assert union == whole


# super:r,s with r, s <= 3, as (r, s, order, window) with order + window <= 10
SUPER_BOXES = st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(1, 9), st.integers(1, 9)).filter(
    lambda case: (case[0] or case[1]) and case[2] + case[3] <= 10
)


@given(SUPER_BOXES)
@example((3, 3, 5, 5))
@settings(deadline=None, max_examples=40)
def test_super_box_minors_match_dim_super(case):
    """Every straight minor of super:r,s is dim_super(lambda, r, s), a chain
    count that shares no code with the Laplace step, and the sweep leaves out
    exactly the shapes it counts 0."""
    r, s, order, window = case
    (sweep,) = _box_minors(parse_sequence_spec(f"super:{r},{s}"), order, [window])
    minors = {_shape_of_rows(rows, order): value for rows, value in sweep.items()}
    assert minors == {lam: n for lam in scan_partitions(order, window) if (n := dim_super(lam, r, s))}


def test_poly_box_minors_are_schur_classes():
    """For poly:m, a_d = h_d, so the sweep's minor of lambda is s_lambda
    itself: on a whole 6x6 box of poly:2, and on each box of a grown poly:3
    sweep, which yields the shapes with lambda_1 above the previous window."""
    for spec, order, windows in (("poly:2", 6, [6]), ("poly:3", 5, [1, 2, 4, 7])):
        a = parse_sequence_spec(spec)
        for prev, window, sweep in zip([0] + windows, windows, _box_minors(a, order, windows)):
            minors = {_shape_of_rows(rows, order): value for rows, value in sweep.items()}
            assert minors == {lam: SchurClass.schur(lam) for lam in scan_partitions(order, window) if lam[0] > prev}


def test_tensoralg_minors_match_closed_form():
    """tensoralg:2 against its closed form, which takes no LR product: jt_minor
    on every skew pair of the 4x4 box, and a 5x4 _box_minors sweep, where
    the one-row shapes are the only horizontal strips and so the only
    nonzero minors."""
    a = parse_sequence_spec("tensoralg:2")
    pairs = [(lam, mu) for lam in scan_partitions(4, 4) for mu in subpartitions(lam)]
    assert len(pairs) == 1763
    for lam, mu in pairs:
        assert jt_minor(a, SkewShape(lam, mu)) == tensoralg_minor(lam, mu), (lam, mu)
    (sweep,) = _box_minors(a, 5, [4])
    minors = {_shape_of_rows(rows, 5): value for rows, value in sweep.items()}
    assert minors == {(n,): tensoralg_minor((n,), ()) for n in range(1, 5)}


def test_tensor_box_minors_match_coproduct():
    """tensor:poly:2,poly:2 against the coproduct of s_lambda, which takes
    no mult_one product: the whole 4x4 _box_minors sweep, whose 69 shapes
    all have a nonzero minor."""
    (sweep,) = _box_minors(parse_sequence_spec("tensor:poly:2,poly:2"), 4, [4])
    minors = {_shape_of_rows(rows, 4): value for rows, value in sweep.items()}
    assert len(minors) == 69
    assert minors == {lam: tensor_poly_minor(lam) for lam in scan_partitions(4, 4)}


def test_poly_skew_minors_are_skew_schur_classes():
    """For poly:m the minor of lambda/mu is s_{lambda/mu}, which
    skew_to_straight reads off one plain LR content tally: on every skew
    pair of the 4x4 box, for poly:2 and poly:3, against jt_minor's
    determinant expansion through mult_one."""
    pairs = [(lam, mu) for lam in scan_partitions(4, 4) for mu in subpartitions(lam)]
    assert len(pairs) == 1763
    for spec in ("poly:2", "poly:3"):
        a = parse_sequence_spec(spec)
        for lam, mu in pairs:
            shape = SkewShape(lam, mu)
            assert jt_minor(a, shape) == skew_to_straight(shape), (spec, lam, mu)


@given(SCAN_CASES)
@example(("list:1,2,-1,-20,3,1,4,1,5,9,2", 3, 2))
@settings(deadline=None, max_examples=60)
def test_pf_check_matches_per_shape_scan(case):
    spec, order, window = case
    rep = pf_check(parse_sequence_spec(spec), order, window)
    assert rep == pf_check_per_shape(parse_sequence_spec(spec), order, window)


def _report_or_error(scan, spec, order, window):
    """scan's report on a fresh sequence, or the type and message it raises."""
    try:
        return scan(parse_sequence_spec(spec), order, window)
    except ValueError as exc:
        return type(exc), str(exc)


# The skew scans of SCAN_SPECS in boxes of at most 4 x 4, plus two lists
# whose a_0 is negative, so that the first negative pair has mu nonempty,
# and the class specs at order + window <= 6.
SKEW_CASES = st.one_of(
    st.tuples(
        st.sampled_from(SCAN_SPECS + ("list:-1,1,1,1,1,1,1,1,1,1,1", "list:-2,3,1,0,2,0,1,0,0,0,0")),
        st.integers(0, 4),
        st.integers(0, 4),
    ),
    st.tuples(st.sampled_from(("poly:2", "tensoralg:2")), st.integers(1, 4)).flatmap(
        lambda case: st.tuples(st.just(case[0]), st.just(case[1]), st.integers(1, 6 - case[1]))
    ),
)


@given(SKEW_CASES)
# the per-pair scan stops at ((1, 1), (), -1) before reading past degree 2
@example(("list:1,1,2", 3, 2))
@example(("heisenberg", 3, 4))
@example(("list:2,3,1,4,1,5,9,2,6,5,3", 3, 3))
@example(("list:-1,1,1,1,1,1,1,1,1,1,1", 2, 2))
@settings(deadline=None, max_examples=100)
def test_skew_pf_check_matches_per_pair_scan(case):
    rep = _report_or_error(lambda a, r, w: pf_check(a, r, w, scan_skew=True), *case)
    assert rep == _report_or_error(pf_check_per_pair, *case)


def test_skew_pf_check_pins():
    rep = pf_check(HEIS, 3, 4, scan_skew=True)
    assert (rep.witness, rep.checked) == (((1, 1, 1), (), -2), 9)
    rep = pf_check(parse_sequence_spec("list:1,1,2"), 3, 2, scan_skew=True)
    assert (rep.witness, rep.checked) == (((1, 1), (), -1), 3)
    # a_0 = -1: the pair (1)/(1) is the first negative one
    rep = pf_check(parse_sequence_spec("list:-1,1,1,1"), 2, 2, scan_skew=True)
    assert (rep.witness, rep.checked) == (((1,), (1,), -1), 2)


def test_skew_pf_check_route(monkeypatch):
    """A unit a_0 takes one jt_minor per straight shape; any other a_0 one
    per pair of shapes."""
    calls = []
    minor = sequences.jt_minor
    monkeypatch.setattr(sequences, "jt_minor", lambda *args: calls.append(args) or minor(*args))
    rep = pf_check(Q3, 3, 4, scan_skew=True)
    box = list(scan_partitions(3, 4))
    assert len(calls) == len(box) == 34
    assert (rep.verdict, rep.checked) == ("positive-up-to-bounds", sum(len(list(subpartitions(lam))) for lam in box))
    calls.clear()
    rep = pf_check(LIST2, 3, 4, scan_skew=True)
    assert (rep.witness, rep.checked, len(calls)) == (((2, 1), (), -5), 13, 13)
    calls.clear()
    rep = pf_check(make_sequence("list", dims=(2, 1) + (0,) * 10), 3, 4, scan_skew=True)
    assert (rep.verdict, rep.checked, len(calls)) == ("positive-up-to-bounds", 489, 489)


@given(
    st.sampled_from(SCAN_SPECS + ("poly:3", "tensoralg:2", "quadric:3", "super:1,2")),
    st.integers(0, 4),
    st.integers(0, 4),
)
# at 3 x 3: no vanishing shape, a first vanishing shape that is no
# rectangle, a rectangle that is not the whole vanishing set, hook (2, 0)
@example("list:1,3,2,1,2,3,0,0,1,0", 3, 3)
@example("list:1,2,3,1,3,1,1,3,2,1", 3, 3)
@example("list:2,0,1,1,2,0,0,3,1,2", 3, 3)
@example("list:1,2,3,4,5,6,7,8,9,10", 3, 3)
@settings(deadline=None, max_examples=40)
def test_schur_profile_matches_pairwise(spec, r_max, s_max):
    a = parse_sequence_spec(spec)
    assert schur_dimension_profile(a, r_max, s_max) == schur_dimension_profile_pairwise(a, r_max, s_max)


def test_schur_profile_sweep_budget():
    # the 11 x 12 box's sweep could hold C(23, 11) = 1352078 subsets in one level
    with pytest.raises(ValueError, match="order 11, window 12 may hold 1352078 .* bound 262144"):
        schur_dimension_profile(Q3, 10, 11)


def test_pf_check_reads_the_whole_block():
    # the per-shape scan stops at (1, 1) = 1 - 2 and reads degrees up to 2;
    # the sweep finds it at window 2 and order 3, whose block reads degree 4
    short = parse_sequence_spec("list:1,1,2")
    assert pf_check_per_shape(short, 3, 2).witness == ((1, 1), (), -1)
    with pytest.raises(ValueError, match="beyond stored range"):
        pf_check(short, 3, 2)
    rep = pf_check(parse_sequence_spec("list:1,1,2,0,0"), 3, 2)
    assert (rep.witness, rep.checked) == (((1, 1), (), -1), 2)


def test_pf_check_class_above_expansion_bound():
    # order-9 class minors are beyond det_expand's bound, not the sweep's
    with pytest.raises(ValueError, match="exceeds expansion bound 8"):
        pf_check_per_shape(make_sequence("poly", m=2), 9, 1)
    rep = pf_check(make_sequence("poly", m=2), 9, 1)
    assert (rep.verdict, rep.checked) == ("positive-up-to-bounds", 9)


# Negative scans, integer and class, against the uncapped oracle: the named
# negative specs of SCAN_SPECS, lists drawn at random (zeros, negative terms
# and lists too short for the box included) and segre:poly:m,poly:n, whose
# first negative shape is (2, 2, 2).  Class boxes keep order + window <= 8.
NEGATIVE_SPECS = SCAN_SPECS[8:14]
RANDOM_LISTS = st.lists(st.integers(-2, 6), min_size=1, max_size=14).map(lambda xs: "list:" + ",".join(map(str, xs)))
CAPPED_CASES = st.one_of(
    st.tuples(st.one_of(st.sampled_from(NEGATIVE_SPECS), RANDOM_LISTS), st.integers(0, 6), st.integers(0, 8)),
    st.tuples(st.sampled_from(("segre:poly:2,poly:2", "segre:poly:2,poly:3")), st.integers(1, 5)).flatmap(
        lambda case: st.tuples(st.just(case[0]), st.just(case[1]), st.integers(1, 8 - case[1]))
    ),
)


@given(CAPPED_CASES)
@example(("segre:poly:2,poly:2", 4, 4))
@example(("hadamard:quadric:2,squares", 6, 8))
@example(("list:1,2,0,3,-1,1,1,1,1,1,1,1,1,1", 5, 8))
@settings(deadline=None, max_examples=150)
def test_capped_pf_check_matches_uncapped_scan(case):
    """The verdict, checked and witness, or the refusal, of the scan that
    caps its later windows below the least negative size, against growing
    boxes built whole."""
    assert _report_or_error(pf_check, *case) == _report_or_error(pf_check_uncapped, *case)


def test_negative_class_scan_route(monkeypatch):
    """pf_check(segre:poly:2,poly:2, 5, 5) finds (2, 2, 2), the 21st shape,
    at window 2, whose box takes 90 of the step's class products; windows 4
    and 5, capped at size 5, take 23 more.  Boxes built whole take 442
    products at (4, 5), and 1,128 in about 75 s at (5, 5)."""
    products = []
    signed_sum = determinant._signed_sum

    def counted(zero, triples, start=None):
        products.extend(triples)
        return signed_sum(zero, triples, start)

    monkeypatch.setattr(determinant, "_signed_sum", counted)
    rep = pf_check(parse_sequence_spec("segre:poly:2,poly:2"), 5, 5)
    assert (rep.verdict, rep.witness[0], rep.checked) == ("negative", (2, 2, 2), 21)
    assert len(products) <= 113


def test_integers_are_checked_not_truncated():
    """Each of these was truncated by int(), or failed with another
    exception, before every integer went through operator.index."""
    with pytest.raises(ValueError, match="a list value must be an integer, got 1.5"):
        make_sequence("list", dims=(1.5, 2.7))
    halves = GradedSequence("h", lambda seq, d: d / 2)
    with pytest.raises(ValueError, match="term 0 of h must be an integer, got 0.0"):
        halves.term(0)
    with pytest.raises(ValueError, match="a degree must be an integer, got 2.5"):
        Q3.term(2.5)
    with pytest.raises(ValueError, match="veronese d must be an integer, got 2.5"):
        veronese(Q3, 2.5)
    with pytest.raises(ValueError, match="the scan window must be an integer, got 2.0"):
        pf_check(Q3, 3, 2.0)
    # bools are integers, and a report prints them as such
    assert pf_check(Q3, True, True).to_json()["order"] == 1
    assert Q3.term(True) == Q3.term(1)
    # factor dimensions are read once, so a generator gives both the stored
    # dimensions and the factor count
    once = GradedSequence("once", POLY3.term_fn, (m for m in [3]))
    assert (once.factor_dims, once.factor_count, once.dims(2)) == ((3,), 1, POLY3.dims(2))


def _cap_answers(lam, d, m):
    """Minors, elementary classes and dimensions from fresh sequences."""
    poly, quad = make_sequence("poly", m=m), make_sequence("quadric", m=m + 1)
    ctx = QuadricContext(m + 1)
    return (
        jt_minor(poly, lam).to_json(),
        jt_minor(quad, lam),
        e_class(poly, d).to_json(),
        e_class(quad, d),
        dim_super(lam, m, 1),
        [quadric_schur_dim(ctx, lam, method) for method in METHODS],
    )


@given(partitions(max_size=6, max_part=3, max_length=3), st.integers(0, 8), st.integers(1, 3))
@settings(deadline=None, max_examples=15)
def test_answers_do_not_depend_on_cache_cap(lam, d, m):
    answers = {}
    for cap in (memo.CAP, 0, 1, 16):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(memo, "CAP", cap)
            for mod in (symfunc, quadric):
                for name in [name for name in vars(mod) if name.endswith("_CACHE")]:
                    mp.setattr(mod, name, {})
            answers[cap] = _cap_answers(lam, d, m)
    assert answers[0] == answers[1] == answers[16] == answers[memo.CAP]


def test_e_class_values():
    p = POLY3
    for d in range(5):
        cls = e_class(p, d)
        assert cls.dim((3,)) == binom(3, d)
    assert e_class(Q2, 0) == 1
    assert e_class(Q2, 1) == 2
    assert e_class(Q3.dim_view(), -1) == 0


def test_compositions_of():
    comps = list(compositions_of(3))
    assert sorted(comps) == sorted([(3,), (1, 2), (2, 1), (1, 1, 1)])
    assert list(compositions_of(0)) == [()]


# spec -> the largest degree checked: the composition sum has 2^(d-1)
# products, and those of the product sequences have the most terms
E_SPECS = {
    "poly:2": 10,
    "poly:3": 10,
    "tensoralg:2": 10,
    "quadric:3": 10,
    "qdual:3": 10,
    "heisenberg": 10,
    "super:2,1": 10,
    "quadric:1": 10,
    "tensor:(poly:2),(poly:2)": 6,
    "segre:poly:2,poly:2": 6,
    "veronese:poly:2,2": 6,
}


@given(st.sampled_from(sorted(E_SPECS)).flatmap(lambda s: st.tuples(st.just(s), st.integers(0, E_SPECS[s]))))
@settings(deadline=None, max_examples=50)
def test_e_class_matches_compositions(spec_d):
    spec, d = spec_d
    seq = parse_sequence_spec(spec)
    want = e_class_compositions(seq, d)
    assert e_class(seq, d) == want
    # a fresh sequence whose memo already holds the lower degrees agrees too
    warm = parse_sequence_spec(spec)
    e_class(warm, d // 2)
    assert e_class(warm, d) == want


@given(st.integers(1, 10))
@settings(deadline=None, max_examples=20)
def test_e_h_reciprocity(d):
    for seq in (Q2, Q3, HEIS):
        total = 0
        for i in range(d + 1):
            term = e_class(seq, i) * seq.term(d - i)
            total += -term if i % 2 else term
        assert total == 0
    acc = SchurClass.zero(1)
    for i in range(d + 1):
        term = e_class(POLY3, i) * POLY3.term(d - i)
        acc = acc + (-term if i % 2 else term)
    assert acc.is_zero()


@given(SKEW)
@settings(deadline=None, max_examples=30)
def test_transpose_duality(pair):
    lam, mu = pair
    assert transpose_duality_check(Q3, SkewShape(lam, mu))
    assert transpose_duality_check(Q2, SkewShape(lam, mu))


def test_transpose_duality_heisenberg():
    assert transpose_duality_check(HEIS, (2, 1))
    assert transpose_duality_check(HEIS, (1, 1, 1))


def test_veronese_identity_example():
    assert jt_minor(veronese(Q3.dim_view(), 2), (1, 1)) == 16
    assert jt_minor(Q3, SkewShape((3, 2), (1,))) == 16
    assert veronese_identity_check(Q3.dim_view(), 2, (1, 1))


@given(SKEW, st.integers(1, 3), st.integers(0, 2))
@settings(deadline=None, max_examples=30)
def test_veronese_identity_random(pair, d, extra):
    lam, mu = pair
    r = max(len(lam), len(mu), 1) + extra
    assert veronese_identity_check(Q3.dim_view(), d, SkewShape(lam, mu), r)
    assert veronese_identity_check(Q2.dim_view(), d, SkewShape(lam, mu), r)


@given(SKEW)
@settings(deadline=None, max_examples=25)
def test_tensor_cauchy_binet(pair):
    lam, mu = pair
    assert tensor_identity_check(Q2, Q2, SkewShape(lam, mu))
    assert tensor_identity_check(Q3.dim_view(), HEIS, SkewShape(lam, mu))


@given(partitions(max_size=5, max_part=4, max_length=3))
@settings(deadline=None, max_examples=12)
def test_tensor_cauchy_binet_class(lam):
    p2 = make_sequence("poly", m=2)
    assert tensor_identity_check(p2, p2, SkewShape(lam, ()))


def test_pieri_example():
    assert jt_minor(Q3, (1,)) * Q3.term(1) == 9
    assert jt_minor(Q3, (2,)) + jt_minor(Q3, (1, 1)) == 9
    assert pieri_identity_check(Q3, (1,), 1)


@given(SHAPES, st.integers(0, 4))
@settings(deadline=None, max_examples=40)
def test_pieri_random(lam, d):
    assert pieri_identity_check(Q3, lam, d)
    assert pieri_identity_check(HEIS, lam, d)


def test_index_to_shapes():
    lam, mu = index_to_shapes((1, 2), (2, 3))
    assert lam == (1, 1) and mu == ()
    lam, mu = index_to_shapes((1, 3), (2, 5))
    assert lam == (3, 1) and mu == (1,)
    with pytest.raises(ValueError):
        index_to_shapes((2, 1), (1, 2))
    with pytest.raises(ValueError):
        index_to_shapes((0, 1), (1, 2))
    with pytest.raises(ValueError):
        index_to_shapes((1,), (1, 2))


def test_minor_from_indices_example():
    assert minor_from_indices(Q3, (1, 2), (2, 3)) == 4
    # index sets given as iterators are read once
    assert minor_from_indices(Q3, iter((1, 2)), iter((2, 3))) == 4
    # the minor has one row per index, so with a_0 = 2 the sets (1, 2), (1, 2) give a_0^2
    assert minor_from_indices(parse_sequence_spec("list:2,1"), (1, 2), (1, 2)) == 4
    with pytest.raises(ValueError, match=r"index sets give mu \(1, 1\) not inside lambda \(\)"):
        minor_from_indices(Q3, (2, 3), (1, 2))


@given(
    st.sets(st.integers(1, 9), min_size=1, max_size=3),
    st.lists(st.integers(0, 4), min_size=3, max_size=3),
    st.sampled_from(("list:2,1,3,0,1,2,1,1,2,1,1,4,1,2", "poly:2", "tensoralg:2")),
)
@settings(deadline=None, max_examples=40)
def test_minor_from_indices_matches_jt(j_set, bumps, spec):
    j_idx = tuple(sorted(j_set))
    steps = sorted(bumps)[: len(j_idx)]
    i_idx = tuple(j + c for j, c in zip(j_idx, sorted(steps)))
    lam, mu = index_to_shapes(j_idx, i_idx)
    assert minor_from_indices(Q3, j_idx, i_idx) == jt_minor(Q3, SkewShape(lam, mu))
    assert minor_from_indices(HEIS, j_idx, i_idx) == jt_minor(HEIS, SkewShape(lam, mu))
    # a_0 != 1 and class values, against the Toeplitz matrix itself
    a = parse_sequence_spec(spec)
    assert minor_from_indices(a, j_idx, i_idx) == minor_by_toeplitz(a, j_idx, i_idx)


def test_parse_sequence_spec():
    assert parse_sequence_spec("quadric:3").name == "quadric:3"
    assert parse_sequence_spec("poly:2").value_kind == "class"
    assert parse_sequence_spec("squares").term(2) == 9
    assert parse_sequence_spec("heisenberg").term(2) == 4
    assert parse_sequence_spec("heisenberg:3").term(2) == 7
    assert parse_sequence_spec("super:2,1").term(2) == 5
    assert parse_sequence_spec("list:1,2,2,2").term(3) == 2
    v = parse_sequence_spec("veronese:poly:2,2")
    assert [v.dims(i) for i in range(3)] == [1, 3, 5]
    h = parse_sequence_spec("hadamard:quadric:2,squares")
    assert h.term(2) == 18
    t = parse_sequence_spec("tensor:(quadric:2),(quadric:2)")
    assert t.term(2) == 8
    s = parse_sequence_spec("segre:quadric:2,quadric:2")
    assert s.term(2) == 4
    n = parse_sequence_spec("hadamard:list:1,2,3,squares")
    assert [n.term(i) for i in range(3)] == [1, 8, 27]
    unparsable = ("", "poly", "poly:x", "veronese:poly:2", "what:3", "squares:3", "heisenberg:", "list:", "poly:2,3")
    # 128 separators are accepted, 129 are not
    assert parse_sequence_spec("list:" + ",".join(["1"] * 128)).term(127) == 1
    for bad, message in [(b, f"cannot parse sequence spec {b!r}") for b in unparsable] + [
        ("quadric:0", "quadric needs m >= 1"),
        ("quadric_dual:0", "qdual needs m >= 1"),
        ("list:" + ",".join(["1"] * 129), "sequence spec has 129 separators (':', ',' and '('), more than 128"),
    ]:
        with pytest.raises(ValueError) as err:
            parse_sequence_spec(bad)
        assert str(err.value) == message


@pytest.mark.parametrize("spec, separators", RUNAWAY_SPECS.values(), ids=RUNAWAY_SPECS)
def test_spec_separator_bound(spec, separators):
    start = time.perf_counter()
    with pytest.raises(ValueError) as err:
        parse_sequence_spec(spec)
    assert time.perf_counter() - start < 1.0
    assert str(err.value) == f"sequence spec has {separators} separators (':', ',' and '('), more than 128"


def test_every_spec_in_the_repo_is_within_the_bound():
    """Each spec-like word of the tests, the benchmark's workloads, the
    scripts, README and docs meets the separator bound: it parses, or it is
    refused for another reason (the tests' deliberately bad specs)."""
    root = Path(__file__).resolve().parents[1]
    texts = [root / "README.md", root / "bench" / "workloads.py", *root.glob("tests/*.py"), *root.glob("scripts/*.py")]
    texts += root.glob("docs/*")
    heads = sorted({*sequences._KINDS, *sequences._ALIASES, "veronese", "hadamard", "tensor", "segre"}, key=len)
    pattern = rf"(?<![\w-])(?:{'|'.join(heads[::-1])})(?::[\w:,()-]*)?"
    specs = {spec for path in texts for spec in re.findall(pattern, path.read_text())}
    parsed = set()
    for spec in specs:
        try:
            parse_sequence_spec(spec)
        except ValueError as e:
            assert "separators" not in str(e), spec
        else:
            parsed.add(spec)
    assert "list:2,3,1,4,1,5,9,2,6,5,3,5,8,9,7,9,3,2,3,8,4,6" in parsed and len(parsed) > 50


def test_nested_spec_parses_each_substring_once(monkeypatch):
    """Each tensor cut tries every prefix as its left side; one parse of each
    substring per parse_sequence_spec call keeps a deep spec polynomial in
    its depth, not exponential."""
    calls = []
    real = sequences._strip_parens
    monkeypatch.setattr(sequences, "_strip_parens", lambda text: calls.append(text) or real(text))
    assert parse_sequence_spec("tensor:" * 16 + "quadric:2" + ",quadric:2" * 16).term(1) == 17 * 2
    assert len(calls) < 1000
    deep = parse_sequence_spec("tensor:" * 40 + "quadric:2" + ",quadric:2" * 40)
    # the product of the 41 factors' series, up to degree 2
    q2 = make_sequence("quadric", m=2)
    want = [1, 0, 0]
    for _ in range(41):
        want = [sum(want[i] * q2.term(d - i) for i in range(d + 1)) for d in range(3)]
    assert [deep.term(d) for d in range(3)] == want
    # a builder's ValueError still escapes from inside the nesting
    with pytest.raises(ValueError, match="^quadric needs m >= 1$"):
        parse_sequence_spec("tensor:" * 3 + "quadric:2" + ",quadric:2" * 2 + ",quadric:0")


@pytest.mark.parametrize(
    "kind, params, name",
    [
        ("poly", {"m": 2}, "poly:2"),
        ("polynomial", {"m": 3}, "poly:3"),
        ("tensoralg", {"m": 2}, "tensoralg:2"),
        ("tensor_algebra", {"m": 3}, "tensoralg:3"),
        ("quadric", {"m": 3}, "quadric:3"),
        ("qdual", {"m": 3}, "qdual:3"),
        ("quadric_dual", {"m": 4}, "qdual:4"),
        ("super", {"r": 0, "s": 2}, "super:0,2"),
        ("heisenberg", {}, "heisenberg:2"),
        ("heisenberg", {"u": 3}, "heisenberg:3"),
        ("squares", {}, "squares"),
        ("list", {"dims": (1, 2, 2, 2)}, "list:1,2,2,2"),
    ],
)
def test_every_kind_round_trips_through_its_spec(kind, params, name):
    built = make_sequence(kind, **params)
    parsed = parse_sequence_spec(built.name)
    assert built.name == parsed.name == name
    assert (built.value_kind, built.factor_dims) == (parsed.value_kind, parsed.factor_dims)
    assert [built.term(d) for d in range(4)] == [parsed.term(d) for d in range(4)]


def test_schur_profiles():
    assert schur_dimension_profile(make_sequence("tensoralg", m=2), 3, 3) == (1, 0)
    assert schur_dimension_profile(Q2, 3, 3) == (1, 1)
    assert schur_dimension_profile(Q3, 4, 4) == (2, 1)
    assert schur_dimension_profile(make_sequence("quadric", m=4), 4, 4) == (3, 1)
    assert schur_dimension_profile(POLY3, 4, 4) == (3, 0)
    assert schur_dimension_profile(veronese(make_sequence("poly", m=2).dim_view(), 3), 3, 3) == (2, 1)
    assert schur_dimension_profile(HEIS, 3, 3) is None


def test_hs_series():
    s = hs_series(Q3, 5)
    assert s.univariate_coeffs() == [1, 3, 5, 7, 9, 11]
    assert hs_series(POLY3, 3).univariate_coeffs() == [1, 3, 6, 10]


# Touches every cache in the package and prints the cap, each cache's size
# and every answer, as JSON.
_CACHE_PROBE = """
import json
from jtkit import memo, quadric, symfunc
from jtkit.quadric import METHODS, QuadricContext, orthogonal_stable_decomposition, quadric_schur_dim
from jtkit.sequences import e_class, jt_minor, make_sequence
from jtkit.shapes import SkewShape, scan_partitions, subpartitions
from jtkit.symfunc import dim_gl_skew, dim_super, skew_to_straight

poly, quad = make_sequence("poly", m=2), make_sequence("quadric", m=3)
ctx, big = QuadricContext(3), QuadricContext(6)
out = []
for lam in scan_partitions(3, 3):
    out += [jt_minor(poly, lam).to_json(), jt_minor(quad, lam)]
    for mu in subpartitions(lam):
        s = SkewShape(lam, mu)
        out += [skew_to_straight(s).to_json(), dim_gl_skew(s, 3), dim_super(lam, 2, 1, mu)]
        out += [quadric_schur_dim(ctx, s, method) for method in METHODS]
    if 2 * len(lam) <= big.m:
        dec = orthogonal_stable_decomposition(big, lam)
        out += [dec.to_json(), dec.dimension()]
out += [[e_class(poly, d).to_json(), e_class(quad, d)] for d in range(20)]
caches = {name: len(cache) for mod in (symfunc, quadric) for name, cache in vars(mod).items() if name.endswith("_CACHE")}
for seq in (poly, quad):
    caches.update({f"{seq.name}.{name}": len(getattr(seq, name)) for name in ("_terms", "_eclasses")})
print(json.dumps({"cap": memo.CAP, "caches": caches, "answers": out}))
"""


# a child interpreter imports jtkit from this checkout, installed or not
SRC_ENV = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}


def _probe_caches(raw_cap):
    env = dict(SRC_ENV)
    env.pop("JTKIT_CACHE_SIZE", None)
    if raw_cap is not None:
        env["JTKIT_CACHE_SIZE"] = raw_cap
    out = subprocess.run([sys.executable, "-c", _CACHE_PROBE], capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout)


def test_cache_size_env_round_trip():
    default = _probe_caches(None)
    assert default["cap"] == 1 << 20
    assert len(default["caches"]) == 9  # five module caches, two for each of two sequences
    assert min(default["caches"].values()) > 16  # the probe fills every cache past the small caps
    for raw, cap in (("0", 0), ("16", 16)):
        run = _probe_caches(raw)
        assert run["cap"] == cap
        assert {name: size for name, size in run["caches"].items() if size > cap} == {}
        assert run["answers"] == default["answers"]
    malformed = _probe_caches("not-a-number")
    assert malformed["cap"] == 1 << 20
    assert malformed["caches"] == default["caches"]
    assert malformed["answers"] == default["answers"]


def test_memo_put_is_write_once_and_capped(monkeypatch):
    monkeypatch.setattr(memo, "CAP", 2)
    cache = {}
    assert memo.memo_put(cache, "a", 1) == 1
    assert memo.memo_put(cache, "a", 2) == 1  # an existing entry wins
    assert memo.memo_put(cache, "b", 3) == 3
    assert memo.memo_put(cache, "c", 4) == 4  # full: returned, not stored
    assert cache == {"a": 1, "b": 3}


# Each input check below must raise ValueError even with asserts stripped.
_OPTIMIZED_CHECKS = """
from jtkit.powerseries import TruncSeries
from jtkit.shapes import Partition, Permutation
from jtkit.symfunc import dim_gl, dim_super

assert not __debug__
x = TruncSeries.var(2, 3, 0)
checks = {
    "TruncSeries nvars": lambda: TruncSeries(0, 3),
    "TruncSeries trunc": lambda: TruncSeries(1, -1),
    "TruncSeries exponent length": lambda: TruncSeries(2, 3, {(1,): 1}),
    "TruncSeries exponent sign": lambda: TruncSeries(2, 3, {(1, -1): 1}),
    "TruncSeries _check": lambda: x + TruncSeries.var(2, 4, 0),
    "TruncSeries __pow__": lambda: x ** -1,
    "TruncSeries embed": lambda: x.embed(3, (0,)),
    "TruncSeries univariate_coeffs": lambda: x.univariate_coeffs(),
    "dim_gl": lambda: dim_gl((1,), -1),
    "dim_super": lambda: dim_super((1,), -1, 1),
    "Partition.part": lambda: Partition((2, 1)).part(0),
    "Permutation.apply": lambda: Permutation((2, 1)).apply((1, 2, 3)),
}
for name, check in checks.items():
    try:
        check()
    except ValueError:
        continue
    print(name)
"""


def test_input_checks_survive_optimized_mode():
    out = subprocess.run([sys.executable, "-O", "-c", _OPTIMIZED_CHECKS], capture_output=True, text=True, env=SRC_ENV)
    assert out.returncode == 0, out.stderr
    assert out.stdout == ""


def test_repeat_evaluation_deterministic():
    a = make_sequence("quadric", m=3)
    first = [jt_minor(a, s) for s in ((2, 1), (3, 2), (2, 2, 1))]
    again = [jt_minor(a, s) for s in ((2, 1), (3, 2), (2, 2, 1))]
    assert first == again
    b = make_sequence("quadric", m=3)
    fresh = [jt_minor(b, s) for s in ((2, 1), (3, 2), (2, 2, 1))]
    assert fresh == first
