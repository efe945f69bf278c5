"""End-to-end acceptance checks.

Each test covers one numbered criterion and prints a single PASS line with
its runtime; a pytest failure line is the corresponding FAIL marker.  Run
with -s (or read the captured output) to see the lines.
"""
from __future__ import annotations

import random
import time

from jtkit.quadric import (
    METHODS,
    QuadricContext,
    multigraded_hs_check,
    orthogonal_stable_decomposition,
    quadric_schur_dim,
)
from jtkit.resolutions import (
    efw_partitions,
    hk_solve,
    quadric_pure_resolution,
    validate_purity,
)
from jtkit.sequences import (
    hadamard,
    jt_minor,
    make_sequence,
    pf_check,
    schur_dimension_profile,
    segre,
    tensor_identity_check,
    veronese_identity_check,
)
from jtkit.shapes import SkewShape, partitions_of, subpartitions
from jtkit.symfunc import binom, dim_gl
from jtkit.zelevinsky import euler_check

from oracles import pieri_identity_check, transpose_duality_check


def _report(num, desc, start, budget=None):
    elapsed = time.perf_counter() - start
    print(f"criterion {num:2d} PASS {desc} ({elapsed:.2f}s)")
    if budget is not None:
        assert elapsed < budget, f"criterion {num} took {elapsed:.2f}s, budget {budget}s"


def _all_shapes(max_size):
    out = [()]
    for size in range(1, max_size + 1):
        out.extend(partitions_of(size))
    return out


def test_criterion_01_segre_expansion():
    t0 = time.perf_counter()
    a = segre(make_sequence("poly", m=2), make_sequence("poly", m=2))
    value = jt_minor(a, (2, 2, 2))
    assert value.support_size() == 21
    assert value.coefficient(((3, 3), (5, 1))) == -1
    assert value.coefficient(((2, 2, 2), (6,))) == 1
    row = {
        pair[1]: coeff
        for pair, coeff in value.terms.items()
        if pair[0] == (2, 2, 2)
    }
    assert row == {
        (6,): 1,
        (5, 1): 2,
        (4, 2): 3,
        (4, 1, 1): 1,
        (3, 3): 1,
        (3, 2, 1): 2,
        (2, 2, 2): 1,
    }
    # swap symmetry of the two factors
    for pair, coeff in value.terms.items():
        assert value.coefficient((pair[1], pair[0])) == coeff
    _report(1, "Segre functor expansion, 21 exact terms", t0, budget=5.0)


def test_criterion_02_heisenberg_witness():
    t0 = time.perf_counter()
    h = make_sequence("heisenberg", u=2)
    assert jt_minor(h, (1, 1, 1)) == -2
    rep = pf_check(h, max_order=3, window=3)
    assert rep.verdict == "negative"
    assert rep.witness[0] == (1, 1, 1) and rep.witness[2] == -2
    _report(2, "Heisenberg order-3 minor equals -2", t0)


def test_criterion_03_tensoralg_boundary():
    t0 = time.perf_counter()
    t = make_sequence("tensoralg", m=2)
    assert jt_minor(t, (1, 1)).is_zero()
    assert schur_dimension_profile(t, 3, 3) == (1, 0)
    _report(3, "free tensor algebra kills the column functor, profile (1,0)", t0)


def test_criterion_04_quadric_triple_route():
    t0 = time.perf_counter()
    shapes = _all_shapes(8)
    for m in (2, 3, 4, 5):
        ctx = QuadricContext(m)
        for lam in shapes:
            for mu in subpartitions(lam):
                shape = SkewShape(lam, mu)
                vals = {quadric_schur_dim(ctx, shape, method) for method in METHODS}
                assert len(vals) == 1, (m, lam, mu, vals)
            straight = quadric_schur_dim(ctx, lam)
            lam_m = lam[m - 1] if len(lam) >= m else 0
            assert (straight == 0) == (lam_m > 1), (m, lam)
    _report(4, "three quadric routes agree on every skew shape up to size 8", t0, budget=60.0)


def test_criterion_05_quadric_resolutions():
    t0 = time.perf_counter()
    t = quadric_pure_resolution(3, (1, 1, 1))
    assert [r.rank for r in t.rows[:3]] == [1, 3, 4]
    rep = validate_purity(t, make_sequence("quadric", m=3))
    assert rep.is_polynomial and rep.coefficients == (1,)
    t = quadric_pure_resolution(3, (1, 1, 2))
    assert [r.rank for r in t.rows] == [4, 8, 4]
    rep = validate_purity(t, make_sequence("quadric", m=3))
    assert rep.coefficients == (4, 4)
    rng = random.Random(20260822)
    for _ in range(5):
        m = rng.randint(2, 4)
        e = tuple(rng.randint(1, 3) for _ in range(m - 1)) + (1,)
        table = quadric_pure_resolution(m, e, tail_terms=11)
        assert table.tail is not None
        base = table.rank_at(m - 1)
        for j in range(11):
            assert table.rank_at(m - 1 + j) == base, (m, e, j)
        rep = validate_purity(table, make_sequence("quadric", m=m))
        assert rep.is_polynomial and rep.nonnegative, (m, e)
    _report(5, "quadric pure resolutions and constant tails", t0, budget=30.0)


def test_criterion_06_herzog_kuhl_branches():
    t0 = time.perf_counter()
    want = {
        (0, 1, 2): ((1, 3, 4), (1, 2, 1)),
        (0, 1, 3): ((3, 5, 4), (2, 3, 1)),
        (0, 2, 3): ((1, 5, 8), (1, 3, 2)),
    }
    for twists, (tail, finite) in want.items():
        sol = hk_solve(twists)
        assert sol.tail == tail, twists
        assert sol.finite == finite, twists
    _report(6, "rank conditions solved on both branches for three twist triples", t0)


def test_criterion_07_shift_ladder():
    t0 = time.perf_counter()
    lams = efw_partitions((2, 1, 2, 3), 5)
    assert [tuple(l.parts) for l in lams] == [
        (3, 3, 2),
        (5, 3, 2),
        (5, 4, 2),
        (5, 4, 4),
        (5, 4, 4, 3),
    ]
    _report(7, "partition ladder for shifts (2,1,2,3)", t0)


def test_criterion_08_hadamard_witness():
    t0 = time.perf_counter()
    q2 = make_sequence("quadric", m=2)
    sq = make_sequence("squares")
    h = hadamard(q2, sq)
    assert jt_minor(h, (2, 2, 2)) == -60
    rep = pf_check(h, max_order=4, window=8)
    assert rep.verdict == "negative"
    assert rep.witness[0] == (2, 2, 2) and rep.witness[2] == -60
    for factor in (q2, sq):
        frep = pf_check(factor, max_order=4, window=8)
        assert frep.verdict == "positive-up-to-bounds", factor.name
    # the Hilbert numerator over (1-t)^3; the series actually starts with a
    # constant term, unlike the 4t leading form sometimes quoted for it
    dims = [h.term(d) for d in range(10)]
    numerator = [
        sum((-1) ** k * binom(3, k) * dims[d - k] for k in range(min(d, 3) + 1))
        for d in range(10)
    ]
    assert numerator[:4] == [1, 5, -3, 1]
    assert all(c == 0 for c in numerator[4:])
    print(
        "criterion  8 NOTE numerator is 1+5t-3t^2+t^3 over (1-t)^3, "
        "not the quoted 4t-3t^2+t^3 (logged, not asserted)"
    )
    _report(8, "Hadamard product loses positivity with witness -60", t0)


def test_criterion_09_randomized_identities():
    t0 = time.perf_counter()
    rng = random.Random(97)
    q3 = make_sequence("quadric", m=3)
    q2 = make_sequence("quadric", m=2)
    heis = make_sequence("heisenberg", u=2)
    pool = _all_shapes(6)

    def pick_shape():
        return pool[rng.randrange(len(pool))]

    def pick_inner(lam):
        while True:
            mu = pick_shape()
            if len(mu) <= len(lam) and all(mu[i] <= lam[i] for i in range(len(mu))):
                return mu

    for _ in range(40):
        lam = pick_shape()
        mu = pick_inner(lam)
        shape = SkewShape(lam, mu)
        d = rng.randint(1, 3)
        r = max(len(lam), len(mu), 1) + rng.randint(0, 2)
        assert pieri_identity_check(q3, lam, d)
        assert transpose_duality_check(q3, shape)
        assert transpose_duality_check(heis, shape)
        assert veronese_identity_check(q3, d, shape, r)
        assert tensor_identity_check(q2, q2, shape)
        assert jt_minor(q3, shape) == jt_minor(q3, shape, r)

    # dimension form of the coproduct identity: minors against GL dimensions
    # recover the coefficients of powers of the Hilbert series
    for m in (2, 3):
        a = make_sequence("quadric", m=m)
        dims = [a.term(d) for d in range(9)]
        for n in (1, 2, 3):
            power = [0] * 9
            power[0] = 1
            for _ in range(n):
                power = [
                    sum(power[i] * dims[d - i] for i in range(d + 1)) for d in range(9)
                ]
            for deg in range(9):
                total = 0
                for lam in partitions_of(deg) if deg else [()]:
                    if len(lam) > n:
                        continue
                    total += jt_minor(a, lam) * dim_gl(lam, n)
                assert total == power[deg], (m, n, deg)

    # Euler characteristics of the staircase complexes match the minors
    for seq in (
        q3,
        make_sequence("quadric", m=4),
        make_sequence("poly", m=2),
        make_sequence("super", r=2, s=1),
        make_sequence("tensoralg", m=2),
    ):
        done = 0
        while done < 8:
            lam = pick_shape()
            if len(lam) > 3:
                continue
            n = min(max(len(lam), 1) + rng.randint(0, 1), 4)
            assert euler_check(seq, lam, n=n), (seq.name, lam, n)
            done += 1
    _report(9, "randomized identity suites", t0, budget=120.0)


def test_criterion_10_orthogonal_decomposition():
    t0 = time.perf_counter()
    for lam in _all_shapes(6):
        base = 2 * max(len(lam), 1)
        for m in (base, base + 1, base + 2):
            ctx = QuadricContext(m)
            dec = orthogonal_stable_decomposition(ctx, lam)
            assert dec.dimension() == quadric_schur_dim(ctx, lam), (lam, m)
            assert all(mult > 0 for _, mult in dec.entries)
    ctx = QuadricContext(40)
    dec = orthogonal_stable_decomposition(ctx, (8, 6, 4, 2))
    assert dec.dimension() == quadric_schur_dim(ctx, (8, 6, 4, 2))
    _report(10, "stable orthogonal decompositions match functor dimensions", t0, budget=5.0)


def test_criterion_11_multigraded_series():
    t0 = time.perf_counter()
    for m in (1, 2, 3, 4):
        for n in (1, 2, 3):
            rep = multigraded_hs_check(m, n, trunc=8)
            assert rep["ok"], (m, n)
    _report(11, "multigraded Hilbert series factorization", t0)
