from __future__ import annotations

import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jtkit import symfunc
from jtkit.shapes import SkewShape, as_parts, conjugate, subpartitions
from jtkit.symfunc import (
    _MULT_CACHE,
    _record,
    _strip_count,
    _strip_shapes,
    SchurClass,
    dim_gl,
    dim_gl_skew,
    dim_super,
    external_product,
    lr_coefficient,
    mult_one,
    pieri_extensions,
    skew_contents,
    skew_to_straight,
)

from conftest import partitions, sub_partition
from oracles import (
    class_mul_by_partials,
    dim_super_forward,
    mult_one_given_order,
    poly_combine,
    poly_mul,
    schur_monomials,
    ssyt_count,
    strips_by_recursion,
    super_count,
    super_fillings,
)

SMALL = partitions(max_size=6, max_part=5, max_length=4)
MEDIUM = partitions(max_size=8, max_part=6, max_length=4)
SKEW = MEDIUM.flatmap(lambda lam: st.tuples(st.just(lam), sub_partition(lam)))
SKEW_12 = partitions(max_size=12, max_part=12, max_length=12).flatmap(
    lambda lam: st.tuples(st.just(lam), sub_partition(lam))
)


def test_mult_one_hand_values():
    assert mult_one((1,), (1,)) == {(2,): 1, (1, 1): 1}
    assert mult_one((1,), (2,)) == {(3,): 1, (2, 1): 1}
    assert mult_one((2,), (1, 1)) == {(3, 1): 1, (2, 1, 1): 1}
    assert mult_one((2, 1), ()) == {(2, 1): 1}
    assert mult_one((), ()) == {(): 1}


@given(SMALL, SMALL)
@settings(deadline=None, max_examples=60)
def test_mult_one_symmetric(mu, nu):
    """mult_one swaps its arguments into one canonical order; the strip
    chains taken in each given order must both agree with it."""
    want = mult_one(mu, nu)
    assert mult_one(nu, mu) == want
    assert mult_one_given_order(mu, nu) == want
    assert mult_one_given_order(nu, mu) == want


def test_mult_one_shares_one_cache_entry():
    mu, nu = (4, 2, 1), (3, 3)
    for key in ((mu, nu), (nu, mu)):
        _MULT_CACHE.pop(key, None)
    size = len(_MULT_CACHE)
    assert mult_one(mu, nu) == mult_one(nu, mu)
    assert len(_MULT_CACHE) == size + 1
    assert ((mu, nu) in _MULT_CACHE) != ((nu, mu) in _MULT_CACHE)


def _classes(k: int):
    keys = st.tuples(*[partitions(max_size=5, max_part=4, max_length=3)] * k)
    coeffs = st.integers(-3, 3).filter(bool)
    return st.dictionaries(keys, coeffs, max_size=3).map(lambda terms: SchurClass(k, terms))


@given(st.integers(1, 2).flatmap(lambda k: st.tuples(_classes(k), _classes(k))))
@settings(deadline=None, max_examples=80)
def test_class_product_matches_partials_oracle(pair):
    """Products from a cold LR memo and from a warm one, in both argument
    orders, equal the term-by-term oracle, and the memo keeps one entry per
    unordered factor pair."""
    a, b = pair
    want = class_mul_by_partials(a, b)
    _MULT_CACHE.clear()
    assert a * b == want
    assert b * a == want
    assert a * b == want
    for key1 in a.terms:
        for key2 in b.terms:
            for mu, nu in zip(key1, key2):
                assert (mu, nu) in _MULT_CACHE or (nu, mu) in _MULT_CACHE
    assert len(_MULT_CACHE) == len({frozenset(key) for key in _MULT_CACHE})


def test_mult_one_result_is_a_copy():
    """Mutating a returned expansion must not reach the memo, and so must
    not change later products."""
    got = mult_one((1,), (1,))
    got[(2,)] = 5
    assert mult_one((1,), (1,)) == {(2,): 1, (1, 1): 1}
    assert (SchurClass.schur((1,)) * SchurClass.schur((1,))).coefficient(((2,),)) == 1


@given(SMALL, SMALL)
@settings(deadline=None, max_examples=40)
def test_mult_one_against_monomials(mu, nu):
    nvars = 4
    got = poly_combine(mult_one(mu, nu), nvars)
    want = poly_mul(schur_monomials(mu, (), nvars), schur_monomials(nu, (), nvars))
    assert got == want


@given(SKEW, SMALL)
@settings(deadline=None, max_examples=60)
def test_lr_routes_agree(pair, nu):
    """The tableau-filling route and the iterated-Pieri route are independent
    implementations; they must produce the same coefficient."""
    lam, mu = pair
    got = lr_coefficient(lam, mu, nu)
    want = mult_one(mu, nu).get(lam, 0)
    assert got == want


def test_lr_basics():
    assert lr_coefficient((2,), (1,), (1,)) == 1
    assert lr_coefficient((1, 1), (1,), (1,)) == 1
    assert lr_coefficient((3,), (1,), (1,)) == 0
    assert lr_coefficient((2, 1), (1,), (2,)) == 1
    assert lr_coefficient((1, 1, 1), (1,), (2,)) == 0
    assert lr_coefficient((2, 2), (2,), (2,)) == 1
    assert lr_coefficient((2, 2), (2,), (1, 1)) == 0
    assert lr_coefficient((2, 1, 1), (2,), (1, 1)) == 1
    assert lr_coefficient((4,), (2,), (2,)) == 1


@given(SKEW)
@settings(deadline=None, max_examples=60)
def test_skew_contents_match_lr(pair):
    lam, mu = pair
    tally = skew_contents(SkewShape(lam, mu))
    for nu, coeff in tally.items():
        assert coeff == lr_coefficient(lam, mu, nu)
    assert sum(c * dim_gl(nu, 3) for nu, c in tally.items()) == dim_gl_skew(SkewShape(lam, mu), 3)


def test_skew_contents_result_is_a_copy():
    shape = SkewShape((2, 1), (1,))
    tally = skew_contents(shape)
    tally[(2,)] = 7
    assert skew_contents(shape) == {(2,): 1, (1, 1): 1}
    assert skew_to_straight(shape) == SchurClass(1, {((2,),): 1, ((1, 1),): 1})


def test_dim_gl_values():
    assert dim_gl((), 3) == 1
    assert dim_gl((1,), 4) == 4
    assert dim_gl((2, 2), 2) == 1
    assert dim_gl((3, 2), 2) == 2
    assert dim_gl((3, 3), 2) == 1
    assert dim_gl((2, 1), 2) == 2
    assert dim_gl((2, 1), 3) == 8
    assert dim_gl((1, 1, 1), 2) == 0


@given(MEDIUM, st.integers(0, 4))
@settings(deadline=None, max_examples=80)
def test_dim_gl_counts_tableaux(lam, m):
    assert dim_gl(lam, m) == ssyt_count(lam, (), m)


@given(SKEW, st.integers(0, 4))
@settings(deadline=None, max_examples=60)
def test_dim_gl_skew_counts_tableaux(pair, m):
    lam, mu = pair
    assert dim_gl_skew(SkewShape(lam, mu), m) == ssyt_count(lam, mu, m)


@given(MEDIUM, st.integers(0, 3), st.integers(0, 3))
@settings(deadline=None, max_examples=60)
def test_dim_super_hook_split(lam, r, s):
    assert dim_super(lam, r, s) == super_count(lam, (), r, s)


@given(SKEW, st.integers(0, 3), st.integers(0, 2))
@settings(deadline=None, max_examples=40)
def test_dim_super_skew_hook_split(pair, r, s):
    lam, mu = pair
    assert dim_super(lam, r, s, mu) == super_count(lam, mu, r, s)


@given(SKEW, st.integers(0, 3), st.integers(0, 3))
@example(((3, 2), ()), 2, 1)
@example(((4, 3, 1), (2, 1)), 1, 2)
@settings(deadline=None, max_examples=60)
def test_dim_super_matches_direct_filling(pair, r, s):
    """The strip-chain DP against the cell-by-cell backtracker, straight
    and skew."""
    lam, mu = pair
    assert dim_super(lam, r, s, mu) == super_fillings(lam, mu, r, s)


@given(SKEW_12, st.integers(0, 8), st.integers(0, 8))
@example(((5, 5, 4, 4), ()), 4, 4)
@example(((6, 5, 4, 3, 2, 1), ()), 3, 2)
@example(((7, 6, 5, 4, 3, 2, 1), ()), 2, 2)
@example(((7, 6, 5, 4, 3, 2, 1), (2, 1)), 5, 1)
@example(((4, 4, 4, 4, 4), ()), 10, 10)
@example(((9, 7, 5, 3, 1), ()), 1, 0)
@example(((6, 6, 6, 6), ()), 3, 3)
@example(((5, 4, 3, 2, 1), (1,)), 2, 4)
@example(((1,), ()), 200000, 0)
@settings(deadline=None, max_examples=100)
def test_dim_super_matches_forward_dp(pair, r, s):
    """The chains that meet in the middle against the strips all grown
    forward from mu, straight and skew."""
    lam, mu = pair
    assert dim_super(lam, r, s, mu) == dim_super_forward(lam, r, s, mu)


def test_dim_super_pinned():
    # a count too large to enumerate quickly, and a shape outside the
    # (4, 4) hook, which must vanish without a search
    assert dim_super((5, 5, 4, 4), 4, 4) == 393216
    assert dim_super((10, 9, 8, 7, 6), 4, 4) == 0


def test_dim_super_many_letters():
    """Far more letters than boxes: only the nonempty strips are added, so
    the cost does not grow with r or s."""
    start = time.perf_counter()
    assert dim_super((1,), 200000, 0) == 200000
    assert time.perf_counter() - start < 0.1
    assert dim_super((3, 2, 1), 1000, 0) == dim_gl((3, 2, 1), 1000)
    assert dim_super((3, 2, 1), 0, 1000) == dim_gl((3, 2, 1), 1000)
    assert dim_super((4, 2), 40, 3, (1,)) == super_count((4, 2), (1,), 40, 3)


@given(MEDIUM, st.integers(0, 3), st.integers(0, 3))
@settings(deadline=None, max_examples=60)
def test_dim_super_vanishing_law(lam, r, s):
    inside_hook = len(lam) <= r or lam[r] <= s
    assert (dim_super(lam, r, s) > 0) == inside_hook


@given(MEDIUM, st.integers(0, 4))
@settings(deadline=None, max_examples=40)
def test_dim_super_degenerations(lam, m):
    assert dim_super(lam, m, 0) == dim_gl(lam, m)
    assert dim_super(lam, 0, m) == dim_gl(conjugate(lam), m)


def test_dim_super_bad_inner():
    with pytest.raises(ValueError):
        dim_super((1,), 1, 1, (2,))


def test_pieri_extensions():
    assert pieri_extensions((2, 1), 2) == [(2, 2, 1), (3, 1, 1), (3, 2), (4, 1)]
    assert pieri_extensions((), 3) == [(3,)]
    assert pieri_extensions((1,), 0) == [(1,)]


def test_pieri_extensions_refuses_negative_k():
    for lam in ((), (2, 1), (50, 40, 30, 20, 10)):
        with pytest.raises(ValueError, match="pieri_extensions needs k >= 0, got -1"):
            pieri_extensions(lam, -1)


@given(SMALL, st.integers(0, 3))
@settings(deadline=None, max_examples=40)
def test_pieri_matches_mult(lam, d):
    want = mult_one(lam, (d,) if d else ())
    got = pieri_extensions(lam, d)
    assert set(got) == set(want)
    assert all(c == 1 for c in want.values())


@st.composite
def _strip_inputs(draw):
    """(cur, k, prev_cum) for a strip kernel: a base of up to 12 rows (the
    empty base and staircases among them), grown by up to two earlier
    letters, so that cur and prev_cum are a shape and record that the
    recursion oracle itself yields; with no earlier letter prev_cum is None."""
    cur = draw(
        st.one_of(
            partitions(max_size=16, max_part=6, max_length=12),
            st.integers(0, 12).map(lambda n: tuple(range(n, 0, -1))),
        )
    )
    prev = None
    for _ in range(draw(st.integers(0, 2))):
        grown = strips_by_recursion(cur, draw(st.integers(1, 4)), prev)
        if not grown:
            break
        cur, prev = draw(st.sampled_from(grown))
    return cur, draw(st.integers(0, 6)), prev


@given(_strip_inputs())
@settings(deadline=None, max_examples=200)
@example(((), 0, None))
@example(((), 3, None))
@example(((2, 1), 0, None))
@example(((2,), 1, (2,)))
# 562 shapes from _fill_rows under a record, 3,003 without one
@example(((16, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1), 4, (4,) * 13))
@example(((50, 40, 30, 20, 10), 10, None))
def test_strip_shapes_match_add_strip(args):
    """The one strip enumerator yields exactly the shapes of the recursion
    oracle, each once, and each shape with the shape it grew from gives the
    oracle's lattice record."""
    cur, k, prev = args
    got = _strip_shapes(*args)
    assert sorted((new, _record(new, cur)) for new in got) == sorted(strips_by_recursion(*args))
    # row r >= 1 ranges from cur_r up to cur_{r-1}, k more boxes and, under a
    # record, the previous letter's boxes through row r - 1
    lows = cur[1:] + (0,)
    caps = (k,) * len(cur) if prev is None else prev
    rows = [range(b, min(a, b + k, b + c) + 1) for a, b, c in zip(cur, lows, caps)]
    assert _strip_count(rows, k, prev) == len(got)


def test_strip_shapes_leaves_sparse_products_to_fill_rows(monkeypatch):
    """The product runs only where it visits at most 128 candidates or 8
    per shape; a base whose candidates are mostly not shapes goes through
    _fill_rows."""
    calls = []
    real = symfunc._fill_rows
    monkeypatch.setattr(symfunc, "_fill_rows", lambda *args: calls.append(args) or real(*args))
    # 11^5 = 161,051 candidates for 3,003 shapes
    assert len(_strip_shapes((50, 40, 30, 20, 10), 10, None)) == 3003
    # 2^12 = 4,096 candidates for 13 shapes
    assert len(_strip_shapes(tuple(range(12, 0, -1)), 1, None)) == 13
    # under a record: 5 * 2^11 = 10,240 candidates for 562 shapes
    assert len(_strip_shapes((16, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1), 4, (4,) * 13)) == 562
    assert len(calls) == 3
    calls.clear()
    # 6^4 = 1,296 candidates, each of them a shape
    assert len(_strip_shapes((20, 15, 10, 5), 20, None)) == 1296
    # 2^7 = 128 candidates for 8 shapes
    assert len(_strip_shapes(tuple(range(7, 0, -1)), 1, None)) == 8
    assert calls == []


def test_mult_one_carries_a_record_past_the_fill():
    """The first letter of (2, 1) on a 10-row staircase takes _fill_rows,
    and the second reads the record derived from the state it left."""
    base = tuple(range(10, 0, -1))
    assert mult_one(base, (2, 1)) == mult_one_given_order(base, (2, 1))


def test_schur_class_algebra():
    a = SchurClass.schur((1,))
    prod = a * a
    assert prod.coefficient(((2,),)) == 1
    assert prod.coefficient(((1, 1),)) == 1
    assert prod.support_size() == 2
    z = SchurClass.zero(1)
    assert (prod + z) == prod
    assert (prod - prod).is_zero()
    assert (-prod).coefficient(((2,),)) == -1
    assert (2 * prod).coefficient(((1, 1),)) == 2
    assert prod.is_nonnegative()
    unit = SchurClass.unit(1)
    assert unit * prod == prod


def test_schur_class_dim():
    c = SchurClass.schur((2, 1))
    assert c.dim((3,)) == dim_gl((2, 1), 3)
    e = external_product(SchurClass.schur((1,)), SchurClass.schur((2,)))
    assert e.dim((2, 3)) == dim_gl((1,), 2) * dim_gl((2,), 3)


def test_schur_class_dim_factor_count():
    with pytest.raises(ValueError):
        SchurClass.schur((2, 1)).dim((3, 3))


@given(SMALL, SMALL)
@settings(deadline=None, max_examples=30)
def test_class_product_against_monomials(mu, nu):
    nvars = 3
    prod = SchurClass.schur(mu) * SchurClass.schur(nu)
    terms = {key[0]: c for key, c in prod.terms.items()}
    got = poly_combine(terms, nvars)
    want = poly_mul(schur_monomials(mu, (), nvars), schur_monomials(nu, (), nvars))
    assert got == want


def test_schur_class_json_round_trip():
    c = SchurClass.schur((2, 1)) * SchurClass.schur((1,))
    data = c.to_json()
    back = SchurClass.from_json(data)
    assert back == c
    e = external_product(SchurClass.schur((2,)), SchurClass.schur((1, 1)))
    assert SchurClass.from_json(e.to_json(), k=2) == e


@given(SKEW)
@settings(deadline=None, max_examples=40)
def test_skew_to_straight_monomials(pair):
    lam, mu = pair
    cls = skew_to_straight(SkewShape(lam, mu))
    terms = {key[0]: c for key, c in cls.terms.items()}
    assert poly_combine(terms, 3) == schur_monomials(lam, mu, 3)
    assert cls.is_nonnegative()


@given(SKEW)
@settings(deadline=None, max_examples=40)
def test_lr_transpose_symmetry(pair):
    lam, mu = pair
    for nu in subpartitions(lam):
        c = lr_coefficient(lam, mu, nu)
        ct = lr_coefficient(conjugate(lam), conjugate(mu), conjugate(nu))
        assert c == ct


def _class_pair(k):
    """Two classes over one small pool of keys, with coefficients in -2..2,
    so that sums, differences and products often cancel terms."""
    key = st.tuples(*[partitions(max_size=3, max_part=3, max_length=2)] * k)
    pool = st.lists(key, min_size=1, max_size=4, unique=True)
    coeffs = st.dictionaries(st.sampled_from(range(4)), st.integers(-2, 2), max_size=4)
    return pool.flatmap(
        lambda keys: st.tuples(
            *[coeffs.map(lambda d: SchurClass(k, {keys[i % len(keys)]: c for i, c in d.items()}))] * 2
        )
    )


@given(st.integers(1, 3).flatmap(lambda k: st.tuples(st.just(k), _class_pair(k))), st.integers(-2, 2))
@settings(deadline=None, max_examples=80)
def test_arithmetic_results_are_canonical(k_pair, n):
    """Sums, differences, negatives, integer multiples, products and sums
    of products skip the constructor's checks; their results must be what
    the checked constructor makes of the same terms."""
    k, (a, b) = k_pair
    fused = (
        SchurClass.sum_of_products(k, [(1, a, b), (n, b, b), (-1, a, a)], a),
        SchurClass.sum_of_products(k, [(1, a, b), (-1, b, a)]),
    )
    for result in (a * b, a + b, a - b, -a, a * n, *fused):
        assert type(result.terms) is dict
        assert result == SchurClass(k, dict(result.terms))
        assert all(type(c) is int and c != 0 for c in result.terms.values())
        for key in result.terms:
            assert type(key) is tuple and len(key) == k
            assert all(type(p) is tuple and p == as_parts(p) and all(x > 0 for x in p) for p in key)


@given(
    st.integers(1, 3).flatmap(
        lambda k: st.tuples(
            st.just(k),
            st.lists(st.tuples(st.sampled_from((1, -1)), _class_pair(k)), max_size=4),
            st.one_of(st.none(), _class_pair(k).map(lambda pair: pair[0])),
        )
    )
)
@example((1, [], None))
@example((2, [], SchurClass(2, {((1,), ()): 3})))
@settings(deadline=None, max_examples=60)
def test_sum_of_products_matches_operator_fold(case):
    """sum_of_products is start + the sum of the signed products, added one
    at a time with the operators; each product undone, with its factors
    swapped, leaves the start."""
    k, triples, start = case
    products = [(sign, x, y) for sign, (x, y) in triples]
    want = SchurClass.zero(k) if start is None else start
    for sign, x, y in products:
        want = want + x * y if sign == 1 else want - x * y
    assert SchurClass.sum_of_products(k, products, start) == want
    undone = products + [(-sign, y, x) for sign, x, y in products]
    assert SchurClass.sum_of_products(k, undone, start) == (SchurClass.zero(k) if start is None else start)
    assert SchurClass.sum_of_products(k, undone).is_zero()


def test_sum_of_products_refuses_mixed_factor_counts():
    one, two = SchurClass.schur((1,)), SchurClass.schur((1,), k=2)
    for k, products, start in (
        (2, [(1, one, two)], None),
        (2, [(1, two, one)], None),
        (1, [(1, two, two)], None),
        (2, [], one),
    ):
        with pytest.raises(ValueError, match="factor_count mismatch"):
            SchurClass.sum_of_products(k, products, start)
    with pytest.raises(ValueError, match="factor_count mismatch"):
        one * two
