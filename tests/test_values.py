"""The value types: frozen value classes made by jtkit._frozen.dataclass,
canonical at construction.

Checks that values survive pickle and copy, that every instance is immutable
and slotted, with no __dict__, that equal values hash equal whatever
form they were built from, that each class behaves as its dataclasses twin
does, and that the package keeps to this one immutability idiom and to
one integer check, which every integer argument passes through.
"""

from __future__ import annotations

import ast
import copy
import dataclasses
import importlib
import inspect
import pickle
import re
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path
from unittest.mock import ANY

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import jtkit
from jtkit import _frozen
from jtkit._frozen import fields
from jtkit.powerseries import TruncSeries
from jtkit.quadric import QuadricContext, chi_o_dim, multigraded_hs_check, orthogonal_stable_decomposition
from jtkit.resolutions import (
    efw_betti,
    efw_partitions,
    hk_solve,
    quadric_pure_resolution,
    rnc_pure_resolution,
    rnc_sequence,
    validate_purity,
)
from jtkit.sequences import GradedSequence, make_sequence, pf_check
from jtkit.shapes import (
    Partition,
    Permutation,
    SkewShape,
    dotted_action,
    partitions_of,
    ribbon_of,
    scan_partitions,
    skew_from_boxes,
)
from jtkit.symfunc import SchurClass, dim_gl, dim_super, pieri_extensions
from jtkit.zelevinsky import jt_complex_layout

from conftest import partitions, sub_partition
from oracles import FROZEN_CLASSES, dataclass_twins

VALUES = [
    Partition((3, 1, 0)),
    Partition(),
    SkewShape((3, 2), (1,)),
    SkewShape(Partition((2, 2))),
    Permutation((2, 3, 1)),
    SchurClass(2, {((2, 1), (1,)): 3, ((), ()): -1}),
    SchurClass.zero(1),
    TruncSeries(2, 3, {(1, 0): 2, (0, 1): -1, (0, 0): 1}),
    TruncSeries.one(1, 0),
    pf_check(make_sequence("heisenberg", u=1), 3, 3),
    pf_check(make_sequence("poly", m=2), 2, 2),
    quadric_pure_resolution(3, (1, 1, 1), tail_terms=2),
    orthogonal_stable_decomposition(QuadricContext(5), (2, 1)),
    hk_solve((0, 2, 3)),
    jt_complex_layout(make_sequence("poly", m=2), (2, 1)),
]


@pytest.mark.parametrize("value", VALUES, ids=repr)
def test_values_pickle_and_copy_by_value(value):
    copies = [pickle.loads(pickle.dumps(value, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    copies += [copy.copy(value), copy.deepcopy(value)]
    for other in copies:
        assert type(other) is type(value)
        assert other == value
        assert hash(other) == hash(value)
        assert repr(other) == repr(value)


TABLE = quadric_pure_resolution(3, (1, 1, 1), tail_terms=2)
LAYOUT = jt_complex_layout(make_sequence("poly", m=2), (2, 1))

# one instance of each frozen class, with its positional constructor fields
FROZEN = [
    (Partition((2, 1)), ("parts",)),
    (SkewShape((2, 1), (1,)), ("outer", "inner")),
    (Permutation((2, 1)), ("word",)),
    (SchurClass(1, {((1,),): 1}), ("k", "terms")),
    (TruncSeries(1, 2, {(1,): 1}), ("nvars", "trunc", "coeffs")),
    (make_sequence("poly", m=2), ("name", "term_fn", "factor_dims")),
    (QuadricContext(2), ("m",)),
    (pf_check(make_sequence("heisenberg", u=1), 3, 3), ("verdict", "order", "window", "checked", "witness")),
    (orthogonal_stable_decomposition(QuadricContext(5), (2, 1)), ("m", "lam", "entries")),
    (TABLE.rows[0], ("index", "twist", "rank", "label")),
    (TABLE.tail, ("start", "rank", "ratio")),
    (TABLE, ("rows", "tail")),
    (
        validate_purity(TABLE, make_sequence("quadric", m=3)),
        ("is_polynomial", "nonnegative", "coefficients", "dimension", "bound", "horizon"),
    ),
    (hk_solve((0, 2, 3)), ("twists", "tail", "finite", "tail_raw")),
    (LAYOUT.terms[0], ("degree", "sigma", "weight", "value")),
    (LAYOUT, ("sequence", "n", "lam", "mu", "terms", "minor")),
]


@pytest.mark.parametrize("value, init_fields", FROZEN, ids=[type(v).__name__ for v, _ in FROZEN])
def test_frozen_slotted_contract(value, init_fields):
    cls = type(value)
    assert vars(cls)["__slots__"] == fields(cls)
    assert tuple(inspect.signature(cls).parameters) == init_fields
    assert not hasattr(value, "__dict__")
    for name in fields(value):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert not hasattr(value, "extra")


def test_a_sequence_derives_its_kind_and_factor_count_from_its_dims():
    """value_kind and factor_count are read off factor_dims, so they cannot
    disagree with it, and no caller can set them."""
    ints = GradedSequence("ints", lambda seq, d: d + 1)
    pair = GradedSequence("pair", lambda seq, d: SchurClass(2, {((d,), (d,)): 1}), [3, 2])
    assert (ints.value_kind, ints.factor_count, ints.factor_dims) == ("integer", 1, None)
    assert (pair.value_kind, pair.factor_count, pair.factor_dims) == ("class", 2, (3, 2))
    assert (pair.zero_value(), pair.dims(2)) == (SchurClass.zero(2), 18)
    for seq in (ints, pair):
        for name in ("value_kind", "factor_count"):
            with pytest.raises(AttributeError, match=f"cannot assign to field {name!r} of frozen GradedSequence"):
                setattr(seq, name, 5)
    # once accepted as an integer sequence with 5 factors of dimensions (1, 2)
    with pytest.raises(TypeError):
        GradedSequence("x", "integer", ints.term_fn, 5, (1, 2))
    for derived in ({"value_kind": "class"}, {"factor_count": 5}):
        with pytest.raises(TypeError):
            GradedSequence("x", ints.term_fn, **derived)
    with pytest.raises(ValueError, match="^factor_count must be at least 1$"):
        GradedSequence("x", ints.term_fn, ())


@pytest.mark.parametrize(
    "flags", [{"frozen": False, "slots": True}, {"frozen": True, "slots": False}, {"frozen": True, "slots": True, "repr": False}]
)
def test_dataclass_makes_only_frozen_slotted_classes(flags):
    with pytest.raises(TypeError):
        _frozen.dataclass(**flags)


@pytest.mark.parametrize(
    "value, name",
    [(QuadricContext(3), "dual"), (QuadricContext(3), "m"), (SchurClass.zero(1), "foo"), (hk_solve((0, 2, 3)), "tail")],
    ids=repr,
)
def test_frozen_errors_name_the_attribute_and_the_class(value, name):
    """Setting or deleting any attribute of a frozen value, a property or a
    name that is no field among them, raises AttributeError naming both."""
    cls = type(value).__name__
    with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}' of frozen {cls}$"):
        setattr(value, name, None)
    with pytest.raises(AttributeError, match=f"^cannot delete field '{name}' of frozen {cls}$"):
        delattr(value, name)


def test_sequences_and_contexts_compare_by_identity():
    a, b = make_sequence("quadric", m=3), make_sequence("quadric", m=3)
    assert a != b and a == a
    assert QuadricContext(3) != QuadricContext(3)
    assert repr(QuadricContext(3)) == "QuadricContext(m=3)"
    poly = make_sequence("poly", m=2)
    assert poly.dim_view() is poly.dim_view() and a.dim_view() is a
    assert isinstance(poly.dim_view(), GradedSequence)


@given(partitions(), st.integers(0, 3))
def test_partition_equals_and_hashes_like_its_tuple(parts, zeros):
    p = Partition(parts + (0,) * zeros)
    assert p == parts and hash(p) == hash(parts)
    assert p == Partition(p) and hash(p) == hash(Partition(list(parts)))


SKEW = partitions(max_size=10, max_part=5, max_length=4).flatmap(
    lambda lam: st.tuples(st.just(lam), sub_partition(lam))
)


@given(SKEW, st.integers(0, 2))
def test_equal_skew_shapes_hash_equal(pair, zeros):
    lam, mu = pair
    s = SkewShape(lam, mu)
    for other in (SkewShape(Partition(lam), Partition(mu)), SkewShape(list(lam) + [0] * zeros, mu + (0,) * zeros)):
        assert other == s and hash(other) == hash(s)


def _class_terms(k):
    key = st.tuples(*[partitions(max_size=4, max_part=3, max_length=3)] * k)
    return st.dictionaries(key, st.integers(-3, 3).filter(bool), max_size=5)


@given(st.integers(1, 2).flatmap(lambda k: st.tuples(st.just(k), _class_terms(k))), st.data())
@settings(deadline=None, max_examples=60)
def test_schur_class_canonical_form(k_terms, data):
    k, terms = k_terms
    c = SchurClass(k, terms)
    items = data.draw(st.permutations(list(terms.items())))
    zero_keys = data.draw(st.lists(st.tuples(*[partitions(max_size=4)] * k), max_size=3))
    variants = [
        dict(items),
        {**{key: 0 for key in zero_keys if key not in terms}, **dict(items)},
        {tuple(p + (0,) for p in key): coeff for key, coeff in items},
    ]
    for other in (SchurClass(k, v) for v in variants):
        assert other == c and hash(other) == hash(c)


@given(
    st.integers(1, 3).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.dictionaries(st.tuples(*[st.integers(0, 3)] * n), st.integers(-5, 5).filter(bool), max_size=6),
        )
    ),
    st.integers(0, 6),
    st.data(),
)
@settings(deadline=None, max_examples=60)
def test_trunc_series_canonical_form(n_coeffs, trunc, data):
    nvars, coeffs = n_coeffs
    s = TruncSeries(nvars, trunc, coeffs)
    items = data.draw(st.permutations(list(coeffs.items())))
    zero_exps = data.draw(st.lists(st.tuples(*[st.integers(0, 3)] * nvars), max_size=3))
    for other in (
        TruncSeries(nvars, trunc, dict(items)),
        TruncSeries(nvars, trunc, {**{e: 0 for e in zero_exps if e not in coeffs}, **dict(items)}),
    ):
        assert other == s and hash(other) == hash(s)


# the flags of a value class's decorator: every class is frozen and slotted,
# and the classes that compare by identity say eq=False
DATACLASS_FLAGS = ({"frozen": True, "slots": True}, {"frozen": True, "slots": True, "eq": False})


def _dataclass_flags(decorator: ast.expr) -> dict | None:
    """The keyword flags of a dataclass decorator, or None for another one."""
    call = decorator if isinstance(decorator, ast.Call) else None
    func = call.func if call else decorator
    if getattr(func, "id", getattr(func, "attr", None)) != "dataclass":
        return None
    return {k.arg: ast.literal_eval(k.value) for k in call.keywords} if call else {}


def _immutability_breaches(tree: ast.AST, path: str) -> list[str]:
    out = []

    def visit(node, func):
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and item.name in ("__setattr__", "__delattr__"):
                    out.append(f"{path}:{item.lineno} {node.name} defines {item.name}")
            for decorator in node.decorator_list:
                flags = _dataclass_flags(decorator)
                if flags is not None and flags not in DATACLASS_FLAGS:
                    out.append(f"{path}:{decorator.lineno} {node.name} is a dataclass with flags {flags}")
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(t, ast.Name) and t.id == "__slots__" for t in targets):
                out.append(f"{path}:{node.lineno} assigns __slots__")
        if (
            isinstance(node, ast.Attribute)
            and node.attr == "__setattr__"
            and isinstance(node.value, ast.Name)
            and node.value.id == "object"
            and func != "__post_init__"
        ):
            out.append(f"{path}:{node.lineno} object.__setattr__ in {func or 'module scope'}")
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return out


def test_one_immutability_idiom():
    """Values are frozen slotted value classes of jtkit._frozen, the one
    module that writes __slots__, attribute guards and object.__setattr__ by
    hand; elsewhere object.__setattr__ appears only where __post_init__
    normalises, and every dataclass decorator passes frozen=True and
    slots=True, with eq=False alone beside them."""
    root = Path(jtkit.__file__).parent
    breaches = {path.name: _immutability_breaches(ast.parse(path.read_text()), path.name) for path in root.glob("*.py")}
    assert breaches.pop("_frozen.py")
    assert [b for found in breaches.values() for b in found] == []


# where int() may run in the package: each site parses text (a CLI list, the
# JTKIT_CACHE_SIZE variable, the checked digit strings of a sequence spec) or
# reads argparse's exit code; every other integer goes through shapes._int
INT_PARSING_SITES = {
    ("cli.py", "_ints_arg"): 1,
    ("cli.py", "run"): 1,
    ("memo.py", "_read_cap"): 1,
    ("sequences.py", "_parse_uncached"): 2,
}


def _integer_calls(tree: ast.AST, path: str) -> list[tuple[str, str, str, int]]:
    """(path, enclosing function, callee, line) of each int() call and each
    call of operator.index in tree."""
    out = []

    def visit(node, func):
        if isinstance(node, ast.Call):
            f = node.func
            from_operator = isinstance(f, ast.Attribute) and getattr(f.value, "id", None) == "operator"
            callee = f.attr if from_operator else getattr(f, "id", None)
            if callee in ("int", "index"):
                out.append((path, func, callee, node.lineno))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, "module scope")
    return out


def test_one_integer_idiom():
    """One helper, shapes._int, holds the scalar operator.index check (trim
    and det_bareiss map index over whole vectors), no other module defines
    its own, and int(), which truncates, runs only where text is parsed."""
    root = Path(jtkit.__file__).parent
    calls = [c for path in sorted(root.glob("*.py")) for c in _integer_calls(ast.parse(path.read_text()), path.name)]
    ints = [c for c in calls if c[2] == "int"]
    stray = [f"{path}:{line} int() in {func}" for path, func, _, line in ints if (path, func) not in INT_PARSING_SITES]
    assert stray == []
    assert Counter((path, func) for path, func, _, _ in ints) == INT_PARSING_SITES
    assert [c[:3] for c in calls if c[2] == "index"] == [("shapes.py", "_int", "index")]
    helpers = [
        path.name
        for path in root.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.FunctionDef) and node.name == "_int"
    ]
    assert helpers == ["shapes.py"]


class _Index:
    """An integer type that is not an int: it has __index__ and nothing else."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


_QUADRIC_TABLE = quadric_pure_resolution(3, (1, 1, 2))
_Q3 = make_sequence("quadric", m=3)

# (argument, call with x at that argument, an integer it accepts there); the
# message names the argument
INTEGER_ARGUMENTS = [
    ("a box row", lambda x: skew_from_boxes([(x, 0), (0, 0)]), 1),
    ("a box column", lambda x: skew_from_boxes([(0, 0), (0, x)]), 1),
    ("a composition part", lambda x: ribbon_of((2, x)), 1),
    ("a permutation entry", lambda x: Permutation((2, x)), 1),
    ("a weight entry", lambda x: dotted_action(Permutation((2, 1)), (x, 0)), 1),
    ("k", lambda x: pieri_extensions((2, 1), x), 1),
    ("m", lambda x: dim_gl((2, 1), x), 3),
    ("r", lambda x: dim_super((2, 1), x, 1), 1),
    ("s", lambda x: dim_super((2, 1), 1, x), 1),
    ("factor_count", lambda x: SchurClass(x, {}), 1),
    ("a coefficient", lambda x: SchurClass(1, {((1,),): x}), 1),
    ("a factor dimension", lambda x: SchurClass.schur((2,)).dim((x,)), 1),
    ("a coefficient", lambda x: SchurClass.from_json([{"partitions": [[1]], "coeff": x}]), 1),
    ("nvars", lambda x: TruncSeries(x, 3, {}), 1),
    ("trunc", lambda x: TruncSeries(1, x, {(1,): 1}), 1),
    ("an exponent", lambda x: TruncSeries(1, 3, {(x,): 1}), 1),
    ("a coefficient", lambda x: TruncSeries(1, 3, {(0,): x}), 1),
    ("a series power", lambda x: TruncSeries(1, 3, {(0,): 1, (1,): 1}) ** x, 1),
    ("m", lambda x: QuadricContext(x).m, 1),
    ("m", lambda x: chi_o_dim((1,), x), 3),
    ("m", lambda x: multigraded_hs_check(x, 2, 3), 1),
    ("n", lambda x: multigraded_hs_check(2, x, 3), 1),
    ("trunc", lambda x: multigraded_hs_check(2, 2, x), 1),
    ("a shift", lambda x: efw_partitions((2, x), 2), 1),
    ("count", lambda x: efw_partitions((2, 1), x), 1),
    ("e_dim", lambda x: efw_betti((1, 2), x), 1),
    ("count", lambda x: efw_betti((1, 2), 3, x), 1),
    ("m", lambda x: quadric_pure_resolution(x, (1, 1, 2)), 3),
    ("a shift", lambda x: quadric_pure_resolution(3, (1, 1, x)), 1),
    ("tail_terms", lambda x: quadric_pure_resolution(3, (1, 1, 1), x), 1),
    ("d", lambda x: rnc_sequence(x).term(2), 1),
    ("d", lambda x: rnc_pure_resolution(x, (1, 2, 1)), 1),
    ("a shift", lambda x: rnc_pure_resolution(3, (1, 2, x)), 1),
    ("tail_terms", lambda x: rnc_pure_resolution(3, (1, 1, 1), x), 1),
    ("tail_horizon", lambda x: validate_purity(_QUADRIC_TABLE, _Q3, tail_horizon=x), 24),
    ("margin", lambda x: validate_purity(_QUADRIC_TABLE, _Q3, margin=x), 1),
    ("a twist", lambda x: hk_solve((0, x, 3)), 1),
    ("n", lambda x: hk_solve((0, 1, 3), x), 3),
    ("n", lambda x: jt_complex_layout(_Q3, (2, 1), (), x), 2),
    ("n", lambda x: list(partitions_of(x)), 4),
    ("max_part", lambda x: list(partitions_of(4, x)), 2),
    ("max_length", lambda x: list(partitions_of(4, None, x)), 2),
    ("max_length", lambda x: list(scan_partitions(x, 2)), 2),
    ("max_part", lambda x: list(scan_partitions(2, x)), 2),
    ("nvars", lambda x: TruncSeries(1, 3, {(1,): 1}).embed(x, (0,)), 2),
]


def _answer(call, x):
    """What call(x) gives: its value, as JSON where it has a form, or the
    type and message of the error it raises."""
    try:
        value = call(x)
    except (ValueError, RuntimeError) as e:
        return type(e), str(e)
    return value.to_json() if hasattr(value, "to_json") else value


@pytest.mark.parametrize("what, call, good", INTEGER_ARGUMENTS, ids=[f"{i}-{a[0]}" for i, a in enumerate(INTEGER_ARGUMENTS)])
def test_integer_arguments_are_checked_not_truncated(what, call, good):
    """Every integer argument goes through operator.index: a float, a string
    or a fraction raises ValueError naming the argument, and True and an
    __index__ type give the int's answer."""
    for bad in (2.5, "3", Fraction(3, 2)):
        with pytest.raises(ValueError, match=f"^{what} must be an integer, got {re.escape(repr(bad))}$"):
            call(bad)
    call(good)
    assert _answer(call, _Index(good)) == _answer(call, good)
    assert _answer(call, True) == _answer(call, 1)


# each call was answered at the integer part of its float before every
# integer went through operator.index
TRUNCATED = [
    ("a coefficient", lambda: SchurClass(1, {((1,),): 1.5})),
    ("a coefficient", lambda: TruncSeries(1, 3, {(0,): 2.5})),
    ("m", lambda: dim_gl((2, 1), 3.9)),
    ("a twist", lambda: hk_solve((0, 1.5, 3))),
    ("a permutation entry", lambda: Permutation((1.0, 2.9, 3))),
    ("m", lambda: QuadricContext(3.5)),
    ("m", lambda: multigraded_hs_check(2.5, 2, 6)),
    ("a factor dimension", lambda: SchurClass.schur((1,)).dim((2.9,))),
]


@pytest.mark.parametrize("what, call", TRUNCATED, ids=[what for what, _ in TRUNCATED])
def test_floats_that_were_truncated_are_refused(what, call):
    with pytest.raises(ValueError, match=f"^{what} must be an integer"):
        call()


# --- each frozen class against its dataclasses twin --------------------------

LIBRARY = {name: getattr(importlib.import_module(mod), name) for mod, names in FROZEN_CLASSES.items() for name in names}


def test_every_frozen_class_has_a_twin():
    importlib.import_module("jtkit.cli")  # loads every module of the package
    made = {
        name
        for modname, module in list(sys.modules.items())
        if modname.startswith("jtkit.")
        for name, obj in vars(module).items()
        if isinstance(obj, type) and obj.__module__ == modname and "__frozen_fields__" in vars(obj)
    }
    assert made == LIBRARY.keys() == {type(value).__name__ for value, _ in FROZEN}


def _constant_term(seq, d):
    """A term function that pickle can find by name."""
    return 1


SMALL = st.integers(0, 2)
PARTS = partitions(max_size=3, max_part=2, max_length=2)
TERMS = st.integers(1, 2).flatmap(
    lambda k: st.tuples(st.just(k), st.dictionaries(st.tuples(*[PARTS] * k), st.integers(-1, 1), max_size=2))
)
# an integer, or the (k, terms) of a SchurClass
VALUE = st.one_of(st.integers(-1, 2), TERMS)
COMPLEX_TERM = st.tuples(SMALL, PARTS, PARTS, VALUE)


def _value(c, v):
    return v if isinstance(v, int) else c["SchurClass"](*v)


def _complex_term(c, degree, sigma, weight, v):
    return c["ComplexTerm"](degree, sigma, weight, _value(c, v))


def _graded_sequence(c, name, k):
    """An integer sequence for k = 0, else a class sequence with k factors."""
    if not k:
        return c["GradedSequence"](name, _constant_term)
    return c["GradedSequence"](name, _constant_term, (2,) * k)


def _betti_table(c, steps, tail, ratio):
    rows, index, twist = [], -1, -1
    for di, dt, rank in steps:
        index, twist = index + di, twist + dt
        rows.append(c["BettiRow"](index, twist, rank, None if rank == 1 else f"({rank})"))
    last = rows[-1]
    return c["BettiTable"](tuple(rows), c["BettiTail"](last.index, last.rank, ratio) if tail else None)


# for each frozen class: a strategy for plain field data, and how to build a
# value from that data given a dict of classes (the library's or the twins')
BUILDERS = {
    "Partition": (st.tuples(PARTS, SMALL), lambda c, parts, zeros: c["Partition"](parts + (0,) * zeros)),
    "SkewShape": (
        PARTS.flatmap(lambda lam: st.tuples(st.just(lam), sub_partition(lam))),
        lambda c, lam, mu: c["SkewShape"](lam, mu),
    ),
    "Permutation": (
        st.integers(0, 3).flatmap(lambda n: st.tuples(st.permutations(range(1, n + 1)))),
        lambda c, word: c["Permutation"](tuple(word)),
    ),
    "SchurClass": (TERMS, lambda c, k, terms: c["SchurClass"](k, terms)),
    "TruncSeries": (
        st.tuples(SMALL, st.dictionaries(st.tuples(SMALL), st.integers(-1, 1), max_size=2)),
        lambda c, trunc, coeffs: c["TruncSeries"](1, trunc, coeffs),
    ),
    "GradedSequence": (st.tuples(st.sampled_from(["a", "b"]), SMALL), _graded_sequence),
    "PFReport": (
        st.tuples(st.sampled_from(["positive-up-to-bounds", "negative"]), SMALL, SMALL, st.none() | VALUE),
        lambda c, verdict, order, checked, witness: c["PFReport"](
            verdict, order, order, checked, None if witness is None else ((2, 1), (1,), _value(c, witness))
        ),
    ),
    "QuadricContext": (st.tuples(st.integers(1, 3)), lambda c, m: c["QuadricContext"](m)),
    "OrthogonalDecomposition": (
        st.tuples(SMALL, PARTS, st.lists(st.tuples(PARTS, SMALL), max_size=2).map(tuple)),
        lambda c, *args: c["OrthogonalDecomposition"](*args),
    ),
    "BettiRow": (st.tuples(SMALL, SMALL, SMALL, st.none() | st.just("(1)")), lambda c, *args: c["BettiRow"](*args)),
    "BettiTail": (
        st.tuples(SMALL, SMALL, st.integers(1, 2)),
        lambda c, *args: c["BettiTail"](*args),
    ),
    "BettiTable": (
        st.tuples(
            st.lists(st.tuples(st.integers(1, 2), st.integers(1, 2), st.integers(1, 2)), min_size=1, max_size=3),
            st.booleans(),
            st.integers(1, 2),
        ),
        _betti_table,
    ),
    "PurityReport": (
        st.tuples(
            st.booleans(), st.booleans(), st.lists(SMALL, max_size=2).map(tuple), st.none() | SMALL, SMALL, SMALL
        ),
        lambda c, *args: c["PurityReport"](*args),
    ),
    "HKSolution": (
        st.tuples(st.lists(SMALL, max_size=3).map(tuple), st.lists(SMALL, max_size=3)),
        lambda c, ints, raw: c["HKSolution"](ints, ints, ints[::-1], tuple(Fraction(n, 2) for n in raw)),
    ),
    "ComplexTerm": (COMPLEX_TERM, _complex_term),
    "ComplexLayout": (
        st.tuples(SMALL, PARTS, st.lists(COMPLEX_TERM, max_size=2), VALUE),
        lambda c, n, lam, terms, minor: c["ComplexLayout"](
            "poly:2", n, lam, (), tuple(_complex_term(c, *t) for t in terms), _value(c, minor)
        ),
    ),
}


def _recipe(name):
    return st.tuples(st.just(name), BUILDERS[name][0])


NAMES = st.sampled_from(sorted(BUILDERS))
# two values of one class, or of any two classes
PAIRS = st.one_of(
    NAMES.flatmap(lambda name: st.tuples(_recipe(name), _recipe(name))),
    st.tuples(NAMES.flatmap(_recipe), NAMES.flatmap(_recipe)),
)
COPIERS = [copy.copy, copy.deepcopy] + [
    lambda v, protocol=protocol: pickle.loads(pickle.dumps(v, protocol))
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
]


def _build(classes, recipe):
    name, data = recipe
    return BUILDERS[name][1](classes, *data)


def _attempt(action):
    """What action returns, or the name of the exception it raises."""
    try:
        return "returned", action()
    except Exception as e:
        return "raised", type(e).__name__


def _hash_seen(value):
    """The hash, unless the class keeps object's identity hash."""
    return "identity" if type(value).__hash__ is object.__hash__ else _attempt(lambda: hash(value))


def _observe(a, b) -> list:
    """What the value protocol shows of a and b: their reprs, equality both
    ways and with ANY (which a NotImplemented lets decide), their hashes,
    and what copy, deepcopy and each pickle protocol give back for a."""
    seen = [repr(a), repr(b), a == b, b == a, a != b, a == a, a == ANY, _hash_seen(a), _hash_seen(b)]
    for copier in COPIERS:
        how, other = _attempt(lambda: copier(a))
        seen.append(other if how == "raised" else (type(other).__name__, repr(other), other == a, _hash_seen(other)))
    return seen


@pytest.mark.parametrize("name", LIBRARY)
def test_frozen_class_signature_and_fields_match_dataclass_twin(name):
    cls, twin = LIBRARY[name], dataclass_twins()[name]
    assert str(inspect.signature(cls)) == str(inspect.signature(twin))
    assert fields(cls) == tuple(f.name for f in dataclasses.fields(twin))
    assert name in BUILDERS, "the behaviour test below draws no values of this class"


@given(PAIRS)
@settings(deadline=None, max_examples=300)
def test_frozen_classes_behave_as_dataclass_twins(recipes):
    """Built from the same drawn fields, a pair of library values shows what
    the pair of dataclasses twins shows."""
    twins = dataclass_twins()
    assert _observe(*(_build(LIBRARY, r) for r in recipes)) == _observe(*(_build(twins, r) for r in recipes))
