"""The value types: frozen slotted dataclasses, canonical at construction.

Checks that values survive pickle and copy, that every instance is immutable
and has no __dict__, that equal values hash equal whatever form they were
built from, and that the package keeps to this one immutability idiom.
"""

from __future__ import annotations

import ast
import copy
import dataclasses
import inspect
import pickle
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import jtkit
from jtkit.powerseries import TruncSeries
from jtkit.quadric import QuadricContext
from jtkit.sequences import GradedSequence, make_sequence
from jtkit.shapes import Partition, Permutation, SkewShape
from jtkit.symfunc import SchurClass

from conftest import partitions, sub_partition

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


# one instance of each frozen class, with its positional constructor fields
FROZEN = [
    (Partition((2, 1)), ("parts",)),
    (SkewShape((2, 1), (1,)), ("outer", "inner")),
    (Permutation((2, 1)), ("word",)),
    (SchurClass(1, {((1,),): 1}), ("k", "terms")),
    (TruncSeries(1, 2, {(1,): 1}), ("nvars", "trunc", "coeffs")),
    (make_sequence("poly", m=2), ("name", "value_kind", "term_fn", "factor_count", "factor_dims")),
    (QuadricContext(2), ("m",)),
]


@pytest.mark.parametrize("value, init_fields", FROZEN, ids=[type(v).__name__ for v, _ in FROZEN])
def test_frozen_slotted_contract(value, init_fields):
    cls = type(value)
    assert dataclasses.is_dataclass(cls) and cls.__dataclass_params__.frozen and "__slots__" in vars(cls)
    assert tuple(inspect.signature(cls).parameters) == init_fields
    assert not hasattr(value, "__dict__")
    for name in (f.name for f in dataclasses.fields(value)):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    # for a name that is not a field, Python 3.11's frozen slotted dataclasses
    # raise TypeError rather than AttributeError; either way nothing is stored
    with pytest.raises((AttributeError, TypeError)):
        value.extra = 1
    assert not hasattr(value, "extra")


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


def _immutability_breaches(tree: ast.AST, path: str) -> list[str]:
    out = []

    def visit(node, func):
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and item.name in ("__setattr__", "__delattr__"):
                    out.append(f"{path}:{item.lineno} {node.name} defines {item.name}")
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
    """Values are frozen dataclasses: no hand-written __slots__ or attribute
    guards, and object.__setattr__ only where __post_init__ normalises."""
    root = Path(jtkit.__file__).parent
    breaches = []
    for path in sorted(root.glob("*.py")):
        breaches += _immutability_breaches(ast.parse(path.read_text()), path.name)
    assert breaches == []
