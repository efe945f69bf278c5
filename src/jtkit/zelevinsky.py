"""Layout of the Jacobi-Trudi complex attached to a graded sequence.

Only the shape of the complex is modeled: for each permutation the dotted
action produces a weight, the weight a tensor term.  Differentials are not
constructed; acyclicity enters only through the Euler characteristic, which
must reproduce the Jacobi-Trudi minor.
"""

from __future__ import annotations

from ._frozen import dataclass
from .sequences import GradedSequence, jt_minor
from .shapes import SkewShape, _int, as_parts, dotted_action, permutations_by_length
from .symfunc import value_json


@dataclass(frozen=True, slots=True)
class ComplexTerm:
    degree: int
    sigma: tuple
    weight: tuple
    value: object

    def to_json(self) -> dict:
        return {"sigma": list(self.sigma), "weight": list(self.weight), "value": value_json(self.value)}


@dataclass(frozen=True, slots=True)
class ComplexLayout:
    """All n! terms of the complex, grouped by homological degree, plus the
    minor the Euler characteristic must hit."""

    sequence: str
    n: int
    lam: tuple
    mu: tuple
    terms: tuple
    minor: object

    def max_degree(self) -> int:
        return self.n * (self.n - 1) // 2

    def terms_at(self, degree: int) -> tuple:
        return tuple(t for t in self.terms if t.degree == degree)

    def to_json(self) -> dict:
        degrees = []
        for i in range(self.max_degree() + 1):
            degrees.append({"degree": i, "terms": [t.to_json() for t in self.terms_at(i)]})
        return {
            "sequence": self.sequence,
            "n": self.n,
            "lambda": list(self.lam),
            "mu": list(self.mu),
            "minor": value_json(self.minor),
            "degrees": degrees,
        }


def jt_complex_layout(a: GradedSequence, lam, mu=(), n: int | None = None) -> ComplexLayout:
    """Enumerate the complex's terms for the skew shape lam/mu padded to n.

    Each permutation sigma of length i contributes a degree-i term with
    weight lam - sigma . mu (dotted action on zero-padded weights) and value
    the product of the sequence's terms along the weight.  Negative weight
    entries make the value zero; the term is still listed.

    The value depends only on the multiset of weight entries.  A weight with
    a negative entry takes the zero value at once; every other weight reads
    its value from a per-call dict keyed by sorted weight prefixes, so each
    distinct partial product is made once.
    """
    lam = as_parts(lam)
    mu = as_parts(mu)
    shape = SkewShape(lam, mu)
    need = max(len(lam), len(mu), 1)
    n = need if n is None else _int(n, "n")
    if n < need:
        raise ValueError(f"padding {n} smaller than the shape needs ({need})")
    lampad = lam + (0,) * (n - len(lam))
    mupad = mu + (0,) * (n - len(mu))
    zero = a.zero_value()
    products = {(): a.unit_value()}
    terms = []
    grouped = permutations_by_length(n)
    for degree in sorted(grouped):
        for sigma in grouped[degree]:
            weight = tuple(x - y for x, y in zip(lampad, dotted_action(sigma, mupad)))
            key = tuple(sorted(weight))
            value = zero if key[0] < 0 else _prefix_product(a, key, products)
            terms.append(ComplexTerm(degree, sigma.word, weight, value))
    minor = jt_minor(a, shape, r=n)
    return ComplexLayout(a.name, n, lam, mu, tuple(terms), minor)


def _prefix_product(a: GradedSequence, key: tuple, products: dict):
    """The product of a's terms along the sorted weight key: the longest
    prefix of key already in products, extended by one term at a time, each
    new prefix stored."""
    j = len(key)
    while key[:j] not in products:
        j -= 1
    value = products[key[:j]]
    for i in range(j, len(key)):
        value = value * a.term(key[i])
        products[key[: i + 1]] = value
    return value


def euler_characteristic(c: ComplexLayout):
    """Alternating sum of the term values over homological degree."""
    acc = None
    for t in c.terms:
        v = -t.value if t.degree % 2 else t.value
        acc = v if acc is None else acc + v
    return 0 if acc is None else acc


def euler_check(a: GradedSequence, lam, mu=(), n: int | None = None) -> bool:
    """Acyclicity consumed as arithmetic: the Euler characteristic of the
    layout must equal the Jacobi-Trudi minor."""
    c = jt_complex_layout(a, lam, mu, n)
    return euler_characteristic(c) == c.minor
