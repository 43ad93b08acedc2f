"""Integer polynomial arithmetic, against oracles that share no code with it:
exact rational evaluation, schoolbook products, and shared roots by
Sylvester matrices instead of gcds.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from regcount import build_graph, independence_polynomial
from regcount.poly import divide, evaluate, power, product, squarefree

from conftest import common_root, disjoint_union, poly_product

# Coefficient lists, constant first, with a nonzero leading coefficient.
_polys = st.builds(
    lambda low, lead: low + [lead],
    st.lists(st.integers(-9, 9), max_size=5),
    st.integers(-9, 9).filter(bool),
)


def _derivative(f):
    return [k * c for k, c in enumerate(f)][1:]


def _rebuild(factors):
    out = [1]
    for f, m in factors:
        for _ in range(m):
            out = poly_product(out, f)
    return out


@st.composite
def _factored(draw):
    """Non-constant factors, each square-free and not monic, pairwise
    coprime, with a multiplicity each, and a content other than +-1."""
    factors = draw(
        st.lists(
            st.builds(
                lambda low, lead: low + [lead],
                st.lists(st.integers(-6, 6), min_size=1, max_size=3),
                st.integers(2, 5) | st.integers(-5, -2),
            ),
            min_size=1,
            max_size=3,
        )
    )
    mults = draw(st.lists(st.integers(1, 4), min_size=len(factors), max_size=len(factors)))
    content = draw(st.integers(2, 12) | st.integers(-12, -2))
    return factors, mults, content


@settings(max_examples=200, deadline=None)
@given(_factored())
def test_squarefree_split_rebuilds_p_from_squarefree_coprime_factors(case):
    factors, mults, content = case
    for f in factors:
        assume(not common_root(f, _derivative(f)))
    for i, f in enumerate(factors):
        for g in factors[:i]:
            assume(not common_root(f, g))
    p = [content * c for c in _rebuild(zip(factors, mults))]
    split = squarefree(p)
    assert [k for _, k in split] == sorted({k for _, k in split})
    for f, k in split:
        assert len(f) > 1 and f[-1] > 0 and math.gcd(*f) == 1
        assert not common_root(list(f), _derivative(f)), (p, f)
        want = sum(len(g) - 1 for g, m in zip(factors, mults) if m == k)
        assert len(f) - 1 == want, (p, split)
    for i, (f, _) in enumerate(split):
        for g, _ in split[:i]:
            assert not common_root(list(f), list(g)), (p, f, g)
    # p = c * prod f_k^k for a rational c.
    rebuilt = _rebuild(split)
    assert len(rebuilt) == len(p)
    assert [c * p[-1] for c in rebuilt] == [c * rebuilt[-1] for c in p]


def test_squarefree_split_of_three_k4():
    # The independence polynomial of K4 + K4 + K4, whose float roots carry
    # imaginary parts of 2e-6 unless the repeated factor is split off exactly.
    k4 = build_graph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
    three_k4 = disjoint_union(disjoint_union(k4, k4), k4)
    coeffs = independence_polynomial(three_k4).coefficients
    assert coeffs == (1, 12, 48, 64) == power((1, 4), 3)
    assert squarefree(coeffs) == [((1, 4), 3)]
    assert squarefree([5 * c for c in coeffs]) == [((1, 4), 3)]
    assert squarefree((7,)) == []


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(-50, 50), max_size=7).filter(lambda p: not p or p[-1]),
    st.integers(-20, 20),
    st.integers(1, 20),
)
def test_evaluate_is_the_numerator_over_den_to_the_degree(p, num, den):
    exact = sum(c * Fraction(num, den) ** k for k, c in enumerate(p))
    assert evaluate(p, num, den) == exact * den ** max(len(p) - 1, 0)


@settings(max_examples=100, deadline=None)
@given(_polys, st.integers(0, 4))
def test_power_is_repeated_products(p, k):
    want = [1]
    for _ in range(k):
        want = poly_product(want, p)
    assert power(p, k) == tuple(want)


@settings(max_examples=100, deadline=None)
@given(_polys, _polys)
def test_divide_undoes_product_and_refuses_a_remainder(a, b):
    ab = product(a, b)
    assert ab == tuple(poly_product(a, b))
    assert divide(ab, b) == tuple(a)
    if b not in ([1], [-1]):
        with pytest.raises(ArithmeticError):
            divide([ab[0] + 1, *ab[1:]], b)
