from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fmethod.algebra import (
    Matrix,
    Polynomial,
    format_polynomial,
    monomial_basis,
    parse_polynomial,
    rank_of_vectors,
    same_span,
    sparse_nullspace,
)


def zeta(i, arity=2):
    return Polynomial.variable(arity, i, "zeta")


def test_mul_variables():
    assert zeta(0) * zeta(1) == Polynomial.monomial(2, (1, 1), 1, "zeta")


def test_mul_identity():
    p = zeta(0) + zeta(1).scale(3)
    assert p * Polynomial.one(2, "zeta") == p


def test_square_expansion():
    # (z1 + z2)^2 = z1^2 + 2 z1 z2 + z2^2, by hand
    p = zeta(0) + zeta(1)
    expected = Polynomial(
        2,
        {(2, 0): 1, (1, 1): 2, (0, 2): 1},
        "zeta",
    )
    assert p * p == expected


def test_monomial_basis_order_and_counts():
    assert monomial_basis(2, 1) == [(1, 0), (0, 1)]
    assert len(monomial_basis(3, 2)) == 6
    assert monomial_basis(2, 0) == [(0, 0)]


def test_nullspace_identity():
    assert Matrix([[1, 0], [0, 1]]).nullspace() == []


def test_nullspace_zero_matrix():
    basis = Matrix([[0, 0], [0, 0]]).nullspace()
    assert basis == [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]


def test_nullspace_row():
    # hand solve: x + y = 0, normalized so the first entry is 1
    assert Matrix([[1, 1]]).nullspace() == [[Fraction(1), Fraction(-1)]]


def test_sparse_nullspace_matches_dense():
    rows = [{0: Fraction(1), 2: Fraction(3)}, {1: Fraction(2)}]
    dense = Matrix([[1, 0, 3], [0, 2, 0]])
    assert sparse_nullspace(rows, 3) == dense.nullspace() == [[1, 0, Fraction(-1, 3)]]


def test_sparse_nullspace_without_rows_is_the_unit_basis():
    assert sparse_nullspace([], 2) == [[1, 0], [0, 1]]
    assert sparse_nullspace([], 0) == []


def test_nullspace_exactness_and_rank_nullity():
    M = Matrix([[1, 2, 3], [2, 4, 6], [1, 1, 1]])
    basis = M.nullspace()
    for v in basis:
        assert all(x == 0 for x in M.mul_vector(v))
    assert M.rank() + len(basis) == M.ncols


small_fractions = st.fractions(
    min_value=-4, max_value=4, max_denominator=3
).filter(lambda f: f != 0)


@st.composite
def polynomials(draw, arity=2, max_degree=3):
    n_terms = draw(st.integers(0, 4))
    terms = {}
    for _ in range(n_terms):
        mono = tuple(draw(st.integers(0, max_degree)) for _ in range(arity))
        terms[mono] = draw(small_fractions)
    return Polynomial(arity, terms, "zeta")


@given(polynomials(), polynomials())
@settings(max_examples=60, deadline=None)
def test_mul_commutative(p, q):
    assert p * q == q * p


@given(polynomials(), polynomials())
@settings(max_examples=60, deadline=None)
def test_degree_additive(p, q):
    if p.is_zero() or q.is_zero():
        assert (p * q).is_zero()
    else:
        assert (p * q).degree() == p.degree() + q.degree()


@given(polynomials())
@settings(max_examples=60, deadline=None)
def test_print_parse_round_trip(p):
    assert parse_polynomial(format_polynomial(p), 2, "zeta") == p


def test_parse_fractional_coefficients():
    p = parse_polynomial("2/3*zeta1^2*zeta2 - zeta2 + 1", 2, "zeta")
    assert p.coefficient((2, 1)) == Fraction(2, 3)
    assert p.coefficient((0, 1)) == -1
    assert p.coefficient((0, 0)) == 1
    assert format_polynomial(p) == "2/3*zeta1^2*zeta2 - zeta2 + 1"


def test_span_helpers():
    a = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
    b = [[Fraction(1), Fraction(1)], [Fraction(1), Fraction(-1)]]
    assert same_span(a, b)
    assert rank_of_vectors(a + b) == 2


def test_arity_and_role_guards():
    with pytest.raises(ValueError):
        Polynomial.variable(2, 0) * Polynomial.variable(3, 0)
    with pytest.raises(ValueError):
        Polynomial.variable(2, 0) * Polynomial.variable(2, 0, "zeta")
    with pytest.raises(ValueError):
        monomial_basis(2, -1)
