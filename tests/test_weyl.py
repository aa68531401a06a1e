from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from fmethod.algebra import Polynomial, monomials_up_to
from fmethod.weyl import WeylElement, symb_inverse


def x(i, arity=2):
    return Polynomial.variable(arity, i)


def test_apply_first_derivative():
    d1 = WeylElement.partial(2, 0)
    assert d1.apply(x(0) * x(0)) == x(0).scale(2)


def test_apply_coordinate_euler():
    theta1 = WeylElement.from_polynomial(x(0)).compose(WeylElement.partial(2, 0))
    p = Polynomial.monomial(2, (3, 2), 1)
    assert theta1.apply(p) == p.scale(3)


def test_apply_full_euler_homogeneous():
    E = WeylElement.euler(2)
    p = Polynomial.monomial(2, (2, 2), 5)
    assert E.apply(p) == p.scale(4)


def test_compose_commutation_relation():
    d1 = WeylElement.partial(2, 0)
    x1 = WeylElement.from_polynomial(x(0))
    got = d1.compose(x1)
    expected = WeylElement.identity(2) + x1.compose(d1)
    assert got == expected


def test_compose_with_identity():
    A = WeylElement.from_polynomial(x(1)).compose(WeylElement.partial(2, 0))
    assert A.compose(WeylElement.identity(2)) == A
    assert WeylElement.identity(2).compose(A) == A


def test_derivatives_commute():
    d1 = WeylElement.partial(2, 0)
    d2 = WeylElement.partial(2, 1)
    assert d1.compose(d2) == d2.compose(d1)


def test_fourier_generators():
    d1 = WeylElement.partial(2, 0)
    assert d1.fourier() == WeylElement.from_polynomial(
        Polynomial.variable(2, 0, "zeta")
    ).scale(-1)
    x1 = WeylElement.from_polynomial(x(0))
    assert x1.fourier() == WeylElement.partial(2, 0, "zeta")


def test_fourier_euler_factor():
    # x1 d1 goes to -d(zeta1) o zeta1 = -1 - zeta1 d(zeta1)
    op = WeylElement.from_polynomial(x(0)).compose(WeylElement.partial(2, 0))
    zeta1 = WeylElement.from_polynomial(Polynomial.variable(2, 0, "zeta"))
    expected = (zeta1.compose(WeylElement.partial(2, 0, "zeta")) + WeylElement.identity(2, "zeta")).scale(-1)
    assert op.fourier() == expected


def test_fourier_squared_negates_generators():
    for op in (WeylElement.partial(2, 0), WeylElement.from_polynomial(x(1))):
        assert op.fourier().fourier() == op.scale(-1)


def test_symb_round_trip():
    D = WeylElement.derivative_monomial(2, (1, 1))
    p = D.symbol()
    assert p == Polynomial.monomial(2, (1, 1), 1, "zeta")
    assert symb_inverse(p) == D
    assert symb_inverse(Polynomial.one(2, "zeta")) == WeylElement.identity(2)


def test_symb_inverse_mixed_power():
    # zeta_n^m zeta_1^l corresponds to the mixed derivative of order m + l
    p = Polynomial.monomial(2, (2, 3), 1, "zeta")
    assert symb_inverse(p) == WeylElement.derivative_monomial(2, (2, 3))


@st.composite
def weyl_elements(draw, arity=2):
    n_terms = draw(st.integers(1, 3))
    terms = {}
    for _ in range(n_terms):
        alpha = tuple(draw(st.integers(0, 2)) for _ in range(arity))
        mono = tuple(draw(st.integers(0, 2)) for _ in range(arity))
        coeff = draw(st.fractions(min_value=-3, max_value=3, max_denominator=2))
        if coeff:
            terms[alpha] = terms.get(alpha, Polynomial.zero(arity)) + Polynomial.monomial(
                arity, mono, coeff
            )
    return WeylElement(arity, terms)


@given(weyl_elements(), weyl_elements())
@settings(max_examples=40, deadline=None)
def test_compose_consistent_with_apply(A, B):
    C = A.compose(B)
    for mono in monomials_up_to(2, 3):
        f = Polynomial.monomial(2, mono, 1)
        assert C.apply(f) == A.apply(B.apply(f))


@given(weyl_elements(), weyl_elements())
@settings(max_examples=30, deadline=None)
def test_fourier_is_algebra_homomorphism(A, B):
    assert A.compose(B).fourier() == A.fourier().compose(B.fourier())


def test_restrict_last_var_normal_form():
    # Rest o (x2 d1) kills the coefficient, Rest o (x1 d2) keeps it
    op = WeylElement(2, {(1, 0): Polynomial.variable(2, 1)})
    assert op.restrict_last_var().is_zero()
    op = WeylElement(2, {(0, 1): Polynomial.variable(2, 0)})
    assert op.restrict_last_var() == op


def test_parse_weyl_round_trip():
    from fmethod.weyl import parse_weyl

    op = WeylElement(
        2,
        {
            (1, 1): Polynomial.monomial(2, (2, 0), Fraction(2, 3)),
            (0, 0): Polynomial.constant(2, -1),
            (3, 0): Polynomial.one(2),
        },
    )
    assert parse_weyl(str(op), 2) == op
    assert parse_weyl("0", 2).is_zero()
    assert parse_weyl("x1^2*d1*d2 + d3", 3) == WeylElement(
        3,
        {
            (1, 1, 0): Polynomial.monomial(3, (2, 0, 0), 1),
            (0, 0, 1): Polynomial.one(3),
        },
    )


def test_parse_weyl_poly_coefficient_round_trip():
    from fmethod.weyl import parse_weyl

    op = WeylElement(
        2,
        {(1, 0): Polynomial.variable(2, 0) - Polynomial.one(2)},
    )
    assert str(op) == "x1*d1 - d1"
    assert parse_weyl(str(op), 2) == op


def test_arity_and_role_guards():
    import pytest

    with pytest.raises(ValueError):
        WeylElement.partial(2, 0).compose(WeylElement.partial(3, 0))
    with pytest.raises(ValueError):
        WeylElement.partial(2, 0).apply(Polynomial.variable(3, 0))
    with pytest.raises(ValueError):
        WeylElement.partial(2, 0).apply(Polynomial.variable(2, 0, "zeta"))
    with pytest.raises(ValueError):
        # symbol needs constant coefficients
        WeylElement(2, {(1, 0): Polynomial.variable(2, 0)}).symbol()
