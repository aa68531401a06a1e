import itertools
import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from fmethod.algebra import Polynomial, canonical_sums, monomials_up_to
from fmethod.weyl import DUAL_VAR, WeylElement, symb_inverse
from references import is_exact_normal_form, restrict_last_var


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
    p = Polynomial.monomial(2, (1, 1), 1, "zeta")
    assert symb_inverse(p) == WeylElement.derivative_monomial(2, (1, 1))
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
    assert restrict_last_var(op).is_zero()
    op = WeylElement(2, {(0, 1): Polynomial.variable(2, 0)})
    assert restrict_last_var(op) == op


def test_printer_poly_coefficient():
    op = WeylElement(
        2,
        {(1, 0): Polynomial.variable(2, 0) - Polynomial.one(2)},
    )
    assert str(op) == "x1*d1 - d1"


def test_arity_and_role_guards():
    import pytest

    with pytest.raises(ValueError):
        WeylElement.partial(2, 0).compose(WeylElement.partial(3, 0))
    with pytest.raises(ValueError):
        WeylElement.partial(2, 0).apply(Polynomial.variable(3, 0))
    with pytest.raises(ValueError):
        WeylElement.partial(2, 0).apply(Polynomial.variable(2, 0, "zeta"))


# -- the shared printer against the Weyl copy as first written -----------------
#
# Test-only copy of `WeylElement.__str__` as it printed its own signed
# chunks, before one printer in `algebra` served `Polynomial` and
# `WeylElement`.


def _reference_monomial(mono, var):
    return "*".join(f"{var}{i + 1}" if e == 1 else f"{var}{i + 1}^{e}" for i, e in enumerate(mono) if e)


def reference_weyl_str(op):
    if not op.terms:
        return "0"
    bits = []
    for alpha, coeff in sorted(op.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]), reverse=True):
        dstr = _reference_monomial(alpha, "d")
        for mono, c in coeff.sorted_terms():
            mstr = _reference_monomial(mono, op.var)
            parts = [p for p in (mstr, dstr) if p]
            if not parts:
                body = str(abs(c))
            elif abs(c) == 1:
                body = "*".join(parts)
            else:
                body = "*".join([str(abs(c))] + parts)
            if not bits:
                bits.append(body if c > 0 else f"-{body}")
            else:
                bits.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(bits)


# negative, fractional, unit and constant coefficients; the zero operator
TEXT_COEFFS = [Fraction(c) for c in ("-3", "-1", "-1/2", "2/3", "1", "4")]
TEXT_COEFF_POLYS = [
    Polynomial(2, {m1: c1, m2: c2}, "zeta")
    for m1 in [(0, 0), (1, 0), (0, 2)]
    for m2 in [(0, 0), (2, 1)]
    for c1 in TEXT_COEFFS
    for c2 in TEXT_COEFFS[::3]
]
TEXT_OPS = [WeylElement.zero(2, "zeta")] + [
    WeylElement(2, {a1: p, a2: q}, "zeta")
    for a1, a2 in [((0, 0), (1, 0)), ((0, 1), (2, 1)), ((1, 0), (1, 0))]
    for p in TEXT_COEFF_POLYS
    for q in TEXT_COEFF_POLYS[::5]
]


def test_printer_and_parser_match_reference():
    for op in TEXT_OPS:
        assert str(op) == reference_weyl_str(op)
    assert str(TEXT_OPS[0]) == "0"


@given(weyl_elements())
@settings(max_examples=60, deadline=None)
def test_printer_and_parser_match_reference_random(op):
    assert str(op) == reference_weyl_str(op)


def test_coefficient_role_guard():
    import pytest

    zeta1 = Polynomial.variable(2, 0, "zeta")
    with pytest.raises(ValueError, match="variable role mismatch"):
        WeylElement.identity(2, "x") + zeta1
    with pytest.raises(ValueError, match="variable role mismatch"):
        WeylElement(2, {(1, 0): zeta1}, "x")
    # a bare scalar takes the operator's role
    assert WeylElement(2, {(0, 0): 3}, "zeta") == WeylElement.identity(2, "zeta").scale(3)


def test_equality_and_hash_see_the_role():
    assert WeylElement.zero(2, "x") != WeylElement.zero(2, "zeta")
    assert WeylElement.identity(2, "x") != WeylElement.identity(2, "zeta")
    assert WeylElement.partial(2, 0, "x") != WeylElement.partial(2, 0, "zeta")
    assert len({WeylElement.zero(2, "x"), WeylElement.zero(2, "zeta")}) == 2
    assert hash(WeylElement.zero(2, "x")) != hash(WeylElement.zero(2, "zeta"))
    assert WeylElement.zero(2, "zeta") == WeylElement.zero(2, "zeta")


# -- one-dict accumulation against the loops as first written --
#
# Test-only copies of `WeylElement.apply`, `compose` and `fourier` as they
# built one `Polynomial` product per term and added it to a running sum,
# before each summed its products into one {monomial: Fraction} dict.


def reference_apply(op, p):
    out = Polynomial.zero(op.arity, op.var)
    for alpha, coeff in op.terms.items():
        out = out + coeff * p.derivative_multi(alpha)
    return out


def reference_compose(A, B):
    result = {}
    for alpha, p in A.terms.items():
        for beta, q in B.terms.items():
            for gamma in itertools.product(*(range(a + 1) for a in alpha)):
                dq = q.derivative_multi(gamma)
                if dq.is_zero():
                    continue
                binom = 1
                for a, g in zip(alpha, gamma):
                    binom *= math.comb(a, g)
                rest = tuple(a - g for a, g in zip(alpha, gamma))
                key = tuple(r + b for r, b in zip(rest, beta))
                add = p * dq.scale(binom)
                cur = result.get(key)
                s = add if cur is None else cur + add
                if s.is_zero():
                    result.pop(key, None)
                else:
                    result[key] = s
    return WeylElement(A.arity, result, A.var)


def reference_fourier(op):
    new_var = DUAL_VAR[op.var]
    n = op.arity
    out = WeylElement.zero(n, new_var)
    for alpha, p in op.terms.items():
        dpart = WeylElement(
            n, {m: Polynomial.constant(n, c, new_var) for m, c in p.terms.items()}, new_var
        )
        sign = Fraction(-1) ** sum(alpha)
        mpart = WeylElement.from_polynomial(Polynomial.monomial(n, alpha, sign, new_var))
        out = out + reference_compose(dpart, mpart)
    return out


def poly_entries(p):
    """The terms of p, each checked to be nonzero and an int when integral, else a Fraction."""
    for c in p.terms.values():
        assert is_exact_normal_form(c)
    return dict(p.terms)


def op_entries(op):
    """{alpha: {monomial: coefficient}} of op, with no zero coefficient left."""
    for p in op.terms.values():
        assert p.var == op.var and not p.is_zero()
    return {a: poly_entries(p) for a, p in op.terms.items()}


# few distinct values, so that sums cancel often
SMALL_COEFFS = [Fraction(c) for c in ("-2", "-1", "-1/2", "1", "3/2")]


@st.composite
def operands(draw):
    """Two operators and a polynomial of one arity (1-4) and one role."""
    arity = draw(st.integers(1, 4))
    var = draw(st.sampled_from(("x", "zeta")))

    def exponents():
        return tuple(draw(st.integers(0, 2)) for _ in range(arity))

    def poly():
        n_terms = draw(st.integers(1, 3))
        terms = {exponents(): draw(st.sampled_from(SMALL_COEFFS)) for _ in range(n_terms)}
        return Polynomial(arity, terms, var)

    def op():
        n_terms = draw(st.integers(1, 3))
        return WeylElement(arity, {exponents(): poly() for _ in range(n_terms)}, var)

    return op(), op(), poly()


# cancelling cases: x1 d1 - x2 d2 kills x1*x2, and the rotation x2 d1 - x1 d2
# kills x1^2 + x2^2, so its composition with that square has no order-0 part
ROTATION = WeylElement(2, {(1, 0): Polynomial.variable(2, 1), (0, 1): -Polynomial.variable(2, 0)})
SQUARE = Polynomial.monomial(2, (2, 0)) + Polynomial.monomial(2, (0, 2))
CANCELLING = [
    (
        WeylElement(2, {(1, 0): Polynomial.variable(2, 0), (0, 1): -Polynomial.variable(2, 1)}),
        WeylElement.from_polynomial(SQUARE),
        Polynomial.monomial(2, (1, 1)),
    ),
    (ROTATION, WeylElement.from_polynomial(SQUARE), SQUARE),
]


def assert_matches_reference(A, B, f):
    assert poly_entries(A.apply(f)) == poly_entries(reference_apply(A, f))
    assert op_entries(A.compose(B)) == op_entries(reference_compose(A, B))
    assert op_entries(A.fourier()) == op_entries(reference_fourier(A))


def test_apply_compose_fourier_match_reference_on_cancellations():
    for A, B, f in CANCELLING:
        assert_matches_reference(A, B, f)
    A, B, f = CANCELLING[0]
    assert A.apply(f).is_zero()
    A, B, f = CANCELLING[1]
    assert A.apply(f).is_zero()
    assert (0, 0) not in A.compose(B).terms


@given(operands())
@settings(max_examples=150, deadline=None)
def test_apply_compose_fourier_match_reference(case):
    A, B, f = case
    assert_matches_reference(A, B, f)
    assert_matches_reference(B, A, f)


# -- the kernel `sums` and the exact-scalar normal form ---------------------------


def _canonical(terms):
    """A term dict without its cancelled zeros, through `canonical_sums`."""
    return canonical_sums({(): terms}).get((), {})


def test_sums_keep_the_cancelled_zeros_that_apply_drops():
    for A, _, f in CANCELLING:
        sums = A.sums(f.terms)
        assert sums and not any(sums.values())
        assert _canonical(sums) == {} and A.apply(f).is_zero()
    A, _, f = CANCELLING[0]
    acc = {(9, 9): 5}
    assert A.sums(f.terms, acc) is acc and acc[(9, 9)] == 5


@given(operands())
@settings(max_examples=150, deadline=None)
def test_sums_are_the_terms_of_apply(case):
    A, B, f = case
    for op, p in [(A, f), (B, f), (A.compose(B), f)] + [(C, g) for C, _, g in CANCELLING]:
        assert _canonical(op.sums(p.terms)) == poly_entries(op.apply(p))


# ints, bools, integral Fractions (Fraction(2k, 2)) and non-integral Fractions
MIXED = st.one_of(
    st.integers(-2, 2),
    st.booleans(),
    st.integers(-2, 2).map(lambda k: Fraction(2 * k, 2)),
    st.sampled_from([Fraction(-1, 2), Fraction(3, 2), Fraction(2, 3)]),
)


@st.composite
def mixed_inputs(draw):
    """(arity, var, p, q, A, B, s, alpha) as raw term dicts with MIXED coefficients."""
    arity = draw(st.integers(1, 3))

    def expo():
        return tuple(draw(st.integers(0, 2)) for _ in range(arity))

    def terms():
        return {expo(): draw(MIXED) for _ in range(draw(st.integers(0, 3)))}

    def op():
        return {expo(): terms() for _ in range(draw(st.integers(0, 3)))}

    var = draw(st.sampled_from(("x", "zeta")))
    return arity, var, terms(), terms(), op(), op(), draw(MIXED), expo()


def _results(arity, var, p, q, A, B, s, alpha, convert):
    """Every operation's result on the inputs, each coefficient passed through `convert` first."""
    def poly(t):
        return Polynomial(arity, {m: convert(c) for m, c in t.items()}, var)

    def weyl(t):
        return WeylElement(arity, {a: poly(c) for a, c in t.items()}, var)

    p, q, A, B = poly(p), poly(q), weyl(A), weyl(B)
    s = convert(s)
    return [
        p + q, p - q, p.scale(s), p.derivative_multi(alpha), p.pad_vars(arity + 1),
        A + B, A - B, A.scale(s), A.pad_vars(arity + 1), A.apply(p), A.compose(B), A.fourier(),
    ]


def _coefficients(x):
    if isinstance(x, Polynomial):
        return list(x.terms.values())
    return [c for p in x.terms.values() for c in p.terms.values()]


@given(mixed_inputs())
@settings(max_examples=150, deadline=None)
def test_every_operation_keeps_the_exact_normal_form(inputs):
    got = _results(*inputs, convert=lambda c: c)
    expected = _results(*inputs, convert=Fraction)
    for a, b in zip(got, expected):
        assert a == b
        assert all(is_exact_normal_form(c) for c in _coefficients(a) + _coefficients(b))
