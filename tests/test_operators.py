import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fmethod.operators as operators
from fmethod.algebra import Polynomial, canonical_sums, monomial_basis, monomials_up_to
from fmethod.engine import psi_vector, solve_fsystem, weight_degree_cap
from fmethod.liealg import LieElement, parabolic
from fmethod.operators import (
    SBO,
    ProjOp,
    build_ido,
    build_proj,
    build_sbo,
    check_equivariance,
    fg_submodule,
    image_computations,
    sbo_from_solution,
    verify_factorization_sbo,
)
from fmethod.rep import (
    ScalarRepParams,
    TargetRepParams,
    VectorValuedPolynomial,
    dpi_lambda,
    dpi_target,
)
from fmethod.weyl import WeylElement
from references import (
    equivariance_violations,
    is_exact_normal_form,
    rest,
    sbo_after,
    target_before,
)


def mono(n, expo, c=1):
    return Polynomial.monomial(n, expo, c)


def test_sbo_normal_derivative_factorial():
    D = build_sbo(2, 0, 3)
    out = D.apply(mono(3, (0, 0, 2)))
    assert out == VectorValuedPolynomial(2, {(0, 0): Polynomial.constant(2, 2)})


def test_sbo_mixed_case_n2():
    D = build_sbo(1, 1, 2)
    out = D.apply(mono(2, (1, 1)))
    assert out == VectorValuedPolynomial(1, {(1,): Polynomial.one(1)})


def test_sbo_rest_only():
    D = build_sbo(0, 0, 2)
    out = D.apply(mono(2, (2, 0)) + mono(2, (0, 1)))
    assert out == VectorValuedPolynomial(1, {(0,): Polynomial.monomial(1, (2,), 1)})


def test_sbo_vector_output():
    D = build_sbo(1, 1, 3)
    out = D.apply(mono(3, (1, 1, 1)))
    expected = VectorValuedPolynomial(
        2,
        {(1, 0): Polynomial.variable(2, 1), (0, 1): Polynomial.variable(2, 0)},
    )
    assert out == expected


def test_sbo_low_degree_annihilation():
    D = build_sbo(2, 1, 3)
    for expo in monomials_up_to(3, 2):
        assert D.apply(mono(3, expo)).is_zero()


def test_sbo_degree_drop():
    D = build_sbo(1, 1, 3)
    f = mono(3, (2, 1, 2))
    out = D.apply(f)
    for p in out.components.values():
        assert p.degree() <= 5 - 2


def test_ido_gradient_and_identity():
    D1 = build_ido(1, 2)
    out = D1.apply(mono(2, (1, 1)))
    assert out == VectorValuedPolynomial(
        2, {(1, 0): Polynomial.variable(2, 1), (0, 1): Polynomial.variable(2, 0)}
    )
    D0 = build_ido(0, 2)
    f = mono(2, (2, 1))
    assert D0.apply(f) == VectorValuedPolynomial(2, {(0, 0): f})


def test_ido_normalized_square():
    # second-order operator on x1^2: component at ytilde_(2,0) is 2
    D2 = build_ido(2, 2)
    out = D2.apply(mono(2, (2, 0)))
    assert out == VectorValuedPolynomial(2, {(2, 0): Polynomial.constant(2, 2)})


@pytest.mark.parametrize("label", [(), (1,), (1, 0, 0)])
def test_ido_rejects_a_label_that_is_not_an_n_tuple(label):
    # the kernel zips the label with each output label, so a short label would
    # merge distinct outputs: at (), x1^2*x2 gave the scalar x1^2 + 2*x1*x2
    v = VectorValuedPolynomial(2, {label: mono(2, (2, 1))})
    with pytest.raises(ValueError, match="label length differs from n = 2"):
        build_ido(1, 2).apply(v)


def _ido_reference(k, n, f):
    """Reference: the Weyl operator d^label applied to f at every label of Xi_k."""
    ops = [(lbl, WeylElement.derivative_monomial(n, lbl)) for lbl in monomial_basis(n, k)]
    if isinstance(f, Polynomial):
        return VectorValuedPolynomial(n, {lbl: op.apply(f) for lbl, op in ops}, f.var)
    comps = {}
    for lbl, op in ops:
        for in_lbl, p in f.components.items():
            out = tuple(a + b for a, b in zip(lbl, in_lbl))
            comps[out] = comps.get(out, Polynomial.zero(n)) + op.apply(p)
    return VectorValuedPolynomial(n, comps, f.var)


@pytest.mark.parametrize("k,n", [(0, 2), (1, 3), (2, 2), (3, 3)])
def test_ido_components_are_shared_and_match_reference(k, n):
    D = build_ido(k, n)
    for expo in monomials_up_to(n, 4):
        f = mono(n, expo, Fraction(2, 3)) + mono(n, (1,) * n, -1)
        assert D.apply(f) == _ido_reference(k, n, f)
        v = VectorValuedPolynomial(n, {(1,) + (0,) * (n - 1): f, (0,) * n: mono(n, expo)})
        assert D.apply(v) == _ido_reference(k, n, v)


_coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def ido_inputs(draw):
    """(k, n, f): f a multi-term polynomial (zero included) or Pol-valued vector.

    A vector may carry d^L1 g at label L1 and -d^L2 g at L2 (|L1| = |L2| = k):
    their images cancel at label L1 + L2, and L1 = L2 cancels on input."""
    n, k = draw(st.integers(1, 4)), draw(st.integers(0, 5))

    def poly():
        terms = {}
        for _ in range(draw(st.integers(0, 4))):
            terms[tuple(draw(st.integers(0, 4)) for _ in range(n))] = draw(_coeffs)
        return Polynomial(n, terms)

    if draw(st.booleans()):
        return k, n, poly()
    labels = st.tuples(*(st.integers(0, 2) for _ in range(n)))
    v = VectorValuedPolynomial(n, {draw(labels): poly() for _ in range(draw(st.integers(0, 3)))})
    if draw(st.booleans()):
        g = poly()
        L1, L2 = (draw(st.sampled_from(monomial_basis(n, k))) for _ in range(2))
        v = v + VectorValuedPolynomial(n, {L1: g.derivative_multi(L1)})
        v = v - VectorValuedPolynomial(n, {L2: g.derivative_multi(L2)})
    return k, n, v


def _terms(v):
    """A vector's {label: {monomial: coefficient}}, the form the kernels' sums take."""
    return {lbl: p.terms for lbl, p in v.components.items()}


@given(ido_inputs())
@settings(max_examples=150, deadline=None)
def test_ido_kernel_matches_reference(inputs):
    k, n, f = inputs
    D = build_ido(k, n)
    out = D.apply(f)
    assert out == _ido_reference(k, n, f)
    assert all(not p.is_zero() for p in out.components.values())
    comps = _terms(f) if isinstance(f, VectorValuedPolynomial) else {(0,) * n: f.terms}
    assert canonical_sums(D.sums(comps)) == _terms(out)


@pytest.mark.parametrize(
    "f",
    [
        Polynomial.variable(2, 0),
        Polynomial.zero(2),
        Polynomial.variable(3, 0, "zeta"),
        VectorValuedPolynomial(2, {(1, 0): Polynomial.variable(2, 0)}),
        VectorValuedPolynomial.zero(2),
        VectorValuedPolynomial(3, {(1, 0, 0): Polynomial.variable(3, 0, "zeta")}, "zeta"),
    ],
    ids=["poly-arity", "zero-poly-arity", "poly-zeta", "vector-arity", "zero-vector-arity", "vector-zeta"],
)
def test_ido_rejects_a_foreign_arity_or_role(f):
    with pytest.raises(ValueError, match="arity mismatch|variable role mismatch"):
        build_ido(1, 3).apply(f)


def test_proj_selects_components():
    v = VectorValuedPolynomial(
        2,
        {
            (1, 1): Polynomial.variable(2, 0),
            (2, 0): Polynomial.one(2),
            (0, 2): Polynomial.variable(2, 1),
        },
    )
    out = build_proj(1, 1, 2).apply(v)
    assert out == VectorValuedPolynomial(1, {(1,): Polynomial.variable(1, 0)})


@pytest.mark.parametrize(
    "n,m,ell,lam",
    [
        (3, 1, 0, Fraction(5)),
        (3, 2, 1, Fraction(-2)),
        (2, 0, 1, Fraction(0)),
        (2, 2, 0, Fraction(0)),
    ],
)
def test_equivariance_on_members(n, m, ell, lam):
    nu = lam + m + Fraction(n, n - 1) * ell
    src = ScalarRepParams.sl(n, lam)
    tgt = TargetRepParams.sl(n, nu, ell=ell)
    rep = check_equivariance(build_sbo(m, ell, n), src, tgt)
    assert rep["status"] == "pass"


def test_equivariance_violation_has_witness():
    src = ScalarRepParams.sl(3, Fraction(5))
    tgt = TargetRepParams.sl(3, Fraction(7), ell=0)  # nu != lambda + 1
    rep = check_equivariance(build_sbo(1, 0, 3), src, tgt)
    assert rep["status"] == "fail"
    assert rep["violations"]
    assert rep["violations"][0]["monomial"] is not None


def test_equivariance_gl_member():
    src = ScalarRepParams.gl(2, Fraction(-1), Fraction(1, 2))
    tgt = TargetRepParams.gl(2, Fraction(2), Fraction(-1, 2), ell=1)
    rep = check_equivariance(build_sbo(1, 1, 2), src, tgt)
    assert rep["status"] == "pass"


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("m,ell", [(1, 1), (0, 2), (2, 0), (2, 1)])
def test_factorization(n, m, ell):
    rep = verify_factorization_sbo(m, ell, n, 5)
    assert rep["status"] == "pass"


def test_factorization_fails_when_the_projection_selects_m_plus_one(monkeypatch):
    monkeypatch.setattr(operators, "build_proj", lambda m, ell, n: ProjOp(n, m + 1, ell))
    rep = verify_factorization_sbo(1, 1, 3, 4)
    assert rep["status"] == "fail"
    assert rep["counterexample"] is not None


def test_factorization_fails_when_the_ido_drops_a_falling_factorial(monkeypatch):
    labels = operators._labels_below
    monkeypatch.setattr(
        operators, "_labels_below", lambda e, k: [(a, 1) for a, _ in labels(e, k)]
    )
    rep = verify_factorization_sbo(2, 0, 3, 4)
    assert rep["status"] == "fail"
    assert rep["counterexample"] is not None


def test_factorization_fails_when_the_ido_has_the_wrong_order_above_the_cap(monkeypatch):
    # m + l = 7 exceeds the cap 6: every route is 0 below degree 7, so only
    # checking up to degree m + l sees that route c's IDO has order 8
    ido = operators.build_ido
    monkeypatch.setattr(operators, "build_ido", lambda k, n: ido(8 if k == 7 else k, n))
    rep = verify_factorization_sbo(4, 3, 3, 6)
    assert rep["status"] == "fail"
    assert rep["counterexample"] is not None
    assert rep["degree_cap"] == 6 and rep["monomials_checked"] == math.comb(7 + 3, 3)


@pytest.mark.parametrize("n,m,ell", [(2, 1, 1), (3, 2, 1), (4, 0, 2)])
def test_factorization_compares_exact_coefficients_only(monkeypatch, n, m, ell):
    seen = []

    def recording(sums):
        out = canonical_sums(sums)
        seen.append(out)
        return out

    monkeypatch.setattr(operators, "canonical_sums", recording)
    rep = verify_factorization_sbo(m, ell, n, 5)
    assert rep["status"] == "pass"
    assert len(seen) == 3 * rep["monomials_checked"]
    coefficients = [c for sums in seen for terms in sums.values() for c in terms.values()]
    assert coefficients and all(type(c) in (int, Fraction) for c in coefficients)


def _first_failing_monomial(m, ell, n, cap):
    """The check as it ran on built polynomials and vectors: the first monomial,
    in `monomials_up_to` order, on which the three routes differ."""
    D_ml, D_m0 = build_sbo(m, ell, n), build_sbo(m, 0, n)
    ido_big, ido_prime = operators.build_ido(m + ell, n), operators.build_ido(ell, n - 1)
    proj = operators.build_proj(m, ell, n)
    for expo in monomials_up_to(n, max(cap, m + ell)):
        f = mono(n, expo)
        a = D_ml.apply(f)
        b = ido_prime.apply(D_m0.apply(f).components.get((0,) * (n - 1), Polynomial.zero(n - 1)))
        c = proj.apply(ido_big.apply(f))
        if not a == b == c:
            return expo
    return None


def _falling_factorial_dropped_above(bound):
    labels = operators._labels_below
    return lambda e, k: [(a, f if max(e) <= bound else 1) for a, f in labels(e, k)]


@pytest.mark.parametrize(
    "attr, fault",
    [
        ("build_proj", lambda m, ell, n: ProjOp(n, m + 1, ell)),
        ("_labels_below", _falling_factorial_dropped_above(2)),
    ],
    ids=["projection-selects-m-plus-one", "ido-drops-falling-factorials-above-2"],
)
def test_factorization_counterexample_is_the_first_failing_monomial(monkeypatch, attr, fault):
    monkeypatch.setattr(operators, attr, fault)
    expected = _first_failing_monomial(2, 1, 3, 5)
    assert expected is not None and expected != monomials_up_to(3, 5)[0]
    rep = verify_factorization_sbo(2, 1, 3, 5)
    assert rep["status"] == "fail"
    assert rep["counterexample"] == [expected]


def test_fg_stability_small_weights():
    for n in (2, 3):
        for k in (1, 2, 3):
            assert fg_submodule(k, n)["status"] == "pass"


def test_fg_stability_boundary_case():
    # lambda = 0: the constants are killed by every raising operator
    from fmethod.liealg import parabolic
    from fmethod.rep import dpi_lambda

    pd = parabolic(3)
    params = ScalarRepParams.sl(3, Fraction(0))
    for j in range(1, 4):
        assert dpi_lambda(pd.n_plus(j), params).apply(Polynomial.one(3)).is_zero()


def test_image_computations():
    rep = image_computations(1, 2, 3)
    assert rep["status"] == "pass"
    rep = image_computations(2, 0, 2)
    assert rep["status"] == "pass"


def test_duality_triangle_against_solutions():
    # classified solution at n = 3, (m, ell) = (2, 1): Rest o symb^{-1} is D_(2,1)
    lam = Fraction(-2)
    nu = lam + 2 + Fraction(3, 2)
    src = ScalarRepParams.sl(3, lam, 0)
    tgt = TargetRepParams.sl(3, nu, ell=1, beta=1)
    sol = solve_fsystem(src, tgt, weight_degree_cap(nu - lam))
    assert sol.dim == 1
    got = sbo_from_solution(sol.basis[0])
    assert dict(got.components) == dict(build_sbo(2, 1, 3).components)


@pytest.mark.parametrize("m", range(5))
@pytest.mark.parametrize("ell", range(5))
def test_duality_triangle_model_vectors(m, ell):
    n = 3
    got = sbo_from_solution(psi_vector(m, ell, n))
    assert dict(got.components) == dict(build_sbo(m, ell, n).components)


def test_witness_consistency_with_application():
    # a reported witness really violates the identity at polynomial level
    from fmethod.rep import dpi_lambda, dpi_target

    src = ScalarRepParams.sl(3, Fraction(5))
    tgt = TargetRepParams.sl(3, Fraction(7), ell=0)
    D = build_sbo(1, 0, 3)
    rep = check_equivariance(D, src, tgt)
    v = rep["violations"][0]
    from fmethod.liealg import parabolic

    pd = parabolic(3)
    for X in pd.g_basis(primed=True):
        f = Polynomial.monomial(3, v["monomial"], 1)
        lhs = D.apply(dpi_lambda(X, src).apply(f))
        rhs = dpi_target(X, tgt).apply(D.apply(f))
        if not (lhs - rhs).is_zero():
            return
    pytest.fail("no basis element violated at the reported monomial")


def test_sbo_first_normal_derivative():
    D = build_sbo(1, 0, 3)
    assert D.apply(mono(3, (0, 0, 1))) == VectorValuedPolynomial(
        2, {(0, 0): Polynomial.one(2)}
    )


def test_ido_order_one_is_total_gradient():
    D1 = build_ido(1, 3)
    f = mono(3, (1, 0, 2))
    out = D1.apply(f)
    assert out.components[(1, 0, 0)] == mono(3, (0, 0, 2))
    assert out.components[(0, 0, 1)] == mono(3, (1, 0, 1), 2)


# -- SBO components and the term-by-term kernels ------------------------------


@pytest.mark.parametrize(
    "components",
    [
        (((0, 0), WeylElement.from_polynomial(Polynomial.variable(3, 0))),),
        (((0, 0), WeylElement.derivative_monomial(2, (1, 0))),),
        (((0, 0), WeylElement.derivative_monomial(3, (1, 0, 0), var="zeta")),),
        (((0, 0), Polynomial.one(3)),),
        (((0,), WeylElement.identity(3)),),
        (([0, 0], WeylElement.identity(3)),),
    ],
    ids=["non-constant", "arity", "zeta", "not-an-operator", "label-length", "label-list"],
)
def test_sbo_rejects_a_component_that_is_no_constant_coefficient_x_operator(components):
    with pytest.raises(ValueError):
        SBO(3, components)


def test_sbo_accepts_zero_and_multi_term_components():
    D = SBO(3, (((1, 0), WeylElement.zero(3)), ((0, 1), WeylElement(3, {(0, 1, 2): 2, (1, 0, 2): -1}))))
    assert D.apply(mono(3, (1, 1, 2))) == VectorValuedPolynomial(
        2, {(0, 1): Polynomial.variable(2, 0) * 4 - Polynomial.variable(2, 1) * 2}
    )


_orders = st.integers(0, 2)


@st.composite
def sbos(draw, n, ell):
    """build_sbo, or multi-term rational constant-coefficient components on labels of Xi'_l."""
    if draw(st.booleans()):
        return build_sbo(draw(st.integers(0, 3)), ell, n)
    labels = draw(st.lists(st.sampled_from(monomial_basis(n - 1, ell)), unique=True, max_size=4))
    comps = []
    for lbl in labels:
        terms = {}
        for _ in range(draw(st.integers(1, 3))):
            terms[tuple(draw(_orders) for _ in range(n))] = draw(_coeffs)
        comps.append((lbl, WeylElement(n, terms)))
    return SBO(n, tuple(comps))


# integral weights include the critical values 1 - k
_weights = st.one_of(st.integers(-5, 2).map(Fraction), _coeffs)


@st.composite
def equivariance_cases(draw):
    """(D, X, source, target) for SL or GL at n in {2, 3, 4}; X is a basis
    element of g' or a rational combination of the basis."""
    flavor, n = draw(st.sampled_from([(f, n) for f in ("sl", "gl") for n in (2, 3, 4)]))
    ell = draw(st.integers(0, 2))
    pd = parabolic(n, flavor)
    basis = pd.g_basis(primed=True)
    if draw(st.booleans()):
        X = draw(st.sampled_from(basis))
    else:
        X = LieElement.zero(pd.size, flavor)
        for B in draw(st.lists(st.sampled_from(basis), min_size=1, max_size=3)):
            X = X.add(B.scale(draw(_coeffs)))
    if flavor == "sl":
        src = ScalarRepParams.sl(n, draw(_weights))
        tgt = TargetRepParams.sl(n, draw(_weights), ell=ell)
    else:
        src = ScalarRepParams.gl(n, draw(_weights), draw(_weights))
        tgt = TargetRepParams.gl(n, draw(_weights), draw(_weights), ell=ell)
    return draw(sbos(n, ell)), X, src, tgt


def _nonzero(ops):
    return {lbl: w for lbl, w in ops.items() if not w.is_zero()}


def _normal_forms(ops):
    """{label: {alpha: {monomial: coefficient}}} of built operators, each term checked."""
    for w in ops.values():
        assert all(is_exact_normal_form(c) for p in w.terms.values() for c in p.terms.values())
    return {lbl: {a: p.terms for a, p in w.terms.items()} for lbl, w in ops.items()}


@given(equivariance_cases())
@settings(max_examples=120, deadline=None)
def test_sbo_after_kernel_matches_generic_composition(case):
    D, X, src, _ = case
    op = dpi_lambda(X, src)
    sums = operators._compose_sbo_after(D, op)
    assert {lbl: canonical_sums(s) for lbl, s in sums.items()} == _normal_forms(sbo_after(D, op))


@given(equivariance_cases())
@settings(max_examples=120, deadline=None)
def test_target_before_kernel_matches_generic_composition(case):
    D, X, _, tgt = case
    T = dpi_target(X, tgt)
    sums = operators._compose_target_before(T, D)
    got = {lbl: canonical_sums(s) for lbl, s in sums.items()}
    assert {lbl: s for lbl, s in got.items() if s} == _normal_forms(_nonzero(target_before(T, D)))


@st.composite
def sbo_inputs(draw):
    """(D, f): f a multi-term polynomial, zero included.  With a flag, D gets a
    component c (d^a1 + d^a2) with a1_n = a2_n, and f the two terms whose images
    under it cancel at x^t."""
    n, ell = draw(st.integers(2, 4)), draw(st.integers(0, 2))
    D = draw(sbos(n, ell))
    terms = {}
    for _ in range(draw(st.integers(0, 4))):
        terms[tuple(draw(st.integers(0, 4)) for _ in range(n))] = draw(_coeffs)
    f = Polynomial(n, terms)
    if draw(st.booleans()):
        a1, a2 = (tuple(draw(_orders) for _ in range(n - 1)) for _ in range(2))
        an = draw(_orders)
        a1, a2 = a1 + (an,), a2 + (an,)
        t = tuple(draw(_orders) for _ in range(n - 1)) + (0,)
        comp = WeylElement(n, {a1: 1}) + WeylElement(n, {a2: 1})
        D = SBO(n, D.components + (((9,) * (n - 1), comp.scale(draw(_coeffs))),))
        for a, sign in ((a1, 1), (a2, -1)):
            e = tuple(x + y for x, y in zip(t, a))
            fall = math.prod(math.perm(x, y) for x, y in zip(e, a))
            f = f + mono(n, e, Fraction(sign, fall))
    return D, f


@given(sbo_inputs())
@settings(max_examples=150, deadline=None)
def test_sbo_apply_matches_the_per_label_weyl_path(inputs):
    D, f = inputs
    reference = VectorValuedPolynomial(D.n - 1, {lbl: rest(op.apply(f)) for lbl, op in D.components})
    out = D.apply(f)
    assert out == reference
    assert all(not p.is_zero() for p in out.components.values())
    assert canonical_sums(D.sums(f.terms)) == _terms(out)


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_proj_matches_selection_over_xi_prime(data):
    """Against the lookup of every label of Xi'_l at m; the input also holds
    labels of that form and labels of other m, total degree or length."""
    n, m, ell = data.draw(st.integers(2, 4)), data.draw(st.integers(0, 3)), data.draw(st.integers(0, 3))
    near = [lbl + (x,) for lbl in monomial_basis(n - 1, ell) for x in (m, m + 1)]
    labels = data.draw(st.lists(st.sampled_from(near), unique=True, max_size=6))
    labels += data.draw(st.lists(st.tuples(*(st.integers(0, 3) for _ in range(n))), max_size=4))
    v = VectorValuedPolynomial(n, {lbl: mono(n, lbl[::-1], 1) + mono(n, (0,) * n, 2) for lbl in labels})
    reference = {}
    for lbl in monomial_basis(n - 1, ell):
        p = v.components.get(lbl + (m,))
        if p is not None:
            reference[lbl] = rest(p)
    proj = build_proj(m, ell, n)
    out = proj.apply(v)
    assert out == VectorValuedPolynomial(n - 1, reference)
    assert canonical_sums(proj.sums(_terms(v))) == _terms(out)


def test_non_member_violations_are_unchanged():
    """The three non-member cells of the benchmark, violation for violation."""
    S, T = ScalarRepParams.sl, TargetRepParams.sl
    cells = [
        (3, 1, 0, S(3, Fraction(5)), T(3, Fraction(7), ell=0)),
        (2, 0, 1, S(2, Fraction(5)), T(2, Fraction(7), ell=1)),
        (3, 2, 1, S(3, Fraction(1, 3)), T(3, Fraction(1, 3) + 2 + Fraction(3, 2), ell=1)),
    ]
    expected = [
        [
            {"X": "E11 + -1/2*E22 + -1/2*E33", "component": (0, 0), "monomial": (0, 0, 1)},
            {"X": "E12", "component": (0, 0), "monomial": (0, 0, 1)},
            {"X": "E13", "component": (0, 0), "monomial": (0, 0, 1)},
        ],
        [{"X": "E12", "component": (1,), "monomial": (0, 0)}],
        [
            {"X": "E12", "component": (1, 0), "monomial": (0, 0, 2)},
            {"X": "E13", "component": (0, 1), "monomial": (0, 0, 2)},
        ],
    ]
    for (n, m, ell, src, tgt), violations in zip(cells, expected):
        rep = check_equivariance(build_sbo(m, ell, n), src, tgt)
        assert rep["status"] == "fail"
        assert rep["violations"] == violations


# -- check_equivariance against the operator-level loop it replaced ------------

_S, _T = ScalarRepParams.sl, TargetRepParams.sl
# D_(1,1) on R^3 without its (0, 1) component: the target action moves the
# (1, 0) component to the label (0, 1), which only the right side holds
_ONE_LABEL = SBO(3, (((1, 0), WeylElement.derivative_monomial(3, (1, 0, 1))),), 1, 1)


@pytest.mark.parametrize(
    "D, src, tgt",
    [
        (build_sbo(1, 0, 3), _S(3, Fraction(5)), _T(3, Fraction(7), ell=0)),
        (build_sbo(0, 1, 2), _S(2, Fraction(5)), _T(2, Fraction(7), ell=1)),
        (build_sbo(2, 1, 3), _S(3, Fraction(1, 3)), _T(3, Fraction(1, 3) + 2 + Fraction(3, 2), ell=1)),
        (_ONE_LABEL, _S(3, Fraction(5)), _T(3, Fraction(15, 2), ell=1)),
        (_ONE_LABEL, _S(3, Fraction(5)), _T(3, Fraction(7), ell=1)),
    ],
    ids=["n3-m1-l0", "n2-m0-l1", "n3-m2-l1", "one-label-member", "one-label-non-member"],
)
def test_equivariance_report_matches_the_operator_loop_at_non_members(D, src, tgt):
    rep = check_equivariance(D, src, tgt)
    assert rep["status"] == "fail"
    assert rep["violations"] == equivariance_violations(D, src, tgt)


def test_a_label_only_the_target_side_reaches_is_compared():
    rep = check_equivariance(_ONE_LABEL, _S(3, Fraction(5)), _T(3, Fraction(15, 2), ell=1))
    assert any(v["component"] == (0, 1) for v in rep["violations"])


@given(equivariance_cases())
@settings(max_examples=30, deadline=None)
def test_equivariance_report_matches_the_operator_loop(case):
    D, _, src, tgt = case
    assert check_equivariance(D, src, tgt)["violations"] == equivariance_violations(D, src, tgt)
