import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fmethod.algebra import Polynomial, canonical_sums, monomials_up_to
from fmethod.liealg import GL, SL, LieElement, bracket, parabolic
from fmethod.rep import (
    OperatorOnVV,
    ScalarRepParams,
    SymFiber,
    TargetRepParams,
    VectorValuedPolynomial,
    _affine_parts,
    affine_operator,
    dpi_hat,
    dpi_lambda,
    dpi_lambda_star,
    dpi_target,
    induced_operator,
)
from fmethod.verma import VermaModule, _verma_action
from fmethod.weyl import WeylElement
import references
from references import entry_differences, is_exact_normal_form


def nplus_closed_form(j, n, weight):
    """x_j(weight + E_x) on n variables (1-based j)."""
    euler = WeylElement.euler(n)
    shift = WeylElement.identity(n).scale(weight)
    xj = WeylElement.from_polynomial(Polynomial.variable(n, j - 1))
    return xj.compose(euler + shift)


def nminus_closed_form(j, n):
    return WeylElement.partial(n, j - 1).scale(-1)


def test_dpi_lambda_closed_forms():
    n, lam = 3, Fraction(2)
    params = ScalarRepParams.sl(n, lam)
    pd = parabolic(n)
    for j in range(1, n + 1):
        assert dpi_lambda(pd.n_plus(j), params) == nplus_closed_form(j, n, lam)
        assert dpi_lambda(pd.n_minus(j), params) == nminus_closed_form(j, n)


def test_dpi_lambda_star_closed_form():
    # the dual twist is 2rho - lambda = (n+1) - lambda; on constants this
    # gives (n+1-lambda) x_j, e.g. 2 x_1 at n = 3, lambda = 2
    n, lam = 3, Fraction(2)
    params = ScalarRepParams.sl(n, lam)
    pd = parabolic(n)
    for j in range(1, n + 1):
        assert dpi_lambda_star(pd.n_plus(j), params) == nplus_closed_form(
            j, n, Fraction(n + 1) - lam
        )
    op = dpi_lambda_star(pd.n_plus(1), params)
    assert op.apply(Polynomial.one(n)) == Polynomial.variable(n, 0).scale(2)


def test_dpi_lambda_star_lowering():
    params = ScalarRepParams.sl(3, Fraction(1, 3))
    pd = parabolic(3)
    assert dpi_lambda_star(pd.n_minus(2), params) == nminus_closed_form(2, 3)


def test_dpi_hat_lowering_is_multiplication():
    params = ScalarRepParams.sl(3, Fraction(5, 2))
    pd = parabolic(3)
    for j in range(1, 4):
        expected = WeylElement.from_polynomial(Polynomial.variable(3, j - 1, "zeta"))
        assert dpi_hat(pd.n_minus(j), params) == expected


@pytest.mark.parametrize("n,lam", [(2, Fraction(0)), (3, Fraction(-2)), (3, Fraction(1, 3))])
def test_raised_action_euler_identity(n, lam):
    # -zeta_j o dpi_hat(N_j^+) equals theta_j (lambda - 1 + E) exactly
    params = ScalarRepParams.sl(n, lam)
    pd = parabolic(n)
    E = WeylElement.euler(n, "zeta")
    shift = WeylElement.identity(n, "zeta").scale(lam - 1)
    for j in range(1, n + 1):
        zj = WeylElement.from_polynomial(Polynomial.variable(n, j - 1, "zeta"))
        thetaj = zj.compose(WeylElement.partial(n, j - 1, "zeta"))
        assert zj.compose(dpi_hat(pd.n_plus(j), params)).scale(-1) == thetaj.compose(E + shift)


def test_raised_action_kills_missing_variable():
    params = ScalarRepParams.sl(2, Fraction(4, 7))
    pd = parabolic(2)
    op = dpi_hat(pd.n_plus(1), params)
    p = Polynomial.monomial(2, (0, 5), 1, "zeta")
    assert op.apply(p).is_zero()


@pytest.mark.parametrize("flavor", ["sl", "gl"])
@pytest.mark.parametrize("n", [2, 3])
def test_lie_homomorphism_property(flavor, n):
    if flavor == "sl":
        params = ScalarRepParams.sl(n, Fraction(1, 3))
    else:
        params = ScalarRepParams.gl(n, Fraction(1, 3), Fraction(2, 5))
    pd = parabolic(n, flavor)
    basis = pd.g_basis()
    for builder in (dpi_lambda, dpi_lambda_star):
        for X, Y in itertools.combinations(basis, 2):
            lhs = builder(X, params).compose(builder(Y, params)) - builder(
                Y, params
            ).compose(builder(X, params))
            assert lhs == builder(bracket(X, Y), params)


def test_dpi_hat_is_fourier_of_dual():
    params = ScalarRepParams.sl(3, Fraction(-1, 2))
    pd = parabolic(3)
    for X in pd.g_basis():
        assert dpi_hat(X, params) == dpi_lambda_star(X, params).fourier()


def test_levi_preserves_degree():
    params = ScalarRepParams.sl(3, Fraction(7, 3))
    pd = parabolic(3)
    for Z in pd.l_basis():
        op = dpi_lambda(Z, params)
        for mono in monomials_up_to(3, 3):
            img = op.apply(Polynomial.monomial(3, mono, 1))
            assert img.is_zero() or img.degree() == sum(mono)


def test_dpi_target_scalar_fiber_reduction():
    # ell = 0 reduces to the scalar action in n-1 variables with weight nu
    n, nu = 3, Fraction(3, 7)
    tgt = TargetRepParams.sl(n, nu, ell=0)
    small = ScalarRepParams.sl(n - 1, nu)
    pd = parabolic(n)
    pd_small = parabolic(n - 1)
    pairs = [
        (pd.n_plus(1), pd_small.n_plus(1)),
        (pd.n_minus(1), pd_small.n_minus(1)),
        (pd.h0_tilde_prime, pd_small.h0_tilde),
    ]
    zero = (0,) * (n - 1)
    for big, smallX in pairs:
        got = dpi_target(big, tgt).entry(zero, zero)
        assert got == dpi_lambda(smallX, small)


def test_dpi_target_vector_fiber_hand_case():
    # E23 acts on Pol^1-valued sections: rotation field plus ytilde rotation
    n = 3
    tgt = TargetRepParams.sl(n, Fraction(3, 2), ell=1)
    pd = parabolic(n)
    op = dpi_target(pd.unit(2, 3), tgt)
    v = VectorValuedPolynomial(2, {(1, 0): Polynomial.one(2)})
    out = op.apply(v)
    assert out == VectorValuedPolynomial(2, {(0, 1): Polynomial.constant(2, -1)})


def test_dpi_target_homomorphism_sampled():
    n = 3
    tgt = TargetRepParams.sl(n, Fraction(3, 2), ell=1)
    pd = parabolic(n)
    basis = pd.g_basis(primed=True)
    vs = [
        VectorValuedPolynomial(2, {(1, 0): Polynomial.monomial(2, m, 1)})
        for m in monomials_up_to(2, 2)
    ]
    for X, Y in itertools.islice(itertools.combinations(basis, 2), 12):
        AX, AY = dpi_target(X, tgt), dpi_target(Y, tgt)
        AB = dpi_target(bracket(X, Y), tgt)
        for v in vs:
            lhs = AX.apply(AY.apply(v)) - AY.apply(AX.apply(v))
            assert (lhs - AB.apply(v)).is_zero()


def test_gl_second_character_weights():
    # J0' acts on zeta_n trivially and on zeta_j (j < n) with weight 1/(n-1)
    n = 3
    params = ScalarRepParams.gl(n, Fraction(0), Fraction(0))
    pd = parabolic(n, "gl")
    op = dpi_hat(pd.j0_prime, params)
    zn = Polynomial.monomial(n, (0, 0, 4), 1, "zeta")
    assert op.apply(zn).is_zero()
    z1 = Polynomial.monomial(n, (2, 0, 0), 1, "zeta")
    assert op.apply(z1) == z1.scale(Fraction(2, n - 1))


def test_dpi_target_lowering_is_derivation():
    # N_j^- for j < n acts as -d/dx_j tensor id on the vector-valued target
    n = 3
    tgt = TargetRepParams.sl(n, Fraction(3, 2), ell=1)
    pd = parabolic(n)
    for j in (1, 2):
        op = dpi_target(pd.n_minus(j), tgt)
        for lbl in ((1, 0), (0, 1)):
            assert op.entry(lbl, lbl) == WeylElement.partial(2, j - 1).scale(-1)
            other = (0, 1) if lbl == (1, 0) else (1, 0)
            assert op.entry(other, lbl).is_zero()


def test_dpi_target_diagonal_fiber_weights():
    # the grading element of l' acts diagonally: nu plus the Euler field,
    # with no off-diagonal fiber mixing
    n, nu = 3, Fraction(3, 2)
    tgt = TargetRepParams.sl(n, nu, ell=1)
    pd = parabolic(n)
    op = dpi_target(pd.h0_tilde_prime, tgt)
    for lbl in ((1, 0), (0, 1)):
        got = op.entry(lbl, lbl)
        expected = WeylElement.identity(2).scale(nu) + WeylElement.euler(2).scale(
            Fraction(3, 2)
        )
        assert got == expected
        other = (0, 1) if lbl == (1, 0) else (1, 0)
        assert op.entry(other, lbl).is_zero()


@pytest.mark.parametrize("label", [(), (2, 0)])
def test_operator_apply_rejects_a_label_outside_its_inputs(label):
    # `sums` reads only the input labels, so such a component used to vanish
    op = dpi_target(parabolic(3).h0_tilde_prime, TargetRepParams.sl(3, Fraction(3, 2), ell=1))
    assert label not in op.in_labels
    inside = VectorValuedPolynomial(2, {(1, 0): Polynomial.variable(2, 0)})
    assert not op.apply(inside).is_zero()
    with pytest.raises(ValueError, match="label the operator does not take"):
        op.apply(inside + VectorValuedPolynomial(2, {label: Polynomial.variable(2, 1)}))


def test_domain_guards():
    import pytest

    params = ScalarRepParams.sl(2, Fraction(1))
    pd = parabolic(2)
    not_traceless = pd.unit(1, 1)
    with pytest.raises(ValueError):
        dpi_lambda(not_traceless, params)
    tgt = TargetRepParams.sl(3, Fraction(1), ell=0)
    with pytest.raises(ValueError):
        dpi_target(parabolic(3).n_plus(3), tgt)  # N_n^+ is not in g'


def test_vector_valued_equality_sees_the_role():
    assert VectorValuedPolynomial.zero(2, "x") != VectorValuedPolynomial.zero(2, "zeta")
    assert VectorValuedPolynomial.zero(2, "zeta") == VectorValuedPolynomial.zero(2, "zeta")


def test_vector_valued_polynomial_rejects_a_foreign_role():
    with pytest.raises(ValueError, match="variable role mismatch"):
        VectorValuedPolynomial(2, {(1, 0): Polynomial.variable(2, 0, "zeta")}, "x")
    # a zero component is checked too, before it is dropped
    with pytest.raises(ValueError, match="variable role mismatch"):
        VectorValuedPolynomial(2, {(): Polynomial.zero(2, "x")}, "zeta")


def test_operator_on_vv_rejects_a_foreign_role():
    with pytest.raises(ValueError, match="variable role mismatch"):
        OperatorOnVV(2, [()], [()], {((), ()): WeylElement.identity(2, "zeta")}, "x")
    with pytest.raises(ValueError, match="variable role mismatch"):
        OperatorOnVV(2, [()], [()], {((), ()): WeylElement.zero(2, "x")}, "zeta")


def test_vector_valued_polynomial_rejects_a_foreign_arity():
    with pytest.raises(ValueError, match="component arity mismatch"):
        VectorValuedPolynomial(2, {(1, 0): Polynomial.variable(3, 0)})
    # a zero component is checked too, before it is dropped
    with pytest.raises(ValueError, match="component arity mismatch"):
        VectorValuedPolynomial(2, {(): Polynomial.zero(1)})


def test_operator_on_vv_rejects_a_foreign_arity():
    with pytest.raises(ValueError, match="component arity mismatch"):
        OperatorOnVV(2, [(0,)], [(0,)], {((0,), (0,)): WeylElement.identity(3)})
    with pytest.raises(ValueError, match="component arity mismatch"):
        OperatorOnVV(2, [()], [()], {((), ()): WeylElement.zero(1)})


def test_fourier_of_zero_operator_takes_the_dual_role():
    zero = OperatorOnVV(2, [()], [()], {}, "x").fourier()
    assert zero.var == "zeta" == WeylElement.zero(2, "x").fourier().var
    v = VectorValuedPolynomial(2, {(): Polynomial.variable(2, 1, "zeta")}, "zeta")
    assert zero.apply(v) == VectorValuedPolynomial.zero(2, "zeta")
    assert zero.fourier().var == "x"


# -- the assembled operators against the bracket-series induced_operator ---------


_weights = st.one_of(
    st.just(Fraction(0)), st.fractions(min_value=-4, max_value=4, max_denominator=5)
)


@st.composite
def elements(draw, primed=False):
    """(pd, X) with X in g (g' if `primed`): a basis element or a rational combination."""
    pd = parabolic(draw(st.integers(2, 4)), draw(st.sampled_from([SL, GL])))
    basis = pd.g_basis(primed)
    if draw(st.booleans()):
        return pd, draw(st.sampled_from(basis))
    X = LieElement.zero(pd.size, pd.flavor)
    for Y, c in draw(st.lists(st.tuples(st.sampled_from(basis), _weights), min_size=1, max_size=4)):
        X = X.add(Y.scale(c))
    return pd, X


def _weight_tuple(draw, pd):
    return tuple(draw(_weights) for _ in pd.two_rho())


def _same(got: OperatorOnVV, expected: OperatorOnVV):
    assert (got.arity, got.var, got.in_labels, got.out_labels) == (
        expected.arity, expected.var, expected.in_labels, expected.out_labels
    )
    assert got.terms == expected.terms


@pytest.mark.parametrize("zero", [True, False])
@pytest.mark.parametrize("primed", [False, True])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("flavor", [SL, GL])
def test_sym_zero_over_empty_block_is_the_scalar_fiber(flavor, n, primed, zero):
    pd = parabolic(n, flavor)
    weights = tuple(Fraction(0 if zero else 2 * i + 3, 7) for i in range(len(pd.two_rho())))
    fiber = SymFiber(0, 0)
    assert fiber.labels() == [()]
    acted = False
    origin = (0,) * n
    for X in pd.g_basis(primed=primed):
        # no m-part acts on S^0; the weights meet the characters in affine_operator
        assert fiber.act(X, pd) == {}
        # the characters dchi (and dchi2 for GL) read X[0, 0] and the trace
        weight = weights[0] * X[0, 0] + (weights[1] * X.trace() if flavor == GL else 0)
        order0 = affine_operator(X, pd, n, fiber, weights).scalar_entry().terms.get(origin)
        assert (order0.terms.get(origin, 0) if order0 else 0) == weight
        acted = acted or bool(weight)
    assert acted != zero


@given(elements(), st.data())
@settings(max_examples=60, deadline=None)
def test_scalar_builders_match_direct_induced_operator(element, data):
    pd, X = element
    lam = _weight_tuple(data.draw, pd)
    params = ScalarRepParams(pd.n, pd.flavor, (0,) * len(lam), lam)
    direct = references.induced_operator(X, pd, pd.n, SymFiber(0, 0), lam)
    dual = references.induced_operator(X, pd, pd.n, SymFiber(0, 0), params.dual_weights())
    assert dpi_lambda(X, params) == direct.scalar_entry()
    assert dpi_lambda_star(X, params) == dual.scalar_entry()
    assert dpi_hat(X, params) == dual.fourier().scalar_entry()
    assert dpi_hat(X, params).var == "zeta"


@given(elements(primed=True), st.integers(0, 2), st.data())
@settings(max_examples=40, deadline=None)
def test_dpi_target_matches_direct_induced_operator(element, ell, data):
    pd, X = element
    nu = _weight_tuple(data.draw, pd)
    params = TargetRepParams(pd.n, pd.flavor, (0,) * len(nu), nu, ell)
    fiber = SymFiber(ell, pd.n - 1, dual=True)
    _same(dpi_target(X, params), references.induced_operator(X, pd, pd.n - 1, fiber, nu))


@given(st.booleans(), st.integers(0, 2), st.data())
@settings(max_examples=40, deadline=None)
def test_verma_action_matches_direct_induced_operator(primed, degree, data):
    pd, X = data.draw(elements(primed=primed))
    nu = _weight_tuple(data.draw, pd)
    module = VermaModule(pd.n, pd.flavor, primed, degree, nu, (0,) * len(nu))
    dw = module.dual_weights()
    fiber = SymFiber(0, 0) if degree == 0 else SymFiber(degree, module.num_vars)
    _same(_verma_action(module, X), references.induced_operator(X, pd, module.num_vars, fiber, dw).fourier())


@given(st.booleans(), st.integers(-1, 2), st.booleans(), st.booleans(), st.data())
@settings(max_examples=60, deadline=None)
def test_affine_parts_match_unit_weight_operators(primed, ell, dual, fourier, data):
    """Each part read off the Ad series is every diagonal entry of the operator
    at a unit weight minus `base`, and that difference has no other entry."""
    pd, X = data.draw(elements(primed=primed))
    num_x = pd.n - 1 if primed else pd.n
    k = len(pd.two_rho())
    fiber = SymFiber(0, 0) if ell < 0 else SymFiber(ell, num_x, dual)
    base = references.induced_operator(X, pd, num_x, fiber, ())
    got = _affine_parts(X, pd, num_x, fiber, fourier)
    assert len(got) == 1 + k
    _same(got[0], base.fourier() if fourier else base)
    for i, part in enumerate(got[1:]):
        unit = tuple(Fraction(int(i == j)) for j in range(k))
        diff = entry_differences(references.induced_operator(X, pd, num_x, fiber, unit), base)
        assert all(out == inp for out, inp in diff)
        assert isinstance(part, WeylElement)
        for lbl in base.in_labels:
            entry = diff.get((lbl, lbl), WeylElement.zero(num_x))
            assert part == (entry.fourier() if fourier else entry)


@pytest.mark.parametrize("flavor", [SL, GL])
def test_one_affine_parts_entry_serves_every_weight(flavor):
    """`_affine_parts` is keyed by the fiber's shape: two nu of one (n, ell,
    flavor) share one entry for `dpi_target`, and two lambda one for
    `dpi_lambda`; a key with the weights in it would miss every time."""
    n, ell = 3, 1
    pd = parabolic(n, flavor)
    X = pd.g_basis(primed=True)[-1]
    k = len(pd.two_rho())
    for build in (dpi_target, dpi_lambda):
        build.cache_clear()
    _affine_parts.cache_clear()
    for build, params in (
        (dpi_target, [TargetRepParams(n, flavor, (0,) * k, (Fraction(v, 3),) * k, ell) for v in (1, -5)]),
        (dpi_lambda, [ScalarRepParams(n, flavor, (0,) * k, (Fraction(v, 2),) * k) for v in (3, -1)]),
    ):
        before = _affine_parts.cache_info()
        for p in params:
            build(X, p)
        after = _affine_parts.cache_info()
        assert (after.misses - before.misses, after.hits - before.hits) == (1, 1), build.__name__


@pytest.mark.parametrize("fourier", [False, True])
@pytest.mark.parametrize("ell", [-1, 0, 2])
@pytest.mark.parametrize("primed", [False, True])
def test_weights_reach_every_label_of_the_center_of_gl(primed, ell, fourier):
    """The identity of gl(n+1) has no n_- part, so at zero weights its action
    misses some diagonal labels (all of them on the full fiber); the weight
    parts still reach every label."""
    pd = parabolic(3, GL)
    num_x = pd.n - 1 if primed else pd.n
    identity = LieElement.from_units(pd.size, GL, [((i, i), 1) for i in range(pd.size)])
    weights = (Fraction(1, 3), Fraction(-2))
    fiber = SymFiber(0, 0) if ell < 0 else SymFiber(ell, num_x, True)
    got = affine_operator(identity, pd, num_x, fiber, weights, fourier)
    direct = references.induced_operator(identity, pd, num_x, fiber, weights)
    _same(got, direct.fourier() if fourier else direct)
    assert all((lbl, lbl) in got.terms for lbl in got.in_labels)


# -- the closed form (I - U) X (I + U) against the bracket series ----------------


@st.composite
def closed_form_cases(draw):
    """(pd, X, num_x): n = 2..6, num_x in {n, n - 1}; X a basis element of g,
    a bracket of two, or a rational combination of distinct matrix units."""
    pd = parabolic(draw(st.integers(2, 6)), draw(st.sampled_from([SL, GL])))
    num_x = draw(st.sampled_from([pd.n, pd.n - 1]))
    basis = pd.g_basis()
    kind = draw(st.sampled_from(["basis", "bracket", "units"]))
    if kind == "basis":
        X = draw(st.sampled_from(basis))
    elif kind == "bracket":
        X = bracket(draw(st.sampled_from(basis)), draw(st.sampled_from(basis)))
    else:
        cells = st.tuples(st.integers(0, pd.n), st.integers(0, pd.n))
        units = draw(st.dictionaries(cells, _weights, min_size=1, max_size=5))
        X = LieElement.from_units(pd.size, pd.flavor, units.items())
    return pd, X, num_x


_nonzero_weights = st.fractions(min_value=-4, max_value=4, max_denominator=5).filter(bool)


@given(closed_form_cases(), st.integers(-1, 4), st.booleans(), st.booleans(), st.data())
@settings(max_examples=80, deadline=None)
def test_closed_form_matches_the_bracket_series(case, ell, dual, fourier, data):
    """`_affine_parts`, `induced_operator`, `affine_operator` at random
    nonzero weights and `SymFiber.act` equal the reference built term by
    term from the bracket series; where the reference leaves the active
    subalgebra, so does the closed form."""
    pd, X, num_x = case
    fiber = SymFiber(0, 0) if ell < 0 else SymFiber(ell, num_x, dual)
    weights = tuple(data.draw(_nonzero_weights) for _ in pd.two_rho())
    try:
        expected = references.affine_parts(X, pd, num_x, fiber, fourier)
    except ValueError as error:
        assert str(error) == "element leaves the active subalgebra"
        for build in (lambda: _affine_parts(X, pd, num_x, fiber, fourier),
                      lambda: induced_operator(X, pd, num_x, fiber),
                      lambda: affine_operator(X, pd, num_x, fiber, weights, fourier)):
            with pytest.raises(ValueError, match="element leaves the active subalgebra"):
                build()
    else:
        got = _affine_parts(X, pd, num_x, fiber, fourier)
        _same(got[0], expected[0])
        assert got[1:] == expected[1:]
        _same(induced_operator(X, pd, num_x, fiber), references.induced_operator(X, pd, num_x, fiber, ()))
        weighted = references.induced_operator(X, pd, num_x, fiber, weights)
        _same(affine_operator(X, pd, num_x, fiber, weights, fourier),
              weighted.fourier() if fourier else weighted)
    assert fiber.act(X, pd) == references.fiber_action(fiber, X, pd)


@pytest.mark.parametrize("flavor", [SL, GL])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_an_element_outside_the_active_subalgebra_is_refused(n, flavor):
    """N_n^- has no coordinate among x_1..x_{n-1}: with num_x = n - 1 both
    entry points refuse it, and the reference agrees; N_{n-1}^- is kept."""
    pd = parabolic(n, flavor)
    for shape in (SymFiber(0, 0), SymFiber(1, n - 1, True)):
        for build in (induced_operator, lambda *args: references.induced_operator(*args, ()),
                      lambda *args: _affine_parts(*args, False)):
            with pytest.raises(ValueError, match="element leaves the active subalgebra"):
                build(pd.n_minus(n), pd, n - 1, shape)
        op = induced_operator(pd.n_minus(n - 1), pd, n - 1, shape)
        lbl = op.in_labels[0]
        assert op.entry(lbl, lbl) == WeylElement.partial(n - 1, n - 2).scale(-1)


_X = Polynomial(2, {(1, 0): Fraction(2, 3), (0, 2): -1}, "zeta")


@pytest.mark.parametrize(
    "attr,x",
    [
        ("terms", _X),
        ("terms", WeylElement(2, {(0, 1): _X, (0, 0): _X * _X}, "zeta")),
        ("components", VectorValuedPolynomial(2, {(1, 0): _X, (0, 1): _X.scale(3)}, "zeta")),
    ],
    ids=["polynomial", "weyl", "vector-valued"],
)
def test_difference_with_itself_has_no_entries(attr, x):
    assert getattr(x, attr)
    assert getattr(x - x, attr) == {}


# -- the kernel OperatorOnVV.sums is apply without the constructors ------------


def _poly(draw, arity, var):
    terms = {}
    for _ in range(draw(st.integers(0, 3))):
        terms[tuple(draw(st.integers(0, 3)) for _ in range(arity))] = draw(_weights)
    return Polynomial(arity, terms, var)


def _assert_sums_are_the_terms_of_apply(op, v):
    out = op.apply(v)
    assert all(
        is_exact_normal_form(c) for p in out.components.values() for c in p.terms.values()
    )
    sums = op.sums({lbl: p.terms for lbl, p in v.components.items()})
    assert canonical_sums(sums) == {lbl: p.terms for lbl, p in out.components.items()}
    return sums


@given(elements(primed=True), st.integers(0, 2), st.booleans(), st.data())
@settings(max_examples=60, deadline=None)
def test_operator_sums_are_the_terms_of_apply(element, ell, fourier, data):
    """On a target action (or its Fourier transform) and a random vector;
    then on two input labels with one entry and a vector p, -p there, whose
    sums all cancel."""
    pd, X = element
    op = affine_operator(X, pd, pd.n - 1, SymFiber(ell, pd.n - 1, True), _weight_tuple(data.draw, pd))
    op = op.fourier() if fourier else op
    labels = data.draw(st.lists(st.sampled_from(op.in_labels), unique=True))
    v = VectorValuedPolynomial(op.arity, {lbl: _poly(data.draw, op.arity, op.var) for lbl in labels}, op.var)
    _assert_sums_are_the_terms_of_apply(op, v)
    entry = op.terms.get(data.draw(st.sampled_from(sorted(op.terms))) if op.terms else None)
    if entry is None:
        return
    twin = OperatorOnVV(op.arity, [(1,), (2,)], [(0,)], {((0,), (1,)): entry, ((0,), (2,)): entry}, op.var)
    p = _poly(data.draw, op.arity, op.var)
    sums = _assert_sums_are_the_terms_of_apply(
        twin, VectorValuedPolynomial(op.arity, {(1,): p, (2,): p.scale(-1)}, op.var)
    )
    assert not any(c for terms in sums.values() for c in terms.values())
    if not entry.apply(p).is_zero():
        assert sums[(0,)]  # the cancelled zeros stay in the raw sums


@pytest.mark.parametrize("flavor", [SL, GL])
def test_parameters_are_in_the_exact_normal_form(flavor):
    """lambda, nu and 2rho are `int`s when integral, as are the dual weights of
    an integral lambda; a non-integral lambda stays a `Fraction`."""
    assert type(ScalarRepParams.sl(3, Fraction(5)).lam[0]) is int
    assert type(ScalarRepParams.sl(3, "-7/1").lam[0]) is int
    assert ScalarRepParams.sl(3, Fraction(1, 3)).lam == (Fraction(1, 3),)
    assert type(ScalarRepParams.sl(3, Fraction(1, 3)).lam[0]) is Fraction
    assert all(map(is_exact_normal_form, ScalarRepParams.gl(3, Fraction(4, 2), Fraction(1, 2)).lam))
    assert type(TargetRepParams.sl(3, Fraction(6), ell=1).nu[0]) is int
    assert all(map(is_exact_normal_form, TargetRepParams.gl(3, Fraction(-2), Fraction(3, 2)).nu))
    pd = parabolic(4, flavor)
    assert all(type(r) is int for r in (*pd.two_rho(), *pd.two_rho_prime()))
    assert all(type(x) is int for x in (*ScalarRepParams(4, flavor).lam, *TargetRepParams(4, flavor).nu))
    source = ScalarRepParams.sl(4, 2) if flavor == SL else ScalarRepParams.gl(4, 2, -3)
    assert all(type(w) is int for w in source.dual_weights())
