import dataclasses
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fmethod import engine, verma
from fmethod.algebra import Polynomial, add_product, canonical_sums, monomial_basis
from fmethod.liealg import parabolic
from fmethod.params import sign_shift
from fmethod.rep import VectorValuedPolynomial
from references import gamma_action, hom_violations
from fmethod.verma import (
    _factorization_routes,
    VermaHom,
    VermaModule,
    build_emb,
    build_phi,
    build_phi_k,
    check_hom_equivariance,
    classify_homs,
    hom_from_solution,
    verify_factorization_verma,
)


def test_phi_normal_derivative_image():
    h = build_phi(3, 0, 2)
    img = h.image_map()[()]
    assert img == VectorValuedPolynomial(2, {(): Polynomial.monomial(2, (0, 3), 1, "zeta")}, "zeta")


def test_phi_images_match_solution_vectors():
    # F_c sends the generator images to psi_(m, ell) componentwise
    from fmethod.engine import psi_vector

    h = build_phi(2, 1, 3)
    psi = psi_vector(2, 1, 3)
    for lbl, img in h.image_map().items():
        assert img.components[()] == psi.components[lbl]


def test_emb_is_fiber_inclusion_for_m_zero():
    h = build_emb(0, 2, 3)
    for lbl, img in h.image_map().items():
        assert img == VectorValuedPolynomial(3, {lbl + (0,): Polynomial.one(3, "zeta")}, "zeta")


def test_verma_action_lowering_is_multiplication():
    mod = VermaModule.scalar(3, Fraction(5, 3))
    pd = mod.pd
    v = mod.unit((1, 0, 2), ())
    out = mod.action(pd.n_minus(2)).apply(v)
    assert out == mod.unit((1, 1, 2), ())


def test_highest_weight_normalization():
    # the cyclic vector has a-weight s: dpi_hat(H0~) eigenvalue on 1 is s
    s = Fraction(7, 4)
    mod = VermaModule.scalar(3, s)
    out = mod.action(mod.pd.h0_tilde).apply(mod.unit((0, 0, 0), ()))
    assert out == mod.unit((0, 0, 0), ()).scale(s)


def test_graded_basis_sizes():
    mod = VermaModule.scalar(3, Fraction(2))
    for k in range(5):
        assert len(mod.basis(k)) == math.comb(k + 2, 2)
    fib = VermaModule.of(2, False, 3, Fraction(-5, 2))
    assert len(fib.basis(2)) == math.comb(2 + 1, 1) * len(monomial_basis(2, 3))


def test_injectivity_of_multiplication():
    # multiplication by zeta_n^m maps the graded basis injectively
    h = build_phi(2, 0, 3)
    seen = set()
    for g in range(3):
        for mono, lbl in h.source.basis(g):
            out = h.apply(h.source.unit(mono, lbl))
            key = tuple(sorted((l, tuple(sorted(p.terms.items()))) for l, p in out.components.items()))
            assert key not in seen
            seen.add(key)


@pytest.mark.parametrize("m,ell,n", [(1, 1, 2), (2, 1, 3), (1, 2, 4), (2, 0, 2), (0, 2, 3)])
def test_three_route_factorization(m, ell, n):
    rep = verify_factorization_verma(m, ell, n, degree_cap=2 if n > 2 else 3)
    assert rep["status"] == "pass"


def test_three_route_factorization_gl():
    rep = verify_factorization_verma(1, 1, 2, 3, flavor="gl", lam2=Fraction(1, 2))
    assert rep["status"] == "pass"


@pytest.mark.parametrize("flavor, n", [("sl", 3), ("sl", 4), ("gl", 3)])
def test_factorization_routes_chain_through_homomorphisms(flavor, n):
    # Phi_(m,0) runs from the target of phi'_l into that of Phi_(m,l): a
    # homomorphism, so route 1 composes homomorphisms and not just images
    for m in range(3):
        for ell in range(3):
            for alpha in (0, 1):
                phi_ml, routes = _factorization_routes(m, ell, n, flavor, alpha)
                (phi_prime, phi_m0), (emb, phi_big) = routes
                assert phi_m0.source == phi_prime.target and phi_m0.target == phi_ml.target
                assert emb.target == phi_big.source
                assert check_hom_equivariance(phi_m0, 2)["status"] == "pass"


def test_factorization_routes_must_compose(monkeypatch):
    real = verma.build_emb

    def emb_into_the_other_sign(*args):
        h = real(*args)
        target = dataclasses.replace(h.target, signs=(1 - h.target.signs[0],))
        return dataclasses.replace(h, target=target)

    monkeypatch.setattr(verma, "build_emb", emb_into_the_other_sign)
    with pytest.raises(ValueError, match="does not compose"):
        verify_factorization_verma(1, 1, 3, 2)


def test_factorization_fails_when_a_route_is_scaled(monkeypatch):
    routes = verma._factorization_routes

    def scaled(*args):
        phi_ml, (route1, (emb, phi_big)) = routes(*args)
        images = tuple((lbl, img.scale(2)) for lbl, img in phi_big.images)
        return phi_ml, (route1, (emb, dataclasses.replace(phi_big, images=images)))

    monkeypatch.setattr(verma, "_factorization_routes", scaled)
    rep = verify_factorization_verma(1, 1, 3, 2)
    assert rep["status"] == "fail"
    assert rep["counterexample"] is not None


@pytest.mark.parametrize("flavor, lam2", [("sl", Fraction(0)), ("gl", Fraction(1, 2))])
def test_factorization_compares_exact_coefficients_only(monkeypatch, flavor, lam2):
    seen = []

    def recording(sums):
        out = canonical_sums(sums)
        seen.append(out)
        return out

    monkeypatch.setattr(verma, "canonical_sums", recording)
    rep = verify_factorization_verma(1, 2, 3, 2, flavor=flavor, lam2=lam2)
    assert rep["status"] == "pass"
    assert len(seen) == 3 * rep["vectors_checked"]
    coefficients = [c for sums in seen for terms in sums.values() for c in terms.values()]
    assert coefficients and all(type(c) in (int, Fraction) for c in coefficients)


def test_factorization_counterexample_is_the_first_failing_vector(monkeypatch):
    # phi_{m+l} with its image at e_(1,1,1) scaled: only the source vectors
    # at the label (1, 1), which Emb~ sends there, fail, and the report
    # names the first of them
    routes = verma._factorization_routes

    def scaled(*args):
        phi_ml, (route1, (emb, phi_big)) = routes(*args)
        images = tuple((lbl, img.scale(2) if lbl == (1, 1, 1) else img) for lbl, img in phi_big.images)
        return phi_ml, (route1, (emb, dataclasses.replace(phi_big, images=images)))

    monkeypatch.setattr(verma, "_factorization_routes", scaled)
    phi_ml, ((phi_prime, phi_m0), (emb, phi_big)) = verma._factorization_routes(1, 2, 3)

    def fails(mono, lbl):
        # the check as it ran on built unit vectors
        v = phi_ml.source.unit(mono, lbl)
        return not phi_ml.apply(v) == phi_m0.apply(phi_prime.apply(v)) == phi_big.apply(emb.apply(v))

    vectors = [(g, mono, lbl) for g in range(3) for mono, lbl in phi_ml.source.basis(g)]
    expected = next(vec for vec in vectors if fails(*vec[1:]))
    assert expected == (0, (0, 0), (1, 1))
    rep = verify_factorization_verma(1, 2, 3, 2)
    assert rep["status"] == "fail"
    assert rep["counterexample"] == [expected]


@pytest.mark.parametrize("cap", [0, 1, 2, 3])
def test_factorization_fails_at_every_cap_when_the_monomial_maps_double(monkeypatch, cap):
    # Phi_(1,1) and phi_2 o Emb~ hold one monomial map each, Phi_(1,0) o phi'_1
    # two: doubling every monomial image breaks the identity on the grade-0
    # generators already, so no cap, 0 included, leaves the check vacuous
    monomial_hom = verma._monomial_hom

    def doubled(src, tgt, m=0):
        h = monomial_hom(src, tgt, m)
        return dataclasses.replace(h, images=tuple((lbl, img.scale(2)) for lbl, img in h.images))

    assert verify_factorization_verma(1, 1, 3, cap)["status"] == "pass"
    monkeypatch.setattr(verma, "_monomial_hom", doubled)
    rep = verify_factorization_verma(1, 1, 3, cap)
    assert rep["status"] == "fail"
    assert rep["counterexample"] is not None


@pytest.mark.parametrize("cap", [0, 1, 2, 3])
def test_hom_equivariance_fails_at_every_cap_over_a_wrong_source(cap):
    # Phi_(1,1)'s images over a source of another weight: the grade-0
    # generators already break equivariance, so no cap, 0 included, hides it
    h = build_phi(1, 1, 3)
    wrong = dataclasses.replace(h, source=VermaModule.fiber_primed(3, 1, Fraction(1, 2)))
    assert wrong.source != h.source
    assert check_hom_equivariance(h, cap)["status"] == "pass"
    rep = check_hom_equivariance(wrong, cap)
    assert rep["status"] == "fail" and rep["violations"]


_coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def hom_inputs(draw):
    """(h, v): a factorization map or one with random images, and a random source vector.

    With a flag, two source labels get the same image and v the parts q and
    -q at them, so every product sum cancels."""
    n, m, ell = draw(st.integers(2, 4)), draw(st.integers(0, 2)), draw(st.integers(0, 2))
    flavor = draw(st.sampled_from(["sl", "gl"]))
    h = draw(st.sampled_from([
        build_phi(m, ell, n, flavor),
        build_phi_k(ell, n, flavor, primed=True),
        build_phi_k(m + ell, n, flavor),
        build_emb(m, ell, n, flavor),
    ]))

    def poly(nv):
        terms = {}
        for _ in range(draw(st.integers(0, 3))):
            terms[tuple(draw(st.integers(0, 3)) for _ in range(nv))] = draw(_coeffs)
        return Polynomial(nv, terms, "zeta")

    sv, tv = h.source.num_vars, h.target.num_vars
    if draw(st.booleans()):
        out_labels = st.lists(st.sampled_from(h.target.fiber_labels()), unique=True, max_size=3)
        images = tuple(
            (lbl, VectorValuedPolynomial(tv, {out: poly(tv) for out in draw(out_labels)}, "zeta"))
            for lbl, _ in h.images
        )
        h = dataclasses.replace(h, images=images)
    labels = h.source.fiber_labels()
    v = VectorValuedPolynomial(
        sv, {lbl: poly(sv) for lbl in draw(st.lists(st.sampled_from(labels), unique=True))}, "zeta"
    )
    if len(labels) > 1 and draw(st.booleans()):
        a, b = draw(st.lists(st.sampled_from(labels), min_size=2, max_size=2, unique=True))
        imap = h.image_map()
        h = dataclasses.replace(h, images=tuple((lbl, imap[a] if lbl == b else img) for lbl, img in h.images))
        q = poly(sv)
        v = VectorValuedPolynomial(sv, {a: q, b: -q}, "zeta")
    return h, v


@given(hom_inputs())
@settings(max_examples=150, deadline=None)
def test_hom_kernel_sums_are_the_terms_of_apply(inputs):
    h, v = inputs
    out = h.apply(v)
    sums = h.sums({lbl: p.terms for lbl, p in v.components.items()})
    assert canonical_sums(sums) == {lbl: p.terms for lbl, p in out.components.items()}


def test_hom_rejects_a_source_vector_of_another_arity():
    h = build_phi(1, 1, 3)
    with pytest.raises(ValueError, match="arity mismatch"):
        h.apply(VectorValuedPolynomial(3, {(1, 0): Polynomial.one(3, "zeta")}, "zeta"))


def test_hom_rejects_a_source_vector_of_the_other_role():
    h = build_phi(1, 1, 3)
    lbl = h.source.fiber_labels()[0]
    with pytest.raises(ValueError, match="variable role mismatch"):
        h.apply(VectorValuedPolynomial(2, {lbl: Polynomial.one(2)}))


def test_phi_equivariance_generic_weight():
    s = Fraction(7, 3)
    src = VermaModule.scalar_primed(3, s - 2, sign=(sign_shift(0, 2),))
    tgt = VermaModule.scalar(3, s, sign=(0,))
    h = VermaHom(
        src,
        tgt,
        (((), VectorValuedPolynomial(3, {(): Polynomial.monomial(3, (0, 0, 2), 1, "zeta")}, "zeta")),),
    )
    assert check_hom_equivariance(h, 2)["status"] == "pass"


def test_phi_equivariance_second_family():
    assert check_hom_equivariance(build_phi(1, 1, 3), 2)["status"] == "pass"


def test_phi_wrong_weight_fails_with_witness():
    src = VermaModule.scalar_primed(3, Fraction(0), sign=(1,))
    tgt = VermaModule.scalar(3, Fraction(2), sign=(0,))
    h = VermaHom(
        src,
        tgt,
        (((), VectorValuedPolynomial(3, {(): Polynomial.monomial(3, (0, 0, 1), 1, "zeta")}, "zeta")),),
    )
    rep = check_hom_equivariance(h, 2)
    assert rep["status"] == "fail" and rep["violations"]


def test_phi_wrong_sign_fails():
    # correct weights, wrong component-group parity on the source
    s = Fraction(3)
    src = VermaModule.scalar_primed(3, s - 1, sign=(0,))  # should be alpha + 1
    tgt = VermaModule.scalar(3, s, sign=(0,))
    h = VermaHom(
        src,
        tgt,
        (((), VectorValuedPolynomial(3, {(): Polynomial.monomial(3, (0, 0, 1), 1, "zeta")}, "zeta")),),
    )
    rep = check_hom_equivariance(h, 1)
    assert rep["sign_violations"]


def test_phi_k_full_equivariance():
    assert check_hom_equivariance(build_phi_k(2, 2), 3)["status"] == "pass"
    assert check_hom_equivariance(build_phi_k(1, 3), 2)["status"] == "pass"


def test_emb_equivariance():
    assert check_hom_equivariance(build_emb(1, 1, 3), 2)["status"] == "pass"
    assert check_hom_equivariance(build_emb(2, 1, 2), 2)["status"] == "pass"


def test_emb_equivariance_gl():
    rep = check_hom_equivariance(build_emb(1, 1, 2, flavor="gl", lam2=Fraction(1, 2)), 2)
    assert rep["status"] == "pass"


@pytest.mark.parametrize(
    "build",
    [
        lambda: build_phi(1, 1, 3, "gl", 1, Fraction(1, 2)),
        lambda: build_phi_k(2, 3, "gl", 0, Fraction(-3), primed=True),
        lambda: build_phi_k(2, 3, "gl", 1, Fraction(1, 2)),
        lambda: build_emb(1, 1, 3, "gl", 0, Fraction(1, 2)),
    ],
    ids=["phi", "phi_k-primed", "phi_k", "emb"],
)
def test_gl_homs_equivariance(build):
    # at n = 3 the second weights lambda2 - k/r of source and target differ,
    # so a wrong shift breaks the check (at n = 2, m = l = 1 it would not)
    assert check_hom_equivariance(build(), 2)["status"] == "pass"


def test_hom_from_solution_round_trip():
    from fmethod.engine import psi_vector

    psi = psi_vector(1, 1, 3)
    built = build_phi(1, 1, 3)
    h = hom_from_solution(psi, built.source, built.target)
    assert h.image_map() == built.image_map()
    assert check_hom_equivariance(h, 2)["status"] == "pass"


def test_hom_from_solution_refuses_a_second_component_for_a_scalar_source():
    zeta = Polynomial.variable(3, 2, "zeta")
    src, tgt = VermaModule.scalar_primed(3, Fraction(1, 3)), VermaModule.scalar(3, Fraction(2))
    one = VectorValuedPolynomial(3, {(0, 0): zeta}, "zeta")
    # one component, at whichever label the solver used
    assert hom_from_solution(one, src, tgt).image_map()[()].components == {(): zeta}
    two = VectorValuedPolynomial(3, {(0, 0): zeta, (1, 0): zeta.scale(2)}, "zeta")
    with pytest.raises(ValueError, match="one component"):
        hom_from_solution(two, src, tgt)


def test_hom_from_solution_refuses_a_label_the_source_does_not_have():
    from fmethod.engine import psi_vector

    built = build_phi(1, 1, 3)
    psi = psi_vector(1, 1, 3)
    extra = VectorValuedPolynomial(3, {**psi.components, (2, 0): Polynomial.one(3, "zeta")}, "zeta")
    with pytest.raises(ValueError, match="label the source does not have"):
        hom_from_solution(extra, built.source, built.target)


def test_classify_homs_tables():
    rows = classify_homs(2, connected=True, m_max=2, l_max=2)
    assert all(r["ok"] for r in rows)
    assert sum(r["computed_dim"] == 2 for r in rows) > 0
    rows = classify_homs(3, connected=False, m_max=2, l_max=1)
    assert all(r["ok"] for r in rows)
    assert {r["computed_dim"] for r in rows} <= {0, 1}


def test_classify_homs_plus_family_dimension_two():
    # (s, r) = ((m + ell) - 1, -(1 + ell)) at n = 2 carries two homomorphisms
    rows = classify_homs(2, connected=True, m_max=1, l_max=1, s_samples=())
    hits = [
        r
        for r in rows
        if r["l"] == 1 and Fraction(r["s"]) == 1 and Fraction(r["r"]) == -2
    ]
    assert hits and all(r["computed_dim"] == 2 for r in hits)


@pytest.mark.parametrize("connected", [False, True])
def test_homs_rows_check_the_span(monkeypatch, connected):
    rows = classify_homs(3, connected=connected, m_max=1, l_max=1)
    assert all(r["ok"] for r in rows)
    assert any(r["predicted_dim"] == 1 for r in rows)
    # a wrong closed form of the same dimension must make the member rows fail
    real = engine.psi_vector
    monkeypatch.setattr(engine, "psi_vector", lambda m, ell, n: real(m + 1, ell, n))
    rows = classify_homs(3, connected=connected, m_max=1, l_max=1)
    members = [r for r in rows if r["predicted_dim"] == 1]
    assert members and not any(r["ok"] for r in members)
    assert all(r["ok"] for r in rows if r["predicted_dim"] == 0)


# -- the shared module rule against the builders as first written -------------
#
# Test-only copies of the constructors and homomorphism builders that stated
# each module on its own, one SL and one GL branch per builder, before one
# module rule served Phi, phi_k and Emb.  The derived builders must give
# equal homomorphisms (source, target and images) on the whole grid below.


def reference_module(n, primed, k, u, flavor, sign, u2):
    nu = (Fraction(-u),) if flavor == "sl" else (Fraction(-u), Fraction(-u2))
    return VermaModule(n, flavor, primed, k, nu, tuple(sign))


def reference_scalar(n, s, flavor="sl", sign=(0,), s2=None):
    return reference_module(n, False, 0, s, flavor, sign, s2)


def reference_scalar_primed(n, r, flavor="sl", sign=(0,), r2=None):
    return reference_module(n, True, 0, r, flavor, sign, r2)


def reference_fiber(n, k, u, flavor="sl", sign=(0,), u2=None):
    return reference_module(n, False, k, u, flavor, sign, u2)


def reference_fiber_primed(n, k, u, flavor="sl", sign=(0,), u2=None):
    return reference_module(n, True, k, u, flavor, sign, u2)


def _zeta_monomial(nv, mono):
    return VectorValuedPolynomial(nv, {(): Polynomial.monomial(nv, mono, 1, "zeta")}, "zeta")


def reference_build_phi(m, ell, n, flavor="sl", alpha=0, lam2=Fraction(0)):
    s = (m + ell) - 1
    mu_p = 1 + Fraction(ell, n - 1)
    if flavor == "sl":
        src = reference_fiber_primed(n, ell, -mu_p, sign=(sign_shift(alpha, m + ell),))
        tgt = reference_scalar(n, s, sign=(alpha,))
    else:
        src = reference_fiber_primed(
            n, ell, -mu_p, "gl",
            sign=(sign_shift(alpha, m + ell), 0),
            u2=-(lam2 - Fraction(ell, n - 1)),
        )
        tgt = reference_scalar(n, s, "gl", sign=(alpha, 0), s2=-lam2)
    images = []
    for lbl in src.fiber_labels():
        mono = (lbl if lbl else (0,) * (n - 1)) + (m,)
        images.append((lbl, _zeta_monomial(n, mono)))
    return VermaHom(src, tgt, tuple(images))


def reference_build_phi_k(k, n, flavor="sl", alpha=0, lam2=Fraction(0), primed=False):
    nv = n - 1 if primed else n
    rank = n - 1 if primed else n
    s = k - 1
    mu = 1 + Fraction(k, rank)
    beta = sign_shift(alpha, k)
    if flavor == "sl":
        if primed:
            src = reference_fiber_primed(n, k, -mu, sign=(beta,))
            tgt = reference_scalar_primed(n, s, sign=(alpha,))
        else:
            src = reference_fiber(n, k, -mu, sign=(beta,))
            tgt = reference_scalar(n, s, sign=(alpha,))
    else:
        u2 = -(lam2 - Fraction(k, rank))
        if primed:
            src = reference_fiber_primed(n, k, -mu, "gl", sign=(beta, 0), u2=u2)
            tgt = reference_scalar_primed(n, s, "gl", sign=(alpha, 0), r2=-lam2)
        else:
            src = reference_fiber(n, k, -mu, "gl", sign=(beta, 0), u2=u2)
            tgt = reference_scalar(n, s, "gl", sign=(alpha, 0), s2=-lam2)
    images = []
    for lbl in src.fiber_labels():
        mono = lbl if lbl else (0,) * nv
        images.append((lbl, _zeta_monomial(nv, mono)))
    return VermaHom(src, tgt, tuple(images))


def reference_build_emb(m, ell, n, flavor="sl", alpha=0, lam2=Fraction(0)):
    mu_p = 1 + Fraction(ell, n - 1)
    mu = 1 + Fraction(m + ell, n)
    beta = sign_shift(alpha, m + ell)
    if flavor == "sl":
        src = reference_fiber_primed(n, ell, -mu_p, sign=(beta,))
        tgt = reference_fiber(n, m + ell, -mu, sign=(beta,))
    else:
        src = reference_fiber_primed(
            n, ell, -mu_p, "gl", sign=(beta, 0), u2=-(lam2 - Fraction(ell, n - 1))
        )
        tgt = reference_fiber(
            n, m + ell, -mu, "gl", sign=(beta, 0), u2=-(lam2 - Fraction(m + ell, n))
        )
    images = []
    for lbl in src.fiber_labels():
        big = (lbl if lbl else (0,) * (n - 1)) + (m,)
        out_lbl = big if tgt.fiber_degree > 0 else ()
        images.append((lbl, VectorValuedPolynomial(n, {out_lbl: Polynomial.one(n, "zeta")}, "zeta")))
    return VermaHom(src, tgt, tuple(images))


HOM_GRID = [
    (n, m, ell, flavor, alpha, lam2)
    for n in (2, 3, 4)
    for m in range(4)
    for ell in range(4)
    for flavor in ("sl", "gl")
    for alpha in (0, 1)
    for lam2 in (Fraction(0), Fraction(1, 2), Fraction(-3))
]


def test_constructors_match_reference():
    for n, s, flavor, sign in [
        (3, Fraction(5, 3), "sl", (1,)),
        (2, -2, "gl", (1, 0)),
        (4, Fraction(-7, 2), "gl", (0, 1)),
    ]:
        second = {} if flavor == "sl" else {"s2": Fraction(1, 3)}
        other = {} if flavor == "sl" else {"u2": Fraction(1, 3)}
        primed = {} if flavor == "sl" else {"r2": Fraction(1, 3)}
        assert VermaModule.scalar(n, s, flavor, sign, **second) == reference_scalar(
            n, s, flavor, sign, **second
        )
        assert VermaModule.scalar_primed(n, s, flavor, sign, **primed) == reference_scalar_primed(
            n, s, flavor, sign, **primed
        )
        assert VermaModule.of(n, False, 2, s, flavor, sign, **other) == reference_fiber(
            n, 2, s, flavor, sign, **other
        )
        assert VermaModule.fiber_primed(n, 2, s, flavor, sign, **other) == reference_fiber_primed(
            n, 2, s, flavor, sign, **other
        )
    # the SL default sign is unchanged
    assert VermaModule.scalar(3, 2) == reference_scalar(3, 2)
    assert VermaModule.fiber_primed(3, 1, 2) == reference_fiber_primed(3, 1, 2)


def test_hom_builders_match_reference():
    checked = 0
    for n, m, ell, flavor, alpha, lam2 in HOM_GRID:
        args = (n, flavor, alpha, lam2)
        assert build_phi(m, ell, *args) == reference_build_phi(m, ell, *args)
        assert build_emb(m, ell, *args) == reference_build_emb(m, ell, *args)
        for primed in (False, True):
            for k in (m, m + ell):
                assert build_phi_k(k, *args, primed=primed) == reference_build_phi_k(
                    k, *args, primed=primed
                )
        checked += 1
    assert checked == 3 * 16 * 2 * 2 * 3


def test_gl_module_default_sign_is_plus_on_both_characters():
    # without sign= a GL module carries + on both characters, so the
    # component group acts exactly as on the module built with (0, 0)
    pd = parabolic(2, "gl")
    gamma = pd.gamma_elements()[0]
    default = VermaModule.scalar(2, 1, "gl", s2=0)
    explicit = VermaModule.scalar(2, 1, "gl", sign=(0, 0), s2=0)
    assert default == explicit
    comps = {(): {(1, 2): 1}}
    assert default.gamma_sums(gamma, comps) == explicit.gamma_sums(gamma, comps)


@st.composite
def gamma_action_cases(draw):
    """(module, vector): a scalar or S^k module, n = 2..5, any signs, and a random vector."""
    n, flavor = draw(st.integers(2, 5)), draw(st.sampled_from(["sl", "gl"]))
    primed, k = draw(st.booleans()), draw(st.integers(0, 2))
    sign = tuple(draw(st.integers(0, 1)) for _ in range(1 if flavor == "sl" else 2))
    module = VermaModule.of(n, primed, k, Fraction(1, 3), flavor, sign, u2=Fraction(0) if flavor == "gl" else None)
    nv = module.num_vars
    monos = st.tuples(*[st.integers(0, 3)] * nv)
    coefficient = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    labels = draw(st.lists(st.sampled_from(module.fiber_labels()), min_size=1, max_size=3, unique=True))
    comps = {
        lbl: Polynomial(nv, draw(st.dictionaries(monos, coefficient, max_size=4)), "zeta")
        for lbl in labels
    }
    return module, VectorValuedPolynomial(nv, comps, "zeta")


@given(gamma_action_cases())
@settings(max_examples=150, deadline=None)
def test_gamma_action_matches_the_fraction_products(case):
    # every generator of both component groups, on the module's own coordinates
    module, v = case
    comps = {lbl: p.terms for lbl, p in v.components.items()}
    for primed in (False, True):
        for gamma in module.pd.gamma_elements(primed=primed):
            sums = module.gamma_sums(gamma, comps)
            assert VectorValuedPolynomial.from_sums(module.num_vars, sums, "zeta") == gamma_action(module, gamma, v)


# -- check_hom_equivariance against the loop it replaced ---------------------------


def _scaled_on_one_label(h, s):
    """h with the image of its last source label multiplied by s."""
    *keep, (lbl, img) = h.images
    return dataclasses.replace(h, images=(*keep, (lbl, img.scale(s))))


def _wrong_sign_hom():
    src = VermaModule.scalar_primed(3, Fraction(2), sign=(0,))
    tgt = VermaModule.scalar(3, Fraction(3), sign=(0,))
    image = VectorValuedPolynomial(3, {(): Polynomial.monomial(3, (0, 0, 1), 1, "zeta")}, "zeta")
    return VermaHom(src, tgt, (((), image),))


@pytest.mark.parametrize(
    "make, degree_cap, status",
    [
        (lambda: build_emb(1, 1, 3), 2, "pass"),
        (lambda: _scaled_on_one_label(build_emb(1, 1, 3), 2), 2, "fail"),
        (lambda: _scaled_on_one_label(build_emb(1, 2, 3), Fraction(-1, 3)), 2, "fail"),
        (lambda: _scaled_on_one_label(build_phi_k(2, 3), 5), 2, "fail"),
        (lambda: _scaled_on_one_label(build_emb(1, 1, 3, flavor="gl", lam2=Fraction(1, 2)), 3), 2, "fail"),
        (_wrong_sign_hom, 1, "fail"),
    ],
)
def test_hom_check_matches_reference_loop(make, degree_cap, status):
    h = make()
    report = check_hom_equivariance(h, degree_cap)
    assert (report["violations"], report["sign_violations"]) == hom_violations(h, degree_cap)
    assert report["status"] == status


def _unpadded_sums(self, comps):
    """`VermaHom.sums` with the fault of multiplying by the unpadded source monomials."""
    imap = self.image_map()
    sums = {}
    for lbl, terms in comps.items():
        for out_lbl, p in imap[lbl].components.items():
            add_product(sums.setdefault(out_lbl, {}), p.terms, terms)
    return sums


@pytest.mark.parametrize("make", [lambda: build_phi(1, 1, 3), lambda: build_emb(1, 1, 3, flavor="gl")])
def test_hom_check_matches_reference_loop_when_the_kernel_drops_the_padding(monkeypatch, make):
    # both sides of each check run through the faulty kernel alike, so only
    # the arity of their monomials can show the fault: every X and every
    # sign check fails at its first vector, where the vector loop cannot
    # build the image
    h = make()
    assert check_hom_equivariance(h, 2)["status"] == "pass"
    monkeypatch.setattr(VermaHom, "sums", _unpadded_sums)
    report = check_hom_equivariance(h, 2)
    violations, sign_violations = hom_violations(h, 2)
    assert (report["violations"], report["sign_violations"]) == (violations, sign_violations)
    assert len(violations) == len(h.source.pd.g_basis(primed=True))
    assert len(sign_violations) == len(h.source.pd.gamma_elements(primed=True)) * len(h.images)


@given(hom_inputs(), st.integers(0, 2))
@settings(max_examples=30, deadline=None)
def test_hom_check_matches_reference_loop_on_random_images(inputs, degree_cap):
    h, _ = inputs
    report = check_hom_equivariance(h, degree_cap)
    assert (report["violations"], report["sign_violations"]) == hom_violations(h, degree_cap)
