import dataclasses
from fractions import Fraction

import pytest

from fmethod import engine
from fmethod.cli import main
from fmethod.algebra import Polynomial, monomial_basis, monomial_key
from fmethod.engine import (
    _eigenvalue_form,
    _SolveContext,
    Family,
    classify,
    classify_ido_cell,
    classify_sl_cell,
    equivariant_basis,
    ido_symbol_vector,
    psi_vector,
    same_solution_span,
    solve_family,
    solve_fsystem,
    weight_degree_cap,
)
from fmethod.liealg import GL, SL, LieElement, parabolic
from fmethod.rep import ScalarRepParams, SymFiber, TargetRepParams, dpi_hat
from fmethod.weyl import WeylElement


def sl_pair(n, lam, m, ell, alpha=0):
    lam = Fraction(lam)
    nu = lam + m + Fraction(n, n - 1) * ell
    beta = (alpha + m + ell) % 2
    return (
        ScalarRepParams.sl(n, lam, alpha),
        TargetRepParams.sl(n, nu, ell=ell, beta=beta),
        nu,
    )


def test_solution_family_one():
    src, tgt, nu = sl_pair(3, Fraction(5), 1, 0)
    sol = solve_fsystem(src, tgt, weight_degree_cap(nu - Fraction(5)))
    assert sol.dim == 1
    assert same_solution_span(sol.basis, [psi_vector(1, 0, 3)])


def test_solution_family_two():
    src, tgt, nu = sl_pair(3, Fraction(-2), 2, 1)
    sol = solve_fsystem(src, tgt, weight_degree_cap(nu - Fraction(-2)))
    assert sol.dim == 1
    assert same_solution_span(sol.basis, [psi_vector(2, 1, 3)])


def test_generic_lambda_gives_nothing_for_positive_ell():
    src, tgt, nu = sl_pair(3, Fraction(1, 3), 2, 1)
    sol = solve_fsystem(src, tgt, weight_degree_cap(nu - Fraction(1, 3)))
    assert sol.dim == 0


def test_doubled_solution_n2():
    m, ell = 1, 1
    lam, nu = Fraction(1 - (m + ell)), Fraction(1 + ell)
    src = ScalarRepParams.sl(2, lam, 0)
    tgt = TargetRepParams.sl(2, nu, ell=0, beta=(0 + m) % 2)
    sol = solve_fsystem(src, tgt, weight_degree_cap(nu - lam))
    assert sol.dim == 2
    # basis zeta2^{m+2l}, zeta2^m zeta1^l in two different homogeneous degrees
    assert sorted(sol.degrees) == [2, 3]


def test_mismatched_sign_kills_solutions():
    m, ell = 1, 1
    lam, nu = Fraction(-1), Fraction(2)
    src = ScalarRepParams.sl(2, lam, 0)
    tgt = TargetRepParams.sl(2, nu, ell=0, beta=(1 + m) % 2)
    assert solve_fsystem(src, tgt, 3).dim == 0


def test_aprime_only_step_space_count():
    # dim Hom_{A'} = [k/2] + 1 at nu - lambda = k, n = 2
    k = 5
    lam = Fraction(7, 5)
    src = ScalarRepParams.sl(2, lam, 0)
    tgt = TargetRepParams.sl(2, lam + k, ell=0, beta=0)
    ctx = _SolveContext(src, tgt, connected=True)
    total = 0
    for d in range(k + 1):
        unknowns = ctx.unknowns_at_degree(d)
        total += len(ctx.equivariant_vectors(unknowns))
    assert total == k // 2 + 1


def test_aprime_weight_mismatch_is_empty():
    # nu - lambda not a half-grid value: no equivariant vectors at all
    src = ScalarRepParams.sl(2, Fraction(0), 0)
    tgt = TargetRepParams.sl(2, Fraction(1, 7), ell=0, beta=0)
    assert solve_fsystem(src, tgt, 5).dim == 0


def test_equivariant_basis_model_vector():
    # n=3, ell=1, m=1: the equivariant line is spanned by psi_(1,1)
    lam = Fraction(2, 3)
    nu = lam + 1 + Fraction(3, 2)
    src = ScalarRepParams.sl(3, lam, 0)
    tgt = TargetRepParams.sl(3, nu, ell=1, beta=0)
    eq = equivariant_basis(src, tgt, 2)
    assert eq.dim == 1
    assert same_solution_span(eq.basis, [psi_vector(1, 1, 3)])
    # its (zeta_n degree, primed degree) is the witness (m, ell) = (1, 1)
    (vec,) = eq.basis_vectors
    monos = {eq.unknowns[i][0] for i in vec}
    assert {(mono[-1], sum(mono[:-1])) for mono in monos} == {(1, 1)}


def test_solutions_are_homogeneous():
    src, tgt, nu = sl_pair(3, Fraction(-2), 2, 1)
    sol = solve_fsystem(src, tgt, weight_degree_cap(nu + 2))
    for vvp in sol.basis:
        degs = {sum(mono) for p in vvp.components.values() for mono in p.terms}
        assert len(degs) == 1


def test_full_nilradical_examples():
    # k = 1 at lambda = 0: the gradient symbol
    src = ScalarRepParams.sl(2, Fraction(0), 0)
    tgt = TargetRepParams.sl(2, Fraction(3, 2), ell=1, beta=1)
    sol = solve_fsystem(src, tgt, 1, full_nilradical=True)
    assert sol.dim == 1
    assert same_solution_span(sol.basis, [ido_symbol_vector(1, 2)])
    # generic lambda, k >= 1: empty
    src = ScalarRepParams.sl(2, Fraction(1, 3), 0)
    tgt = TargetRepParams.sl(2, Fraction(1, 3) + Fraction(3, 2), ell=1, beta=1)
    assert solve_fsystem(src, tgt, 1, full_nilradical=True).dim == 0
    # k = 0: the identity symbol
    src = ScalarRepParams.sl(2, Fraction(5), 0)
    tgt = TargetRepParams.sl(2, Fraction(5), ell=0, beta=0)
    sol = solve_fsystem(src, tgt, 0, full_nilradical=True)
    assert sol.dim == 1


def test_weight_degree_cap():
    assert weight_degree_cap(Fraction(7, 2)) == 3
    assert weight_degree_cap(Fraction(4)) == 4
    assert weight_degree_cap(Fraction(-1)) == -1


@pytest.mark.parametrize("n", [2, 3])
def test_small_scan_consistency(n):
    rows = classify(n, m_max=2, l_max=2)
    assert all(r["ok"] for r in rows)
    if n == 2:
        for r in rows:
            if r["computed_dim"] == 2:
                assert r["predicted_dim"] == 2
    else:
        assert {r["computed_dim"] for r in rows} <= {0, 1}


def test_sign_consistency_over_scan():
    # solutions only appear when beta = alpha + (m + ell)
    rows = classify(3, m_max=2, l_max=1)
    hits = 0
    for r in rows:
        if r["computed_dim"] > 0:
            lam, nu = Fraction(r["lambda"]), Fraction(r["nu"])
            m = nu - lam - Fraction(3, 2) * r["l"]
            assert m.denominator == 1 and m >= 0
            expected = (["+", "-"].index(r["alpha"]) + int(m) + r["l"]) % 2
            assert r["beta"] == ["+", "-"][expected]
            hits += 1
    assert hits > 0


def _ido_family(n, k, lam):
    """The SL order-k family at one lambda: alpha = +, beta = the parity of k."""
    return Family("sl-ido", n, 0, k, 0, k % 2, (Fraction(lam),))


def _sl_family(n, m, ell, *lams):
    """The matched-sign SL family (m, l) at alpha = +."""
    return Family("sl", n, m, ell, 0, (m + ell) % 2, tuple(map(Fraction, lams)))


def test_ido_cells():
    (row,) = classify_ido_cell(_ido_family(2, 3, -2))
    assert row["ok"] and row["computed_dim"] == 1
    (row,) = classify_ido_cell(_ido_family(3, 2, Fraction(1, 3)))
    assert row["ok"] and row["computed_dim"] == 0
    (row,) = classify_ido_cell(_ido_family(3, 2, -1))
    assert row["ok"] and row["computed_dim"] == 1


def test_classify_table_deterministic():
    a = classify_sl_cell(_sl_family(3, 1, 1, -1))
    b = classify_sl_cell(_sl_family(3, 1, 1, -1))
    assert a == b


# -- lambda-families -----------------------------------------------------------


def _solution_record(sol):
    return (sol.source, sol.target, [str(v) for v in sol.basis], sol.degrees, sol.provenance)


FAMILY_SCANS = [
    # n = 2 with l >= 1: the doubled sl_plus cells at the critical lambda
    (2, {"m_max": 3, "l_max": 3}),
    (3, {"m_max": 2, "l_max": 2}),
    (2, {"flavor": GL, "m_max": 2, "l_max": 2}),
    (3, {"ido": True, "k_max": 3}),
    (3, {"ido": True, "flavor": GL, "k_max": 3}),
    (3, {"homs": True, "m_max": 2, "l_max": 2}),
    (3, {"homs": True, "connected": True, "m_max": 2, "l_max": 2}),
]


@pytest.mark.parametrize("n, options", FAMILY_SCANS)
def test_family_rows_match_per_member_solves(monkeypatch, n, options):
    family_rows = classify(n, **options)
    assert all(r["ok"] for r in family_rows)
    family = engine.solve_family
    sizes = []

    def member_by_member(members, degree_cap, connected=False, full_nilradical=False):
        # solve_fsystem solves one member through solve_family
        if len(members) == 1:
            return family(members, degree_cap, connected, full_nilradical)
        sizes.append(len(members))
        return [solve_fsystem(src, tgt, degree_cap, connected, full_nilradical)
                for src, tgt in members]

    monkeypatch.setattr(engine, "solve_family", member_by_member)
    assert classify(n, **options) == family_rows
    assert sizes and min(sizes) >= 4
    if (n, options.get("flavor", SL), options.get("ido", False)) == (2, SL, False):
        assert any(r["computed_dim"] == 2 for r in family_rows)


def _family(n, critical, full=False):
    """Members (critical lambda first) and cap: (m, l) = (2, 2), or order k = 2 when full."""
    lams = (Fraction(critical), Fraction(1, 3), Fraction(-7, 2))
    if full:
        members = [
            (ScalarRepParams.sl(n, lam), TargetRepParams.sl(n, lam + Fraction(n + 1, n) * 2, 2, 0))
            for lam in lams
        ]
        return members, 2
    members = [sl_pair(n, lam, 2, 2)[:2] for lam in lams]
    return members, weight_degree_cap(2 + Fraction(n, n - 1) * 2)


@pytest.mark.parametrize("n, critical, options", [
    (3, -3, {}),
    (2, -3, {"connected": True}),
    (3, -1, {"full_nilradical": True}),
])
def test_family_members_equal_solve_fsystem(n, critical, options):
    members, cap = _family(n, critical, options.get("full_nilradical", False))
    sols = engine.solve_family(members, cap, **options)
    # the F-system moves with lambda: the critical member has more solutions
    assert sols[0].dim > max(sol.dim for sol in sols[1:])
    for (src, tgt), sol in zip(members, sols):
        alone = solve_fsystem(src, tgt, cap, **options)
        assert _solution_record(sol) == _solution_record(alone)
        (one,) = engine.solve_family([(src, tgt)], cap, **options)
        assert _solution_record(one) == _solution_record(alone)


def test_empty_sample_list_gives_no_rows():
    assert classify(2, flavor=GL, m_max=1, l_max=1, lambda2_samples=()) == []
    assert classify(3, flavor=GL, ido=True, lambda2_samples=()) == []
    assert engine.solve_family([], 3) == []


def _skewed_at_last_member(monkeypatch, elements):
    """dpi_hat with a constant added on `elements` at lambda = -7/2 only.

    -7/2 is the last member of every family below, so a check that looked
    only at some members would miss it.
    """

    def skewed(X, params):
        op = dpi_hat(X, params)
        if X in elements and params.lam[0] == Fraction(-7, 2):
            op = op + WeylElement.identity(params.n, "zeta")
        return op

    monkeypatch.setattr(engine, "dpi_hat", skewed)


@pytest.mark.parametrize("stage", ["offdiag", "diag"])
def test_lambda_dependent_shared_stage_raises(monkeypatch, capsys, stage):
    pd = parabolic(3)
    # a raising operator that the solve reads, or the A'-weight that sets the
    # label targets
    _skewed_at_last_member(monkeypatch, set(engine._lie_data(pd, False).raising)
                           if stage == "offdiag" else {pd.h0_tilde_prime})
    with pytest.raises(ValueError, match="lambda-independent stage"):
        classify_sl_cell(_sl_family(3, 1, 1, -1, Fraction(1, 3), 5, Fraction(-7, 2)))
    # a single member has nothing to disagree with
    (row,) = classify_sl_cell(_sl_family(3, 1, 1, Fraction(-7, 2)))
    assert main(["classify", "--n", "3", "--m-max", "1", "--l-max", "1"]) == 3
    assert "internal error: a lambda-family's members differ" in capsys.readouterr().err


@pytest.mark.parametrize("off", [Fraction(1), Fraction(1, 2), Fraction(3)])
def test_member_off_the_gap_raises(off):
    members = [sl_pair(3, lam, 1, 1)[:2] for lam in (-1, Fraction(1, 3), 5, Fraction(-7, 2))]
    src, tgt = members[-1]
    members[-1] = (src, dataclasses.replace(tgt, nu=(tgt.nu[0] + off,)))
    with pytest.raises(ValueError, match="lambda-independent stage"):
        solve_family(members, weight_degree_cap(1 + Fraction(3, 2)))


def test_negative_weight_gap_is_empty():
    src = ScalarRepParams.sl(2, Fraction(3), 0)
    tgt = TargetRepParams.sl(2, Fraction(2), ell=0, beta=0)
    assert solve_fsystem(src, tgt, weight_degree_cap(Fraction(-1))).dim == 0


# -- enumeration against the brute-force filter --------------------------------


def _product(items):
    out = Fraction(1)
    for x in items:
        out *= x
    return out


def _dense(X):
    """The dense rows of a Lie element."""
    return [[X[i, j] for j in range(X.size)] for i in range(X.size)]


def _char_sign(flavor, parities, g0, det_block):
    if flavor == SL:
        return det_block if parities[0] % 2 else Fraction(1)
    s = g0 if parities[0] % 2 else Fraction(1)
    return s * det_block if parities[1] % 2 else s


def _brute_force_unknowns(source, target, degree, connected, full):
    """Every (monomial, label) pair through every diagonal dpi_hat, as a filter."""
    n, pd = source.n, parabolic(source.n, source.flavor)
    block = n if full else n - 1
    fiber = SymFiber(target.ell, block, tuple(-x for x in target.nu))
    labels = fiber.labels(pd)
    diag = [pd.h0_tilde if full else pd.h0_tilde_prime]
    if source.flavor == GL:
        diag.append(pd.j0 if full else pd.j0_prime)
    diag.extend(pd.m_cartan(primed=not full))
    fiber_eigs = [
        {lbl: fiber.act(Z, pd).get((lbl, lbl), Fraction(0)) for lbl in labels} for Z in diag
    ]
    gammas = [] if connected else [_dense(g) for g in pd.gamma_elements(primed=not full)]
    out = []
    for mono in monomial_basis(n, degree):
        p = Polynomial.monomial(n, mono, 1, "zeta")
        eigs = []
        for Z in diag:
            image = dpi_hat(Z, source).apply(p)
            assert set(image.terms) <= {mono}
            eigs.append(image.coefficient(mono))
        for lbl in labels:
            if any(e != fe[lbl] for e, fe in zip(eigs, fiber_eigs)):
                continue
            ok = True
            for g in gammas:
                g0 = g[0][0]
                ad_sign = _product((g[j + 1][j + 1] * g0) ** mono[j] for j in range(n))
                det_block = _product(g[j][j] for j in range(1, n + 1))
                det_w = det_block if full else _product(g[j][j] for j in range(1, n))
                v_side = _char_sign(source.flavor, source.alpha, g0, det_block)
                w_side = _char_sign(source.flavor, target.beta, g0, det_w)
                fiber_sign = _product(g[j + 1][j + 1] ** lbl[j] for j in range(block))
                ok = ok and w_side * fiber_sign == v_side * ad_sign
            if ok:
                out.append((mono, lbl))
    out.sort(key=lambda u: (monomial_key(u[0]), monomial_key(u[1])), reverse=True)
    return out


def _enumeration_case(n, flavor, full, critical, alpha=0, shift=0):
    """(source, target, cap) with m = 1, ell = 2; matched signs when shift = 0.

    Primed: beta = alpha + m + ell + shift.  Full nilradical (ell plays the
    order k): beta = alpha + ell + shift.
    """
    m, ell = 1, 2
    beta = (alpha + ell + shift + (0 if full else m)) % 2
    if full:
        lam = Fraction(1 - ell) if critical else Fraction(1, 3)
        tau = lam + Fraction(n + 1, n) * ell
        if flavor == SL:
            return ScalarRepParams.sl(n, lam, alpha), TargetRepParams.sl(n, tau, ell, beta), ell + 2
        source = ScalarRepParams.gl(n, lam, Fraction(1, 2), alpha, 0)
        target = TargetRepParams.gl(n, tau, Fraction(1, 2) - Fraction(ell, n), ell, beta, 0)
        return source, target, ell + 2
    lam = Fraction(1 - (m + ell)) if critical else Fraction(-7, 2)
    nu = lam + m + Fraction(n, n - 1) * ell
    cap = weight_degree_cap(nu - lam) + 2
    if flavor == SL:
        return ScalarRepParams.sl(n, lam, alpha), TargetRepParams.sl(n, nu, ell, beta), cap
    source = ScalarRepParams.gl(n, lam, Fraction(0), alpha, 0)
    target = TargetRepParams.gl(n, nu, -Fraction(ell, n - 1), ell, beta, 0)
    return source, target, cap


@pytest.mark.parametrize("critical", [True, False])
@pytest.mark.parametrize("connected", [False, True])
@pytest.mark.parametrize("full", [False, True])
@pytest.mark.parametrize("flavor", [SL, GL])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_enumeration_matches_brute_force(n, flavor, full, connected, critical):
    source, target, cap = _enumeration_case(n, flavor, full, critical)
    ctx = _SolveContext(source, target, connected, full)
    sizes = []
    for d in range(cap + 1):
        expected = _brute_force_unknowns(source, target, d, connected, full)
        assert ctx.unknowns_at_degree(d) == expected, d
        sizes.append(len(expected))
    # the degree range covers kept pairs and degrees with none
    assert 0 in sizes and any(sizes)


@pytest.mark.parametrize("alpha, shift", [(0, 1), (1, 0), (1, 1)])
def test_enumeration_matches_brute_force_signs(alpha, shift):
    for flavor in (SL, GL):
        source, target, cap = _enumeration_case(3, flavor, False, True, alpha, shift)
        ctx = _SolveContext(source, target)
        for d in range(cap + 1):
            assert ctx.unknowns_at_degree(d) == _brute_force_unknowns(source, target, d, False, False)


def test_enumeration_caches_key_every_input():
    """A walk of contexts that share the enumeration caches, one input changed per step.

    A cache key that left out an input the enumeration reads would hand a
    later context the monomial keys of an earlier one.
    """
    swap = dataclasses.replace
    s0, t0, cap = _enumeration_case(3, SL, False, True)
    s1, t1 = swap(s0, lam=(s0.lam[0] + 3,)), swap(t0, nu=(t0.nu[0] + 3,))
    t2 = swap(t1, nu=(t1.nu[0] + 2,))
    t3 = swap(t2, ell=t2.ell - 2)
    s4 = swap(s1, alpha=(1 - s1.alpha[0],))
    t5 = swap(t3, beta=(1 - t3.beta[0],))
    connected, full = {"connected": True}, {"connected": True, "full_nilradical": True}
    walk = [
        ("base", s0, t0, {}),
        ("lambda at the same gap", s1, t1, {}),
        ("gap", s1, t2, {}),
        ("ell", s1, t3, {}),
        ("alpha", s4, t3, {}),
        ("beta", s4, t5, {}),
        ("connected", s4, t5, connected),
        # the full-nilradical mode reads a target of order k = ell
        ("full_nilradical", *_enumeration_case(3, SL, True, True)[:2], full),
        ("flavor", *_enumeration_case(3, GL, True, True)[:2], full),
    ]
    previous = None
    for name, source, target, mode in walk:
        ctx = _SolveContext(source, target, **mode)
        got = [ctx.unknowns_at_degree(d) for d in range(cap + 2)]
        expected = [
            _brute_force_unknowns(source, target, d, mode.get("connected", False),
                                  mode.get("full_nilradical", False))
            for d in range(cap + 2)
        ]
        assert got == expected, name
        if previous is not None:
            # only a move of lambda along the gap keeps the check key
            assert (ctx.shared() == previous.shared()) == (name == "lambda at the same gap"), name
        previous = ctx


def test_eigenvalue_form_reads_the_normal_form():
    euler_plus_half = WeylElement.euler(3, "zeta") + Fraction(1, 2)
    assert _eigenvalue_form(euler_plus_half) == (Fraction(1, 2), [1, 1, 1])
    src = ScalarRepParams.sl(3, Fraction(1, 3))
    c0, coeffs = _eigenvalue_form(dpi_hat(parabolic(3).h0_tilde_prime, src))
    p = Polynomial.monomial(3, (2, 1, 3), 1, "zeta")
    image = dpi_hat(parabolic(3).h0_tilde_prime, src).apply(p)
    assert image == p.scale(c0 + 2 * coeffs[0] + coeffs[1] + 3 * coeffs[2])


def test_eigenvalue_form_rejects_non_diagonal_operators():
    z1 = Polynomial.variable(2, 0, "zeta")
    with pytest.raises(ValueError, match="diagonal element acted off-diagonally"):
        _eigenvalue_form(WeylElement(2, {(0, 1): z1}, "zeta"))
    with pytest.raises(ValueError, match="non-affine eigenvalue"):
        _eigenvalue_form(WeylElement(2, {(2, 0): z1 * z1}, "zeta"))


def test_context_rejects_off_diagonal_diagonal_operator(monkeypatch):
    pd = parabolic(3)
    diagonal = {pd.h0_tilde_prime, *pd.m_cartan(primed=True)}
    stray = WeylElement(3, {(0, 1, 0): Polynomial.variable(3, 0, "zeta")}, "zeta")

    def skewed(X, params):
        op = dpi_hat(X, params)
        return op + stray if X in diagonal else op

    monkeypatch.setattr(engine, "dpi_hat", skewed)
    src, tgt, _ = sl_pair(3, Fraction(1, 3), 1, 1)
    with pytest.raises(ValueError, match="diagonal element acted off-diagonally"):
        _SolveContext(src, tgt)


def _reference_fiber_action(fiber, L, pd):
    """SymFiber.act built from scratch, weights included, with no cache."""
    full = fiber.block == pd.n
    c1 = L[0, 0]
    Z = L.sub((pd.h0_tilde if full else pd.h0_tilde_prime).scale(c1))
    weight = fiber.weights[0] * c1
    if pd.flavor == GL:
        c2 = L.trace()
        Z = Z.sub((pd.j0 if full else pd.j0_prime).scale(c2))
        if len(fiber.weights) > 1:
            weight += fiber.weights[1] * c2
    out = {}
    for k in monomial_basis(fiber.block, fiber.degree):
        if weight:
            out[(k, k)] = out.get((k, k), Fraction(0)) + weight
        for j in range(fiber.block):
            for i in range(fiber.block):
                coeff = k[j] * Z[i + 1, j + 1]
                if not coeff:
                    continue
                kk = list(k)
                kk[j] -= 1
                kk[i] += 1
                key = (k, tuple(kk)) if fiber.dual else (tuple(kk), k)
                out[key] = out.get(key, Fraction(0)) + (-coeff if fiber.dual else coeff)
    return {key: v for key, v in out.items() if v}


@pytest.mark.parametrize("dual", [False, True])
@pytest.mark.parametrize("full", [False, True])
@pytest.mark.parametrize("flavor, weights", [(SL, (Fraction(-7, 3),)), (GL, (Fraction(5, 2), Fraction(-1, 3)))])
def test_cached_fiber_action_matches_reference(flavor, weights, full, dual):
    n = 3
    pd = parabolic(n, flavor)
    elements = pd.l_basis(primed=not full)
    generic = elements[0]
    for k, X in enumerate(elements[1:], start=2):
        generic = generic.add(X.scale(Fraction(k, 3)))
    for degree in (0, 1, 2):
        fiber = SymFiber(degree, n if full else n - 1, weights, dual)
        weightless = SymFiber(degree, fiber.block, (0, 0), dual)
        assert fiber.weight(generic, pd)
        for X in elements + [generic]:
            # twice each: the second call is served from the cached m-part
            for _ in range(2):
                assert fiber.act(X, pd) == _reference_fiber_action(fiber, X, pd)
                assert weightless.act(X, pd) == _reference_fiber_action(weightless, X, pd)


def test_fiber_action_is_a_fresh_dict():
    pd = parabolic(3, SL)
    X = pd.l_basis(primed=True)[-1]
    fiber = SymFiber(2, 2, (Fraction(0),))
    assert not fiber.weight(X, pd)
    first = fiber.act(X, pd)
    expected = dict(first)
    assert expected
    first.clear()
    assert fiber.act(X, pd) == expected


@pytest.mark.parametrize("full", [False, True])
@pytest.mark.parametrize("flavor", [SL, GL])
def test_lie_data_is_shared_and_immutable(flavor, full):
    pd = parabolic(3, flavor)
    critical = _SolveContext(*_enumeration_case(3, flavor, full, True)[:2], full_nilradical=full)
    generic = _SolveContext(*_enumeration_case(3, flavor, full, False)[:2], full_nilradical=full)
    lie = critical.lie
    assert lie is generic.lie is engine._lie_data(pd, full)
    assert lie is not engine._lie_data(pd, not full)
    for f in dataclasses.fields(lie):
        elements = getattr(lie, f.name)
        assert isinstance(elements, tuple) and elements
        assert all(isinstance(X, LieElement) for X in elements)
    with pytest.raises(dataclasses.FrozenInstanceError):
        lie.diag = ()
    primed = not full
    assert lie.diag[0] == (pd.h0_tilde if full else pd.h0_tilde_prime)
    assert lie.diag[-len(pd.m_cartan(primed)):] == tuple(pd.m_cartan(primed))
    assert lie.raising == ((pd.unit(2, 3),) if primed else (pd.unit(2, 3), pd.unit(3, 4)))
    assert lie.gammas == tuple(pd.gamma_elements(primed))
    assert lie.n_plus == (pd.n_plus(1),)


# -- solving on generators against the full bases -----------------------------

_GENERATOR_LIE_DATA = engine._lie_data


def _full_lie_data(pd, full_nilradical):
    """`_lie_data` with every off-diagonal unit of m' (m) and every N_j^+."""
    top = pd.n + 1 if full_nilradical else pd.n
    return dataclasses.replace(
        _GENERATOR_LIE_DATA(pd, full_nilradical),
        raising=tuple(pd.unit(i, j) for i in range(2, top + 1)
                      for j in range(2, top + 1) if i != j),
        n_plus=tuple(pd.n_plus_basis(primed=not full_nilradical)),
    )


def _classify_with_provenance(monkeypatch, options):
    spaces = []

    def recording(*args, **kwargs):
        out = solve_family(*args, **kwargs)
        spaces.extend(out)
        return out

    with monkeypatch.context() as patch:
        patch.setattr(engine, "solve_family", recording)
        rows = classify(**options)
    return rows, [(sol.source, sol.target, sol.provenance) for sol in spaces]


@pytest.mark.parametrize("options", [
    *({"n": n, "m_max": 2, "l_max": 2} for n in (3, 4, 5, 6)),
    *({"n": n, "flavor": GL, "m_max": 1, "l_max": 1} for n in (3, 4)),
    *({"n": n, "ido": True, "k_max": 3} for n in (3, 4, 5)),
    *({"n": n, "flavor": GL, "ido": True, "k_max": 2} for n in (3, 4)),
    *({"n": n, "homs": True, "m_max": 1, "l_max": 2, "connected": c}
      for n in (3, 4, 5) for c in (False, True)),
], ids=lambda o: "-".join(f"{k}={v}" for k, v in o.items()))
def test_solve_on_generators_matches_full_bases(monkeypatch, options):
    reduced = _classify_with_provenance(monkeypatch, options)
    monkeypatch.setattr(engine, "_lie_data", _full_lie_data)
    full = _classify_with_provenance(monkeypatch, options)
    assert reduced[0] and all(row["ok"] for row in reduced[0])
    assert reduced == full


@pytest.mark.parametrize("n", [3, 4])
def test_raising_operators_are_applied_once_per_monomial(monkeypatch, n):
    """A solve at another lambda reuses the images of the first solve."""
    calls = []
    apply = WeylElement.apply

    def counting(self, p):
        calls.append(p)
        return apply(self, p)

    def vectors(lam):
        src, tgt, _ = sl_pair(n, lam, 1, 2)
        ctx = _SolveContext(src, tgt)
        unknowns = ctx.unknowns_at_degree(3)
        assert unknowns
        calls.clear()
        with monkeypatch.context() as patch:
            patch.setattr(WeylElement, "apply", counting)
            return ctx.equivariant_vectors(unknowns), len(calls)

    first, _ = vectors(Fraction(1, 3))
    second, applied = vectors(Fraction(-7, 2))
    assert first and second == first
    assert applied == 0
