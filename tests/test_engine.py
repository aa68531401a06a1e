import dataclasses
import math
from collections import Counter
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fmethod import engine, rep
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
from fmethod.rep import (
    ScalarRepParams,
    SymFiber,
    TargetRepParams,
    characters,
    dpi_hat,
    dpi_hat_parts,
)
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


@pytest.mark.parametrize("options", [{"m_max": 1, "l_max": 1}, {"ido": True, "k_max": 2}])
def test_repeated_lambda2_samples_give_each_row_once(options):
    # a sample equal to an earlier one, as written or as a value, is scanned once
    repeated = classify(2, flavor=GL, lambda2_samples=("0", "0", "1/2", "2/4"), **options)
    assert repeated == classify(2, flavor=GL, lambda2_samples=("0", "1/2"), **options)


def _skewed_weight_part(patch_dpi_hat_parts, elements):
    """dpi_hat_parts with the identity added to the first weight part on `elements`.

    The skew enters each member's operator times w_1 = 2rho - lambda, so it
    moves with lambda, and every member of a family sees a different one.
    """

    def skewed(X, pd):
        base, part, *rest = dpi_hat_parts(X, pd)
        if X in elements:
            part = part + WeylElement.identity(pd.n, "zeta")
        return (base, part, *rest)

    patch_dpi_hat_parts(skewed)


@pytest.mark.parametrize("stage", ["offdiag", "diag"])
def test_lambda_dependent_shared_stage_raises(patch_dpi_hat_parts, capsys, stage):
    pd = parabolic(3)
    # a raising operator that the solve reads, or the A'-weight that sets the
    # label targets
    _skewed_weight_part(patch_dpi_hat_parts, set(engine._lie_data(pd, False).raising)
                        if stage == "offdiag" else {pd.h0_tilde_prime})
    family = _sl_family(3, 1, 1, -1, Fraction(1, 3), 5, Fraction(-7, 2))
    if stage == "offdiag":
        # a raising operator with a weight part is refused at every member
        # count, before any two members are compared
        message = "a raising operator of m' has a weight part"
        for members in (family, _sl_family(3, 1, 1, Fraction(-7, 2))):
            with pytest.raises(ValueError, match=message):
                classify_sl_cell(members)
    else:
        message = "a lambda-family's members differ"
        with pytest.raises(ValueError, match="lambda-independent stage"):
            classify_sl_cell(family)
        # a single member has nothing to disagree with
        (row,) = classify_sl_cell(_sl_family(3, 1, 1, Fraction(-7, 2)))
    assert main(["classify", "--n", "3", "--m-max", "1", "--l-max", "1"]) == 3
    assert f"internal error: {message}" in capsys.readouterr().err


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
            eigs.append(image.terms.get(mono, 0))
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
    later context the monomial keys of an earlier one.  The member check
    partitions the walk the same way: only the step that moves lambda
    along the gap could join the previous step's family.
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
    previous = previous_mode = None
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
            # a family is solved in one mode, so a step that changes the mode
            # starts another family; within a mode, only a move of lambda
            # along the gap passes the member check
            accepted = mode == previous_mode
            if accepted:
                try:
                    previous.member_weights(source, target)
                except ValueError as err:
                    assert "lambda-independent stage" in str(err), name
                    accepted = False
            assert accepted == (name == "lambda at the same gap"), name
        previous, previous_mode = ctx, mode


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


def test_context_rejects_off_diagonal_diagonal_operator(patch_dpi_hat_parts):
    pd = parabolic(3)
    diagonal = {pd.h0_tilde_prime, *pd.m_cartan(primed=True)}
    stray = WeylElement(3, {(0, 1, 0): Polynomial.variable(3, 0, "zeta")}, "zeta")

    def skewed(X, pd):
        base, *parts = dpi_hat_parts(X, pd)
        return (base + stray, *parts) if X in diagonal else (base, *parts)

    patch_dpi_hat_parts(skewed)
    src, tgt, _ = sl_pair(3, Fraction(1, 3), 1, 1)
    with pytest.raises(ValueError, match="diagonal element acted off-diagonally"):
        _SolveContext(src, tgt)


@pytest.mark.parametrize("stray, message", [
    (WeylElement(3, {(0, 1, 0): Polynomial.variable(3, 0, "zeta")}, "zeta"),
     "diagonal element acted off-diagonally"),
    (WeylElement.euler(3, "zeta"), "weight part of a diagonal element is not a scalar"),
], ids=["off-diagonal", "exponent-form"])
def test_context_checks_each_weight_part_of_a_diagonal_element(patch_dpi_hat_parts, stray, message):
    pd = parabolic(3)

    def skewed(X, pd):
        base, part, *rest = dpi_hat_parts(X, pd)
        return (base, part + stray, *rest) if X == pd.h0_tilde_prime else (base, part, *rest)

    patch_dpi_hat_parts(skewed)
    src, tgt, _ = sl_pair(3, Fraction(1, 3), 1, 1)
    with pytest.raises(ValueError, match=message):
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
    for name in ("diag", "raising", "gammas", "n_plus"):
        elements = getattr(lie, name)
        assert isinstance(elements, tuple) and elements
        assert all(isinstance(X, LieElement) for X in elements)
    for f in dataclasses.fields(lie):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(lie, f.name, ())
    primed = not full
    assert lie.diag[0] == (pd.h0_tilde if full else pd.h0_tilde_prime)
    assert lie.diag[-len(pd.m_cartan(primed)):] == tuple(pd.m_cartan(primed))
    assert lie.raising == ((pd.unit(2, 3),) if primed else (pd.unit(2, 3), pd.unit(3, 4)))
    assert lie.gammas == tuple(pd.gamma_elements(primed))
    assert lie.n_plus == (pd.n_plus(1),)
    # every piece is an operator with a memo of its own: the raising
    # elements' bases, and (base, part_1[, part_2]) of each N_1^+
    k = len(pd.two_rho())
    assert [op for op, _ in lie.raising_ops] == [dpi_hat_parts(Z, pd)[0] for Z in lie.raising]
    assert [tuple(op for op, _ in pieces) for pieces in lie.fsystem] == [
        dpi_hat_parts(N, pd) for N in lie.n_plus
    ]
    assert all(len(pieces) == k + 1 for pieces in lie.fsystem)
    pieces = [*lie.raising_ops, *(piece for pieces in lie.fsystem for piece in pieces)]
    assert all(isinstance(op, WeylElement) and isinstance(memo, dict) for op, memo in pieces)
    assert len({id(memo) for _, memo in pieces}) == len(pieces)
    # per diagonal element: c0 of each piece, the integer form and its scale
    assert len(lie.constants) == len(lie.forms) == len(lie.scales) == len(lie.diag)
    for Z, constants, form, scale in zip(lie.diag, lie.constants, lie.forms, lie.scales):
        base, *parts = dpi_hat_parts(Z, pd)
        c0, coeffs = _eigenvalue_form(base)
        assert constants == (c0, *(_eigenvalue_form(part)[0] for part in parts))
        assert scale == math.lcm(*(c.denominator for c in coeffs))
        assert all(type(f) is int for f in form)
        assert [Fraction(f, scale) for f in form] == coeffs
        assert constants[1:] == characters(Z, pd)
    assert lie.lambda_free is True


# -- solving on generators against the full bases -----------------------------

_GENERATOR_LIE_DATA = engine._lie_data


def _full_lie_data(pd, full_nilradical):
    """The `_LieData` built from every off-diagonal unit of m' (m) and every N_j^+."""
    lie = _GENERATOR_LIE_DATA(pd, full_nilradical)
    top = pd.n + 1 if full_nilradical else pd.n
    return engine._LieData.of(
        pd,
        lie.diag,
        tuple(pd.unit(i, j) for i in range(2, top + 1) for j in range(2, top + 1) if i != j),
        lie.gammas,
        tuple(pd.n_plus_basis(primed=not full_nilradical)),
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
    # one record per (algebra, mode), cached for this test only, as `_lie_data` is
    monkeypatch.setattr(engine, "_lie_data", lru_cache(_full_lie_data))
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


# -- members read the weight-free pieces of dpi_hat ----------------------------

_lambdas = st.one_of(st.integers(-5, 2).map(Fraction), st.fractions(-5, 5, max_denominator=5))


@st.composite
def member_contexts(draw):
    """(context, degree): SL or GL, n = 2..5, primed or full, generic or critical lambda.

    The integers -5..2 hold the critical values of the small orders, where
    the F-system's coefficients cancel.
    """
    n, flavor, full = draw(st.integers(2, 5)), draw(st.sampled_from([SL, GL])), draw(st.booleans())
    k = 1 if flavor == SL else 2
    lams = tuple(draw(_lambdas) for _ in range(k))
    nus = tuple(lam + draw(_lambdas) for lam in lams)
    source = ScalarRepParams(n, flavor, (0,) * k, lams)
    target = TargetRepParams(n, flavor, (0,) * k, nus, draw(st.integers(0, 2)))
    return _SolveContext(source, target, full_nilradical=full), draw(st.integers(0, 3))


@given(member_contexts())
@settings(max_examples=60, deadline=None)
def test_member_operators_match_dpi_hat(case):
    ctx, degree = case
    source, pd = ctx.source, ctx.pd
    for mono in monomial_basis(ctx.n, degree):
        p = Polynomial.monomial(ctx.n, mono, 1, "zeta")
        assert ctx.fsystem_images(mono, ctx.weights) == [dpi_hat(N, source).apply(p).terms for N in ctx.lie.n_plus]
    # N_1^+'s pieces combine with the member's weights into its dpi_hat
    for N, ((op, _), *parts) in zip(ctx.lie.n_plus, ctx.lie.fsystem, strict=True):
        for w, (part, _) in zip(ctx.weights, parts, strict=True):
            op = op + part.scale(w)
        assert op == dpi_hat(N, source)
    for Z, shift, form, scale in zip(ctx.lie.diag, ctx._shifts, ctx.lie.forms, ctx.lie.scales,
                                     strict=True):
        c0, c = _eigenvalue_form(dpi_hat(Z, source))
        assert (ctx.fiber.weight(Z, pd) - shift, [Fraction(f, scale) for f in form]) == (c0, c)
    for Z, ((op, _), _) in zip(ctx.lie.raising, ctx.raising, strict=True):
        assert op == dpi_hat(Z, source)


def test_scan_builds_no_dpi_hat_and_applies_each_piece_once_per_monomial(monkeypatch):
    applied = Counter()
    apply = WeylElement.apply

    def counting(self, p):
        applied[(id(self), tuple(p.terms))] += 1
        return apply(self, p)

    # no cached record, so every piece the scan reads is applied here, into
    # the memos of a fresh record
    engine._lie_data.cache_clear()
    monkeypatch.setattr(WeylElement, "apply", counting)
    before = rep.dpi_hat.cache_info()
    rows = classify(3, m_max=2, l_max=2)
    after = rep.dpi_hat.cache_info()
    assert rows and all(row["ok"] for row in rows)
    assert (after.hits, after.misses) == (before.hits, before.misses)
    assert applied and max(applied.values()) == 1


def test_dpi_hat_parts_runs_once_per_element_algebra_and_mode(patch_dpi_hat_parts):
    """Over two rounds of scans, each record reads each of its elements once."""
    calls = Counter()

    def counting(X, pd):
        calls[(X, pd)] += 1
        return dpi_hat_parts(X, pd)

    patch_dpi_hat_parts(counting)
    scans = [
        {"n": 3, "m_max": 1, "l_max": 1},
        {"n": 3, "homs": True, "m_max": 1, "l_max": 1},
        {"n": 3, "ido": True, "k_max": 2},
        {"n": 2, "flavor": GL, "m_max": 1, "l_max": 1},
    ]
    for _ in range(2):
        for options in scans:
            rows = classify(**options)
            assert rows and all(row["ok"] for row in rows)
    seen = Counter(calls)
    expected = Counter()
    for pd, full in [(parabolic(3), False), (parabolic(3), True), (parabolic(2, GL), False)]:
        lie = engine._lie_data(pd, full)
        expected.update((X, pd) for X in (*lie.diag, *lie.raising, *lie.n_plus))
    assert seen == expected


# -- one solve context per lambda-family ----------------------------------------

FAMILY_KINDS = ["sl", "gp", "gprime", "gl", "sl-ido", "gl-ido"]


@st.composite
def families(draw):
    """A `Family` of any kind, n = 2..5: the critical lambda first, then one or two more.

    The extra lambda and lambda_2 values come from `_lambdas`, so they
    are critical values of other orders as often as generic ones.
    """
    kind, n = draw(st.sampled_from(FAMILY_KINDS)), draw(st.integers(2, 5))
    ido = kind.endswith("-ido")
    m, ell = 0 if ido else draw(st.integers(0, 2)), draw(st.integers(0, 2))
    lams = engine._critical_first(1 - (m + ell), draw(st.lists(_lambdas, min_size=1, max_size=2)))
    lam2s = (None,)
    if kind.startswith("gl"):
        lam2s = tuple(dict.fromkeys(draw(st.lists(_lambdas, min_size=1, max_size=2))))
    if ido:
        alpha, beta = 0, ell % 2
    else:
        # homs families have alpha = +, and the connected ones the matched beta
        alpha = 0 if kind in ("gp", "gprime") else draw(st.integers(0, 1))
        matched = (alpha + m + ell) % 2
        beta = matched if kind == "gprime" else draw(st.sampled_from([matched, 1 - matched]))
    return Family(kind, n, m, ell, alpha, beta, lams, lam2s)


def _family_solve(family):
    """(rows, the members, cap and mode that `run_cell` hands `solve_family`)."""
    calls = []

    def recording(members, degree_cap, **mode):
        calls.append((members, degree_cap, mode))
        return solve_family(members, degree_cap, **mode)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "solve_family", recording)
        rows = engine.run_cell(family)
    (call,) = calls
    return rows, call


@given(families())
@settings(max_examples=100, deadline=None)
def test_family_solve_equals_member_solves(family):
    rows, (members, cap, mode) = _family_solve(family)
    assert len(members) == len(rows) == len(family.members())
    together = solve_family(members, cap, **mode)
    for (source, target), sol in zip(members, together, strict=True):
        alone = solve_fsystem(source, target, cap, **mode)
        assert (sol.source, sol.target) == (source, target)
        assert sol.basis == alone.basis
        assert sol.degrees == alone.degrees
        assert sol.provenance["sizes"] == alone.provenance["sizes"]


_FAMILY_OF_EACH_KIND = [
    Family("sl", 3, 1, 1, 0, 0, (Fraction(-1), Fraction(1, 3), Fraction(5))),
    Family("gp", 3, 1, 1, 0, 1, (Fraction(-1), Fraction(-1, 3))),
    Family("gprime", 3, 1, 1, 0, 0, (Fraction(-1), Fraction(-1, 3))),
    Family("gl", 2, 1, 1, 0, 0, (Fraction(-1), Fraction(1, 3)), (Fraction(0), Fraction(1, 2))),
    Family("sl-ido", 3, 0, 2, 0, 0, (Fraction(-1), Fraction(5))),
    Family("gl-ido", 3, 0, 1, 0, 1, (Fraction(0), Fraction(5)), (Fraction(0), Fraction(1, 2))),
]


@pytest.mark.parametrize("family", _FAMILY_OF_EACH_KIND, ids=lambda f: f.kind)
def test_family_builds_one_solve_context(monkeypatch, family):
    built = []
    init = _SolveContext.__init__

    def counting(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(_SolveContext, "__init__", counting)
    rows = engine.run_cell(family)
    assert len(rows) == len(family.members()) >= 2
    assert all(row["ok"] for row in rows)
    assert len(built) == 1


@pytest.mark.parametrize("change", ["lambda_2 gap", "beta", "ell"])
def test_member_outside_the_family_raises(change):
    source, target, cap = _enumeration_case(3, GL, False, True)
    swap = dataclasses.replace
    moved = (swap(source, lam=tuple(x + 2 for x in source.lam)),
             swap(target, nu=tuple(x + 2 for x in target.nu)))
    # moved along the gap in both components, a member belongs to the family
    assert len(solve_family([(source, target), moved], cap)) == 2
    src, tgt = moved
    tgt = {
        "lambda_2 gap": swap(tgt, nu=(tgt.nu[0], tgt.nu[1] + Fraction(1, 2))),
        "beta": swap(tgt, beta=(1 - tgt.beta[0], tgt.beta[1])),
        "ell": swap(tgt, ell=tgt.ell - 1),
    }[change]
    with pytest.raises(ValueError, match="lambda-independent stage"):
        solve_family([(source, target), (src, tgt)], cap)
