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
from fmethod.algebra import Polynomial, exact, monomial_basis, monomial_key, sparse_nullspace
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
from fmethod.liealg import GL, SL, LieElement, ParabolicData, parabolic
from fmethod.params import sign_str
from fmethod.rep import (
    ScalarRepParams,
    SymFiber,
    TargetRepParams,
    affine_operator,
    characters,
    dpi_hat,
    dpi_hat_parts,
)
from fmethod.weyl import WeylElement
import references
from references import gamma_parities, is_exact_normal_form


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
    return Family("sl-ido", n, 0, k, ((0, k % 2),), (Fraction(lam),))


def _sl_family(n, m, ell, *lams):
    """The matched-sign SL family (m, l) at alpha = +."""
    return Family("sl", n, m, ell, ((0, (m + ell) % 2),), tuple(map(Fraction, lams)))


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


# -- families --------------------------------------------------------------------


def _solution_record(solution):
    """A `solve_family` result (basis, degrees, provenance), with the basis printed."""
    basis, degrees, provenance = solution
    return [str(v) for v in basis], degrees, provenance


def _solved(sol):
    """A `SolutionSpace` as the (basis, degrees, provenance) of a `solve_family` result."""
    return sol.basis, sol.degrees, sol.provenance


def _members(source, target, lams):
    """The family's (source, target) at each lambda in `lams`: the representative moved along its gap."""
    swap = dataclasses.replace
    return [
        (swap(source, lam=lam),
         swap(target, nu=tuple(exact(nu - x + y) for nu, x, y in zip(target.nu, source.lam, lam))))
        for lam in lams
    ]


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

    def member_by_member(source, target, lams, degree_cap, connected=False, full_nilradical=False):
        # solve_fsystem solves one member through solve_family
        if len(lams) == 1:
            return family(source, target, lams, degree_cap, connected, full_nilradical)
        sizes.append(len(lams))
        return [_solved(solve_fsystem(src, tgt, degree_cap, connected, full_nilradical))
                for src, tgt in _members(source, target, lams)]

    monkeypatch.setattr(engine, "solve_family", member_by_member)
    assert classify(n, **options) == family_rows
    assert sizes and min(sizes) >= 4
    if (n, options.get("flavor", SL), options.get("ido", False)) == (2, SL, False):
        assert any(r["computed_dim"] == 2 for r in family_rows)


def _family(n, critical, full=False):
    """(source, target, lambdas, cap), critical lambda first: (m, l) = (2, 2), or order k = 2 when full."""
    lams = [(exact(lam),) for lam in (critical, Fraction(1, 3), Fraction(-7, 2))]
    if full:
        tau = critical + Fraction(n + 1, n) * 2
        return ScalarRepParams.sl(n, critical), TargetRepParams.sl(n, tau, 2, 0), lams, 2
    return (*sl_pair(n, critical, 2, 2)[:2], lams, weight_degree_cap(2 + Fraction(n, n - 1) * 2))


@pytest.mark.parametrize("n, critical, options", [
    (3, -3, {}),
    (2, -3, {"connected": True}),
    (3, -1, {"full_nilradical": True}),
])
def test_family_members_equal_solve_fsystem(n, critical, options):
    source, target, lams, cap = _family(n, critical, options.get("full_nilradical", False))
    sols = engine.solve_family(source, target, lams, cap, **options)
    # the F-system moves with lambda: the critical member has more solutions
    assert len(sols[0][0]) > max(len(basis) for basis, _, _ in sols[1:])
    for (src, tgt), sol in zip(_members(source, target, lams), sols, strict=True):
        alone = solve_fsystem(src, tgt, cap, **options)
        assert (alone.source, alone.target) == (src, tgt)
        assert _solution_record(sol) == _solution_record(_solved(alone))
        (one,) = engine.solve_family(src, tgt, [src.lam], cap, **options)
        assert _solution_record(one) == _solution_record(sol)


def test_empty_sample_list_gives_no_rows():
    assert classify(2, flavor=GL, m_max=1, l_max=1, lambda2_samples=()) == []
    assert classify(3, flavor=GL, ido=True, lambda2_samples=()) == []
    assert engine.run_cell(Family("gl", 2, 1, 1, ((0, 0), (1, 1)), (-1,), ())) == []
    assert engine.run_cell(Family("sl", 3, 1, 1, ((0, 0), (1, 1)), ())) == []
    assert engine.solve_family(*sl_pair(3, 5, 1, 0)[:2], [], 3) == []


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
    fiber = SymFiber(target.ell, block)
    labels = fiber.labels()
    diag = [pd.h0_tilde if full else pd.h0_tilde_prime]
    if source.flavor == GL:
        diag.append(pd.j0 if full else pd.j0_prime)
    diag.extend(pd.m_cartan(primed=not full))
    fiber_eigs = []
    for Z in diag:
        # the m-part plus the target character -nu . chi(Z)
        acts, shift = fiber.act(Z, pd), -sum(v * c for v, c in zip(target.nu, characters(Z, pd)))
        fiber_eigs.append({lbl: acts.get((lbl, lbl), 0) + shift for lbl in labels})
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
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
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
    """A walk of contexts that share the records' label solves, one input changed per step.

    The label solves are kept per (record, l), and a record per (algebra,
    mode); a key that left out an input the enumeration reads would hand a
    later context the label solves of an earlier one.  The families
    partition the walk the same way: only the step that moves lambda along
    the gap keeps the previous step's sign key and label intervals, and
    the previous step's family solve at its lambda is its own solve.
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
        ("n", *_enumeration_case(4, GL, True, True)[:2], full),
    ]
    solves = {}  # (record, l): the label solves every context with them reads
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
        key = (ctx.lie, target.ell)
        shared = ctx.lie.solve_labels(ctx.fiber, ctx.pd)
        assert shared is ctx.lie.label_solves[target.ell]
        assert solves.setdefault(key, shared) is shared, name
        if previous is not None:
            # a family is solved in one mode, on one record and fiber, so a
            # step that changes them starts another family; then only a move
            # of lambda along the gap keeps every lambda-free stage
            same = mode == previous_mode and (ctx.lie, ctx.fiber, ctx.sign_key, ctx._labels) == (
                previous.lie, previous.fiber, previous.sign_key, previous._labels)
            assert same == (name == "lambda at the same gap"), name
            if same:
                (moved,) = solve_family(previous.source, previous.target, [source.lam], cap, **mode)
                alone = solve_fsystem(source, target, cap, **mode)
                assert _solution_record(moved) == _solution_record(_solved(alone))
        previous, previous_mode = ctx, mode
    # the walk reaches two l on the SL primed record, one on each full one
    assert len(solves) == 5
    assert len({id(shared) for shared in solves.values()}) == 5


def _unsolved(source, target, lams, degree_cap, **mode):
    return [([], [], {}) for _ in lams]


@st.composite
def enumeration_members(draw):
    """(source, target, cap, mode): one member of a family of any kind, n = 2..8.

    The member, the family's only one, cap and mode are those `run_cell`
    hands `solve_family`.
    Any sign pair, and lambda critical, an integer -5..2 or a rational; at
    n >= 6 only m, l <= 1 (k <= 2), so the degrees stay small.  Some draws
    move nu off the family's gap, where a scaled shift may be non-integral.
    """
    kind, n = draw(st.sampled_from(FAMILY_KINDS)), draw(st.integers(2, 8))
    ido, top = kind.endswith("-ido"), 1 if n >= 6 else 2
    m = 0 if ido else draw(st.integers(0, top))
    ell = draw(st.integers(0, top + ido))
    lam = draw(st.one_of(st.just(Fraction(1 - (m + ell))), _lambdas))
    lam2s = (draw(_lambdas),) if kind.startswith("gl") else (None,)
    signs = ((draw(st.integers(0, 1)), draw(st.integers(0, 1))),)
    family = Family(kind, n, m, ell, signs, (lam,), lam2s)
    _, (source, target, _, cap, mode) = _family_solve(family, _unsolved)
    off = draw(st.sampled_from([0, Fraction(1, 2), Fraction(-1, 3), 1]))
    if off and draw(st.booleans()):
        target = dataclasses.replace(target, nu=tuple(x + off for x in target.nu))
    return source, target, cap, mode


@given(enumeration_members())
@settings(max_examples=300, deadline=None)
def test_enumeration_matches_brute_force_in_every_mode(case):
    source, target, cap, mode = case
    connected, full = mode.get("connected", False), mode.get("full_nilradical", False)
    ctx = _SolveContext(source, target, connected, full)
    for d in range(max(cap, 0) + 2):
        expected = _brute_force_unknowns(source, target, d, connected, full)
        assert ctx.unknowns_at_degree(d) == expected, d
    # each label's parities against the Fraction products of the sign rule
    masks, parities = gamma_parities(ctx.pd, full, source.alpha, target.beta, target.ell)
    assert ctx.lie.zeta_masks == masks
    for *_, lbl, _, got in ctx._labels:
        assert got == (() if connected else parities[lbl]), lbl


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
    """SymFiber.act, the m-part, built from scratch with no cache."""
    full = fiber.block == pd.n
    Z = L.sub((pd.h0_tilde if full else pd.h0_tilde_prime).scale(L[0, 0]))
    if pd.flavor == GL:
        Z = Z.sub((pd.j0 if full else pd.j0_prime).scale(L.trace()))
    out = {}
    for k in monomial_basis(fiber.block, fiber.degree):
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
        fiber = SymFiber(degree, n if full else n - 1, dual)
        for X in elements + [generic]:
            # twice each: a first call leaves nothing behind that the second reads
            for _ in range(2):
                act = fiber.act(X, pd)
                assert act == _reference_fiber_action(fiber, X, pd)
            # with no x-variable, the weights add sum_i w_i chi_i(X) to each diagonal entry
            expected = dict(act)
            for k in fiber.labels():
                expected[k, k] = expected.get((k, k), 0) + sum(
                    w * c for w, c in zip(weights, characters(X, pd))
                )
            op = affine_operator(X, pd, 0, fiber, weights)
            assert {key: w.terms[()].terms[()] for key, w in op.terms.items()} == {
                key: c for key, c in expected.items() if c
            }


def test_fiber_action_is_a_fresh_dict():
    pd = parabolic(3, SL)
    X = pd.l_basis(primed=True)[-1]
    fiber = SymFiber(2, 2)
    first = fiber.act(X, pd)
    expected = dict(first)
    assert expected
    first.clear()
    assert fiber.act(X, pd) == expected


@pytest.mark.parametrize("full", [False, True])
@pytest.mark.parametrize("flavor", [SL, GL])
def test_raising_actions_are_built_once_per_record_and_ell(flavor, full):
    """Two families of one mode and ell (a critical and a generic lambda)
    read the same m-actions of the raising elements off the record."""
    critical = _SolveContext(*_enumeration_case(3, flavor, full, True)[:2], full_nilradical=full)
    generic = _SolveContext(*_enumeration_case(3, flavor, full, False)[:2], full_nilradical=full)
    pd = critical.pd
    assert critical.weights != generic.weights
    assert len(critical.raising) == len(critical.lie.raising)
    for Z, (piece, act), (other_piece, other_act) in zip(critical.lie.raising, critical.raising, generic.raising):
        assert piece is other_piece and act is other_act
        assert act == critical.fiber.act(Z, pd) == generic.fiber.act(Z, pd) != {}


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
    # every piece is a bare operator of `dpi_hat_parts`: the raising
    # elements' bases, and (base, part_1[, part_2]) of each N_1^+
    k = len(pd.two_rho())
    assert lie.raising_ops == tuple(dpi_hat_parts(Z, pd)[0] for Z in lie.raising)
    assert lie.fsystem == tuple(dpi_hat_parts(N, pd) for N in lie.n_plus)
    assert all(len(pieces) == k + 1 for pieces in lie.fsystem)
    pieces = [*lie.raising_ops, *(piece for pieces in lie.fsystem for piece in pieces)]
    assert all(type(op) is WeylElement for op in pieces)
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
    # the diagonal solve: D times the inverse of the degree row and the pivot forms
    n, D = pd.n, lie.denominator
    rows = [(1,) * n, *(lie.forms[r] for r in lie.pivots)]
    assert D > 0 and all(type(x) is int for row in lie.inverse for x in row)
    assert [[sum(q[k] * rows[k][i] for k in range(n)) for i in range(n)] for q in lie.inverse] == [
        [D * (i == j) for i in range(n)] for j in range(n)
    ]
    assert lie.degree_column == tuple(q[0] for q in lie.inverse)
    assert lie.checks == tuple(
        (r, sum(f * u for f, u in zip(form, lie.degree_column)))
        for r, form in enumerate(lie.forms) if r not in lie.pivots
    )


# -- solving on generators against the full bases -----------------------------

_GENERATOR_LIE_DATA = engine._lie_data


def _full_lie_data(pd, full_nilradical):
    """The `_LieData` built from every off-diagonal unit of m' (m) and every N_j^+."""
    lie = _GENERATOR_LIE_DATA(pd, full_nilradical)
    top = pd.n + 1 if full_nilradical else pd.n
    return engine._LieData.of(
        pd,
        pd.n if full_nilradical else pd.n - 1,
        lie.diag,
        tuple(pd.unit(i, j) for i in range(2, top + 1) for j in range(2, top + 1) if i != j),
        lie.gammas,
        tuple(pd.n_plus_basis(primed=not full_nilradical)),
    )


def _classify_with_provenance(monkeypatch, options):
    spaces = []

    def recording(source, target, lams, *args, **kwargs):
        out = solve_family(source, target, lams, *args, **kwargs)
        spaces.extend((source, target, lam, sol[2]) for lam, sol in zip(lams, out, strict=True))
        return out

    with monkeypatch.context() as patch:
        patch.setattr(engine, "solve_family", recording)
        rows = classify(**options)
    return rows, spaces


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
    """Each raising operator is applied once to each unknown's monomial, and
    a solve at another lambda gets the same equivariant vectors."""
    calls = Counter()
    sums = WeylElement.sums

    def counting(self, terms, acc=None):
        calls[(id(self), tuple(terms))] += 1
        return sums(self, terms, acc)

    def vectors(lam):
        src, tgt, _ = sl_pair(n, lam, 1, 2)
        ctx = _SolveContext(src, tgt)
        unknowns = ctx.unknowns_at_degree(3)
        assert unknowns
        calls.clear()
        with monkeypatch.context() as patch:
            patch.setattr(WeylElement, "sums", counting)
            out = ctx.equivariant_vectors(unknowns)
        assert calls == Counter(
            (id(op), (mono,)) for op, _ in ctx.raising for mono, _ in unknowns
        )
        return out

    first = vectors(Fraction(1, 3))
    second = vectors(Fraction(-7, 2))
    assert first and second == first


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
    # the member's weighed F-system rows on one unit vector per monomial hold
    # dpi_hat(N_1^+, source)'s image of that monomial
    monos, lbl = monomial_basis(ctx.n, degree), ctx.fiber.labels()[0]
    units = [{b: 1} for b in range(len(monos))]
    rows = references.weigh(ctx.fsystem_rows([(mono, lbl) for mono in monos], units), ctx.weights)
    expected = {}
    for jop, N in enumerate(ctx.lie.n_plus):
        for b, mono in enumerate(monos):
            p = Polynomial.monomial(ctx.n, mono, 1, "zeta")
            for om, c in dpi_hat(N, source).apply(p).terms.items():
                expected.setdefault((jop, lbl, om), {})[b] = c
    assert references.nonzero_rows(rows) == expected
    # N_1^+'s pieces combine with the member's weights into its dpi_hat
    for N, (op, *parts) in zip(ctx.lie.n_plus, ctx.lie.fsystem, strict=True):
        for w, part in zip(ctx.weights, parts, strict=True):
            op = op + part.scale(w)
        assert op == dpi_hat(N, source)
    for Z, shift, form, scale in zip(ctx.lie.diag, ctx._shifts, ctx.lie.forms, ctx.lie.scales,
                                     strict=True):
        c0, c = _eigenvalue_form(dpi_hat(Z, source))
        target_character = -sum(v * x for v, x in zip(ctx.target.nu, characters(Z, pd)))
        assert (target_character - shift, [Fraction(f, scale) for f in form]) == (c0, c)
    for Z, (op, _) in zip(ctx.lie.raising, ctx.raising, strict=True):
        assert op == dpi_hat(Z, source)


def test_weighing_leaves_the_piece_rows_alone():
    """Members at different weights each equal their one-member solve.

    The generic lambdas come first: had a member summed its weights into the
    shared base rows, the critical member after them would solve at the sum.
    The weighing is the per-weight reference's (`references.weigh`), which
    the lambda-loci are tested against.
    """
    source, target, _ = sl_pair(3, Fraction(1, 3), 1, 1)
    lams = [(Fraction(1, 3),), (5,), (-1,)]
    sols = solve_family(source, target, lams, 2)
    assert [len(basis) for basis, _, _ in sols] == [0, 0, 1]
    for (src, tgt), (basis, _, _) in zip(_members(source, target, lams), sols, strict=True):
        assert basis == solve_fsystem(src, tgt, 2).basis
    ctx = _SolveContext(source, target)
    unknowns = ctx.unknowns_at_degree(2)
    pieces = ctx.fsystem_rows(unknowns, ctx.equivariant_vectors(unknowns))
    before = [{key: dict(row) for key, row in rows.items()} for rows in pieces]
    for lam in lams:
        references.weigh(pieces, ctx.weights_at(lam))
    assert pieces == before


def test_scan_builds_no_dpi_hat():
    # no cached record, so the scan also builds its records here, from
    # `dpi_hat_parts` alone
    engine._lie_data.cache_clear()
    before = rep.dpi_hat.cache_info()
    rows = classify(3, m_max=2, l_max=2)
    after = rep.dpi_hat.cache_info()
    assert rows and all(row["ok"] for row in rows)
    assert (after.hits, after.misses) == (before.hits, before.misses)


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


# -- one solve context per family of one relative sign --------------------------

FAMILY_KINDS = ["sl", "gp", "gprime", "gl", "sl-ido", "gl-ido"]


@st.composite
def families(draw, max_n=5, min_lam2s=1):
    """A `Family` of any kind, n = 2..max_n: the critical lambda first, then one or two more.

    The extra lambda and lambda_2 values come from `_lambdas`, so they
    are critical values of other orders as often as generic ones; a GL
    family has min_lam2s..2 distinct lambda_2 values.
    """
    kind, n = draw(st.sampled_from(FAMILY_KINDS)), draw(st.integers(2, max_n))
    ido = kind.endswith("-ido")
    m, ell = 0 if ido else draw(st.integers(0, 2)), draw(st.integers(0, 2))
    lams = engine._critical_first(1 - (m + ell), draw(st.lists(_lambdas, min_size=1, max_size=2)))
    lam2s = (None,)
    if kind.startswith("gl"):
        lam2s = tuple(draw(st.lists(_lambdas, min_size=min_lam2s, max_size=2, unique=True)))
    if ido:
        signs = ((0, ell % 2),)
    else:
        # sl and gl families hold both sign pairs of one relative sign; homs
        # families have alpha = +, and the connected ones the matched beta
        alphas = (0, 1) if kind in ("sl", "gl") else (0,)
        flip = 0 if kind == "gprime" else draw(st.integers(0, 1))
        signs = tuple((alpha, (alpha + m + ell + flip) % 2) for alpha in alphas)
    return Family(kind, n, m, ell, signs, lams, lam2s)


def _family_solve(family, solve=solve_family):
    """(rows, the (source, target, lams, cap, mode) that `run_cell` hands
    `solve_family`), solved by `solve`."""
    calls = []

    def recording(source, target, lams, degree_cap, **mode):
        calls.append((source, target, lams, degree_cap, mode))
        return solve(source, target, lams, degree_cap, **mode)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "solve_family", recording)
        rows = engine.run_cell(family)
    (call,) = calls
    return rows, call


@given(families())
@settings(max_examples=100, deadline=None)
def test_family_solve_equals_member_solves(family):
    """One solve per family: the representative is the first member, at the
    critical lambda, and is moved to each of the family's lambdas; each
    lambda's solve is its member's own, and row i reads lambda i mod their
    count."""
    rows, (source, target, lams, cap, mode) = _family_solve(family)
    assert lams == family.lambdas() and source.lam == lams[0] == family.members()[0][1]
    # the first sign pair; at n = 2, an SL or homs family folds l into beta
    assert source.alpha[0] == family.signs[0][0]
    assert target.beta[0] == family.signs[0][1] or family.n == 2 and not family.kind.endswith("-ido")
    assert len(rows) == len(family.members())
    # each row heads with its own member's signs
    assert [(row["alpha"], row["beta"]) for row in rows] == [
        (",".join(map(sign_str, alphas)), ",".join(map(sign_str, betas)))
        for (alphas, betas), _ in family.members()
    ]
    together = solve_family(source, target, lams, cap, **mode)
    assert [row["computed_dim"] for row in rows] == [len(together[i % len(lams)][0]) for i in range(len(rows))]
    for (src, tgt), (basis, degrees, provenance) in zip(_members(source, target, lams), together, strict=True):
        alone = solve_fsystem(src, tgt, cap, **mode)
        assert basis == alone.basis
        assert degrees == alone.degrees
        assert provenance["sizes"] == alone.provenance["sizes"]


@given(families(max_n=6, min_lam2s=2))
@settings(max_examples=100, deadline=None)
def test_locus_solve_equals_the_per_weight_reference(family):
    """Each stage's lambda-locus, solved once per family and read at every
    member's weights, gives the bases, degrees and sizes of eliminating the
    F-system at each distinct weight.  The critical lambda comes first, and
    a GL family holds two lambda_2 values."""
    rows, (source, target, lams, cap, mode) = _family_solve(family)
    reference_rows, _ = _family_solve(family, references.solve_family_per_weight)
    assert rows == reference_rows
    got = solve_family(source, target, lams, cap, **mode)
    want = references.solve_family_per_weight(source, target, lams, cap, **mode)
    assert [_solution_record(sol) for sol in got] == [_solution_record(sol) for sol in want]
    assert [basis for basis, _, _ in got] == [basis for basis, _, _ in want]


def test_locus_of_a_constant_row_is_empty_and_of_no_row_every_lambda():
    """Columns (w_1[, w_2], 1): a row with a constant alone holds at no lambda,
    so the stage is dropped; rows that cancel hold at every lambda; a row
    of w_1 and the constant fixes w_1, and the GL locus leaves w_2 free
    unless a row reads it."""
    key, other = (0, (0,), (1,)), (0, (0,), (2,))
    assert engine._locus([{key: {0: 3}}, {}]) is None
    assert engine._locus([{key: {0: 0}}, {key: {0: 0}}]) == ()
    # 6 + w_1 (-4) = 0: the point w_1 = 3/2
    assert engine._locus([{key: {0: 6}}, {key: {0: -4}}]) == ((0, Fraction(3, 2), ()),)
    # 6 + 2 w_1 = 0, w_2 free: the line w_1 = -3
    assert engine._locus([{key: {0: 6}}, {key: {0: 2}}, {}]) == ((0, -3, ()),)
    # 1 + w_1 - w_2 = 0: the line w_1 = -1 + w_2
    line = engine._locus([{key: {0: 1}}, {key: {0: 1}}, {key: {0: -1}}])
    assert line == ((0, -1, ((1, 1),)),)
    assert engine._on_locus(line, (Fraction(3, 2), Fraction(5, 2))) and not engine._on_locus(line, (0, 0))
    # and 2 - w_2 = 0 besides: the point (1, 2)
    point = engine._locus([{key: {0: 1}, other: {0: 2}}, {key: {0: 1}}, {key: {0: -1}, other: {0: -1}}])
    assert point == ((0, 1, ()), (1, 2, ()))
    assert engine._on_locus(point, (1, 2)) and not engine._on_locus(point, (1, 3))
    assert engine._on_locus((), (Fraction(1, 3),))


def test_a_stage_that_no_lambda_solves_is_dropped(monkeypatch):
    """A row of the F-system with a constant alone makes the stage's locus
    empty: no member keeps that degree, at the critical lambda or elsewhere."""
    source, target, _ = sl_pair(3, -1, 1, 1)
    lams = [(-1,), (Fraction(1, 3),)]
    assert [len(basis) for basis, _, _ in solve_family(source, target, lams, 2)] == [1, 0]
    fsystem_rows = _SolveContext.fsystem_rows

    def with_a_constant_row(self, unknowns, eq_vectors):
        base, *parts = fsystem_rows(self, unknowns, eq_vectors)
        return [{**base, "constant": {0: 1}}, *parts]

    monkeypatch.setattr(_SolveContext, "fsystem_rows", with_a_constant_row)
    for basis, degrees, provenance in solve_family(source, target, lams, 2):
        assert (basis, degrees, provenance["sizes"]) == ([], [], {})


def test_a_stage_with_two_equivariant_vectors_raises(monkeypatch, capsys):
    """Schur's lemma leaves each stage at most one equivariant vector; a stage
    with two stops the solve with a ValueError that names the family, which
    the CLI reports as an internal error (exit 3)."""
    source, target, _ = sl_pair(3, 5, 1, 0)
    lams = [(5,), (Fraction(1, 3),)]
    assert len(solve_family(source, target, lams, 1)[0][0]) == 1
    equivariant_vectors = _SolveContext.equivariant_vectors

    def doubled(self, unknowns):
        # each nonempty kernel gains its first unknown's unit vector
        vectors = equivariant_vectors(self, unknowns)
        return vectors + [{0: 1}] if vectors else vectors

    monkeypatch.setattr(_SolveContext, "equivariant_vectors", doubled)
    message = "the sl family at n = 3, l = 0, nu - lambda = 1 has 2 equivariant vectors in degree 1"
    with pytest.raises(ValueError, match=message):
        solve_family(source, target, lams, 1)
    assert main(["classify", "--n", "3", "--m-max", "1", "--l-max", "0"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("internal error: the sl family at n = 3, l = 0, nu - lambda = ")
    assert "equivariant vectors in degree" in err


_FAMILY_OF_EACH_KIND = [
    Family("sl", 3, 1, 1, ((0, 0), (1, 1)), (Fraction(-1), Fraction(1, 3), Fraction(5))),
    Family("gp", 3, 1, 1, ((0, 0),), (Fraction(-1), Fraction(-1, 3))),
    Family("gprime", 3, 1, 1, ((0, 0),), (Fraction(-1), Fraction(-1, 3))),
    Family("gl", 2, 1, 1, ((0, 0), (1, 1)), (Fraction(-1), Fraction(1, 3)),
           (Fraction(0), Fraction(1, 2))),
    Family("sl-ido", 3, 0, 2, ((0, 0),), (Fraction(-1), Fraction(5))),
    Family("gl-ido", 3, 0, 1, ((0, 1),), (Fraction(0), Fraction(5)), (Fraction(0), Fraction(1, 2))),
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


def _flip_first(signs):
    return (1 - signs[0], *signs[1:])


@pytest.mark.parametrize("family", _FAMILY_OF_EACH_KIND, ids=lambda f: f.kind)
def test_fsystem_rows_are_built_once_per_stage(monkeypatch, family):
    """A family builds its piece rows once per degree with equivariant vectors, whatever its size."""
    built = []
    fsystem_rows = _SolveContext.fsystem_rows

    def counting(self, unknowns, eq_vectors):
        built.append(len(eq_vectors))
        return fsystem_rows(self, unknowns, eq_vectors)

    _, (source, target, lams, cap, mode) = _family_solve(family)
    ctx = _SolveContext(source, target, **mode)
    stages = sum(1 for d in range(cap + 1) if ctx.equivariant_vectors(ctx.unknowns_at_degree(d)))
    monkeypatch.setattr(_SolveContext, "fsystem_rows", counting)
    for some in (lams[:1], lams):
        built.clear()
        solve_family(source, target, some, cap, **mode)
        assert len(built) == stages and all(built)
    assert len(lams) >= 2 and stages >= 1


@pytest.mark.parametrize("family", _FAMILY_OF_EACH_KIND, ids=lambda f: f.kind)
def test_linear_stages_keep_integral_values_int(monkeypatch, family):
    """The fiber's m-actions of the raising elements, the equivariance rows
    and the equivariant vectors hold no integral Fraction, and at the integral
    critical lambda, the first member's, the weighed F-system rows hold ints only."""
    _, (source, target, _, cap, mode) = _family_solve(family)
    ctx = _SolveContext(source, target, **mode)
    assert all(type(w) is int for w in ctx.weights)
    acts = ctx.lie.raising_acts[ctx.target.ell]
    assert all(is_exact_normal_form(a) for act in acts for a in act.values())
    eq_rows = []

    def recording(rows, size):
        rows = list(rows)
        eq_rows.extend(rows)
        return sparse_nullspace(rows, size)

    weighed = 0
    for d in range(cap + 1):
        unknowns = ctx.unknowns_at_degree(d)
        with monkeypatch.context() as patch:
            patch.setattr(engine, "sparse_nullspace", recording)
            vectors = ctx.equivariant_vectors(unknowns)
        assert all(is_exact_normal_form(x) for v in vectors for x in v.values())
        if vectors:
            rows = references.weigh(ctx.fsystem_rows(unknowns, vectors), ctx.weights)
            assert all(type(x) is int for row in rows.values() for x in row.values())
            weighed += 1
    assert weighed
    # a cancelled entry stays as an int 0 for the kernel to drop
    assert all(type(x) is int or is_exact_normal_form(x) for row in eq_rows for x in row.values())
    assert eq_rows or not ctx.raising


_nonzero_rationals = st.one_of(st.integers(-3, 3), st.fractions(-3, 3, max_denominator=4)).filter(bool)


@given(families(max_n=6), st.data())
@settings(max_examples=60, deadline=None)
def test_linear_stages_match_the_per_monomial_reference(family, data):
    """The equivariant vectors and each F-system piece's rows, built one label
    at a time, equal the reference that applies each piece once per monomial.

    The rows are linear in the vectors, so besides the equivariant vectors,
    whose entries are mostly 1, they are also built on random vectors over
    the unknowns.
    """
    _, (source, target, _, cap, mode) = _family_solve(family)
    ctx = _SolveContext(source, target, **mode)
    for d in range(cap + 1):
        unknowns = ctx.unknowns_at_degree(d)
        vectors = ctx.equivariant_vectors(unknowns)
        rows = references.equivariance_rows(ctx, unknowns)
        assert vectors == (sparse_nullspace(rows.values(), len(unknowns)) if unknowns else [])
        if not unknowns:
            continue
        columns = st.integers(0, len(unknowns) - 1)
        vector = st.dictionaries(columns, _nonzero_rationals, min_size=1, max_size=6)
        for vecs in (vectors, data.draw(st.lists(vector, min_size=1, max_size=3))):
            if vecs:
                pieces = ctx.fsystem_rows(unknowns, vecs)
                expected = references.fsystem_rows(ctx, unknowns, vecs)
                assert len(pieces) == len(expected) == len(ctx.lie.fsystem[0])
                for got, want in zip(pieces, expected):
                    assert references.nonzero_rows(got) == references.nonzero_rows(want)


def test_a_family_of_the_flipped_sign_builds_no_fsystem_rows(monkeypatch):
    """The homs family at the flipped sign has no equivariant vector in any
    degree: one context, no F-system stage, and every row still ok."""
    built, stages = [], []
    init, fsystem_rows = _SolveContext.__init__, _SolveContext.fsystem_rows

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    def counting_rows(self, unknowns, eq_vectors):
        stages.append(len(eq_vectors))
        return fsystem_rows(self, unknowns, eq_vectors)

    monkeypatch.setattr(_SolveContext, "__init__", counting_init)
    monkeypatch.setattr(_SolveContext, "fsystem_rows", counting_rows)
    rows = engine.run_cell(Family("gp", 3, 1, 1, ((0, 1),), (Fraction(-1), Fraction(-1, 3))))
    assert len(rows) == 2 and all(row["ok"] for row in rows)
    assert len(built) == 1 and stages == []


def test_a_member_moved_along_the_gap_or_with_both_signs_flipped_shares_the_solve():
    """A GL member moved along the gap in both components is the family's
    member there: the family's solve at its lambda is its own.  The
    representative with both first signs flipped has the same relative
    sign, so the same sign key and the same solves."""
    source, target, cap = _enumeration_case(3, GL, False, True)
    swap = dataclasses.replace
    lams = [source.lam, tuple(x + 2 for x in source.lam)]
    first, moved = solve_family(source, target, lams, cap)
    ((src, tgt),) = _members(source, target, lams[1:])
    assert tgt.nu == tuple(x + 2 for x in target.nu)
    assert _solution_record(moved) == _solution_record(_solved(solve_fsystem(src, tgt, cap)))
    flipped = (swap(source, alpha=_flip_first(source.alpha)), swap(target, beta=_flip_first(target.beta)))
    assert _SolveContext(*flipped).sign_key == _SolveContext(source, target).sign_key
    twin = solve_family(*flipped, lams, cap)
    assert [_solution_record(sol) for sol in twin] == [_solution_record(first), _solution_record(moved)]
    assert first[0]


def test_connected_family_reads_no_signs():
    # the identity component has no gamma conditions, so any signs share a solve
    source, target, cap = _enumeration_case(3, SL, False, True)
    member = (dataclasses.replace(source, alpha=_flip_first(source.alpha)), target)
    lams = [source.lam]
    first = solve_family(source, target, lams, cap, connected=True)
    assert solve_family(*member, lams, cap, connected=True) == first and first[0][0]
    assert _SolveContext(*member, connected=True).sign_key == ()
    # with the component group, alpha alone flipped is another relative sign
    assert solve_family(*member, lams, cap)[0][0] != solve_family(source, target, lams, cap)[0][0]


@pytest.mark.parametrize("full", [False, True])
@pytest.mark.parametrize("flavor", [SL, GL])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
def test_gamma_parities_read_only_the_relative_sign(n, flavor, full):
    """The fact a scan family rests on, in the first sign components.

    Every record's source and target sign characters add the same parities
    at each gamma (`_LieData.signs`), so a context's sign key reads only
    the relative sign: flipping alpha and beta together keeps it, and
    flipping only one of them changes it.  At l = 0 the one label's
    parities, from the Fraction products of the sign rule, are the key.
    """
    pad = (0,) if flavor == GL else ()
    source, target, _ = _enumeration_case(n, flavor, full, True)
    pd = parabolic(n, flavor)
    lie = engine._lie_data(pd, full)
    block = n if full else n - 1
    assert lie.signs == tuple(pd.sign_coefficients(g, n) for g in lie.gammas)
    assert lie.signs == tuple(pd.sign_coefficients(g, block) for g in lie.gammas)

    def key(alpha, beta, ell):
        swap = dataclasses.replace
        src = swap(source, alpha=(alpha,) + pad)
        return _SolveContext(src, swap(target, beta=(beta,) + pad, ell=ell), full_nilradical=full).sign_key

    for ell in range(4):
        for alpha in (0, 1):
            for beta in (0, 1):
                base = key(alpha, beta, ell)
                assert key(1 - alpha, 1 - beta, ell) == base
                assert key(1 - alpha, beta, ell) != base
                assert key(alpha, 1 - beta, ell) != base
                if ell == 0:
                    _, parities = gamma_parities(pd, full, (alpha,) + pad, (beta,) + pad, 0)
                    assert list(parities.values()) == [base]


def test_differing_source_and_target_sign_characters_raise(monkeypatch, capsys):
    """A record whose source and target sign characters add different
    parities at a gamma would let the signs enter through more than their
    relative sign: `_LieData.of` refuses it, and the CLI reports an
    internal error (exit 3)."""
    sign_coefficients = ParabolicData.sign_coefficients

    def skewed(self, gamma, block):
        a = sign_coefficients(self, gamma, block)
        return a if block == self.n else tuple(1 - x for x in a)

    message = "the source and target sign characters differ at a component-group generator"
    engine._lie_data.cache_clear()
    monkeypatch.setattr(ParabolicData, "sign_coefficients", skewed)
    try:
        with pytest.raises(ValueError, match=message):
            solve_fsystem(*sl_pair(3, 5, 1, 0)[:2], 1)
        assert main(["classify", "--n", "3", "--m-max", "1", "--l-max", "1"]) == 3
        assert f"internal error: {message}" in capsys.readouterr().err
    finally:
        # no record built from the patch stays cached
        engine._lie_data.cache_clear()


@pytest.mark.parametrize("n, options, sign_families", [
    (4, {"m_max": 4, "l_max": 4}, 100),
    (2, {"flavor": GL, "m_max": 2, "l_max": 2}, 36),
])
def test_scan_solves_each_relative_sign_once(monkeypatch, n, options, sign_families):
    """An SL or GL scan builds one context and makes one solve per two (alpha, beta) families."""
    built, solves = [], []
    init, family = _SolveContext.__init__, engine.solve_family

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    def counting_solve(source, target, lams, *args, **kwargs):
        solves.append(len(lams))
        return family(source, target, lams, *args, **kwargs)

    monkeypatch.setattr(_SolveContext, "__init__", counting_init)
    monkeypatch.setattr(engine, "solve_family", counting_solve)
    rows = classify(n, **options)
    assert rows and all(row["ok"] for row in rows)
    assert len(built) == len(solves) == sign_families // 2
    # each solve serves both sign pairs of its relative sign, at every lambda
    assert len(rows) == 2 * sum(solves)


@pytest.mark.parametrize("change", [None, "gap", "sign key"])
@pytest.mark.parametrize("lam", [Fraction(5), Fraction(1, 3)], ids=["integral", "non-integral"])
@pytest.mark.parametrize("flavor", [SL, GL])
def test_member_check_rejects_another_gap_or_sign_key(flavor, lam, change):
    """A representative's family holds the member at lambda on its gap and
    sign key: its context has the representative's sign key and label
    intervals, its weights are 2rho - lambda (`int`s at an integral
    lambda), and the family's solve at lambda is its own.  A member whose
    nu is off the gap, or whose beta alone is flipped (another sign key),
    is outside: the family call cannot express it, and its own context
    has other label intervals or another key."""
    source, target, cap = _enumeration_case(3, flavor, False, True)
    ctx = _SolveContext(source, target)
    swap = dataclasses.replace
    ((src, tgt),) = _members(source, target, [(lam, *source.lam[1:])])
    if change is None:
        member = _SolveContext(src, tgt)
        assert (member.sign_key, member._labels) == (ctx.sign_key, ctx._labels)
        weights = ctx.weights_at(src.lam)
        assert weights == member.weights
        assert weights == tuple(r - x for r, x in zip(parabolic(3, flavor).two_rho(), src.lam))
        assert all(map(is_exact_normal_form, weights))
        (moved,) = solve_family(source, target, [src.lam], cap)
        assert _solution_record(moved) == _solution_record(_solved(solve_fsystem(src, tgt, cap)))
        return
    if change == "gap":
        tgt = swap(tgt, nu=(tgt.nu[0] + 1, *tgt.nu[1:]))
    else:
        tgt = swap(tgt, beta=_flip_first(tgt.beta))
    other = _SolveContext(src, tgt)
    assert (other.sign_key, other._labels) != (ctx.sign_key, ctx._labels)


def test_weighing_at_a_non_integral_lambda_keeps_integral_entries_int():
    """The F-system's piece rows weighed at lambda = 1/3, whose weights are not
    integral: an integral product of an entry and a weight, or an integral sum,
    reaches the kernel as an `int`, as every integral entry at an integral
    lambda does."""
    integral = 0
    for family in engine.scan_jobs(2, m_max=3, l_max=3, lambda_samples=(Fraction(1, 3),)):
        _, (source, target, lams, cap, mode) = _family_solve(family)
        ctx = _SolveContext(source, target, **mode)
        weights = {ctx.weights_at(lam) for lam in lams if lam == (Fraction(1, 3),)}
        assert weights and all(type(w) is Fraction for ws in weights for w in ws)
        for d in range(cap + 1):
            unknowns = ctx.unknowns_at_degree(d)
            vectors = ctx.equivariant_vectors(unknowns)
            if not vectors:
                continue
            pieces = ctx.fsystem_rows(unknowns, vectors)
            for w in weights:
                for row in references.weigh(pieces, w).values():
                    for x in row.values():
                        assert type(x) is (int if Fraction(x).denominator == 1 else Fraction)
                        integral += x != 0 and type(x) is int
    assert integral


@pytest.mark.parametrize("n, options", [
    (2, {}), (3, {}), (2, {"flavor": GL}), (3, {"ido": True}), (2, {"flavor": GL, "ido": True}),
    (3, {"homs": True}), (3, {"homs": True, "connected": True}),
])
def test_scan_parameters_are_in_the_exact_normal_form(n, options):
    """Every lambda, nu and weight 2rho - lambda that a scan hands the solver
    is an `int` when integral and a `Fraction` otherwise."""
    def normal(x):
        return type(x) is (int if Fraction(x).denominator == 1 else Fraction)

    seen = 0
    for family in engine.scan_jobs(n, m_max=2, l_max=2, k_max=2, **options):
        _, (source, target, lams, _, mode) = _family_solve(family)
        ctx = _SolveContext(source, target, **mode)
        values = (*source.lam, *target.nu, *(x for lam in lams for x in (*lam, *ctx.weights_at(lam))))
        assert all(map(normal, values))
        seen += sum(type(x) is int for x in values)
    assert seen
