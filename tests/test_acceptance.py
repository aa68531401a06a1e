"""Acceptance suite: one test per headline result, zero tolerance throughout.

Every criterion prints a PASS line (visible with pytest -s); any failure is
a hard assertion error.  All arithmetic is exact, so the only calibrated
quantities are the runtime ceilings on the large scans.
"""

import itertools
import time
from fractions import Fraction

import pytest

from fmethod.algebra import Polynomial, monomials_up_to
from fmethod.branch import verify_branching
from fmethod.engine import classify, psi_vector, solve_fsystem, weight_degree_cap
from fmethod.liealg import bracket, parabolic
from fmethod.operators import (
    build_sbo,
    check_equivariance,
    fg_submodule,
    image_computations,
    sbo_from_solution,
    verify_factorization_sbo,
)
from fmethod.params import sign_shift
from fmethod.rep import (
    ScalarRepParams,
    TargetRepParams,
    dpi_hat,
    dpi_lambda,
    dpi_lambda_star,
    dpi_target,
)
from fmethod.verma import (
    build_phi,
    check_hom_equivariance,
    hom_from_solution,
    verify_factorization_verma,
    VermaModule,
)
from fmethod.weyl import WeylElement

GENERIC = (Fraction(1, 3), Fraction(5), Fraction(-7, 2))


def _report(name, ok, extra=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name} {extra}".rstrip())
    assert ok, name


def member_cells_sl(n, cap):
    """(m, ell, lambda, nu) of every scanned member cell with m + ell <= cap."""
    cells = []
    for m in range(cap + 1):
        for ell in range(cap + 1 - m):
            crit = Fraction(1 - (m + ell))
            lams = [crit] if ell >= 1 else sorted({crit, *GENERIC})
            for lam in lams:
                nu = lam + m + Fraction(n, n - 1) * ell
                cells.append((m, ell, lam, nu))
    return cells


def test_criterion_01_classification_high_rank():
    t0 = time.time()
    rows = []
    for n in (3, 4):
        rows.extend(classify(n, m_max=4, l_max=4, lambda_samples=GENERIC))
    elapsed = time.time() - t0
    dims = {r["computed_dim"] for r in rows}
    ok = all(r["ok"] for r in rows) and dims <= {0, 1} and elapsed < 60
    members = sum(1 for r in rows if r["predicted_dim"] == 1)
    _report(
        "criterion 1: classification n in {3,4}",
        ok,
        f"({len(rows)} cells, {members} members, {elapsed:.1f}s)",
    )


@pytest.mark.parametrize(
    "n, kwargs, count, bound",
    [
        (10, {"m_max": 3, "l_max": 3}, 256, 30),
        (8, {"ido": True, "k_max": 4}, 20, 10),
        (16, {"m_max": 3, "l_max": 3}, 256, 30),
        (12, {"ido": True, "k_max": 4}, 20, 15),
    ],
    ids=["sl-n10", "ido-n8", "sl-n16", "ido-n12"],
)
def test_wide_rank_rows(n, kwargs, count, bound):
    # wide n, where the cost grows with the (n+1)^2 matrix size; each bound
    # is over 10x the time measured on a 2-core machine (about 1.3 s, 0.3 s,
    # 1.5 s and 0.9 s)
    t0 = time.time()
    rows = classify(n, lambda_samples=GENERIC, **kwargs)
    elapsed = time.time() - t0
    ok = len(rows) == count and all(r["ok"] for r in rows) and elapsed < bound
    _report(f"wide rank n={n}", ok, f"({len(rows)} cells, {elapsed:.1f}s)")


def test_criterion_02_multiplicity_two_n2():
    t0 = time.time()
    rows = classify(2, m_max=4, l_max=4, lambda_samples=GENERIC)
    elapsed = time.time() - t0
    ok = all(r["ok"] for r in rows) and elapsed < 30
    dim2 = [r for r in rows if r["computed_dim"] == 2]
    ok = ok and dim2 and all(r["predicted_dim"] == 2 for r in dim2)
    dim1 = [r for r in rows if r["predicted_dim"] == 1]
    ok = ok and all(r["computed_dim"] == 1 for r in dim1)
    _report(
        "criterion 2: multiplicity two at n=2",
        bool(ok),
        f"({len(dim2)} doubled cells, {elapsed:.1f}s)",
    )


def test_criterion_03_gl_multiplicity_free():
    t0 = time.time()
    rows = classify(2, flavor="gl", m_max=4, l_max=4, lambda_samples=GENERIC)
    elapsed = time.time() - t0
    dims = {r["computed_dim"] for r in rows}
    ok = all(r["ok"] for r in rows) and dims <= {0, 1} and elapsed < 30
    _report(
        "criterion 3: GL multiplicity-freeness",
        ok,
        f"({len(rows)} cells, {elapsed:.1f}s)",
    )


def test_criterion_04_intertwining_operator_classification():
    rows = []
    for n in (2, 3):
        rows.extend(classify(n, ido=True, k_max=4, lambda_samples=GENERIC))
        rows.extend(classify(n, flavor="gl", ido=True, k_max=4, lambda_samples=GENERIC))
    ok = all(r["ok"] for r in rows)
    _report("criterion 4: intertwining-operator classification", ok, f"({len(rows)} cells)")


def test_criterion_05_equivariance_and_witnesses():
    checked = 0
    ok = True
    for n in (3, 4):
        for m, ell, lam, nu in member_cells_sl(n, 4):
            src = ScalarRepParams.sl(n, lam)
            tgt = TargetRepParams.sl(n, nu, ell=ell)
            rep = check_equivariance(build_sbo(m, ell, n), src, tgt)
            ok = ok and rep["status"] == "pass"
            checked += 1
    # n = 2: both members of the doubled family intertwine
    for m, ell, lam, nu in member_cells_sl(2, 4):
        src = ScalarRepParams.sl(2, lam)
        tgt = TargetRepParams.sl(2, nu, ell=ell)
        rep = check_equivariance(build_sbo(m, ell, 2), src, tgt)
        ok = ok and rep["status"] == "pass"
        checked += 1
        if ell >= 1:
            tgt0 = TargetRepParams.sl(2, nu, ell=0)
            rep = check_equivariance(build_sbo(m + 2 * ell, 0, 2), src, tgt0)
            ok = ok and rep["status"] == "pass"
            checked += 1
    # GL members at both scanned second weights
    for lam2 in (Fraction(0), Fraction(1, 2)):
        for m, ell, lam, nu in member_cells_sl(2, 4):
            src = ScalarRepParams.gl(2, lam, lam2)
            tgt = TargetRepParams.gl(2, nu, lam2 - Fraction(ell, 1), ell=ell)
            rep = check_equivariance(build_sbo(m, ell, 2), src, tgt)
            ok = ok and rep["status"] == "pass"
            checked += 1
    # spot-check at polynomial level on one doubled cell, degree <= 6
    src = ScalarRepParams.sl(2, Fraction(-1))
    tgt = TargetRepParams.sl(2, Fraction(2), ell=1)
    D = build_sbo(1, 1, 2)
    pd = parabolic(2)
    for X in pd.g_basis(primed=True):
        for mono in monomials_up_to(2, 6):
            f = Polynomial.monomial(2, mono, 1)
            lhs = D.apply(dpi_lambda(X, src).apply(f))
            rhs = dpi_target(X, tgt).apply(D.apply(f))
            ok = ok and (lhs - rhs).is_zero()
    # violation witnesses on three non-member cells
    witnesses = 0
    bad_cells = [
        (3, 1, 0, ScalarRepParams.sl(3, Fraction(5)), TargetRepParams.sl(3, Fraction(7), ell=0)),
        (2, 0, 1, ScalarRepParams.sl(2, Fraction(5)), TargetRepParams.sl(2, Fraction(7), ell=1)),
        (3, 2, 1, ScalarRepParams.sl(3, Fraction(1, 3)),
         TargetRepParams.sl(3, Fraction(1, 3) + 2 + Fraction(3, 2), ell=1)),
    ]
    for n, m, ell, src, tgt in bad_cells:
        rep = check_equivariance(build_sbo(m, ell, n), src, tgt)
        if rep["status"] == "fail" and rep["violations"][0]["monomial"] is not None:
            witnesses += 1
    ok = ok and witnesses >= 3
    _report(
        "criterion 5: equivariance on members, witnesses off",
        ok,
        f"({checked} member cells, {witnesses} witnesses)",
    )


def test_criterion_06_factorization():
    ok = True
    runs = 0
    for n in (2, 3, 4):
        for m in range(4):
            for ell in range(4):
                rep = verify_factorization_sbo(m, ell, n, 6)
                ok = ok and rep["status"] == "pass"
                runs += 1
                cap = 3 if n == 2 else 2
                repv = verify_factorization_verma(m, ell, n, cap)
                ok = ok and repv["status"] == "pass"
    _report("criterion 6: factorization identities", ok, f"({runs} (m,l,n) triples)")


def test_criterion_07_images():
    ok = True
    for n in (2, 3, 4, 5):
        for k in range(1, 6):
            ok = ok and fg_submodule(k, n)["status"] == "pass"
        for m in range(6):
            for ell in range(6 - m):
                if m + ell == 0:
                    continue
                rep = image_computations(m, ell, n)
                ok = ok and rep["status"] == "pass"
    _report("criterion 7: finite submodule and images", ok, "(n in {2,3,4,5})")


def test_criterion_08_lie_homomorphism_certification():
    ok = True
    for n in (2, 3):
        pd = parabolic(n)
        for lam in (Fraction(1, 3), Fraction(-2)):
            params = ScalarRepParams.sl(n, lam)
            basis = pd.g_basis()
            for X, Y in itertools.combinations(basis, 2):
                for builder in (dpi_lambda, dpi_lambda_star):
                    lhs = builder(X, params).compose(builder(Y, params)) - builder(
                        Y, params
                    ).compose(builder(X, params))
                    ok = ok and lhs == builder(bracket(X, Y), params)
            for X in basis:
                ok = ok and dpi_hat(X, params) == dpi_lambda_star(X, params).fourier()
            # oracle identities pinning the Fourier side
            for j in range(1, n + 1):
                zj = WeylElement.from_polynomial(Polynomial.variable(n, j - 1, "zeta"))
                ok = ok and dpi_hat(pd.n_minus(j), params) == zj
                thetaj = zj.compose(WeylElement.partial(n, j - 1, "zeta"))
                euler_shift = WeylElement.euler(n, "zeta") + WeylElement.identity(
                    n, "zeta"
                ).scale(lam - 1)
                ok = ok and zj.compose(dpi_hat(pd.n_plus(j), params)).scale(-1) == thetaj.compose(
                    euler_shift
                )
    _report("criterion 8: Lie-homomorphism certification", ok)


def test_criterion_09_duality_triangle():
    ok = True
    solutions = 0
    for n in (2, 3):
        for m in range(5):
            for ell in range(5 - m):
                lam = Fraction(1 - (m + ell))
                nu = lam + m + Fraction(n, n - 1) * ell
                alpha = 0
                beta = sign_shift(alpha, m + ell)
                src = ScalarRepParams.sl(n, lam, alpha)
                if n == 2:
                    tgt = TargetRepParams.sl(n, nu, ell=0, beta=sign_shift(beta, ell))
                else:
                    tgt = TargetRepParams.sl(n, nu, ell=ell, beta=beta)
                sol = solve_fsystem(src, tgt, weight_degree_cap(nu - lam))
                for psi in sol.basis:
                    solutions += 1
                    D = sbo_from_solution(psi)
                    # identify the witness (m', ell') from the monomials
                    monos = {mo for p in psi.components.values() for mo in p.terms}
                    mprime = {mo[-1] for mo in monos}.pop()
                    lprime = {sum(mo[:-1]) for mo in monos}.pop()
                    if n == 2:
                        got = dict(D.components)[(0,)]
                        want = WeylElement.derivative_monomial(2, (lprime, mprime))
                        ok = ok and got == want
                    else:
                        ok = ok and dict(D.components) == dict(
                            build_sbo(mprime, lprime, n).components
                        )
                    # Verma leg: the solution induces an intertwining map
                    r = -nu
                    s = -lam
                    if n == 2:
                        source_mod = VermaModule.scalar_primed(n, r, sign=(sign_shift(beta, ell),))
                    elif lprime == 0:
                        source_mod = VermaModule.scalar_primed(n, r, sign=(beta,))
                    else:
                        source_mod = VermaModule.fiber_primed(n, lprime, r, sign=(beta,))
                    target_mod = VermaModule.scalar(n, s, sign=(alpha,))
                    h = hom_from_solution(psi, source_mod, target_mod)
                    rep = check_hom_equivariance(h, 2)
                    ok = ok and rep["status"] == "pass"
    ok = ok and solutions > 0
    _report("criterion 9: duality triangle", ok, f"({solutions} solutions)")


def test_criterion_10_branching():
    t0 = time.time()
    ok = True
    for s in (Fraction(1, 3), Fraction(0), Fraction(1), Fraction(2)):
        rep = verify_branching(2, s=s, D=10)
        ok = ok and rep["status"] == "pass"
    for p in (0, 1, 2):
        rep = verify_branching(2, p=p, D=10)
        ok = ok and rep["status"] == "pass"
        ok = ok and rep["checks"]["invariant_multiplicities"]
        ok = ok and rep["checks"]["generator_spanning"]
        for d in range(p + 1):
            ok = ok and rep["invariant_counts"][str(-(d + 2))] == 2
    rep = verify_branching(3, p=1, D=6)
    ok = ok and rep["status"] == "pass"
    elapsed = time.time() - t0
    ok = ok and elapsed < 60
    _report("criterion 10: branching laws", ok, f"({elapsed:.1f}s)")
