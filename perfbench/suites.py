"""Verification item sets of the `verify-identities` workload.

Each suite mirrors one acceptance criterion (5, 6, 8, 9, 10) and yields
items `(name, thunk, expected_status)`.  A thunk returns a JSON-able
report with a "status" key.  Library functions are looked up on their
modules at call time, so wrappers installed by the tracer see every call.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import fmethod.algebra as algebra
import fmethod.branch as branch
import fmethod.engine as engine
import fmethod.liealg as liealg
import fmethod.operators as operators
import fmethod.params as params
import fmethod.rep as rep
import fmethod.verma as verma
import fmethod.weyl as weyl


def _status(ok: bool) -> str:
    return "pass" if ok else "fail"


def member_cells_sl(n, cap, generic):
    """(m, ell, lambda, nu) of every scanned member cell with m + ell <= cap."""
    cells = []
    for m in range(cap + 1):
        for ell in range(cap + 1 - m):
            crit = Fraction(1 - (m + ell))
            lams = [crit] if ell >= 1 else sorted({crit, *generic})
            for lam in lams:
                cells.append((m, ell, lam, lam + m + Fraction(n, n - 1) * ell))
    return cells


def _equivariance(m, ell, n, src, tgt):
    return lambda: operators.check_equivariance(operators.build_sbo(m, ell, n), src, tgt)


def _spot_check():
    """Polynomial-level intertwining on the doubled cell n = 2, (m, l) = (1, 1)."""
    src = rep.ScalarRepParams.sl(2, Fraction(-1))
    tgt = rep.TargetRepParams.sl(2, Fraction(2), ell=1)
    D = operators.build_sbo(1, 1, 2)
    checked = bad = 0
    for X in liealg.parabolic(2).g_basis(primed=True):
        for mono in algebra.monomials_up_to(2, 6):
            f = algebra.Polynomial.monomial(2, mono, 1)
            lhs = D.apply(rep.dpi_lambda(X, src).apply(f))
            rhs = rep.dpi_target(X, tgt).apply(D.apply(f))
            checked += 1
            bad += not (lhs - rhs).is_zero()
    return {"identity": "equivariance-spot-check", "checked": checked, "status": _status(not bad)}


def equivariance_items(p):
    generic = [Fraction(x) for x in p["generic"]]
    out = []
    for n in (3, 4):
        for m, ell, lam, nu in member_cells_sl(n, 4, generic):
            src = rep.ScalarRepParams.sl(n, lam)
            tgt = rep.TargetRepParams.sl(n, nu, ell=ell)
            out.append((f"sl n={n} m={m} l={ell} lam={lam}", _equivariance(m, ell, n, src, tgt), "pass"))
    for m, ell, lam, nu in member_cells_sl(2, 4, generic):
        src = rep.ScalarRepParams.sl(2, lam)
        out.append((f"sl n=2 m={m} l={ell} lam={lam}",
                    _equivariance(m, ell, 2, src, rep.TargetRepParams.sl(2, nu, ell=ell)), "pass"))
        if ell >= 1:
            out.append((f"sl n=2 doubled m={m + 2 * ell} l={ell} lam={lam}",
                        _equivariance(m + 2 * ell, 0, 2, src, rep.TargetRepParams.sl(2, nu, ell=0)),
                        "pass"))
    for lam2 in (Fraction(x) for x in p["lambda2"]):
        for m, ell, lam, nu in member_cells_sl(2, 4, generic):
            src = rep.ScalarRepParams.gl(2, lam, lam2)
            tgt = rep.TargetRepParams.gl(2, nu, lam2 - ell, ell=ell)
            out.append((f"gl n=2 m={m} l={ell} lam={lam},{lam2}",
                        _equivariance(m, ell, 2, src, tgt), "pass"))
    out.append(("spot-check n=2 m=1 l=1", _spot_check, "pass"))
    S, T = rep.ScalarRepParams.sl, rep.TargetRepParams.sl
    bad_cells = [
        (3, 1, 0, S(3, Fraction(5)), T(3, Fraction(7), ell=0)),
        (2, 0, 1, S(2, Fraction(5)), T(2, Fraction(7), ell=1)),
        (3, 2, 1, S(3, Fraction(1, 3)), T(3, Fraction(1, 3) + 2 + Fraction(3, 2), ell=1)),
    ]
    for n, m, ell, src, tgt in bad_cells:
        out.append((f"non-member n={n} m={m} l={ell}", _equivariance(m, ell, n, src, tgt), "fail"))
    return out


def factorization_items(p):
    out = []
    for n in (2, 3, 4):
        for m in range(4):
            for ell in range(4):
                out.append((f"sbo n={n} m={m} l={ell}",
                            lambda m=m, ell=ell, n=n: operators.verify_factorization_sbo(m, ell, n, 6),
                            "pass"))
                cap = 3 if n == 2 else 2
                out.append((f"verma n={n} m={m} l={ell}",
                            lambda m=m, ell=ell, n=n, cap=cap: verma.verify_factorization_verma(m, ell, n, cap),
                            "pass"))
    return out


def _bracket_law(builder, n, lam):
    def run():
        pd = liealg.parabolic(n)
        prm = rep.ScalarRepParams.sl(n, lam)
        checked = bad = 0
        for X, Y in itertools.combinations(pd.g_basis(), 2):
            lhs = builder(X, prm).compose(builder(Y, prm)) - builder(Y, prm).compose(builder(X, prm))
            checked += 1
            bad += lhs != builder(liealg.bracket(X, Y), prm)
        return {"identity": "lie-homomorphism", "checked": checked, "status": _status(not bad)}
    return run


def _fourier_side(n, lam):
    def run():
        pd = liealg.parabolic(n)
        prm = rep.ScalarRepParams.sl(n, lam)
        W = weyl.WeylElement
        checked = bad = 0
        for X in pd.g_basis():
            checked += 1
            bad += rep.dpi_hat(X, prm) != rep.dpi_lambda_star(X, prm).fourier()
        for j in range(1, n + 1):
            zj = W.from_polynomial(algebra.Polynomial.variable(n, j - 1, "zeta"))
            thetaj = zj.compose(W.partial(n, j - 1, "zeta"))
            shift = W.euler(n, "zeta") + W.identity(n, "zeta").scale(lam - 1)
            checked += 2
            bad += rep.dpi_hat(pd.n_minus(j), prm) != zj
            bad += zj.compose(rep.dpi_hat(pd.n_plus(j), prm)).scale(-1) != thetaj.compose(shift)
        return {"identity": "fourier-side", "checked": checked, "status": _status(not bad)}
    return run


def lie_homomorphism_items(p):
    out = []
    for n in (2, 3):
        for lam in (Fraction(x) for x in p["lams"]):
            out.append((f"dpi_lambda n={n} lam={lam}", _bracket_law(rep.dpi_lambda, n, lam), "pass"))
            out.append((f"dpi_lambda_star n={n} lam={lam}",
                        _bracket_law(rep.dpi_lambda_star, n, lam), "pass"))
            out.append((f"dpi_hat n={n} lam={lam}", _fourier_side(n, lam), "pass"))
    return out


def _triangle(n, m, ell):
    """solve_fsystem -> sbo_from_solution -> hom_from_solution -> check_hom_equivariance."""
    def run():
        lam = Fraction(1 - (m + ell))
        nu = lam + m + Fraction(n, n - 1) * ell
        alpha = 0
        beta = params.sign_shift(alpha, m + ell)
        src = rep.ScalarRepParams.sl(n, lam, alpha)
        if n == 2:
            tgt = rep.TargetRepParams.sl(n, nu, ell=0, beta=params.sign_shift(beta, ell))
        else:
            tgt = rep.TargetRepParams.sl(n, nu, ell=ell, beta=beta)
        sol = engine.solve_fsystem(src, tgt, engine.weight_degree_cap(nu - lam))
        legs = []
        for psi in sol.basis:
            D = operators.sbo_from_solution(psi)
            monos = {mo for q in psi.components.values() for mo in q.terms}
            mprime = {mo[-1] for mo in monos}.pop()
            lprime = {sum(mo[:-1]) for mo in monos}.pop()
            if n == 2:
                want = weyl.WeylElement.derivative_monomial(2, (lprime, mprime))
                op_ok = dict(D.components)[(0,)] == want
            else:
                op_ok = dict(D.components) == dict(operators.build_sbo(mprime, lprime, n).components)
            r, s = -nu, -lam
            if n == 2:
                source_mod = verma.VermaModule.scalar_primed(n, r, sign=(params.sign_shift(beta, ell),))
            elif lprime == 0:
                source_mod = verma.VermaModule.scalar_primed(n, r, sign=(beta,))
            else:
                source_mod = verma.VermaModule.fiber_primed(n, lprime, r, sign=(beta,))
            target_mod = verma.VermaModule.scalar(n, s, sign=(alpha,))
            h = verma.hom_from_solution(psi, source_mod, target_mod)
            hom = verma.check_hom_equivariance(h, 2)
            legs.append({"witness": [mprime, lprime], "operator": _status(op_ok),
                         "hom": hom["status"]})
        ok = bool(legs) and all(x["operator"] == x["hom"] == "pass" for x in legs)
        return {"identity": "duality-triangle", "solutions": legs, "status": _status(ok)}
    return run


def duality_items(p):
    return [
        (f"triangle n={n} m={m} l={ell}", _triangle(n, m, ell), "pass")
        for n in (2, 3) for m in range(5) for ell in range(5 - m)
    ]


def _doubled(p_):
    def run():
        report = branch.verify_branching(2, p=p_, D=10)
        if any(report["invariant_counts"].get(str(-(d + 2))) != 2 for d in range(p_ + 1)):
            report["status"] = "fail"
        return report
    return run


def branching_items(p):
    s = Fraction(p["s"])
    return (
        [(f"n=2 s={s}", lambda: branch.verify_branching(2, s=s, D=10), "pass")]
        + [(f"n=2 p={k}", _doubled(k), "pass") for k in (0, 1, 2)]
        + [("n=3 p=1", lambda: branch.verify_branching(3, p=1, D=6), "pass")]
    )


SUITES = {
    "equivariance": equivariance_items,
    "factorization": factorization_items,
    "lie-homomorphism": lie_homomorphism_items,
    "duality": duality_items,
    "branching": branching_items,
}


def judge(report: dict, expected: str) -> bool:
    """Expected status met; an expected `fail` must carry a non-null witness."""
    if report.get("status") != expected:
        return False
    if expected == "fail":
        violations = report.get("violations") or [{}]
        return violations[0].get("monomial") is not None
    return True


def run_items(items) -> list[dict]:
    """Run each item; an item that raises gets status "error"."""
    out = []
    for name, thunk, expected in items:
        try:
            report = thunk()
        except Exception as exc:  # an item failing must not stop the suite
            report = {"status": "error", "error": f"{type(exc).__name__}: {exc}"}
        out.append({"item": name, "expected": expected, "ok": judge(report, expected),
                    "report": report})
    return out
