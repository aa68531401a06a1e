"""Sign arithmetic and the parameter sets where nonzero operators exist.

Sign characters are parities: 0 for '+', 1 for '-'.  The shift delta + k
adds k mod 2, so delta + k = '+' exactly when delta = (-1)^k.

Membership tests return witnesses (m, ell), never bare booleans; the
constructors downstream need them.  The Verma-side sets are obtained from
the section-side sets by the substitution (s, r) = (-lambda, -nu), so there
is a single source of truth for each family.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


def sign_shift(delta: int, k: int) -> int:
    return (delta + k) % 2

def sign_str(delta: int) -> str:
    return "+" if delta % 2 == 0 else "-"

def parse_sign(s) -> int:
    if s in (0, 1):
        return int(s)
    if s == "+":
        return 0
    if s == "-":
        return 1
    raise ValueError(f"bad sign {s!r}")


def _nonneg_int(x: Fraction):
    """Return int(x) if x is a nonnegative integer, else None."""
    if x.denominator == 1 and x >= 0:
        return int(x)
    return None


@dataclass(frozen=True)
class SLQuadruple:
    """(alpha, beta; poly^ell; lambda, nu) labelling a pair of SL bundles."""

    alpha: int
    beta: int
    ell: int
    lam: Fraction
    nu: Fraction

    def canonical(self, n: int) -> "SLQuadruple":
        """For n = 2 fold poly^ell into the sign character."""
        if n != 2 or self.ell == 0:
            return self
        return SLQuadruple(
            self.alpha, sign_shift(self.beta, self.ell), 0, self.lam, self.nu
        )


@dataclass(frozen=True)
class GLTuple:
    """((a1,a2); (b1,b2); poly^ell; (l1,l2), (n1,n2)) for the GL pair."""

    alphas: tuple
    betas: tuple
    ell: int
    lams: tuple
    nus: tuple

    def canonical(self, n: int) -> "GLTuple":
        """For n = 2 fold poly^ell into the SL^{+-}(1) sign slot (beta2)."""
        if n != 2 or self.ell == 0:
            return self
        return GLTuple(
            self.alphas,
            (self.betas[0], sign_shift(self.betas[1], self.ell)),
            0,
            self.lams,
            self.nus,
        )


def in_lambda_sl(q: SLQuadruple, n: int) -> dict:
    """Membership record {'sl1', 'sl2', 'sl_plus'} with witnesses or None."""
    rec = {"sl1": None, "sl2": None, "sl_plus": None}
    q = q.canonical(n)
    if n == 2:
        m1 = _nonneg_int(q.nu - q.lam)
        if m1 is not None and q.beta == sign_shift(q.alpha, m1):
            rec["sl1"] = {"m": m1}
        ell = _nonneg_int(q.nu - 1)
        if ell is not None:
            m = _nonneg_int(1 - q.lam - ell)
            if m is not None and q.beta == sign_shift(q.alpha, m):
                rec["sl2"] = {"m": m, "ell": ell}
                if ell >= 1:
                    rec["sl_plus"] = {"m": m, "ell": ell}
        return rec
    # n >= 3
    if q.ell == 0:
        m1 = _nonneg_int(q.nu - q.lam)
        if m1 is not None and q.beta == sign_shift(q.alpha, m1):
            rec["sl1"] = {"m": m1}
    if q.nu == 1 + Fraction(q.ell, n - 1):
        m = _nonneg_int(1 - q.lam - q.ell)
        if m is not None and q.beta == sign_shift(q.alpha, m + q.ell):
            rec["sl2"] = {"m": m, "ell": q.ell}
    return rec


def in_lambda_sl_connected(ell: int, lam: Fraction, nu: Fraction, n: int) -> dict:
    """Sign-free variant (the P0'-connected sets)."""
    rec = {"sl1": None, "sl2": None, "sl_plus": None}
    if n == 2:
        m1 = _nonneg_int(nu - lam)
        if m1 is not None:
            rec["sl1"] = {"m": m1}
        e = _nonneg_int(nu - 1)
        if e is not None:
            m = _nonneg_int(1 - lam - e)
            if m is not None:
                rec["sl2"] = {"m": m, "ell": e}
                if e >= 1:
                    rec["sl_plus"] = {"m": m, "ell": e}
        return rec
    if ell == 0:
        m1 = _nonneg_int(nu - lam)
        if m1 is not None:
            rec["sl1"] = {"m": m1}
    if nu == 1 + Fraction(ell, n - 1):
        m = _nonneg_int(1 - lam - ell)
        if m is not None:
            rec["sl2"] = {"m": m, "ell": ell}
    return rec


def in_lambda_gl(t: GLTuple, n: int) -> dict:
    """Membership record {'gl1', 'gl2'} with witnesses or None."""
    rec = {"gl1": None, "gl2": None}
    a1, a2 = t.alphas
    b1, b2 = t.betas
    l1, l2 = t.lams
    n1, n2 = t.nus
    if t.ell == 0:
        m = _nonneg_int(n1 - l1)
        if (
            m is not None
            and n2 == l2
            and b1 == sign_shift(a1, m)
            and b2 == a2
        ):
            rec["gl1"] = {"m": m}
    if n1 == 1 + Fraction(t.ell, n - 1) and n2 == l2 - Fraction(t.ell, n - 1):
        m = _nonneg_int(1 - l1 - t.ell)
        if (
            m is not None
            and b1 == sign_shift(a1, m + t.ell)
            and b2 == a2
        ):
            rec["gl2"] = {"m": m, "ell": t.ell}
    return rec


def in_lambda_ido_sl(n, alpha, delta, k, lam, tau) -> dict:
    """Membership in the G-intertwining family: target (delta, poly^k_n, tau)."""
    rec = {"ido": None, "identity": False}
    if k == 0 and delta == alpha and tau == lam:
        rec["identity"] = True
    if lam == 1 - k and tau == 1 + Fraction(k, n) and delta == sign_shift(alpha, k):
        rec["ido"] = {"k": k}
    return rec


def in_lambda_ido_gl(n, alphas, deltas, k, lams, taus) -> dict:
    rec = {"ido": None, "identity": False}
    if k == 0 and deltas == alphas and taus == lams:
        rec["identity"] = True
    if (
        lams[0] == 1 - k
        and taus[0] == 1 + Fraction(k, n)
        and taus[1] == lams[1] - Fraction(k, n)
        and deltas[0] == sign_shift(alphas[0], k)
        and deltas[1] == alphas[1]
    ):
        rec["ido"] = {"k": k}
    return rec


# -- Verma-side sets via the duality substitution ------------------------------


def in_lambda_gp(alpha, beta, sigma_ell, s, r, n) -> dict:
    """(g',P')-homomorphism sets, from the SL sets with (s,r) = (-lam,-nu)."""
    q = SLQuadruple(alpha, beta, sigma_ell, -Fraction(s), -Fraction(r))
    rec = in_lambda_sl(q, n)
    return {"gp1": rec["sl1"], "gp2": rec["sl2"], "gp_plus": rec["sl_plus"]}


def in_lambda_gprime(sigma_ell, s, r, n) -> dict:
    """g'-homomorphism sets (connected mode, no signs)."""
    rec = in_lambda_sl_connected(sigma_ell, -Fraction(s), -Fraction(r), n)
    return {"g1": rec["sl1"], "g2": rec["sl2"], "g_plus": rec["sl_plus"]}


# -- predicted dimensions -------------------------------------------------------


def predicted_dim_sl(q: SLQuadruple, n: int) -> int:
    rec = in_lambda_sl(q, n)
    if n == 2:
        if rec["sl_plus"]:
            return 2
        return 1 if rec["sl1"] else 0
    return 1 if (rec["sl1"] or rec["sl2"]) else 0


def predicted_dim_sl_connected(ell, lam, nu, n) -> int:
    rec = in_lambda_sl_connected(ell, lam, nu, n)
    if n == 2:
        if rec["sl_plus"]:
            return 2
        return 1 if rec["sl1"] else 0
    return 1 if (rec["sl1"] or rec["sl2"]) else 0


def predicted_dim_gl(t: GLTuple, n: int) -> int:
    rec = in_lambda_gl(t, n)
    return 1 if (rec["gl1"] or rec["gl2"]) else 0


def predicted_dim_ido(n, flavor, alpha, delta, k, lam, tau) -> int:
    if flavor == "sl":
        rec = in_lambda_ido_sl(n, alpha, delta, k, lam, tau)
    else:
        rec = in_lambda_ido_gl(n, alpha, delta, k, lam, tau)
    return 1 if (rec["ido"] or rec["identity"]) else 0

