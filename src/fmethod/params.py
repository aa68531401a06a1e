"""Sign arithmetic and the parameter sets where nonzero operators exist.

Sign characters are parities: 0 for '+', 1 for '-'.  The shift delta + k
adds k mod 2, so delta + k = '+' exactly when delta = (-1)^k.

Membership tests return witnesses (m, ell), never bare booleans; the
constructors downstream need them.  The classification is stated once, in
`_generic_sl`: `in_lambda_sl` is that rule (unfolded at n = 2), the GL
family is the rule on the first components plus the lambda_2 condition,
and the sign-free (connected) record is the union of the two signed ones.
The Verma-side sets are the section-side sets at (lambda, nu) = (-s, -r).
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


def _generic_sl(alpha, beta, ell, lam, nu, n) -> dict:
    """The SL rule for n >= 3: family one (ell = 0) and family two."""
    rec = {"sl1": None, "sl2": None, "sl_plus": None}
    if ell == 0:
        m = _nonneg_int(nu - lam)
        if m is not None and beta == sign_shift(alpha, m):
            rec["sl1"] = {"m": m}
    if (nu - 1) * (n - 1) == ell:  # nu = 1 + ell/(n-1), in the scalars' own arithmetic
        m = _nonneg_int(1 - lam - ell)
        if m is not None and beta == sign_shift(alpha, m + ell):
            rec["sl2"] = {"m": m, "ell": ell}
    return rec


def in_lambda_sl(q: SLQuadruple, n: int) -> dict:
    """Membership record {'sl1', 'sl2', 'sl_plus'} with witnesses or None.

    At n = 2 poly^ell sits in the sign, so family two is the generic rule
    at ell = nu - 1 with that sign taken back out; for ell >= 1 it is the
    doubled family `sl_plus`.
    """
    if n != 2:
        return _generic_sl(q.alpha, q.beta, q.ell, q.lam, q.nu, n)
    q = q.canonical(n)
    rec = _generic_sl(q.alpha, q.beta, 0, q.lam, q.nu, n)
    ell = _nonneg_int(q.nu - 1)
    if ell:
        w = _generic_sl(q.alpha, sign_shift(q.beta, ell), ell, q.lam, q.nu, n)["sl2"]
        rec["sl2"] = rec["sl_plus"] = w
    return rec


def in_lambda_sl_connected(ell: int, lam: Fraction, nu: Fraction, n: int) -> dict:
    """Sign-free variant (the P0'-connected sets): the union over beta.

    At n = 2 the family-one and family-two witnesses of one (lambda, nu)
    need the same beta, so the union keeps the doubled family exact.
    """
    recs = [in_lambda_sl(SLQuadruple(0, beta, ell, lam, nu), n) for beta in (0, 1)]
    return {key: recs[0][key] or recs[1][key] for key in recs[0]}


def in_lambda_gl(t: GLTuple, n: int) -> dict:
    """Membership record {'gl1', 'gl2'}: the SL rule on the first components.

    The second components must carry the same sign, and lambda_2 must move
    by -ell/(n-1) (nothing in family one).
    """
    (a1, a2), (b1, b2) = t.alphas, t.betas
    (l1, l2), (n1, n2) = t.lams, t.nus
    rec = _generic_sl(a1, b1, t.ell, l1, n1, n)
    return {
        "gl1": rec["sl1"] if b2 == a2 and n2 == l2 else None,
        "gl2": rec["sl2"] if b2 == a2 and (l2 - n2) * (n - 1) == t.ell else None,
    }


def in_lambda_ido(n, alphas, deltas, k, lams, taus) -> dict:
    """Membership in the G-intertwining family: target (delta, poly^k_n, tau).

    Parameters are 1-tuples for SL and pairs for GL; the GL second
    components keep their sign and move lambda_2 by -k/n.
    """
    rec = {"ido": None, "identity": k == 0 and deltas == alphas and taus == lams}
    if (
        lams[0] == 1 - k
        and taus[0] == 1 + Fraction(k, n)
        and deltas[0] == sign_shift(alphas[0], k)
        and taus[1:] == tuple(x - Fraction(k, n) for x in lams[1:])
        and deltas[1:] == alphas[1:]
    ):
        rec["ido"] = {"k": k}
    return rec


# -- predicted dimensions -------------------------------------------------------


def record_dim(rec: dict) -> int:
    """Dimension named by a membership record: 2 on the doubled n = 2 family."""
    if rec.get("sl_plus"):
        return 2
    return 1 if any(rec.values()) else 0


def predicted_dim_sl(q: SLQuadruple, n: int) -> int:
    return record_dim(in_lambda_sl(q, n))


def predicted_dim_sl_connected(ell, lam, nu, n) -> int:
    return record_dim(in_lambda_sl_connected(ell, lam, nu, n))


def predicted_dim_gl(t: GLTuple, n: int) -> int:
    return record_dim(in_lambda_gl(t, n))


def predicted_dim_ido(n, alphas, deltas, k, lams, taus) -> int:
    return record_dim(in_lambda_ido(n, alphas, deltas, k, lams, taus))
