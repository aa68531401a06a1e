import itertools
from fractions import Fraction

from fmethod.params import (
    GLTuple,
    SLQuadruple,
    _nonneg_int,
    in_lambda_gl,
    in_lambda_ido,
    in_lambda_sl,
    in_lambda_sl_connected,
    parse_sign,
    predicted_dim_gl,
    predicted_dim_ido,
    predicted_dim_sl,
    predicted_dim_sl_connected,
    sign_shift,
    sign_str,
)

PLUS, MINUS = 0, 1


def test_sign_arithmetic():
    assert sign_shift(PLUS, 0) == PLUS
    assert sign_shift(PLUS, 3) == MINUS
    # (delta + k) + k' = delta + (k + k')
    for delta in (PLUS, MINUS):
        for k in range(4):
            for kp in range(4):
                assert sign_shift(sign_shift(delta, k), kp) == sign_shift(delta, k + kp)
    assert sign_str(PLUS) == "+" and sign_str(MINUS) == "-"
    assert parse_sign("+") == PLUS and parse_sign("-") == MINUS


def test_membership_family_one():
    # n=3: (alpha, alpha+2; triv; 7/3, 7/3+2) with witness m = 2
    q = SLQuadruple(PLUS, sign_shift(PLUS, 2), 0, Fraction(7, 3), Fraction(7, 3) + 2)
    rec = in_lambda_sl(q, 3)
    assert rec["sl1"] == {"m": 2}


def test_membership_family_two_rejects_wrong_lambda():
    # (m, ell) = (2, 1) forces lambda = -2, nu = 3/2 at n = 3
    beta = sign_shift(PLUS, 3)
    bad = SLQuadruple(PLUS, beta, 1, Fraction(-1), Fraction(3, 2))
    assert in_lambda_sl(bad, 3)["sl2"] is None
    good = SLQuadruple(PLUS, beta, 1, Fraction(-2), Fraction(3, 2))
    assert in_lambda_sl(good, 3)["sl2"] == {"m": 2, "ell": 1}


def test_membership_n2_plus_family():
    # (alpha, alpha+1; triv; -1, 2) lies in the doubled family with (m, ell) = (1, 1)
    q = SLQuadruple(PLUS, sign_shift(PLUS, 1), 0, Fraction(-1), Fraction(2))
    rec = in_lambda_sl(q, 2)
    assert rec["sl_plus"] == {"m": 1, "ell": 1}
    assert predicted_dim_sl(q, 2) == 2


def test_inclusion_chain_n2():
    # plus-family inside family two inside family one, over a grid
    for m in range(7):
        for ell in range(7):
            lam, nu = Fraction(1 - (m + ell)), Fraction(1 + ell)
            q = SLQuadruple(PLUS, sign_shift(PLUS, m), 0, lam, nu)
            rec = in_lambda_sl(q, 2)
            assert rec["sl2"] is not None
            assert rec["sl1"] is not None
            if ell >= 1:
                assert rec["sl_plus"] is not None
            else:
                assert rec["sl_plus"] is None


def test_canonicalization_idempotent():
    q = SLQuadruple(PLUS, MINUS, 3, Fraction(-2), Fraction(2))
    c1 = q.canonical(2)
    assert c1.canonical(2) == c1
    assert c1.ell == 0
    assert c1.beta == sign_shift(MINUS, 3)
    # no folding away from n = 2
    assert q.canonical(3) == q


def test_gl_membership_examples():
    t = GLTuple(
        (PLUS, MINUS), (PLUS, MINUS), 0, (Fraction(5), Fraction(1, 2)), (Fraction(7), Fraction(1, 2))
    )
    assert in_lambda_gl(t, 3)["gl1"] == {"m": 2}

    # sign rule rejection: beta1 must be alpha1 + (m + ell) = '+'
    t = GLTuple(
        (PLUS, PLUS), (MINUS, PLUS), 1, (Fraction(-1), Fraction(0)), (Fraction(2), Fraction(-1))
    )
    rec = in_lambda_gl(t, 2)
    assert rec["gl2"] is None

    t = GLTuple(
        (PLUS, PLUS), (PLUS, PLUS), 0, (Fraction(0), Fraction(0)), (Fraction(0), Fraction(0))
    )
    assert in_lambda_gl(t, 2)["gl1"] == {"m": 0}


def test_gl2_membership_accepts_matched_signs():
    t = GLTuple(
        (PLUS, PLUS), (PLUS, PLUS), 1, (Fraction(-1), Fraction(0)), (Fraction(2), Fraction(-1))
    )
    assert in_lambda_gl(t, 2)["gl2"] == {"m": 1, "ell": 1}


def test_ido_membership():
    # n=2, k=3: (alpha, alpha+3; poly^3_2; -2, 5/2)
    rec = in_lambda_ido(2, (PLUS,), (sign_shift(PLUS, 3),), 3, (Fraction(-2),), (Fraction(5, 2),))
    assert rec["ido"] == {"k": 3}
    rec = in_lambda_ido(2, (PLUS,), (PLUS,), 0, (Fraction(5),), (Fraction(5),))
    assert rec["identity"] and rec["ido"] is None
    rec = in_lambda_ido(
        2, (PLUS,), (sign_shift(PLUS, 2),), 2, (Fraction(1, 3),), (Fraction(4, 3),)
    )
    assert rec["ido"] is None and not rec["identity"]
    rec = in_lambda_ido(
        2, (PLUS, PLUS), (MINUS, PLUS), 1,
        (Fraction(0), Fraction(2)), (Fraction(3, 2), Fraction(3, 2)),
    )
    assert rec["ido"] == {"k": 1}


def test_verma_side_sets_by_substitution():
    # the Verma-side sets are the SL sets at (lambda, nu) = (-s, -r).
    # (s, r) = ((m+ell)-1, -(1+ell/(n-1))) is the second family; at n=3,
    # (m, ell) = (1, 1): s = 1, r = -3/2
    beta = sign_shift(PLUS, 2)
    rec = in_lambda_sl(SLQuadruple(PLUS, beta, 1, -Fraction(1), Fraction(3, 2)), 3)
    assert rec["sl2"] == {"m": 1, "ell": 1}
    s = Fraction(7, 5)
    rec = in_lambda_sl(SLQuadruple(PLUS, beta, 0, -s, -(s - 2)), 3)
    assert rec["sl1"] == {"m": 2}
    # sign-free version for plain g'-homomorphisms
    rec = in_lambda_sl_connected(0, -Fraction(1), Fraction(2), 2)
    assert rec["sl_plus"] == {"m": 1, "ell": 1}
    rec = in_lambda_sl_connected(0, -Fraction(1, 2), -Fraction(3), 2)
    assert rec["sl1"] is None and rec["sl2"] is None


# -- the derived rules against the rules as they were first written -------------
#
# Test-only copies of the membership bodies that stated each family on its
# own, before the SL rule became the single source.  The derived rules must
# give the same records and dimensions on the whole grid below.

GRID_N = range(2, 6)
GRID_L = range(4)
GRID_VALUES = sorted({Fraction(p, q) for q in (1, 2, 3) for p in range(-8, 9)})
SIGNS = (PLUS, MINUS)
# each test also counts the members it met (a dimension-2 cell counts
# twice), so a grid that missed the families would fail too


def reference_sl(q, n):
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
    if q.ell == 0:
        m1 = _nonneg_int(q.nu - q.lam)
        if m1 is not None and q.beta == sign_shift(q.alpha, m1):
            rec["sl1"] = {"m": m1}
    if q.nu == 1 + Fraction(q.ell, n - 1):
        m = _nonneg_int(1 - q.lam - q.ell)
        if m is not None and q.beta == sign_shift(q.alpha, m + q.ell):
            rec["sl2"] = {"m": m, "ell": q.ell}
    return rec


def reference_sl_connected(ell, lam, nu, n):
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


def reference_sl_dim(rec, n):
    if n == 2:
        if rec["sl_plus"]:
            return 2
        return 1 if rec["sl1"] else 0
    return 1 if (rec["sl1"] or rec["sl2"]) else 0


def reference_gl(t, n):
    rec = {"gl1": None, "gl2": None}
    a1, a2 = t.alphas
    b1, b2 = t.betas
    l1, l2 = t.lams
    n1, n2 = t.nus
    if t.ell == 0:
        m = _nonneg_int(n1 - l1)
        if m is not None and n2 == l2 and b1 == sign_shift(a1, m) and b2 == a2:
            rec["gl1"] = {"m": m}
    if n1 == 1 + Fraction(t.ell, n - 1) and n2 == l2 - Fraction(t.ell, n - 1):
        m = _nonneg_int(1 - l1 - t.ell)
        if m is not None and b1 == sign_shift(a1, m + t.ell) and b2 == a2:
            rec["gl2"] = {"m": m, "ell": t.ell}
    return rec


def reference_ido_sl(n, alpha, delta, k, lam, tau):
    rec = {"ido": None, "identity": False}
    if k == 0 and delta == alpha and tau == lam:
        rec["identity"] = True
    if lam == 1 - k and tau == 1 + Fraction(k, n) and delta == sign_shift(alpha, k):
        rec["ido"] = {"k": k}
    return rec


def reference_ido_gl(n, alphas, deltas, k, lams, taus):
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


def _grid(shift):
    """(n, ell, lambda, nu, sign, sign) over the grid; nu also takes 1 + ell * shift(n)."""
    for n, ell in itertools.product(GRID_N, GRID_L):
        nus = GRID_VALUES + [1 + ell * shift(n)]
        for point in itertools.product(GRID_VALUES, nus, SIGNS, SIGNS):
            yield (n, ell) + point


def _second_components(shift):
    """Nine (sign, sign, offset) variants of a GL pair's second components.

    The grid walks them cyclically; nine is prime to the 2 * 2 * 38 points
    of its inner loops, so every variant meets every first-component sign
    pair and every value of nu.
    """
    offsets = (Fraction(0), -shift, Fraction(1))
    return list(itertools.product(((PLUS, PLUS), (MINUS, MINUS), (PLUS, MINUS)), offsets))


def _sl_shift(n):
    return Fraction(1, n - 1)


def _ido_shift(n):
    return Fraction(1, n)


def test_sl_rule_matches_reference():
    hits = 0
    for n, ell, lam, nu, alpha, beta in _grid(_sl_shift):
        q = SLQuadruple(alpha, beta, ell, lam, nu)
        ref = reference_sl(q, n)
        assert in_lambda_sl(q, n) == ref, (q, n)
        dim = reference_sl_dim(ref, n)
        assert predicted_dim_sl(q, n) == dim, (q, n)
        hits += dim
    assert hits > 2000


def test_connected_rule_is_the_union_of_the_signed_ones():
    hits = 0
    for n, ell, lam, nu, alpha, beta in _grid(_sl_shift):
        if (alpha, beta) != (PLUS, PLUS):
            continue
        ref = reference_sl_connected(ell, lam, nu, n)
        assert in_lambda_sl_connected(ell, lam, nu, n) == ref, (ell, lam, nu, n)
        dim = reference_sl_dim(ref, n)
        assert predicted_dim_sl_connected(ell, lam, nu, n) == dim
        hits += dim
    assert hits > 1000


def test_gl_rule_matches_reference():
    lam2 = Fraction(1, 3)
    hits = 0
    for i, (n, ell, lam1, nu1, a1, b1) in enumerate(_grid(_sl_shift)):
        variants = _second_components(ell * _sl_shift(n))
        (a2, b2), offset = variants[i % len(variants)]
        t = GLTuple((a1, a2), (b1, b2), ell, (lam1, lam2), (nu1, lam2 + offset))
        ref = reference_gl(t, n)
        assert in_lambda_gl(t, n) == ref, (t, n)
        dim = 1 if (ref["gl1"] or ref["gl2"]) else 0
        assert predicted_dim_gl(t, n) == dim
        hits += dim
    assert hits > 400


def test_ido_rule_matches_reference():
    lam2 = Fraction(1, 3)
    hits = 0
    for i, (n, k, lam, tau, alpha, delta) in enumerate(_grid(_ido_shift)):
        ref = reference_ido_sl(n, alpha, delta, k, lam, tau)
        assert in_lambda_ido(n, (alpha,), (delta,), k, (lam,), (tau,)) == ref
        dim = 1 if (ref["ido"] or ref["identity"]) else 0
        assert predicted_dim_ido(n, (alpha,), (delta,), k, (lam,), (tau,)) == dim
        variants = _second_components(k * _ido_shift(n))
        (a2, d2), offset = variants[i % len(variants)]
        args = (n, (alpha, a2), (delta, d2), k, (lam, lam2), (tau, lam2 + offset))
        ref = reference_ido_gl(*args)
        assert in_lambda_ido(*args) == ref, args
        hits += dim + (ref["ido"] is not None)
    assert hits > 150
