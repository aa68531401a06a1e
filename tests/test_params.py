from fractions import Fraction

from fmethod.params import (
    GLTuple,
    SLQuadruple,
    in_lambda_gl,
    in_lambda_gp,
    in_lambda_gprime,
    in_lambda_ido_gl,
    in_lambda_ido_sl,
    in_lambda_sl,
    parse_sign,
    predicted_dim_sl,
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
    rec = in_lambda_ido_sl(2, PLUS, sign_shift(PLUS, 3), 3, Fraction(-2), Fraction(5, 2))
    assert rec["ido"] == {"k": 3}
    rec = in_lambda_ido_sl(2, PLUS, PLUS, 0, Fraction(5), Fraction(5))
    assert rec["identity"] and rec["ido"] is None
    rec = in_lambda_ido_sl(2, PLUS, sign_shift(PLUS, 2), 2, Fraction(1, 3), Fraction(4, 3))
    assert rec["ido"] is None and not rec["identity"]
    rec = in_lambda_ido_gl(
        2, (PLUS, PLUS), (MINUS, PLUS), 1,
        (Fraction(0), Fraction(2)), (Fraction(3, 2), Fraction(3, 2)),
    )
    assert rec["ido"] == {"k": 1}


def test_verma_side_sets_by_substitution():
    # (s, r) = ((m+ell)-1, -(1+ell/(n-1))) is the second family; at n=3,
    # (m, ell) = (1, 1): s = 1, r = -3/2
    rec = in_lambda_gp(PLUS, sign_shift(PLUS, 2), 1, Fraction(1), Fraction(-3, 2), 3)
    assert rec["gp2"] == {"m": 1, "ell": 1}
    rec = in_lambda_gp(PLUS, sign_shift(PLUS, 2), 0, Fraction(7, 5), Fraction(7, 5) - 2, 3)
    assert rec["gp1"] == {"m": 2}
    # sign-free version for plain g'-homomorphisms
    rec = in_lambda_gprime(0, Fraction(1), Fraction(-2), 2)
    assert rec["g_plus"] == {"m": 1, "ell": 1}
    rec = in_lambda_gprime(0, Fraction(1, 2), Fraction(3), 2)
    assert rec["g1"] is None and rec["g2"] is None
