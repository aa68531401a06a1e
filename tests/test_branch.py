import math
from fractions import Fraction

import pytest

from fmethod.algebra import Polynomial, monomial_basis
from fmethod.branch import (
    GradedCharacter,
    aprime_weight,
    character_im_phi,
    character_im_phi_primed,
    character_sum,
    character_sym_big,
    character_sym_small,
    character_verma,
    character_verma_primed,
    invariants_in,
    predicted_invariant_multiplicity,
    verify_branching,
)
from fmethod.liealg import parabolic
from fmethod.rep import ScalarRepParams, dpi_hat


@pytest.mark.parametrize("n", [2, 3])
def test_weight_rule_matches_machinery(n):
    s = Fraction(5, 7)
    src = ScalarRepParams.sl(n, -s)
    op = dpi_hat(parabolic(n).h0_tilde_prime, src)
    for d in range(4):
        for mono in monomial_basis(n, d):
            p = Polynomial.monomial(n, mono, 1, "zeta")
            q = op.apply(p)
            eig = q.terms.get(mono, Fraction(0))
            assert eig == aprime_weight(n, s, mono)
            assert set(q.terms) <= {mono}


def test_character_example_low_weights():
    # M(s) at n = 2: multiplicities 1, 1, 2 at weights s, s-1, s-2
    s = Fraction(1, 3)
    ch = character_verma(2, s, s - 2)
    assert ch.mult == {s: 1, s - 1: 1, s - 2: 2}


def test_character_branching_identity_generic():
    for n in (2, 3):
        s = Fraction(1, 3)
        D = 8
        lhs = character_verma(n, s, s - D)
        rhs = character_sum(
            [character_verma_primed(n, s - m, s - D) for m in range(D + 1)], s - D
        )
        assert lhs == rhs


def test_character_empty_sum_is_zero():
    ch = character_sum([], Fraction(-5))
    assert ch.mult == {}


def test_exactness_relations():
    # [M(p)] = [Im(phi_{p+1})] + [S^p(C^{n+1})] for p <= 4, D <= 10
    for n in (2, 3):
        for p in range(5):
            min_w = Fraction(p) - 10
            lhs = character_verma(n, Fraction(p), min_w)
            rhs = character_sum(
                [character_im_phi(n, p, min_w), character_sym_big(n, p, min_w)], min_w
            )
            assert lhs == rhs
            for d in range(p + 1):
                l2 = character_verma_primed(n, d, min_w)
                r2 = character_sum(
                    [character_im_phi_primed(n, d, min_w), character_sym_small(n, d, min_w)],
                    min_w,
                )
                assert l2 == r2


def test_invariants_generic_weight():
    inv = invariants_in(2, Fraction(1, 3), 6)
    for k in range(7):
        assert len(inv.per_grade[k]) == 1
        poly = inv.per_grade[k][0]
        assert set(poly.terms) == {(0, k)}


def test_invariants_special_weight_jump():
    inv = invariants_in(2, Fraction(0), 4)
    assert len(inv.per_grade[1]) == 2
    for k in (0, 2, 3, 4):
        assert len(inv.per_grade[k]) == 1
    inv = invariants_in(2, Fraction(2), 5)
    assert len(inv.per_grade[3]) == 4  # full grade p + 1


def test_invariants_image_filter_multiplicity_two():
    inv = invariants_in(2, Fraction(0), 6, min_grade=1)
    assert inv.count_at(Fraction(-1)) == 1
    assert inv.count_at(Fraction(-2)) == 2
    assert inv.count_at(Fraction(-3)) == 1
    vecs = [p for plist in inv.per_grade.values() for p in plist if aprime_weight(2, Fraction(0), max(p.terms)) == -2]
    assert len(vecs) == 2


def test_invariant_counts_match_summands_generic():
    # at generic s the count per weight matches the branching summands
    s = Fraction(1, 3)
    inv = invariants_in(2, s, 6)
    for m in range(7):
        assert inv.count_at(s - m) == 1


def test_predicted_multiplicities_table():
    assert predicted_invariant_multiplicity(0, Fraction(-1)) == 1
    assert predicted_invariant_multiplicity(0, Fraction(-2)) == 2
    assert predicted_invariant_multiplicity(0, Fraction(-3)) == 1
    assert predicted_invariant_multiplicity(2, Fraction(-4)) == 2
    assert predicted_invariant_multiplicity(2, Fraction(-5)) == 1
    assert predicted_invariant_multiplicity(1, Fraction(-7, 2)) == 0


@pytest.mark.parametrize("s", [Fraction(1, 3), Fraction(0), Fraction(1), Fraction(2)])
def test_verify_branching_n2(s):
    rep = verify_branching(2, s=s, D=10)
    assert rep["status"] == "pass"


def test_verify_branching_n3_image():
    rep = verify_branching(3, p=1, D=6)
    assert rep["status"] == "pass"
    assert rep["checks"]["character_image"]


def test_branch_report_shape():
    rep = verify_branching(2, p=0, D=6)
    assert rep["invariant_counts"]["-2"] == 2
    assert rep["checks"]["generator_spanning"]


# -- the image characters against their bodies as first written -----------------
#
# Test-only copies of the two image characters as they enumerated their own
# grades, before each became a Verma character from a lowest grade on.


def reference_im_phi(n, p, min_weight):
    ch = GradedCharacter(Fraction(min_weight))
    m = 0
    while p - m >= ch.min_weight:
        L = 0
        while Fraction(n, n - 1) * L <= p - m - ch.min_weight:
            if m + L >= p + 1:
                ch.add(p - m - Fraction(n, n - 1) * L, math.comb(L + n - 2, n - 2))
            L += 1
        m += 1
    return ch


def reference_im_phi_primed(n, d, min_weight):
    ch = GradedCharacter(Fraction(min_weight))
    j = d + 1
    while d - Fraction(n, n - 1) * j >= ch.min_weight:
        ch.add(d - Fraction(n, n - 1) * j, math.comb(j + n - 2, n - 2))
        j += 1
    return ch


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("p", range(5))
def test_image_characters_match_reference(n, p):
    min_w = Fraction(p) - 10
    expected = reference_im_phi(n, p, min_w)
    assert expected.mult  # the truncation leaves grades above p
    assert character_im_phi(n, p, min_w) == expected
    expected = reference_im_phi_primed(n, p, min_w)
    assert expected.mult
    assert character_im_phi_primed(n, p, min_w) == expected
