"""Branching of the scalar Verma module over the lower-rank subalgebra.

Everything is graded by the character of a' = R * H0~': the basis monomial
zeta' ^ l zeta_n^m of M(s) has weight s - m - (n/(n-1)) |l|.  Characters are
finite maps weight -> multiplicity truncated below at a stated minimum
weight, so identities between infinite direct sums become exact dictionary
comparisons.  Invariant vectors are computed as exact kernels of the raised
actions grade by grade, never read off from the predicted answer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .algebra import Polynomial, monomial_basis, rational, sparse_nullspace
from .liealg import parabolic
from .rep import ScalarRepParams, dpi_hat


def aprime_weight(n: int, s: Fraction, mono) -> Fraction:
    """Weight of zeta^mono tensor C_s under the grading element of a'."""
    m = mono[-1]
    lsum = sum(mono[:-1])
    return Fraction(s) - m - Fraction(n, n - 1) * lsum


@dataclass
class GradedCharacter:
    """Finitely supported weight multiplicities, complete above min_weight."""

    min_weight: Fraction
    mult: dict = field(default_factory=dict)

    def add(self, weight, count=1):
        if weight >= self.min_weight and count:
            self.mult[weight] = self.mult.get(weight, 0) + count

    def __add__(self, other):
        if other.min_weight != self.min_weight:
            raise ValueError("truncation mismatch")
        out = GradedCharacter(self.min_weight, dict(self.mult))
        for w, c in other.mult.items():
            out.mult[w] = out.mult.get(w, 0) + c
        return out

    def __eq__(self, other):
        return (
            isinstance(other, GradedCharacter)
            and self.min_weight == other.min_weight
            and self.mult == other.mult
        )

    def to_json(self):
        return {
            str(w): c
            for w, c in sorted(self.mult.items(), key=lambda kv: kv[0], reverse=True)
        }


def character_verma(n: int, s, min_weight, lowest_grade: int = 0) -> GradedCharacter:
    """Truncated character of the scalar module M(s), n variables, grades >= lowest_grade."""
    s = Fraction(s)
    ch = GradedCharacter(Fraction(min_weight))
    m = 0
    while s - m >= ch.min_weight:
        L = max(0, lowest_grade - m)
        while Fraction(n, n - 1) * L <= s - m - ch.min_weight:
            ch.add(s - m - Fraction(n, n - 1) * L, math.comb(L + n - 2, n - 2))
            L += 1
        m += 1
    return ch


def character_verma_primed(n: int, r, min_weight, lowest_grade: int = 0) -> GradedCharacter:
    """Truncated character of the lower-rank scalar module M'(r), grades >= lowest_grade."""
    r = Fraction(r)
    ch = GradedCharacter(Fraction(min_weight))
    j = lowest_grade
    while r - Fraction(n, n - 1) * j >= ch.min_weight:
        ch.add(r - Fraction(n, n - 1) * j, math.comb(j + n - 2, n - 2))
        j += 1
    return ch


def character_sum(chars, min_weight) -> GradedCharacter:
    out = GradedCharacter(Fraction(min_weight))
    for ch in chars:
        out = out + ch
    return out


def character_im_phi(n: int, p: int, min_weight) -> GradedCharacter:
    """Character of Im(phi_{p+1}) = grades >= p+1 of M(p)."""
    return character_verma(n, p, min_weight, p + 1)


def character_im_phi_primed(n: int, d: int, min_weight) -> GradedCharacter:
    """Character of Im(phi'_{d+1}) = grades >= d+1 of M'(d)."""
    return character_verma_primed(n, d, min_weight, d + 1)


def character_sym_big(n: int, p: int, min_weight) -> GradedCharacter:
    """Character of S^p(C^{n+1}) under the a'-grading."""
    ch = GradedCharacter(Fraction(min_weight))
    # coordinates of C^{n+1} have weights 1, -1/(n-1) (n-1 times), 0
    for a1 in range(p + 1):
        for amid in range(p - a1 + 1):
            # a1 copies of weight 1, amid spread over n-1 middle letters
            # the remaining p - a1 - amid letters sit in the weight-0 slot
            w = a1 - Fraction(amid, n - 1)
            ch.add(w, math.comb(amid + n - 2, n - 2))
    return ch


def character_sym_small(n: int, d: int, min_weight) -> GradedCharacter:
    """Character of S^d(C^n) under the a'-grading (the g' standard rep)."""
    ch = GradedCharacter(Fraction(min_weight))
    for a1 in range(d + 1):
        amid = d - a1
        ch.add(a1 - Fraction(amid, n - 1), math.comb(amid + n - 2, n - 2))
    return ch


# -- invariant vectors --------------------------------------------------------


@dataclass
class InvariantReport:
    """Exact joint kernels of the raised primed actions, grade by grade."""

    n: int
    s: Fraction
    grade_cap: int
    min_grade: int
    per_grade: dict  # grade -> list of Polynomial
    per_weight: dict  # weight -> count

    def count_at(self, weight) -> int:
        return self.per_weight.get(Fraction(weight), 0)


def invariants_in(n: int, s, grade_cap: int, min_grade: int = 0) -> InvariantReport:
    """Basis of the n_+'-invariants of M(s), optionally inside grades >= min_grade.

    The filter min_grade = p+1 realizes Im(phi_{p+1}).  s is read through
    `algebra.rational`, so a float raises TypeError.
    """
    s = rational(s)
    source = ScalarRepParams.sl(n, -s)
    pd = parabolic(n)
    ops = [dpi_hat(pd.n_plus(j), source) for j in range(1, n)]
    per_grade = {}
    per_weight = {}
    for k in range(min_grade, grade_cap + 1):
        monos = monomial_basis(n, k)
        by_weight = {}
        for mono in monos:
            by_weight.setdefault(aprime_weight(n, s, mono), []).append(mono)
        found = []
        for w, block in sorted(by_weight.items(), reverse=True):
            rows = {}
            for col, mono in enumerate(block):
                for jop, op in enumerate(ops):
                    # a cancelled 0 stays in the row; the sparse kernel drops it
                    for om, c in op.sums({mono: 1}).items():
                        rows.setdefault((jop, om), {})[col] = c
            for vec in sparse_nullspace(rows.values(), len(block)):
                poly = Polynomial(n, {block[c]: x for c, x in vec.items()}, "zeta")
                found.append(poly)
                per_weight[w] = per_weight.get(w, 0) + 1
        if found:
            per_grade[k] = found
    return InvariantReport(n, s, grade_cap, min_grade, per_grade, per_weight)


def predicted_invariant_multiplicity(p: int, w: Fraction) -> int:
    """Multiplicities of the n=2 decomposition of Im(phi_{p+1})."""
    w = Fraction(w)
    if w == -1:
        return 1
    if -(p + 2) <= w <= -2 and w.denominator == 1:
        return 2
    if w <= -(p + 3) and w.denominator == 1:
        return 1
    return 0


# -- the verification bundle -----------------------------------------------------


def _spanning_check(n: int, p: int, grade: int) -> bool:
    """Grade piece of Im(phi_{p+1}) splits as (A) + (B1), with (B2) inside."""
    all_monos = set(monomial_basis(n, grade))
    A = {mo for mo in all_monos if mo[-1] >= p + 1}
    B1 = {mo for mo in all_monos if mo[-1] <= p and sum(mo[:-1]) >= p + 1 - mo[-1]}
    if A & B1:
        return False
    if A | B1 != all_monos:
        return False
    B2 = set()
    for d in range(p + 1):
        for c in range(1, grade + 1):
            kn = c + p - d
            lsum = grade - kn
            if lsum >= d + 1 and kn <= grade:
                B2.update(mo for mo in all_monos if mo[-1] == kn and sum(mo[:-1]) == lsum)
    return B2 <= (A | B1)


def verify_branching(n: int, s=None, p: int = None, D: int = 10) -> dict:
    """Branching checks at truncation D; exact equalities throughout.

    (a) [M(s)|] = sum_m [M'(s-m)] as truncated characters;
    (b) for s = p >= 0 integral: [Im(phi_{p+1})|] = sum_d [Im(phi'_{d+1})]
        + sum_j [M'(-j)] (and the doubled n = 2 form);
    (c) for n = 2: invariant counts per weight inside Im(phi_{p+1}) match
        the predicted multiplicities (two at the doubled weights);
    (d) the generator spanning (A) + (B1) = Im(phi_{p+1}) in every grade.
    """
    if s is None and p is None:
        raise ValueError("need s or p")
    if s is None:
        s = p
    s = rational(s)
    if p is None and s.denominator == 1 and s >= 0:
        p = int(s)
    report = {"n": n, "s": str(s), "D": D, "checks": {}, "status": "pass"}

    min_w = s - D
    lhs = character_verma(n, s, min_w)
    rhs = character_sum(
        [character_verma_primed(n, s - m, min_w) for m in range(D + 1)], min_w
    )
    report["character_lhs"] = lhs.to_json()
    report["character_rhs"] = rhs.to_json()
    report["checks"]["character_full_module"] = lhs == rhs

    if p is not None:
        min_w = Fraction(p) - D
        lhs_i = character_im_phi(n, p, min_w)
        parts = [character_im_phi_primed(n, d, min_w) for d in range(p + 1)]
        j = 1
        while -j >= min_w:
            parts.append(character_verma_primed(n, -j, min_w))
            j += 1
        rhs_i = character_sum(parts, min_w)
        report["checks"]["character_image"] = lhs_i == rhs_i

        # exactness relation [M(p)] = [Im(phi_{p+1})] + [S^p(C^{n+1})]
        mp = character_verma(n, Fraction(p), min_w)
        rhs_e = character_sum([lhs_i, character_sym_big(n, p, min_w)], min_w)
        report["checks"]["character_exactness"] = mp == rhs_e

        # primed exactness [M'(d)] = [Im(phi'_{d+1})] + [S^d(C^n)]
        ok = True
        for d in range(p + 1):
            md = character_verma_primed(n, d, min_w)
            rr = character_sum(
                [character_im_phi_primed(n, d, min_w), character_sym_small(n, d, min_w)],
                min_w,
            )
            ok = ok and md == rr
        report["checks"]["character_exactness_primed"] = ok

        if n == 2:
            doubled = [character_verma_primed(n, -1, min_w)]
            for d in range(p + 1):
                ch = character_verma_primed(n, -(d + 2), min_w)
                doubled.extend([ch, ch])
            j = p + 3
            while -j >= min_w:
                doubled.append(character_verma_primed(n, -j, min_w))
                j += 1
            report["checks"]["character_image_doubled"] = (
                character_sum(doubled, min_w) == lhs_i
            )

            inv = invariants_in(n, s, D, min_grade=p + 1)
            counts_ok = True
            w = Fraction(-1)
            while w >= Fraction(p) - D:
                expected = predicted_invariant_multiplicity(p, w)
                if inv.count_at(w) != expected:
                    counts_ok = False
                w -= 1
            report["invariant_counts"] = {
                str(w): c for w, c in sorted(inv.per_weight.items(), reverse=True)
            }
            report["checks"]["invariant_multiplicities"] = counts_ok

        report["checks"]["generator_spanning"] = all(
            _spanning_check(n, p, g) for g in range(p + 1, D + 1)
        )

    if not all(report["checks"].values()):
        report["status"] = "fail"
    return report
