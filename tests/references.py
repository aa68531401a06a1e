"""Reference builders that kernels of `src/` are tested against.

The exact-scalar normal form (test_algebra, test_weyl and test_rep), the
entrywise difference of two operator matrices (test_rep), the
restricting kernels of `operators` (shared by test_algebra, test_weyl and
test_operators), the generator-frame versions of the term kernels'
exponent arithmetic and the compositions that `SBO.sums` and
`IDOOp.sums` stand for (test_kernels), the vector- and operator-level
loops of the two equivariance checks (test_operators, test_kernels and
test_verma), and the component-group signs as products of `Fraction`
entries (test_liealg, test_engine and test_verma); not a test module.
"""

import itertools
import math
from fractions import Fraction

from fmethod.algebra import (
    Polynomial,
    add_terms,
    canonical_sums,
    derivative_terms,
    monomial_basis,
    monomials_up_to,
)
from fmethod.liealg import SL, parabolic
from fmethod.rep import VectorValuedPolynomial, dpi_lambda, dpi_target
from fmethod.weyl import WeylElement


def is_exact_normal_form(c) -> bool:
    """c is nonzero, an `int` when its denominator is 1 and a `Fraction`
    otherwise; a bool or a float never is."""
    return c != 0 and type(c) is (int if Fraction(c).denominator == 1 else Fraction)


def rest(p: Polynomial) -> Polynomial:
    """Rest_{x_n=0}: the terms free of the last coordinate, in the others."""
    return Polynomial(p.arity - 1, {m[:-1]: c for m, c in p.terms.items() if m[-1] == 0}, p.var)


def restrict_last_var(op: WeylElement) -> WeylElement:
    """The normal form of Rest o op: the last coordinate set to 0 in every coefficient.

    Valid because coefficients sit to the left of all derivatives.
    """
    return WeylElement(
        op.arity, {a: p.set_var_zero(op.arity - 1) for a, p in op.terms.items()}, op.var
    )


def entry_differences(a, b) -> dict:
    """{(out, in): a's entry minus b's} of two `OperatorOnVV`s, at every key
    where the two differ, by the arithmetic of `WeylElement`."""
    keys = set(a.terms) | set(b.terms)
    return {k: a.entry(*k) - b.entry(*k) for k in keys if a.entry(*k) != b.entry(*k)}


# -- the term kernels' exponent arithmetic in generator frames ---------------


def monomial_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def add_product(acc: dict, p: dict, q: dict, scale=1) -> None:
    """`algebra.add_product`: acc += scale * p * q, a cancelled sum kept as 0."""
    for m1, c1 in p.items():
        if scale != 1:
            c1 = c1 * scale
        for m2, c2 in q.items():
            m = monomial_mul(m1, m2)
            c = c1 * c2
            old = acc.get(m)
            acc[m] = c if old is None else old + c


def add_composite(sums: dict, p: dict, alpha, q: dict, beta) -> None:
    """`weyl._add_composite`: sums += (p d^alpha) o (q d^beta) by the Leibniz rule."""
    for gamma in itertools.product(*(range(a + 1) for a in alpha)):
        dq = derivative_terms(q, gamma)
        if dq:
            binom = math.prod(math.comb(a, g) for a, g in zip(alpha, gamma))
            key = tuple(a - g + b for a, g, b in zip(alpha, gamma, beta))
            add_product(sums.setdefault(key, {}), p, dq, binom)


def labels_below(e, k) -> list:
    """`operators._labels_below`: (alpha, prod e_i!/(e_i - alpha_i)!) over alpha <= e, |alpha| = k."""
    out = [((), 0, 1)]
    later = sum(e)
    for ei in e:
        later -= ei
        out = [
            (alpha + (a,), used + a, fall * math.perm(ei, a))
            for alpha, used, fall in out
            for a in range(max(0, k - used - later), min(ei, k - used) + 1)
        ]
    return [(alpha, fall) for alpha, _, fall in out]


def restricted_leibniz(alpha, e) -> list:
    """`operators._restricted_leibniz`: (gamma, C(alpha, gamma) e!/(e-gamma)!) with gamma_n = e_n."""
    if e[-1] > alpha[-1]:
        return []
    out = [((), 1)]
    for a, x in zip(alpha[:-1], e[:-1]):
        out = [
            (gamma + (g,), factor * math.comb(a, g) * math.perm(x, g))
            for gamma, factor in out
            for g in range(min(a, x) + 1)
        ]
    last = math.comb(alpha[-1], e[-1]) * math.factorial(e[-1])
    return [(gamma + (e[-1],), factor * last) for gamma, factor in out]


def sbo_images(D, f: dict) -> dict:
    """`SBO.sums` as canonical sums: each component applied to f by
    `WeylElement.apply`, then Rest_{x_n=0}."""
    p = Polynomial(D.n, f)
    return canonical_sums({lbl: rest(op.apply(p)).terms for lbl, op in D.components})


def ido_images(n: int, k: int, comps: dict) -> dict:
    """`IDOOp.sums` as canonical sums: d^alpha of each input component at
    label alpha + its label, over the alpha of degree k."""
    out = {}
    for in_lbl, terms in comps.items():
        p = Polynomial(n, terms)
        for alpha in monomial_basis(n, k):
            lbl = tuple(a + b for a, b in zip(alpha, in_lbl))
            add_terms(out.setdefault(lbl, {}), p.derivative_multi(alpha).terms)
    return canonical_sums(out)


# -- the equivariance checks on built operators and vectors -------------------


def _restricted_witness(diff: WeylElement):
    """The first monomial of degree <= order + degree + 2 that Rest o diff does not kill."""
    n = diff.arity
    cap = diff.order() + max(p.degree() for p in diff.terms.values()) + 2
    for mono in monomials_up_to(n, cap):
        if not rest(diff.apply(Polynomial.monomial(n, mono))).is_zero():
            return mono
    return None


def sbo_after(D, op) -> dict:
    """{label: Rest o (D_l o op)} by generic composition."""
    return {lbl: restrict_last_var(comp.compose(op)) for lbl, comp in D.components}


def target_before(T, D) -> dict:
    """{label: Rest o sum_in T_(l, in) o D_in} over T's output labels, by generic composition."""
    out = {}
    for out_lbl in T.out_labels:
        acc = WeylElement.zero(D.n)
        for in_lbl, d in D.components:
            acc = acc + restrict_last_var(T.entry(out_lbl, in_lbl).pad_vars(D.n).compose(d))
        out[out_lbl] = acc
    return out


def equivariance_violations(D, source, target):
    """`operators.check_equivariance`'s violations by generic composition.

    Per X of g', the first label (in sorted order) at which `sbo_after`
    and `target_before` differ, with its witness monomial.
    """
    zero = WeylElement.zero(D.n)
    violations = []
    for X in parabolic(source.n, source.flavor).g_basis(primed=True):
        lhs = sbo_after(D, dpi_lambda(X, source))
        rhs = target_before(dpi_target(X, target), D)
        for lbl in sorted(set(lhs) | set(rhs)):
            a, b = lhs.get(lbl, zero), rhs.get(lbl, zero)
            if a != b:
                violations.append(
                    {"X": X.describe(), "component": lbl, "monomial": _restricted_witness(a - b)}
                )
                break
    return violations


def _differ(lhs, rhs) -> bool:
    """lhs() != rhs() as vectors; a side whose vector cannot be built (ValueError) differs."""
    try:
        return not (lhs() - rhs()).is_zero()
    except ValueError:
        return True


def hom_violations(h, degree_cap):
    """`verma.check_hom_equivariance`'s (violations, sign_violations), vector by vector.

    Each side is built as a vector through `apply`, once per (X, vector),
    and the signs through the Fraction products of `gamma_action` below.
    A side that cannot be built as a vector of the target (say, its
    monomials have another arity) counts as a violation.
    """
    pd = h.source.pd
    primed = h.source.primed
    violations = []
    for X in pd.g_basis(primed=primed):
        srcop = h.source.action(X)
        tgtop = h.target.action(X)
        for g in range(degree_cap + 1):
            for mono, lbl in h.source.basis(g):
                v = h.source.unit(mono, lbl)
                if _differ(lambda: h.apply(srcop.apply(v)), lambda: tgtop.apply(h.apply(v))):
                    violations.append({"X": X.describe(), "grade": g, "vector": (mono, lbl)})
                    break
            if violations and violations[-1]["X"] == X.describe():
                break
    sign_violations = []
    for gamma in pd.gamma_elements(primed=primed):
        for lbl in h.source.fiber_labels():
            v = h.source.unit((0,) * h.source.num_vars, lbl)
            if _differ(
                lambda: h.apply(gamma_action(h.source, gamma, v)),
                lambda: gamma_action(h.target, gamma, h.apply(v)),
            ):
                sign_violations.append({"gamma": gamma.describe(), "label": lbl})
    return violations, sign_violations


# -- component-group signs as Fraction products --------------------------------


def sign_character(pd, gamma, parities, block):
    """The sign character with `parities` at a diagonal component-group element.

    SL: det^a, the determinant over the `block` diagonal entries after the
    corner g0.  GL: g0^a1 det^a2.
    """
    det = Fraction(1)
    for j in range(1, block + 1):
        det *= gamma[j, j]
    if pd.flavor == SL:
        return det if parities[0] % 2 else Fraction(1)
    g0 = gamma[0, 0]
    return (g0 if parities[0] % 2 else Fraction(1)) * (det if parities[1] % 2 else Fraction(1))


def zeta_sign(gamma, mono):
    """The scalar by which Ad(gamma) acts on zeta^mono: prod_j (gamma_j g0)^m_j."""
    g0, out = gamma[0, 0], Fraction(1)
    for j, e in enumerate(mono):
        out *= (gamma[j + 1, j + 1] * g0) ** e
    return out


def fiber_sign(gamma, lbl):
    """The scalar by which gamma acts on a fiber label: prod_j gamma_j^lbl_j, no Ad twist."""
    out = Fraction(1)
    for j, e in enumerate(lbl):
        out *= gamma[j + 1, j + 1] ** e
    return out


def gamma_parities(pd, full_nilradical, alpha, beta, ell):
    """(masks, parities) of the solver's component-group conditions.

    For each generator gamma, its mask holds the coordinates where gamma
    acts on zeta by -1; `parities[label]` holds, per generator, the parity
    of m summed over the mask that a pair (zeta^m, label) needs: every sign
    is +-1, so  w_side * fiber sign == v_side * ad^m  fixes it.
    """
    block = pd.n if full_nilradical else pd.n - 1
    labels = monomial_basis(block, ell)
    masks, parities = [], {lbl: () for lbl in labels}
    for gamma in pd.gamma_elements(primed=not full_nilradical):
        g0 = gamma[0, 0]
        masks.append(tuple(j for j in range(pd.n) if gamma[j + 1, j + 1] * g0 < 0))
        v_side = sign_character(pd, gamma, alpha, pd.n)
        w_side = sign_character(pd, gamma, beta, block)
        for lbl in labels:
            parities[lbl] += (int(w_side * v_side * fiber_sign(gamma, lbl) < 0),)
    return tuple(masks), parities


def gamma_action(module, gamma, v):
    """A `verma.VermaModule`'s component-group action: each term of v times
    the character, the fiber sign and the zeta sign, all in Fractions."""
    char = sign_character(module.pd, gamma, module.signs, module.num_vars)
    comps = {}
    for lbl, p in v.components.items():
        fsign = fiber_sign(gamma, lbl)
        terms = {mono: c * zeta_sign(gamma, mono) * fsign * char for mono, c in p.terms.items()}
        comps[lbl] = Polynomial(module.num_vars, terms, "zeta")
    return VectorValuedPolynomial(module.num_vars, comps, "zeta")
