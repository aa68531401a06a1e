"""Reference builders that kernels of `src/` are tested against.

The restricting kernels of `operators` (shared by test_algebra, test_weyl
and test_operators) and the component-group signs as products of
`Fraction` entries (test_liealg, test_engine and test_verma); not a test
module.
"""

from fractions import Fraction

from fmethod.algebra import Polynomial, monomial_basis
from fmethod.liealg import SL
from fmethod.rep import VectorValuedPolynomial
from fmethod.weyl import WeylElement


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
