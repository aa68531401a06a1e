"""Reference builders that the restricting kernels of `operators` are tested against.

Shared by test_algebra, test_weyl and test_operators; not a test module.
"""

from fmethod.algebra import Polynomial
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
