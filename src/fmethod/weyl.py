"""The Weyl algebra in n variables and its algebraic Fourier transform.

Elements are kept in normal order: every term is a polynomial coefficient
multiplied from the left onto a monomial in the partial derivatives,
    D = sum_alpha  p_alpha(v) * d^alpha.
Composition expands the commutation relation  d_j v_i = delta_ij + v_i d_j
eagerly (full Leibniz), so equality of normal forms is equality of
operators.

Coefficients are exact rationals: `int` when integral,
`fractions.Fraction` otherwise; never float (`algebra.exact`).  `sums`,
`compose` and `fourier` sum their coefficient products straight into one
{monomial: coefficient} dict (one per derivative key for an operator)
through `algebra.add_product`.  `apply` is `sums` followed by the
`Polynomial` constructor, which drops the sums that cancelled, and the
other two build each coefficient once at the end the same way.
`compose` and `fourier` share one Leibniz loop, `_add_composite`, which
adds (p d^alpha) o (q d^beta) to such sums: `compose` calls it per pair
of terms, and `fourier` per term c v^m d^alpha as
(-1)^|alpha| c d^m o w^alpha.  Differentiation is always
`algebra.derivative_terms`.  The loop's binomials and derivative keys
map C functions over the exponent tuples (`math.prod(map(math.comb,
alpha, gamma))`, `tuple(map(add, map(sub, alpha, gamma), beta))`), as
every term kernel does (`algebra`).

Every coefficient has the operator's variable role; mixing roles raises.

The Fourier transform sends d/dv_i -> -w_i and v_i -> d/dw_i, where w is
the dual variable role ('x' <-> 'zeta'); it is an algebra isomorphism.
"""

from __future__ import annotations

import itertools
import math
from operator import add, sub

from .algebra import (
    Polynomial,
    add_product,
    derivative_terms,
    format_monomial,
    format_terms,
    monomial_key,
    unit_monomial,
)

DUAL_VAR = {"x": "zeta", "zeta": "x"}


class WeylElement:
    """Normal-ordered polynomial-coefficient differential operator."""

    __slots__ = ("arity", "terms", "var")

    def __init__(self, arity: int, terms=None, var: str = "x"):
        self.arity = arity
        self.var = var
        clean = {}
        if terms:
            for alpha, coeff in terms.items():
                if not isinstance(coeff, Polynomial):
                    coeff = Polynomial.constant(arity, coeff, var)
                if coeff.var != var:
                    raise ValueError(f"variable role mismatch: {coeff.var} vs {var}")
                if not coeff.is_zero():
                    if len(alpha) != arity:
                        raise ValueError("derivative multidegree arity mismatch")
                    clean[tuple(alpha)] = coeff
        self.terms = clean

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, arity, var="x"):
        return cls(arity, {}, var)

    @classmethod
    def identity(cls, arity, var="x"):
        return cls(arity, {(0,) * arity: Polynomial.one(arity, var)}, var)

    @classmethod
    def from_polynomial(cls, p: Polynomial):
        """Multiplication operator by p."""
        return cls(p.arity, {(0,) * p.arity: p}, p.var)

    @classmethod
    def partial(cls, arity, index, var="x"):
        """d/dv_{index} (0-based index)."""
        return cls.derivative_monomial(arity, unit_monomial(arity, index), 1, var)

    @classmethod
    def derivative_monomial(cls, arity, alpha, coeff=1, var="x"):
        return cls(arity, {tuple(alpha): Polynomial.constant(arity, coeff, var)}, var)

    @classmethod
    def from_sums(cls, arity, sums, var="x"):
        """The operator with coefficient sums {alpha: {monomial: coefficient}}."""
        return cls(arity, {a: Polynomial(arity, t, var) for a, t in sums.items()}, var)

    @classmethod
    def euler(cls, arity, var="x"):
        """E = sum_j v_j d/dv_j."""
        units = (unit_monomial(arity, j) for j in range(arity))
        return cls.from_sums(arity, {u: {u: 1} for u in units}, var)

    # -- algebra ----------------------------------------------------------

    def _check(self, other):
        if self.arity != other.arity:
            raise ValueError("arity mismatch")
        if self.var != other.var:
            raise ValueError(f"variable role mismatch: {self.var} vs {other.var}")

    def __add__(self, other):
        if not isinstance(other, WeylElement):
            other = WeylElement(self.arity, {(0,) * self.arity: other}, self.var)
        self._check(other)
        terms = dict(self.terms)
        for a, p in other.terms.items():
            terms[a] = terms[a] + p if a in terms else p
        return WeylElement(self.arity, terms, self.var)

    def __neg__(self):
        return WeylElement(self.arity, {a: -p for a, p in self.terms.items()}, self.var)

    def __sub__(self, other):
        if not isinstance(other, WeylElement):
            other = WeylElement(self.arity, {(0,) * self.arity: other}, self.var)
        return self + (-other)

    def scale(self, s):
        return WeylElement(
            self.arity, {a: p.scale(s) for a, p in self.terms.items()}, self.var
        )

    def is_zero(self):
        return not self.terms

    def order(self) -> int:
        """Maximal total derivative order; -1 for zero."""
        if not self.terms:
            return -1
        return max(sum(a) for a in self.terms)

    def sums(self, terms: dict, acc=None) -> dict:
        """acc plus self applied to a {monomial: coefficient} term dict, zeros kept."""
        acc = {} if acc is None else acc
        for alpha, coeff in self.terms.items():
            add_product(acc, coeff.terms, derivative_terms(terms, alpha))
        return acc

    def apply(self, p: Polynomial) -> Polynomial:
        if p.arity != self.arity:
            raise ValueError("arity mismatch")
        if p.var != self.var:
            raise ValueError("variable role mismatch")
        return Polynomial(self.arity, self.sums(p.terms), self.var)

    def compose(self, other: "WeylElement") -> "WeylElement":
        """Normal-ordered self o other (apply other first)."""
        self._check(other)
        sums = {}
        for alpha, p in self.terms.items():
            for beta, q in other.terms.items():
                _add_composite(sums, p.terms, alpha, q.terms, beta)
        return WeylElement.from_sums(self.arity, sums, self.var)

    def fourier(self) -> "WeylElement":
        """Algebraic Fourier transform: d/dv_i -> -w_i, v_i -> d/dw_i."""
        n = self.arity
        zero = (0,) * n
        sums = {}
        for alpha, p in self.terms.items():
            # c v^m d^alpha goes to c d^m o (-1)^|alpha| w^alpha
            w_alpha = {alpha: (-1) ** sum(alpha)}
            for m, c in p.terms.items():
                _add_composite(sums, {zero: c}, m, w_alpha, zero)
        return WeylElement.from_sums(n, sums, DUAL_VAR[self.var])

    def is_constant_coefficient(self) -> bool:
        return all(p.is_constant() for p in self.terms.values())

    def pad_vars(self, arity: int) -> "WeylElement":
        pad = (0,) * (arity - self.arity)
        return WeylElement(
            arity,
            {a + pad: p.pad_vars(arity) for a, p in self.terms.items()},
            self.var,
        )

    def __eq__(self, other):
        if not isinstance(other, WeylElement):
            return NotImplemented
        return (
            self.arity == other.arity and self.var == other.var and self.terms == other.terms
        )

    def __hash__(self):
        return hash(
            (self.arity, self.var, frozenset((a, hash(p)) for a, p in self.terms.items()))
        )

    def __str__(self):
        """Canonical expanded form: one chunk per coefficient monomial."""
        return format_terms(
            (c, "*".join(filter(None, (format_monomial(mono, self.var), format_monomial(alpha, "d")))))
            for alpha, coeff in sorted(
                self.terms.items(), key=lambda kv: monomial_key(kv[0]), reverse=True
            )
            for mono, c in coeff.sorted_terms()
        )

    __repr__ = __str__


def symb_inverse(p: Polynomial) -> WeylElement:
    """Polynomial in the dual variables -> constant-coefficient operator."""
    zero = (0,) * p.arity
    sums = {m: {zero: c} for m, c in p.terms.items()}
    return WeylElement.from_sums(p.arity, sums, DUAL_VAR[p.var])


def _add_composite(sums: dict, p: dict, alpha, q: dict, beta) -> None:
    """sums += (p d^alpha) o (q d^beta), p and q term dicts, on {derivative key: {monomial: coefficient}} sums.

    d^alpha o (q .) = sum_{gamma <= alpha} C(alpha, gamma) (d^gamma q) d^(alpha - gamma).
    """
    for gamma in itertools.product(*[range(a + 1) for a in alpha]):
        dq = derivative_terms(q, gamma)
        if dq:
            binom = math.prod(map(math.comb, alpha, gamma))
            key = tuple(map(add, map(sub, alpha, gamma), beta))
            add_product(sums.setdefault(key, {}), p, dq, binom)
