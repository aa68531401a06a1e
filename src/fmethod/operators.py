"""Concrete differential operators between section spaces.

The symmetry breaking operator D_(m,l) acts on functions of x_1..x_n and
produces Pol^l-valued functions of x_1..x_{n-1}:

    D_(m,l) = Rest_{x_n=0} o d^m/dx_n^m  sum_{l in Xi'_l} d^l/dx^l  (x) ytilde_l.

The 1/l! normalization lives inside the basis labels ytilde_l, so the
component at label l is literally the mixed derivative.  An `SBO` holds
one constant-coefficient operator of arity n per label, which its
constructor checks.  Operators are kept as `Rest o (Weyl operator)` normal
forms: the coefficients of a normal-ordered operator sit left of all
derivatives, so restricting them to x_n = 0 is exact and composition
identities can be compared symbol by symbol.

Every kernel below works term by term and computes only what Rest keeps:

- `SBO.sums`: c d^alpha sends a term x^e to c e!/(e-alpha)! x^(e-alpha),
  which Rest keeps only if alpha <= e and alpha_n = e_n.
- The equivariance identity D o dpi_lambda(X) = dpi_target(X) o D.  On the
  left, d^alpha o (x^e d^beta) = sum_{gamma <= alpha} C(alpha, gamma)
  e!/(e-gamma)! x^(e-gamma) d^(alpha-gamma+beta) (Leibniz), and Rest keeps
  only the gamma with gamma_n = e_n (restricted Leibniz rule).  On the
  right, the target action has coefficients free of x_n and D constant
  coefficients, so (p d^beta) o (c d^alpha) = c p d^(alpha+beta) is a shift
  of derivative orders (shift rule), which Rest leaves as it is.
- `IDOOp.sums`, the order-k intertwining operator: a term c x^e goes to
  c e!/(e-alpha)! x^(e-alpha) at each label alpha <= e of degree k only.
- `ProjOp.sums`: the components at labels (l, m), restricted to x_n = 0.

Every kernel does its exponent arithmetic by mapping C functions over
the tuples: `all(map(operator.ge, e, alpha))` for alpha <= e,
`math.prod(map(math.perm, e, alpha))` for the falling factorials and
`tuple(map(operator.sub, e, alpha))` for x^(e-alpha).  The two label
enumerations they read are pure functions of exponent tuples, memoised
by a bounded `lru_cache` that hands out tuples of tuples, so no caller
can change a cached value:

- `_labels_below(e, k)`, keyed by (exponent, order), maxsize 4096: the
  factorization suite of the benchmark calls it 6,316 times on 2,282
  keys;
- `_restricted_leibniz(alpha, e)`, keyed by (derivative, exponent),
  maxsize 4096: the equivariance suite calls it 4,517 times on 1,390
  keys.

Clearing the filled memos after those suites frees about 1.1 MB and
0.5 MB (`tracemalloc`).

The operator kernels return {label: {monomial: coefficient}} sums, zeros
kept, and each `apply` is its kernel followed by the constructors, which
drop zeros.  The equivariance sides are term-level kernels too: each
returns, per label, the {alpha: {monomial: coefficient}} sums of a normal
form (both check that their operator acts on x, so the roles and arities
agree), and each label's sums are compared after `algebra.canonical_sums`;
Weyl operators and their difference are built only for the witness of a
failing label.  The factorization re-check feeds each basis monomial to
the kernels as {monomial: 1} and compares the routes' sums after
`algebra.canonical_sums`.  Route a (`SBO.sums`: d^(l, m) and
Rest in one step) and route c (`IDOOp.sums` at every label of degree
m + l, then `ProjOp.sums`) share no kernel, so each checks the other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from fractions import Fraction
from operator import add, ge, sub

from .algebra import (
    Polynomial,
    canonical_sums,
    monomial_basis,
    monomials_up_to,
    same_span,
)
from .liealg import parabolic
from .rep import (
    ScalarRepParams,
    TargetRepParams,
    VectorValuedPolynomial,
    dpi_lambda,
    dpi_target,
)
from .weyl import WeylElement, symb_inverse


@dataclass(frozen=True)
class SBO:
    """Rest_{x_n=0} after a tuple of constant-coefficient operators on R^n."""

    n: int
    components: tuple  # ((label, WeylElement), ...), labels in Xi'_l
    m: int = None
    ell: int = None

    def __post_init__(self):
        for lbl, op in self.components:
            if not (isinstance(lbl, tuple) and len(lbl) == self.n - 1):
                raise ValueError(f"label {lbl!r} is not an (n-1)-tuple")
            if not (
                isinstance(op, WeylElement)
                and op.arity == self.n
                and op.var == "x"
                and op.is_constant_coefficient()
            ):
                raise ValueError(
                    f"component at {lbl!r} is not a constant-coefficient x-operator of arity {self.n}"
                )

    @cached_property
    def constant_terms(self):
        """((label, ((alpha, c), ...)), ...): each component as c d^alpha terms."""
        return tuple(
            (lbl, tuple((alpha, p.constant_value()) for alpha, p in op.terms.items()))
            for lbl, op in self.components
        )

    def sums(self, f: dict) -> dict:
        """{label: {monomial: coefficient}} of Rest o D on the terms of f, zeros kept.

        Term by term: c d^alpha sends x^e to c e!/(e-alpha)! x^(e-alpha),
        kept by Rest only if alpha <= e and alpha_n = e_n."""
        sums = {}
        for lbl, terms in self.constant_terms:
            acc = sums[lbl] = {}
            for alpha, c in terms:
                for e, d in f.items():
                    if e[-1] != alpha[-1] or not all(map(ge, e, alpha)):
                        continue
                    fall = math.prod(map(math.perm, e, alpha))
                    mono = tuple(map(sub, e[:-1], alpha))
                    acc[mono] = acc[mono] + c * d * fall if mono in acc else c * d * fall
        return sums

    def apply(self, f: Polynomial) -> VectorValuedPolynomial:
        if f.arity != self.n:
            raise ValueError("arity mismatch")
        if f.var != "x":
            raise ValueError("variable role mismatch")
        return VectorValuedPolynomial.from_sums(self.n - 1, self.sums(f.terms), f.var)


def build_sbo(m: int, ell: int, n: int) -> SBO:
    """D_(m,l): component at ytilde_l is d^m/dx_n^m d^l/dx^l."""
    comps = []
    for lbl in monomial_basis(n - 1, ell):
        alpha = lbl + (m,)
        comps.append((lbl, WeylElement.derivative_monomial(n, alpha)))
    return SBO(n, tuple(comps), m, ell)


def sbo_from_solution(psi: VectorValuedPolynomial) -> SBO:
    """Rest o symb^{-1} applied to a Fourier-picture solution."""
    n = psi.arity
    comps = []
    for lbl, poly in psi.sorted_items():
        comps.append((lbl, symb_inverse(poly)))
    return SBO(n, tuple(comps))


@lru_cache(maxsize=4096)
def _labels_below(e, k):
    """(alpha, prod e_i!/(e_i - alpha_i)!) over the labels alpha <= e with |alpha| = k, a tuple."""
    out = [((), 0, 1)]
    later = sum(e)  # what the exponents after the current one can still take
    for ei in e:
        later -= ei
        out = [
            (alpha + (a,), used + a, fall * math.perm(ei, a))
            for alpha, used, fall in out
            for a in range(max(0, k - used - later), min(ei, k - used) + 1)
        ]
    return tuple((alpha, fall) for alpha, _, fall in out)


@dataclass(frozen=True)
class IDOOp:
    """The order-k intertwining operator on R^n (no restriction)."""

    n: int
    k: int

    def sums(self, comps: dict) -> dict:
        """{label: {monomial: coefficient}} of the operator on {label: terms}, zeros kept.

        Term by term: c x^e gives c e!/(e-alpha)! x^(e-alpha) at each label
        alpha <= e of degree k, shifted by the input label."""
        sums = {}
        for in_lbl, terms in comps.items():
            for e, c in terms.items():
                for alpha, fall in _labels_below(e, self.k):
                    acc = sums.setdefault(tuple(map(add, alpha, in_lbl)), {})
                    mono = tuple(map(sub, e, alpha))
                    acc[mono] = acc[mono] + c * fall if mono in acc else c * fall
        return sums

    def apply(self, f) -> VectorValuedPolynomial:
        """On a polynomial, or on a Pol^l-valued f label by label; each label must be an n-tuple."""
        if f.arity != self.n:
            raise ValueError("arity mismatch")
        if f.var != "x":
            raise ValueError("variable role mismatch")
        if isinstance(f, VectorValuedPolynomial):
            if any(len(lbl) != self.n for lbl in f.components):
                raise ValueError(f"label length differs from n = {self.n}")
            comps = {lbl: p.terms for lbl, p in f.components.items()}
        else:
            comps = {(0,) * self.n: f.terms}
        return VectorValuedPolynomial.from_sums(self.n, self.sums(comps))


def build_ido(k: int, n: int) -> IDOOp:
    return IDOOp(n, k)


@dataclass(frozen=True)
class ProjOp:
    """Component selection (m, l) for l in Xi'_l, then restriction to x_n = 0."""

    n: int
    m: int
    ell: int

    def sums(self, sums: dict) -> dict:
        """The {label: terms} at labels (l, m) with |l| = ell, restricted to x_n = 0."""
        k = self.m + self.ell
        return {
            lbl[:-1]: {mono[:-1]: c for mono, c in terms.items() if mono[-1] == 0}
            for lbl, terms in sums.items()
            if len(lbl) == self.n and lbl[-1] == self.m and sum(lbl) == k
        }

    def apply(self, v: VectorValuedPolynomial) -> VectorValuedPolynomial:
        """The input's own components at labels (l, m) with |l| = ell, restricted."""
        sums = self.sums({lbl: p.terms for lbl, p in v.components.items()})
        return VectorValuedPolynomial.from_sums(self.n - 1, sums, v.var)


def build_proj(m: int, ell: int, n: int) -> ProjOp:
    return ProjOp(n, m, ell)


# -- equivariance ---------------------------------------------------------------


@lru_cache(maxsize=4096)
def _restricted_leibniz(alpha, e):
    """(gamma, C(alpha, gamma) e!/(e-gamma)!) over the gamma <= alpha, e with gamma_n = e_n, a tuple.

    These are the terms of d^alpha o x^e that Rest_{x_n=0} keeps."""
    if e[-1] > alpha[-1]:
        return ()
    out = [((), 1)]
    for a, x in zip(alpha[:-1], e[:-1]):
        out = [
            (gamma + (g,), factor * math.comb(a, g) * math.perm(x, g))
            for gamma, factor in out
            for g in range(min(a, x) + 1)
        ]
    last = math.comb(alpha[-1], e[-1]) * math.factorial(e[-1])
    return tuple((gamma + (e[-1],), factor * last) for gamma, factor in out)


def _compose_sbo_after(D: SBO, op: WeylElement) -> dict:
    """{label: {alpha: {monomial: coefficient}}} sums of Rest o (D_l o op), zeros kept.

    By the restricted Leibniz rule: a term c d^alpha of D_l and a term
    x^e d^beta of op give c C(alpha, gamma) e!/(e-gamma)! x^(e-gamma)
    d^(alpha-gamma+beta) for the gamma of `_restricted_leibniz` only."""
    n = D.n
    if op.arity != n or op.var != "x":
        raise ValueError("operator must act on x_1..x_n")
    out = {}
    for lbl, terms in D.constant_terms:
        sums = {}
        for alpha, c in terms:
            for beta, q in op.terms.items():
                for e, d in q.terms.items():
                    cd = c * d
                    for gamma, factor in _restricted_leibniz(alpha, e):
                        key = tuple(map(add, map(sub, alpha, gamma), beta))
                        acc = sums.setdefault(key, {})
                        mono = tuple(map(sub, e, gamma))
                        acc[mono] = acc[mono] + cd * factor if mono in acc else cd * factor
        out[lbl] = sums
    return out


def _compose_target_before(T, D: SBO) -> dict:
    """{label: {alpha: {monomial: coefficient}}} sums of Rest o ((T o D)_l), zeros kept.

    By the shift rule: T acts on n-1 variables, so an entry term p d^beta
    composed with a term c d^alpha of D is c p d^(alpha+beta), already free
    of x_n."""
    n = D.n
    if T.arity != n - 1 or T.var != "x":
        raise ValueError("target action must act on x_1..x_{n-1}")
    comp_terms = dict(D.constant_terms)
    sums = {}
    for (out_lbl, in_lbl), entry in T.terms.items():
        terms = comp_terms.get(in_lbl)
        if terms is None:
            continue
        acc_out = sums.setdefault(out_lbl, {})
        for beta, p in entry.terms.items():
            for alpha, c in terms:
                key = tuple(map(add, alpha, beta)) + alpha[-1:]
                acc = acc_out.setdefault(key, {})
                for mono, d in p.terms.items():
                    padded = mono + (0,)
                    acc[padded] = acc[padded] + c * d if padded in acc else c * d
    return sums


def _restricted_witness(diff: WeylElement):
    """Monomial whose image under Rest o diff is nonzero, or None."""
    if diff.is_zero():
        return None
    n = diff.arity
    cap = diff.order() + max(p.degree() for p in diff.terms.values()) + 2
    for mono in monomials_up_to(n, cap):
        f = Polynomial.monomial(n, mono, 1)
        if not diff.apply(f).set_var_zero(n - 1).is_zero():
            return mono
    return None


def check_equivariance(
    D: SBO,
    source: ScalarRepParams,
    target: TargetRepParams,
    degree_cap: int = 6,
) -> dict:
    """Exact intertwining test: D o dpi(X) = dpi_target(X) o D for X in g'.

    Each label's normal forms are compared as canonical coefficient sums,
    which covers all polynomial degrees; the first mismatching label of an
    X is reported with a violating (X, monomial) witness.
    """
    if D.ell is not None and target.ell != D.ell:
        raise ValueError("target fiber degree must match the operator labels")
    pd = parabolic(source.n, source.flavor)
    violations = []
    for X in pd.g_basis(primed=True):
        lhs = _compose_sbo_after(D, dpi_lambda(X, source))
        rhs = _compose_target_before(dpi_target(X, target), D)
        for lbl in sorted(set(lhs) | set(rhs)):
            a, b = lhs.get(lbl, {}), rhs.get(lbl, {})
            if canonical_sums(a) != canonical_sums(b):
                witness = _restricted_witness(WeylElement.from_sums(D.n, a) - WeylElement.from_sums(D.n, b))
                violations.append(
                    {
                        "X": X.describe(),
                        "component": lbl,
                        "monomial": witness,
                    }
                )
                break
    return {
        "identity": "equivariance",
        "n": source.n,
        "m": D.m,
        "l": D.ell,
        "degree_cap": degree_cap,
        "status": "pass" if not violations else "fail",
        "violations": violations,
    }


# -- factorization ----------------------------------------------------------------


def verify_factorization_sbo(m: int, ell: int, n: int, degree_cap: int = 6) -> dict:
    """D_(m,l) = D'_l o D_(m,0) = Proj_(m,l) o D_{m+l}, exactly.

    Both identities are checked as normal forms and then re-checked by
    applying all three routes to every monomial of degree <= max(degree_cap,
    m + l); below degree m + l every route is 0, so a lower cap would
    check nothing.
    """
    D_ml = build_sbo(m, ell, n)
    D_m0 = build_sbo(m, 0, n)
    direct = {lbl: comp for lbl, comp in D_ml.components}

    # route 1: D'_l after D_(m,0); lift the (n-1)-variable operator
    route1 = {}
    dn_m = WeylElement.derivative_monomial(n, (0,) * (n - 1) + (m,))
    for lbl in monomial_basis(n - 1, ell):
        dprime = WeylElement.derivative_monomial(n - 1, lbl)
        route1[lbl] = dprime.pad_vars(n).compose(dn_m)

    # route 2: projection of D_{m+l}; component (l, m) of the big operator
    route2 = {
        lbl: WeylElement.derivative_monomial(n, lbl + (m,))
        for lbl in monomial_basis(n - 1, ell)
    }

    ok_ops = direct == route1 == route2

    mismatches = []
    checked = 0
    ido_big = build_ido(m + ell, n)
    ido_prime = build_ido(ell, n - 1)
    proj = build_proj(m, ell, n)
    zero_lbl = (0,) * (n - 1)
    for mono in monomials_up_to(n, max(degree_cap, m + ell)):
        f = {mono: 1}
        a = canonical_sums(D_ml.sums(f))
        b = canonical_sums(ido_prime.sums({zero_lbl: D_m0.sums(f)[zero_lbl]}))
        c = canonical_sums(proj.sums(ido_big.sums({(0,) * n: f})))
        checked += 1
        if not a == b == c:
            mismatches.append(mono)
    status = "pass" if ok_ops and not mismatches else "fail"
    return {
        "identity": "factorization",
        "n": n,
        "m": m,
        "l": ell,
        "degree_cap": degree_cap,
        "monomials_checked": checked,
        "status": status,
        "counterexample": mismatches[:1] or None,
    }


# -- images ------------------------------------------------------------------------


def fg_submodule(k: int, n: int, flavor="sl") -> dict:
    """Check that polynomials of degree < k form a dpi_{1-k}-stable subspace."""
    params = (
        ScalarRepParams.sl(n, Fraction(1 - k))
        if flavor == "sl"
        else ScalarRepParams.gl(n, Fraction(1 - k), Fraction(0))
    )
    pd = parabolic(n, flavor)
    failures = []
    for X in pd.g_basis():
        op = dpi_lambda(X, params)
        for mono in monomials_up_to(n, k - 1):
            if any(c and sum(m) >= k for m, c in op.sums({mono: 1}).items()):
                failures.append((X.describe(), mono))
    return {
        "identity": "fg-stability",
        "n": n,
        "k": k,
        "status": "pass" if not failures else "fail",
        "counterexample": failures[:1] or None,
    }


def image_computations(m: int, ell: int, n: int) -> dict:
    """Annihilation and image statements for the restricted operators.

    (a) D_(m,l) kills every polynomial of degree < m + l;
    (b) D_(m,0) maps {deg < m+l} exactly onto {deg < l} on R^{n-1};
    (c) the witness D_(m,0) x_n^m = m!;
    (d) graded surjectivity: D_(m,0)({deg <= d}) = {deg <= d-m}.
    """
    k = m + ell
    zero_lbl = (0,) * (n - 1)
    D_ml = build_sbo(m, ell, n)
    D_m0 = build_sbo(m, 0, n)
    kill_ok = all(not canonical_sums(D_ml.sums({mono: 1})) for mono in monomials_up_to(n, k - 1))

    def image(mono):
        # D_(m,0)'s one component on x^mono; sparse_rref drops its zeros
        return D_m0.sums({mono: 1})[zero_lbl]

    # at l = 0 there are no targets: every image must vanish
    images = [image(mono) for mono in monomials_up_to(n, k - 1)]
    image_ok = same_span(images, [{mono: 1} for mono in monomials_up_to(n - 1, ell - 1)])

    xnm = (0,) * (n - 1) + (m,)
    witness = canonical_sums(D_m0.sums({xnm: 1}))
    witness_ok = witness == {zero_lbl: {(0,) * (n - 1): math.factorial(m)}}

    surj_ok = True
    for d in range(m, m + 3):
        images_d = [image(mono) for mono in monomials_up_to(n, d)]
        tgt_d = [{mono: 1} for mono in monomials_up_to(n - 1, d - m)]
        if not same_span(images_d, tgt_d):
            surj_ok = False
    status = "pass" if (kill_ok and image_ok and witness_ok and surj_ok) else "fail"
    return {
        "identity": "images",
        "n": n,
        "m": m,
        "l": ell,
        "kills_finite_submodule": kill_ok,
        "image_is_lower_degrees": image_ok,
        "witness_m_factorial": witness_ok,
        "graded_surjectivity": surj_ok,
        "status": status,
    }
