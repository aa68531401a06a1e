"""Infinitesimal representations on polynomial models.

The single engine is `induced_operator`: for X in g it evaluates the
noncompact-picture formula

    dpi(X) f = (fiber action of the l-part of Ad(nbar^{-1})X) f
               - dR((Ad(nbar^{-1})X)_{n_-}) f

symbolically in the coordinates x of n_-.  Because n_- is abelian,
Ad(exp(-sum_k x_k N_k^-))X = (I - U) X (I + U) with U = sum_k x_k E_{k+1,1}
and U^2 = 0, so `_conjugate` reads every entry M_ij(x), a polynomial of
degree <= 2, off the sparse rows of X in one pass.  The n_--part is
column 0; the characters are the corner M_00 and, for GL, the trace; and
one kernel, `_fiber_terms`, gives the fiber action of the l-part, linear
in the block entries Z_ij = M_ij - delta_ij (M_00 h0~[i, i]
+ tr X J0[i, i]): it sends e^k to k_j Z_ij e^{k - e_j + e_i}, and the
dual fiber uses the transpose, negated.  The result is a matrix of exact
Weyl operators over the fiber labels; for the scalar fiber
`SymFiber(0, 0)` of the line bundle it is one Weyl operator.  The same
kernel, with no variable, is `SymFiber.act` on a constant element.

Weight bookkeeping: the A-characters are normalized by dchi(H0~) = 1 and,
for GL, dchi2(J0) = 1.  The representation dpi_lambda uses the inducing
weight itself; the dual-twisted dpi_lambda_star uses 2rho - lambda, where
2rho = (n+1) on H0~ and -1 on J0.  With this normalization the Fourier
transform of dpi_lambda_star(N_j^+) satisfies, on degree-k polynomials,

    -zeta_j o dpi_hat(N_j^+) = (lambda - 1 + k) * theta_j,

the identity every classification below rests on.

The weights enter affinely: a fiber is its shape, `induced_operator` is
the action at weight 0 (base), and the characters with weights w act on
the l-part by sum_i w_i part_i, where part_i multiplies every label by the
i-th character, M_00(x) or tr X: one `WeylElement`, added to each diagonal
entry of base.  `_affine_parts` builds these pieces once per Lie element,
algebra, number of variables, fiber and picture (x, or its Fourier
transform), with one `induced_operator` call, for base, and the
characters read off row 0 of X; `affine_operator` is the one place where
weights meet an action, and every builder below, and the Verma action,
assembles its operator through it.
`dpi_hat_parts` hands the Fourier-side pieces of the line bundle to the
engine as they are: the engine's record of an algebra and nilradical mode
reads them once per element, and a solve combines them with each
member's weights itself.

Operators are built from term sums: `induced_operator` sums each entry's
terms, and `affine_operator` each diagonal entry's base and weighted
parts, into {derivative key: {monomial: coefficient}} dicts and calls
each constructor once; an operator matrix (`OperatorOnVV`) has no
arithmetic of its own.

Lie elements are sparse (see `liealg`), so the closed form and the fiber
kernel touch only nonzero entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .algebra import (
    Polynomial, add_product, add_terms, exact, monomial_basis, monomial_key, unit_monomial,
)
from .liealg import GL, SL, LieElement, ParabolicData, parabolic
from .weyl import DUAL_VAR, WeylElement


@dataclass(frozen=True)
class ScalarRepParams:
    """Parameters (alpha, lambda) of the line-bundle representation.

    Sign characters are parities: 0 for +, 1 for -.  For GL both `alpha`
    and `lam` are pairs.  `sl` and `gl` put lambda in the `exact` normal
    form, an `int` when integral and a `Fraction` otherwise, so an
    integral lambda and its dual weights compute in `int`s.
    """

    n: int
    flavor: str = SL
    alpha: tuple = (0,)
    lam: tuple = (0,)

    @classmethod
    def sl(cls, n, lam, alpha=0):
        return cls(n, SL, (int(alpha) % 2,), (exact(lam),))

    @classmethod
    def gl(cls, n, lam1, lam2, alpha1=0, alpha2=0):
        return cls(n, GL, (int(alpha1) % 2, int(alpha2) % 2), (exact(lam1), exact(lam2)))

    def dual_weights(self):
        """2rho - lambda, the inducing weight of the pairing-dual bundle."""
        pd = parabolic(self.n, self.flavor)
        return tuple(r - l for r, l in zip(pd.two_rho(), self.lam))


@dataclass(frozen=True)
class TargetRepParams:
    """Parameters (beta, varpi = poly^ell, nu) of the target bundle on RP^{n-1}; nu as `exact`."""

    n: int
    flavor: str = SL
    beta: tuple = (0,)
    nu: tuple = (0,)
    ell: int = 0

    @classmethod
    def sl(cls, n, nu, ell=0, beta=0):
        return cls(n, SL, (int(beta) % 2,), (exact(nu),), ell)

    @classmethod
    def gl(cls, n, nu1, nu2, ell=0, beta1=0, beta2=0):
        return cls(n, GL, (int(beta1) % 2, int(beta2) % 2), (exact(nu1), exact(nu2)), ell)


class VectorValuedPolynomial:
    """Element of (polynomials in `arity` vars) tensor (fiber basis labels)."""

    __slots__ = ("arity", "components", "var")

    def __init__(self, arity, components=None, var="x"):
        self.arity = arity
        self.var = var
        clean = {}
        if components:
            for label, poly in components.items():
                if poly.var != var:
                    raise ValueError(f"variable role mismatch: {poly.var} vs {var}")
                if poly.arity != arity:
                    raise ValueError("component arity mismatch")
                if not poly.is_zero():
                    clean[tuple(label)] = poly
        self.components = clean

    @classmethod
    def zero(cls, arity, var="x"):
        return cls(arity, {}, var)

    @classmethod
    def from_sums(cls, arity, sums, var="x"):
        """A kernel's {label: {monomial: coefficient}} sums as a vector; the constructors drop zeros."""
        return cls(arity, {lbl: Polynomial(arity, t, var) for lbl, t in sums.items()}, var)

    def is_zero(self):
        return not self.components

    def __add__(self, other):
        comps = dict(self.components)
        for lbl, p in other.components.items():
            comps[lbl] = comps[lbl] + p if lbl in comps else p
        return VectorValuedPolynomial(self.arity, comps, self.var)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, s):
        return VectorValuedPolynomial(
            self.arity, {l: p.scale(s) for l, p in self.components.items()}, self.var
        )

    def __eq__(self, other):
        if not isinstance(other, VectorValuedPolynomial):
            return NotImplemented
        return (
            self.arity == other.arity
            and self.var == other.var
            and self.components == other.components
        )

    def sorted_items(self):
        return sorted(
            self.components.items(), key=lambda kv: monomial_key(kv[0]), reverse=True
        )

    def __str__(self):
        if not self.components:
            return "0"
        bits = []
        for label, poly in self.sorted_items():
            if label and any(label):
                ylabel = "*".join(
                    f"y{i + 1}" + (f"^{e}" if e > 1 else "")
                    for i, e in enumerate(label)
                    if e
                )
                bits.append(f"({poly})*{ylabel}")
            elif label:
                bits.append(f"({poly})")
            else:
                bits.append(str(poly))
        return " + ".join(bits)

    __repr__ = __str__


class OperatorOnVV:
    """Matrix of Weyl operators acting on VectorValuedPolynomial."""

    __slots__ = ("arity", "in_labels", "out_labels", "terms", "var")

    def __init__(self, arity, in_labels, out_labels, terms, var="x"):
        self.arity = arity
        self.in_labels = tuple(in_labels)
        self.out_labels = tuple(out_labels)
        for w in terms.values():
            if w.var != var:
                raise ValueError(f"variable role mismatch: {w.var} vs {var}")
            if w.arity != arity:
                raise ValueError("component arity mismatch")
        self.terms = {k: w for k, w in terms.items() if not w.is_zero()}
        self.var = var

    def sums(self, comps: dict) -> dict:
        """{label: {monomial: coefficient}} of self on {label: terms}, zeros kept."""
        out = {}
        for (lbl, inp), op in self.terms.items():
            terms = comps.get(inp)
            if terms is not None:
                op.sums(terms, out.setdefault(lbl, {}))
        return out

    def require_input(self, arity, var):
        """ValueError unless a vector of this arity and variable role can be an input."""
        if arity != self.arity:
            raise ValueError("arity mismatch")
        if var != self.var:
            raise ValueError("variable role mismatch")

    def apply(self, v: VectorValuedPolynomial) -> VectorValuedPolynomial:
        """self(v); ValueError on a component at a label outside `in_labels`, which `sums` would drop."""
        self.require_input(v.arity, v.var)
        if not set(v.components).issubset(self.in_labels):
            raise ValueError("vector has a component at a label the operator does not take")
        sums = self.sums({lbl: p.terms for lbl, p in v.components.items()})
        return VectorValuedPolynomial.from_sums(self.arity, sums, self.var)

    def fourier(self):
        terms = {k: w.fourier() for k, w in self.terms.items()}
        return OperatorOnVV(
            self.arity, self.in_labels, self.out_labels, terms, DUAL_VAR[self.var]
        )

    def entry(self, out, inp) -> WeylElement:
        return self.terms.get((tuple(out), tuple(inp)), WeylElement.zero(self.arity, self.var))

    def scalar_entry(self) -> WeylElement:
        if self.in_labels != ((),) or self.out_labels != ((),):
            raise ValueError("not a scalar operator")
        return self.entry((), ())


# -- fibers ----------------------------------------------------------------


def characters(L: LieElement, pd: ParabolicData) -> tuple:
    """(dchi(L)[, dchi2(L)]): the characters of L that the weights scale; dchi2 for GL only."""
    return (L[0, 0], L.trace()) if pd.flavor == GL else (L[0, 0],)


@dataclass(frozen=True)
class SymFiber:
    """S^degree of the m-block (natural action) or its dual (poly picture).

    `block` is the number of block coordinates: n-1 for the primed pair,
    n for the full one.  The m-part acts by the derivation representation
    on monomials e^k, or minus its transpose on the dual basis ytilde; the
    characters (dchi [, dchi2]) act through their weights in
    `affine_operator` alone.  The scalar fiber of a line bundle is
    `SymFiber(0, 0)`: S^0 over an empty block, one label `()`, on which
    the m-part is zero.
    """

    degree: int
    block: int
    dual: bool = False

    def labels(self):
        return monomial_basis(self.block, self.degree)

    def act(self, L: LieElement, pd: ParabolicData) -> dict:
        """The m-part of L's action on the labels, as a fresh {(out label, in label): coefficient}.

        `_fiber_terms` with no x-variable, each coefficient read off its
        one term as an `exact` scalar.
        """
        terms = _fiber_terms(self, *_conjugate(L, 0), pd)
        return {key: exact(t[()]) for key, t in terms.items() if t.get(())}


def _fiber_terms(fiber: SymFiber, M, chars, pd: ParabolicData) -> dict:
    """{(out label, in label): {x-monomial: coefficient}}: the fiber acting on the l-part of M.

    M and `chars`, the characters (M_00, tr M) as term dicts, are what
    `_conjugate` returns.  The m-part sends e^k to sum_ij k_j Z_ij
    e^{k - e_j + e_i} over the block entries Z_ij = M_ij - delta_ij
    (M_00 h0~[i, i] + tr M J0[i, i]), with h0~', J0' on the primed block
    and the J0 term for GL only; the dual fiber uses the transpose,
    negated.  Cancelled sums stay as 0.
    """
    primed = fiber.block == pd.n - 1
    h = pd.h0_tilde_prime if primed else pd.h0_tilde
    j0 = (pd.j0_prime if primed else pd.j0) if pd.flavor == GL else None
    Z = {}  # {(j, i): Z_ij}, 0-based block indices
    for i in range(1, fiber.block + 1):
        Z.update(((j - 1, i - 1), t) for j, t in M[i].items() if 1 <= j <= fiber.block)
        diagonal = Z[i - 1, i - 1] = dict(Z.get((i - 1, i - 1), {}))
        add_terms(diagonal, chars[0], -h[i, i])
        if j0 is not None:
            add_terms(diagonal, chars[1], -j0[i, i])
    Z = sorted(Z.items())
    out = {}
    for k in fiber.labels():
        for (j, i), t in Z:
            if k[j]:
                kk = list(k)
                kk[j] -= 1
                kk[i] += 1
                kk = tuple(kk)
                key, c = ((k, kk), -k[j]) if fiber.dual else ((kk, k), k[j])
                add_terms(out.setdefault(key, {}), t, c)
    return out


# -- the engine --------------------------------------------------------------


def _conjugate(X: LieElement, num_x: int) -> tuple:
    """(M, chars): M = Ad(exp(-sum_k x_k N_k^-)) X as rows {column: {x-monomial: coefficient}}.

    n_- is abelian: with U = sum_k x_k E_{k+1,1}, U^2 = 0, so the series
    is (I - U) X (I + U).  With P = X (I + U), whose column 0 gains
    sum_k X_ik x_k, M_ij = P_ij - x_i P_0j: every entry has degree <= 2,
    and only column 0 reaches degree 2.  `chars` are the characters
    (M_00, tr M = tr X) as term dicts.
    """
    zero = (0,) * num_x
    P = []
    for row in X.entries:
        p = {j: {zero: v} for j, v in row}
        p.setdefault(0, {}).update((unit_monomial(num_x, j - 1), v) for j, v in row if 0 < j <= num_x)
        P.append(p)
    for i, p in enumerate(P[1 : num_x + 1]):
        minus_x = {unit_monomial(num_x, i): -1}
        for j, t in P[0].items():
            add_product(p.setdefault(j, {}), minus_x, t)
    return P, _characters(X, num_x)


def _characters(X: LieElement, num_x: int) -> tuple:
    """The characters (M_00, tr X) of `_conjugate` as term dicts.

    Row 0 of M is row 0 of X (I + U), so M_00 = X_00 + sum_k X_0k x_k.
    """
    zero = (0,) * num_x
    corner = {zero: X[0, 0]} if X[0, 0] else {}
    corner.update((unit_monomial(num_x, j - 1), v) for j, v in X.entries[0] if 0 < j <= num_x)
    return corner, {zero: X.trace()}


def induced_operator(X: LieElement, pd: ParabolicData, num_x: int, fiber) -> OperatorOnVV:
    """The noncompact-picture action of X on polynomials tensor fiber."""
    M, chars = _conjugate(X, num_x)
    lowering = {}  # the n_- part, the same on every label: {d_j: {x-monomial: coefficient}}
    for i in range(1, pd.n + 1):
        column = M[i].get(0, {})
        if any(column.values()):
            # components of n_- outside the active coordinates must vanish
            if i > num_x:
                raise ValueError("element leaves the active subalgebra")
            # -dR = -sum g_j(x) d_j ; dR(N_j^-) = d/dx_j
            lowering[unit_monomial(num_x, i - 1)] = {m: -c for m, c in column.items()}
    # the n_+ part (row 0) acts trivially in this picture
    labels = fiber.labels()
    # a label without an l part on its diagonal shares one n_- operator
    shared = WeylElement.from_sums(num_x, lowering)
    terms = {(lbl, lbl): shared for lbl in labels}
    for key, t in _fiber_terms(fiber, M, chars, pd).items():
        # order 0 against the n_- part's order 1: no derivative key is shared
        diagonal = shared.terms if key[0] == key[1] else {}
        terms[key] = WeylElement(num_x, {**diagonal, (0,) * num_x: Polynomial(num_x, t)})
    return OperatorOnVV(num_x, labels, labels, terms)


# -- the weights enter affinely ---------------------------------------------


@lru_cache(maxsize=None)
def _affine_parts(X: LieElement, pd: ParabolicData, num_x: int, fiber: SymFiber, fourier: bool):
    """(base, part_1[, part_2]): the weight-free pieces of the action of X on `fiber`.

    `base` is `induced_operator`, the action at weight 0.  The characters
    act on the l-part by the scalars (M_00(x)[, tr X]), one per character
    of pd's flavor as `characters` counts them, so part_i acts on every
    label alike: it is the one `WeylElement` of multiplication by the i-th
    of them.  With `fourier` the same pieces are Fourier transformed, each
    once; the transform is linear.
    """
    base = induced_operator(X, pd, num_x, fiber)
    chars = _characters(X, num_x)[: len(characters(X, pd))]
    parts = [WeylElement.from_sums(num_x, {(0,) * num_x: c}) for c in chars]
    return tuple(op.fourier() for op in (base, *parts)) if fourier else (base, *parts)


def affine_operator(X: LieElement, pd: ParabolicData, num_x: int, fiber, weights, fourier=False):
    """The action of X on polynomials tensor `fiber` with character weights `weights`.

    base + sum_i w_i part_i, Fourier transformed with `fourier`, from the
    pieces `_affine_parts` builds once per (X, pd, num_x, fiber), so a
    new weight costs one sum sum_i w_i part_i, added to every diagonal
    entry of the base.  The one place where weights meet an action.
    """
    base, *parts = _affine_parts(X, pd, num_x, fiber, fourier)
    weighted = {}  # sum_i w_i part_i: {derivative key: {monomial: coefficient}}
    for w, part in zip(weights, parts):
        if w:
            for alpha, p in part.terms.items():
                add_terms(weighted.setdefault(alpha, {}), p.terms, w)
    if not weighted:
        return base
    terms = dict(base.terms)
    for lbl in base.in_labels:
        entry = dict(base.entry(lbl, lbl).terms)
        for alpha, t in weighted.items():
            sums = dict(entry[alpha].terms) if alpha in entry else {}
            add_terms(sums, t)
            entry[alpha] = Polynomial(base.arity, sums, base.var)
        terms[(lbl, lbl)] = WeylElement(base.arity, entry, base.var)
    return OperatorOnVV(base.arity, base.in_labels, base.out_labels, terms, base.var)


# -- public builders ----------------------------------------------------------


def _check_in_g(X: LieElement, pd: ParabolicData):
    if X.size != pd.size:
        raise ValueError("element size does not match the algebra")
    if pd.flavor == SL and X.trace() != 0:
        raise ValueError("sl element must be traceless")


def _scalar_action(X: LieElement, params: ScalarRepParams, weights, fourier=False):
    pd = parabolic(params.n, params.flavor)
    _check_in_g(X, pd)
    return affine_operator(X, pd, params.n, SymFiber(0, 0), weights, fourier).scalar_entry()


@lru_cache(maxsize=None)
def dpi_lambda(X: LieElement, params: ScalarRepParams) -> WeylElement:
    """Action of X on the source line bundle, coordinates x_1..x_n."""
    return _scalar_action(X, params, params.lam)


@lru_cache(maxsize=None)
def dpi_lambda_star(X: LieElement, params: ScalarRepParams) -> WeylElement:
    """Dual-twisted action (inducing weight 2rho - lambda)."""
    return _scalar_action(X, params, params.dual_weights())


@lru_cache(maxsize=None)
def dpi_hat(X: LieElement, params: ScalarRepParams) -> WeylElement:
    """Fourier transform of dpi_lambda_star: the Verma-side action on Pol(zeta)."""
    return _scalar_action(X, params, params.dual_weights(), fourier=True)


def dpi_hat_parts(X: LieElement, pd: ParabolicData) -> tuple:
    """(base, part_1[, part_2]): the weight-free pieces of `dpi_hat` at X.

    dpi_hat(X, params) = base + sum_i w_i part_i with w =
    params.dual_weights(), for every params of the algebra `pd`.  Not
    cached itself: the engine's record of an algebra and nilradical mode
    reads it once per element, and `_affine_parts` under it is cached.
    """
    _check_in_g(X, pd)
    base, *parts = _affine_parts(X, pd, pd.n, SymFiber(0, 0), True)
    return (base.scalar_entry(), *parts)


@lru_cache(maxsize=None)
def dpi_target(X: LieElement, params: TargetRepParams) -> OperatorOnVV:
    """Action of X in g' on target sections: (n-1 variables) tensor Pol^ell."""
    pd = parabolic(params.n, params.flavor)
    if not pd.in_g_prime(X):
        raise ValueError("dpi_target needs X in g'")
    fiber = SymFiber(params.ell, params.n - 1, dual=True)
    return affine_operator(X, pd, params.n - 1, fiber, params.nu)
