"""Infinitesimal representations on polynomial models.

The single engine is `induced_operator`: for X in g it evaluates the
noncompact-picture formula

    dpi(X) f = (fiber action of the l-part of Ad(nbar^{-1})X) f
               - dR((Ad(nbar^{-1})X)_{n_-}) f

symbolically in the coordinates x of n_-.  Because n_- is abelian the
Ad-series stops at the quadratic term, so the l-part and the n_--part are
matrices of polynomials of degree <= 2 and the result is a matrix of
exact Weyl operators over the fiber labels; for the scalar fiber
`SymFiber(0, 0, w)` of the line bundle it is one Weyl operator.

Weight bookkeeping: the A-characters are normalized by dchi(H0~) = 1 and,
for GL, dchi2(J0) = 1.  The representation dpi_lambda uses the inducing
weight itself; the dual-twisted dpi_lambda_star uses 2rho - lambda, where
2rho = (n+1) on H0~ and -1 on J0.  With this normalization the Fourier
transform of dpi_lambda_star(N_j^+) satisfies, on degree-k polynomials,

    -zeta_j o dpi_hat(N_j^+) = (lambda - 1 + k) * theta_j,

the identity every classification below rests on.

The weights enter affinely: the fiber acts on the l-part through the
characters, so induced_operator(X, .., fiber with weights w) equals
base + sum_i w_i part_i, where base is the operator at weight 0 and part_i
the operator at the unit weight e_i minus base.  part_i is read off the
Ad series directly: it multiplies every label by the polynomial whose
x^mono coefficient is the i-th character of that term of the series.
`_affine_parts` builds these pieces once per Lie element, algebra, number
of variables, fiber shape and picture (x, or its Fourier transform), with
one `induced_operator` call, for base; every builder below, and the Verma
action, assembles its operator from them through `affine_operator`, with
the `+` and `scale` of `OperatorOnVV`.  `dpi_hat_parts` hands the
Fourier-side pieces of the line bundle to the engine as they are: the
engine's record of an algebra and nilradical mode reads them once per
element, and a solve combines them with each member's weights itself.

Lie elements are sparse (see `liealg`), so the series, the l-part split
and the m-action of `SymFiber` touch only nonzero entries.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache

from .algebra import Polynomial, monomial_basis, monomial_key
from .liealg import GL, SL, LieElement, ParabolicData, bracket, parabolic
from .weyl import DUAL_VAR, WeylElement


@dataclass(frozen=True)
class ScalarRepParams:
    """Parameters (alpha, lambda) of the line-bundle representation.

    Sign characters are parities: 0 for +, 1 for -.  For GL both `alpha`
    and `lam` are pairs.
    """

    n: int
    flavor: str = SL
    alpha: tuple = (0,)
    lam: tuple = (Fraction(0),)

    @classmethod
    def sl(cls, n, lam, alpha=0):
        return cls(n, SL, (int(alpha) % 2,), (Fraction(lam),))

    @classmethod
    def gl(cls, n, lam1, lam2, alpha1=0, alpha2=0):
        return cls(
            n, GL, (int(alpha1) % 2, int(alpha2) % 2), (Fraction(lam1), Fraction(lam2))
        )

    def dual_weights(self):
        """2rho - lambda, the inducing weight of the pairing-dual bundle."""
        pd = parabolic(self.n, self.flavor)
        return tuple(r - l for r, l in zip(pd.two_rho(), self.lam))


@dataclass(frozen=True)
class TargetRepParams:
    """Parameters (beta, varpi = poly^ell, nu) of the target bundle on RP^{n-1}."""

    n: int
    flavor: str = SL
    beta: tuple = (0,)
    nu: tuple = (Fraction(0),)
    ell: int = 0

    @classmethod
    def sl(cls, n, nu, ell=0, beta=0):
        return cls(n, SL, (int(beta) % 2,), (Fraction(nu),), ell)

    @classmethod
    def gl(cls, n, nu1, nu2, ell=0, beta1=0, beta2=0):
        return cls(
            n, GL, (int(beta1) % 2, int(beta2) % 2), (Fraction(nu1), Fraction(nu2)), ell
        )


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

    def __add__(self, other):
        terms = dict(self.terms)
        for k, w in other.terms.items():
            terms[k] = terms[k] + w if k in terms else w
        return OperatorOnVV(self.arity, self.in_labels, self.out_labels, terms, self.var)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, s):
        terms = {k: w.scale(s) for k, w in self.terms.items()}
        return OperatorOnVV(self.arity, self.in_labels, self.out_labels, terms, self.var)

    def apply(self, v: VectorValuedPolynomial) -> VectorValuedPolynomial:
        comps = {}
        for (out, inp), op in self.terms.items():
            p = v.components.get(inp)
            if p is None:
                continue
            q = op.apply(p)
            comps[out] = comps[out] + q if out in comps else q
        return VectorValuedPolynomial(self.arity, comps, self.var)

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
    """(dchi(L)[, dchi2(L)]): what each character weight of a fiber scales; dchi2 for GL only."""
    return (L[0, 0], L.trace()) if pd.flavor == GL else (L[0, 0],)


@dataclass(frozen=True)
class SymFiber:
    """S^degree of the m-block (natural action) or its dual (poly picture).

    `block` is the number of block coordinates: n-1 for the primed pair,
    n for the full one.  Characters act along (dchi [, dchi2]) with the
    given weights; the m-part acts by the derivation representation on
    monomials e^k, or minus its transpose on the dual basis ytilde.
    The scalar fiber of a line bundle is `SymFiber(0, 0, weights)`: S^0
    over an empty block, one label `()`, on which only the characters act.
    """

    degree: int
    block: int
    weights: tuple
    dual: bool = False

    def labels(self, pd):
        return monomial_basis(self.block, self.degree)

    def weight(self, L: LieElement, pd: ParabolicData) -> Fraction:
        """Scalar by which the characters of L act on every label."""
        return sum(w * c for w, c in zip(self.weights, characters(L, pd)))

    def act(self, L: LieElement, pd: ParabolicData) -> dict:
        """Action of L on the labels, as {(out label, in label): coefficient}.

        The m-part does not depend on the character weights, so it is
        built once per (degree, block, dual, L, pd) and shared by every
        fiber with those data; the weight is added on the diagonal of a
        fresh copy.
        """
        out = dict(self.m_action(L, pd))
        weight = self.weight(L, pd)
        if weight:
            for k in self.labels(pd):
                out[(k, k)] = out.get((k, k), Fraction(0)) + weight
            out = {k: v for k, v in out.items() if v}
        return out

    def m_action(self, L: LieElement, pd: ParabolicData) -> dict:
        """The m-part of `act`, without the character weight.

        Shared between calls and fibers: callers must not mutate it.
        """
        return _sym_m_action(self.degree, self.block, self.dual, L, pd)


@lru_cache(maxsize=1024)
def _sym_m_action(degree, block, dual, L: LieElement, pd: ParabolicData) -> dict:
    """The m-part of SymFiber.act: the action with every character weight zero.

    Shared between calls: `act` copies it before adding the weight, and
    `m_action` returns it as it is.
    """
    c1 = L[0, 0]
    Z = L.sub((pd.h0_tilde_prime if block == pd.n - 1 else pd.h0_tilde).scale(c1))
    if pd.flavor == GL:
        Z = Z.sub((pd.j0_prime if block == pd.n - 1 else pd.j0).scale(L.trace()))
    # the nonzero entries B[i][j] of the block, 0-based, in (j, i) order
    B = sorted(
        (j - 1, i - 1, b)
        for i in range(1, block + 1)
        for j, b in Z.entries[i]
        if 1 <= j <= block
    )
    out = {}
    for k in monomial_basis(block, degree):
        for j, i, b in B:
            if k[j]:
                coeff = k[j] * b
                kk = list(k)
                kk[j] -= 1
                kk[i] += 1
                kk = tuple(kk)
                key = (k, kk) if dual else (kk, k)
                sgn = -coeff if dual else coeff
                out[key] = out.get(key, Fraction(0)) + sgn
    return {k: v for k, v in out.items() if v}


# -- the engine --------------------------------------------------------------


@lru_cache(maxsize=None)
def _ad_series(X: LieElement, pd: ParabolicData, num_x: int):
    """Ad(exp(-sum x_k N_k^-)) X as {x-monomial: LieElement}.

    n_- is abelian, so the series stops at the quadratic term
    X - sum_k x_k [N_k^-, X] + 1/2 sum_{k,l} x_k x_l [N_k^-, [N_l^-, X]].
    """
    series = {(0,) * num_x: X}

    def put(mono, elt):
        if elt.is_zero():
            return
        cur = series.get(mono)
        series[mono] = elt if cur is None else cur.add(elt)

    lowers = [pd.n_minus(k) for k in range(1, num_x + 1)]
    firsts = [bracket(N, X) for N in lowers]
    for k, Bk in enumerate(firsts):
        put(_unit_alpha(num_x, k), Bk.scale(-1))
    for k, N in enumerate(lowers):
        for l, Bl in enumerate(firsts):
            if Bl.is_zero():
                continue
            mono = [0] * num_x
            mono[k] += 1
            mono[l] += 1
            put(tuple(mono), bracket(N, Bl).scale(Fraction(1, 2)))
    return {m: e for m, e in series.items() if not e.is_zero()}


def induced_operator(X: LieElement, pd: ParabolicData, num_x: int, fiber) -> OperatorOnVV:
    """The noncompact-picture action of X on polynomials tensor fiber."""
    series = _ad_series(X, pd, num_x)
    labels = fiber.labels(pd)
    var = "x"
    terms = {}

    def add(key, op):
        terms[key] = terms[key] + op if key in terms else op

    for mono, L in series.items():
        lower, middle, upper = pd.gn_project(L)
        # n_- part: -dR = -sum g_j(x) d_j ; dR(N_j^-) = d/dx_j
        for j in range(1, num_x + 1):
            g = lower[j, 0]
            if g:
                op = WeylElement(
                    num_x,
                    {
                        _unit_alpha(num_x, j - 1): Polynomial.monomial(num_x, mono, -g, var)
                    },
                    var,
                )
                for lbl in labels:
                    add((lbl, lbl), op)
        # components of n_- outside the active coordinates must vanish;
        # the n_+ part (`upper`) acts trivially in this picture
        for j in range(num_x + 1, pd.n + 1):
            if lower[j, 0]:
                raise ValueError("element leaves the active subalgebra")
        # l part: fiber action with polynomial coefficient x^mono
        for (out, inp), val in fiber.act(middle, pd).items():
            op = WeylElement(
                num_x,
                {(0,) * num_x: Polynomial.monomial(num_x, mono, val, var)},
                var,
            )
            add((out, inp), op)
    return OperatorOnVV(num_x, labels, labels, terms, var)


def _unit_alpha(arity, index):
    a = [0] * arity
    a[index] = 1
    return tuple(a)


# -- the weights enter affinely ---------------------------------------------


@lru_cache(maxsize=None)
def _affine_parts(X: LieElement, pd: ParabolicData, num_x: int, shape, fourier: bool):
    """(base, part_1, .., part_k): the weight-free pieces of the action of X.

    `shape` is a fiber with every weight zero, so `base` is its
    `induced_operator`.  The characters act on the l-part L_mono of each
    term x^mono of the Ad series by scalars, so part_i, the operator at the
    unit weight e_i minus `base`, is multiplication by
    p_i(x) = sum_mono w_i(L_mono) x^mono on every label, with w_i the
    character weight at e_i; a fiber with weights w acts by
    base + sum_i w_i part_i.  With `fourier` the same pieces are Fourier
    transformed; the transform is linear.
    """
    labels = shape.labels(pd)
    parts = [induced_operator(X, pd, num_x, shape)]
    # the characters read only the diagonal, where L and its l-part agree
    chars = {mono: characters(L, pd) for mono, L in _ad_series(X, pd, num_x).items()}
    for i in range(len(shape.weights)):
        p = Polynomial(num_x, {mono: c[i] for mono, c in chars.items()}, "x")
        op = WeylElement(num_x, {(0,) * num_x: p}, "x")
        parts.append(OperatorOnVV(num_x, labels, labels, {(lbl, lbl): op for lbl in labels}))
    return tuple(op.fourier() for op in parts) if fourier else tuple(parts)


def affine_operator(X: LieElement, pd: ParabolicData, num_x: int, fiber, fourier=False):
    """`induced_operator(X, pd, num_x, fiber)`, Fourier transformed with `fourier`.

    Assembled from the pieces `_affine_parts` builds once per (X, pd,
    num_x, fiber with zero weights), so a new weight costs one linear
    combination.
    """
    shape = replace(fiber, weights=tuple(Fraction(0) for _ in fiber.weights))
    op, *parts = _affine_parts(X, pd, num_x, shape, fourier)
    for w, part in zip(fiber.weights, parts):
        if w:
            op = op + part.scale(w)
    return op


# -- public builders ----------------------------------------------------------


def _check_in_g(X: LieElement, pd: ParabolicData):
    if X.size != pd.size:
        raise ValueError("element size does not match the algebra")
    if pd.flavor == SL and X.trace() != 0:
        raise ValueError("sl element must be traceless")


def _scalar_action(X: LieElement, params: ScalarRepParams, weights, fourier=False):
    pd = parabolic(params.n, params.flavor)
    _check_in_g(X, pd)
    return affine_operator(X, pd, params.n, SymFiber(0, 0, weights), fourier).scalar_entry()


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
    shape = SymFiber(0, 0, tuple(Fraction(0) for _ in pd.two_rho()))
    return tuple(op.scalar_entry() for op in _affine_parts(X, pd, pd.n, shape, True))


@lru_cache(maxsize=None)
def dpi_target(X: LieElement, params: TargetRepParams) -> OperatorOnVV:
    """Action of X in g' on target sections: (n-1 variables) tensor Pol^ell."""
    pd = parabolic(params.n, params.flavor)
    if not pd.in_g_prime(X):
        raise ValueError("dpi_target needs X in g'")
    fiber = SymFiber(params.ell, params.n - 1, params.nu, dual=True)
    return affine_operator(X, pd, params.n - 1, fiber)
