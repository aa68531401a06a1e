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
x^mono coefficient is the i-th character of that term of the series, so
it is one `WeylElement`, added to each diagonal entry of base.
`_affine_parts` builds these pieces once per Lie element, algebra, number
of variables, fiber shape and picture (x, or its Fourier transform), with
one `induced_operator` call, for base; every builder below, and the Verma
action, assembles its operator from them through `affine_operator`.
`dpi_hat_parts` hands the Fourier-side pieces of the line bundle to the
engine as they are: the engine's record of an algebra and nilradical mode
reads them once per element, and a solve combines them with each
member's weights itself.

Operators are built from term sums: `induced_operator` sums each entry's
terms, and `affine_operator` each diagonal entry's base and weighted
parts, into {derivative key: {monomial: coefficient}} dicts and calls
each constructor once; an operator matrix (`OperatorOnVV`) has no
arithmetic of its own.

Lie elements are sparse (see `liealg`), so the series, the l-part split
and the m-action of `SymFiber` touch only nonzero entries.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache

from .algebra import Polynomial, add_terms, monomial_basis, monomial_key, rational, unit_monomial
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
        return cls(n, SL, (int(alpha) % 2,), (rational(lam),))

    @classmethod
    def gl(cls, n, lam1, lam2, alpha1=0, alpha2=0):
        return cls(
            n, GL, (int(alpha1) % 2, int(alpha2) % 2), (rational(lam1), rational(lam2))
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
        return cls(n, SL, (int(beta) % 2,), (rational(nu),), ell)

    @classmethod
    def gl(cls, n, nu1, nu2, ell=0, beta1=0, beta2=0):
        return cls(
            n, GL, (int(beta1) % 2, int(beta2) % 2), (rational(nu1), rational(nu2)), ell
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

    def labels(self):
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
            for k in self.labels():
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
        put(unit_monomial(num_x, k), Bk.scale(-1))
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
    labels = fiber.labels()
    lowering = {}  # the n_- part, the same on every label: {d_j: {x-monomial: coefficient}}
    l_part = {}  # {(out label, in label): {x-monomial: coefficient}}
    for mono, L in series.items():
        lower, middle, upper = pd.gn_project(L)
        # n_- part: -dR = -sum g_j(x) d_j ; dR(N_j^-) = d/dx_j
        for j in range(num_x):
            if lower[j + 1, 0]:
                lowering.setdefault(unit_monomial(num_x, j), {})[mono] = -lower[j + 1, 0]
        # components of n_- outside the active coordinates must vanish;
        # the n_+ part (`upper`) acts trivially in this picture
        for j in range(num_x + 1, pd.n + 1):
            if lower[j, 0]:
                raise ValueError("element leaves the active subalgebra")
        # l part: fiber action with polynomial coefficient x^mono
        for key, val in fiber.act(middle, pd).items():
            l_part.setdefault(key, {})[mono] = val
    # a label without an l part on its diagonal shares one n_- operator
    shared = WeylElement.from_sums(num_x, lowering)
    terms = {(lbl, lbl): shared for lbl in labels}
    for key, t in l_part.items():
        # order 0 against the n_- part's order 1: no derivative key is shared
        diagonal = shared.terms if key[0] == key[1] else {}
        terms[key] = WeylElement(num_x, {**diagonal, (0,) * num_x: Polynomial(num_x, t)})
    return OperatorOnVV(num_x, labels, labels, terms)


# -- the weights enter affinely ---------------------------------------------


@lru_cache(maxsize=None)
def _affine_parts(X: LieElement, pd: ParabolicData, num_x: int, shape, fourier: bool):
    """(base, part_1, .., part_k): the weight-free pieces of the action of X.

    `shape` is a fiber with every weight zero, so `base` is its
    `induced_operator`.  The characters act on the l-part L_mono of each
    term x^mono of the Ad series by scalars, so part_i, the operator at the
    unit weight e_i minus `base`, acts on every label alike: it is the one
    `WeylElement` of multiplication by p_i(x) = sum_mono w_i(L_mono) x^mono,
    with w_i the character weight at e_i; a fiber with weights w acts by
    base plus sum_i w_i part_i on each diagonal entry.  With `fourier` the
    same pieces are Fourier transformed, each once; the transform is linear.
    """
    base = induced_operator(X, pd, num_x, shape)
    # the characters read only the diagonal, where L and its l-part agree
    chars = {mono: characters(L, pd) for mono, L in _ad_series(X, pd, num_x).items()}
    parts = [
        WeylElement.from_sums(num_x, {(0,) * num_x: {mono: c[i] for mono, c in chars.items()}})
        for i in range(len(shape.weights))
    ]
    return tuple(op.fourier() for op in (base, *parts)) if fourier else (base, *parts)


def affine_operator(X: LieElement, pd: ParabolicData, num_x: int, fiber, fourier=False):
    """`induced_operator(X, pd, num_x, fiber)`, Fourier transformed with `fourier`.

    Assembled from the pieces `_affine_parts` builds once per (X, pd,
    num_x, fiber with zero weights), so a new weight costs one sum
    sum_i w_i part_i, added to every diagonal entry of the base.
    """
    shape = replace(fiber, weights=tuple(Fraction(0) for _ in fiber.weights))
    base, *parts = _affine_parts(X, pd, num_x, shape, fourier)
    weighted = {}  # sum_i w_i part_i: {derivative key: {monomial: coefficient}}
    for w, part in zip(fiber.weights, parts):
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
    base, *parts = _affine_parts(X, pd, pd.n, shape, True)
    return (base.scalar_entry(), *parts)


@lru_cache(maxsize=None)
def dpi_target(X: LieElement, params: TargetRepParams) -> OperatorOnVV:
    """Action of X in g' on target sections: (n-1 variables) tensor Pol^ell."""
    pd = parabolic(params.n, params.flavor)
    if not pd.in_g_prime(X):
        raise ValueError("dpi_target needs X in g'")
    fiber = SymFiber(params.ell, params.n - 1, params.nu, dual=True)
    return affine_operator(X, pd, params.n - 1, fiber)
