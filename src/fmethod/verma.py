"""Fourier-picture generalized Verma modules and their homomorphisms.

A Verma module induced from the dual of the (varpi, nu) bundle is modelled
as Pol(zeta_1..zeta_N) tensor fiber, N = n or n-1, with g acting through
the Fourier transform of the dual-twisted induced representation.  Under
this model N_j^- acts as multiplication by zeta_j, so the classical
generator picture and the polynomial picture coincide monomial by monomial
and the highest-weight parameter s corresponds to the inducing weight -s.

Homomorphisms are stored by the images of the fiber generators and extended
by multiplication with the source polynomial ring: the one kernel,
`VermaHom.sums`, sums the products into a {monomial: coefficient} dict per
output label, and `apply` builds the vector from it.  Intertwining is then
an exact identity grade by grade.  Both checks feed each basis vector as
{label: {monomial: 1}} to kernels and compare their sums after
`algebra.canonical_sums`: `check_hom_equivariance` h(X v) against X h(v),
through the actions' `OperatorOnVV.sums` (and `gamma_sums` for the
signs), and the factorization re-check the three routes, which read
different images, so each checks the others.  Every side runs through
the one `VermaHom.sums`, so both also require every monomial of an image
to have the target's arity.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .algebra import Polynomial, add_product, canonical_sums, monomial_basis, rational
from .engine import DEFAULT_SAMPLES, classify
from .liealg import SL, parabolic
from .params import sign_shift
from .rep import SymFiber, VectorValuedPolynomial, affine_operator


@dataclass(frozen=True)
class VermaModule:
    """Pol(zeta) tensor S^k fiber with the Fourier-transformed dual action.

    `nu_ind` is the inducing weight of the underlying bundle, so the
    highest weight of the module is -nu_ind; `signs` are the M-parities.
    """

    n: int
    flavor: str = SL
    primed: bool = False
    fiber_degree: int = 0
    nu_ind: tuple = (Fraction(0),)
    signs: tuple = (0,)

    @classmethod
    def of(cls, n, primed, k, u, flavor=SL, sign=(), u2=None):
        """S^k fiber over rank n-1 (primed) or n, inducing weight -u (and -u2 for GL).

        `sign` gives the parities of the leading characters; the rest are +.
        """
        nu = (-rational(u),) if flavor == SL else (-rational(u), -rational(u2))
        return cls(n, flavor, primed, k, nu, tuple(sign) + (0,) * (len(nu) - len(sign)))

    @classmethod
    def scalar(cls, n, s, flavor=SL, sign=(), s2=None):
        return cls.of(n, False, 0, s, flavor, sign, s2)

    @classmethod
    def scalar_primed(cls, n, r, flavor=SL, sign=(), r2=None):
        return cls.of(n, True, 0, r, flavor, sign, r2)

    @classmethod
    def fiber_primed(cls, n, k, u, flavor=SL, sign=(), u2=None):
        return cls.of(n, True, k, u, flavor, sign, u2)

    @property
    def num_vars(self):
        return self.n - 1 if self.primed else self.n

    @property
    def pd(self):
        return parabolic(self.n, self.flavor)

    def dual_weights(self):
        rho2 = self.pd.two_rho_prime() if self.primed else self.pd.two_rho()
        return tuple(r - x for r, x in zip(rho2, self.nu_ind, strict=True))

    @property
    def fiber_block(self):
        """Block coordinates of the fiber: none for the scalar fiber S^0."""
        return self.num_vars if self.fiber_degree else 0

    def fiber_labels(self):
        return monomial_basis(self.fiber_block, self.fiber_degree)

    def action(self, X):
        return _verma_action(self, X)

    def basis(self, grade):
        """(zeta-monomial, fiber label) pairs of one grade."""
        return [
            (mono, lbl)
            for mono in monomial_basis(self.num_vars, grade)
            for lbl in self.fiber_labels()
        ]

    def unit(self, mono, lbl) -> VectorValuedPolynomial:
        return VectorValuedPolynomial(
            self.num_vars,
            {tuple(lbl): Polynomial.monomial(self.num_vars, mono, 1, "zeta")},
            "zeta",
        )

    def gamma_sums(self, gamma, comps: dict) -> dict:
        """{label: {monomial: coefficient}} of a component-group generator on {label: terms}.

        gamma negates the term zeta^m tensor e_label when the character's
        parity at gamma, the label's exponents over the fiber mask and m
        over the zeta mask sum to an odd number.
        """
        pd = self.pd
        char = sum(a * c for a, c in zip(self.signs, pd.sign_coefficients(gamma, self.num_vars)))
        zeta, fiber = pd.sign_masks(gamma, self.num_vars, self.fiber_block)
        out = {}
        for lbl, terms in comps.items():
            bits = char + sum(lbl[j] for j in fiber)
            out[lbl] = {
                mono: -c if (bits + sum(mono[j] for j in zeta)) % 2 else c
                for mono, c in terms.items()
            }
        return out


@lru_cache(maxsize=None)
def _verma_action(module: VermaModule, X):
    fiber = SymFiber(module.fiber_degree, module.fiber_block)
    return affine_operator(X, module.pd, module.num_vars, fiber, module.dual_weights(), fourier=True)


@dataclass(frozen=True)
class VermaHom:
    """Map determined by fiber-generator images, extended U(n_-)-linearly."""

    source: VermaModule
    target: VermaModule
    images: tuple  # ((source label, VectorValuedPolynomial in target model), ...)

    def image_map(self):
        return dict(self.images)

    def sums(self, comps: dict) -> dict:
        """{label: {monomial: coefficient}} of h(v) for v's {label: terms}, zeros kept.

        The source monomials gain the target's extra variables, unused."""
        imap = self.image_map()
        pad = (0,) * (self.target.num_vars - self.source.num_vars)
        sums = {}
        for lbl, terms in comps.items():
            padded = {mono + pad: c for mono, c in terms.items()}
            for out_lbl, p in imap[lbl].components.items():
                add_product(sums.setdefault(out_lbl, {}), p.terms, padded)
        return sums

    def apply(self, v: VectorValuedPolynomial) -> VectorValuedPolynomial:
        if v.arity != self.source.num_vars:
            raise ValueError("arity mismatch")
        nv = self.target.num_vars
        sums = self.sums({lbl: p.terms for lbl, p in v.components.items()})
        # built in v's role, so a source vector not in zeta is rejected
        return VectorValuedPolynomial(
            nv, {lbl: Polynomial(nv, t, v.var) for lbl, t in sums.items()}, "zeta"
        )


def _module(n, primed, k, u, flavor, parity, lam2) -> VermaModule:
    """A source or target of Phi, phi_k and Emb: S^k over rank r = n-1 (primed) or n.

    For GL the second weight is lam2 - k/r and the second sign +.
    """
    rank = n - 1 if primed else n
    return VermaModule.of(n, primed, k, u, flavor, (parity,), Fraction(k, rank) - lam2)


def _monomial_hom(src: VermaModule, tgt: VermaModule, m=0) -> VermaHom:
    """e_l goes to zeta^l, times zeta_n^m when the target has one variable more."""
    nv = tgt.num_vars
    images = []
    for lbl in src.fiber_labels():
        mono = (lbl or (0,) * src.num_vars) + (m,) * (nv - src.num_vars)
        images.append(
            (lbl, VectorValuedPolynomial(nv, {(): Polynomial.monomial(nv, mono, 1, "zeta")}, "zeta"))
        )
    return VermaHom(src, tgt, tuple(images))


def build_phi(m: int, ell: int, n: int, flavor=SL, alpha=0, lam2=Fraction(0)) -> VermaHom:
    """Phi_(m,ell): fiber generator e_l goes to zeta_n^m zeta^l."""
    beta = sign_shift(alpha, m + ell)
    src = _module(n, True, ell, -1 - Fraction(ell, n - 1), flavor, beta, lam2)
    tgt = _module(n, False, 0, m + ell - 1, flavor, alpha, lam2)
    return _monomial_hom(src, tgt, m)


def build_phi_k(k: int, n: int, flavor=SL, alpha=0, lam2=Fraction(0), primed=False) -> VermaHom:
    """phi_k (or phi'_k on the primed pair): e_k goes to zeta^k."""
    rank = n - 1 if primed else n
    src = _module(n, primed, k, -1 - Fraction(k, rank), flavor, sign_shift(alpha, k), lam2)
    tgt = _module(n, primed, 0, k - 1, flavor, alpha, lam2)
    return _monomial_hom(src, tgt)


def build_emb(m: int, ell: int, n: int, flavor=SL, alpha=0, lam2=Fraction(0)) -> VermaHom:
    """Emb~_(m,ell): e_l goes to the grade-0 fiber vector e_(m,l)."""
    beta = sign_shift(alpha, m + ell)
    src = _module(n, True, ell, -1 - Fraction(ell, n - 1), flavor, beta, lam2)
    tgt = _module(n, False, m + ell, -1 - Fraction(m + ell, n), flavor, beta, lam2)
    images = []
    for lbl in src.fiber_labels():
        big = (lbl or (0,) * (n - 1)) + (m,)
        out_lbl = big if tgt.fiber_degree > 0 else ()
        images.append(
            (lbl, VectorValuedPolynomial(n, {out_lbl: Polynomial.one(n, "zeta")}, "zeta"))
        )
    return VermaHom(src, tgt, tuple(images))


def hom_from_solution(psi: VectorValuedPolynomial, src: VermaModule, tgt: VermaModule) -> VermaHom:
    """F_c^{-1} of a Fourier-picture solution: images are its components.

    A scalar source takes psi's one component, at whichever label the
    solver used; an S^k source takes the component at each of its labels.
    A component that no source label takes is a ValueError.
    """
    comps = psi.components
    if src.fiber_degree == 0:
        if len(comps) > 1:
            raise ValueError("a scalar source takes one component of the solution")
        comps = {(): p for p in comps.values()}
    elif not set(comps) <= set(src.fiber_labels()):
        raise ValueError("the solution has a component at a label the source does not have")
    zero = Polynomial.zero(tgt.num_vars, "zeta")
    return VermaHom(src, tgt, tuple(
        (lbl, VectorValuedPolynomial(tgt.num_vars, {(): comps.get(lbl, zero)}, "zeta"))
        for lbl in src.fiber_labels()
    ))


def check_hom_equivariance(h: VermaHom, degree_cap: int = 3) -> dict:
    """h intertwines the actions of g' (g if the source is unprimed), exactly.

    The infinitesimal check runs over the standard basis on all source
    elements of grade <= degree_cap; the disconnected part of P' is checked
    as the gamma-sign condition on the fiber generators.  Both compare
    kernel sums; an action that cannot take the source or the target model
    raises the ValueError that `OperatorOnVV.apply` would.
    """
    pd = h.source.pd
    primed = h.source.primed
    sv, nv = h.source.num_vars, h.target.num_vars

    def differ(lhs, image, act):
        # a fault of VermaHom.sums that both sides share (say, unpadded
        # source monomials) shows only in the arities; act reads only an
        # image of the target's arity
        return (
            any(len(x) != nv for sums in (lhs, image) for terms in sums.values() for x in terms)
            or canonical_sums(lhs) != canonical_sums(act(image))
        )

    vectors = [(g, mono, lbl) for g in range(degree_cap + 1) for mono, lbl in h.source.basis(g)]
    units = [{lbl: {mono: 1}} for _, mono, lbl in vectors]
    images = [h.sums(v) for v in units]  # h(v) does not depend on X
    violations = []
    for X in pd.g_basis(primed=primed):
        srcop = h.source.action(X)
        tgtop = h.target.action(X)
        srcop.require_input(sv, "zeta")
        tgtop.require_input(nv, "zeta")
        for (g, mono, lbl), v, hv in zip(vectors, units, images):
            if differ(h.sums(srcop.sums(v)), hv, tgtop.sums):
                violations.append({"X": X.describe(), "grade": g, "vector": (mono, lbl)})
                break
    sign_violations = []
    for gamma in pd.gamma_elements(primed=primed):
        for lbl in h.source.fiber_labels():
            v = {lbl: {(0,) * sv: 1}}
            lhs = h.sums(h.source.gamma_sums(gamma, v))
            if differ(lhs, h.sums(v), lambda hv: h.target.gamma_sums(gamma, hv)):
                sign_violations.append({"gamma": gamma.describe(), "label": lbl})
    status = "pass" if not violations and not sign_violations else "fail"
    return {
        "identity": "hom-equivariance",
        "degree_cap": degree_cap,
        "status": status,
        "violations": violations,
        "sign_violations": sign_violations,
    }


def _factorization_routes(
    m: int, ell: int, n: int, flavor=SL, alpha=0, lam2=Fraction(0)
) -> tuple:
    """Phi_(m,l) and its two factorizations: ((phi'_l, Phi_(m,0)), (Emb~_(m,l), phi_{m+l})).

    Phi_(m,0) is the monomial map from the target of phi'_l into that of
    Phi_(m,l).  Each pair must compose (the first map's target is the
    second's source) and run from the source to the target of Phi_(m,l),
    else ValueError.
    """
    phi_ml = build_phi(m, ell, n, flavor, alpha, lam2)
    phi_prime = build_phi_k(ell, n, flavor, sign_shift(alpha, m), lam2, primed=True)
    routes = (
        (phi_prime, _monomial_hom(phi_prime.target, phi_ml.target, m)),
        (build_emb(m, ell, n, flavor, alpha, lam2), build_phi_k(m + ell, n, flavor, alpha, lam2)),
    )
    for first, second in routes:
        if (first.source, first.target, second.target) != (phi_ml.source, second.source, phi_ml.target):
            raise ValueError("a factorization route of Phi_(m,l) does not compose")
    return phi_ml, routes


def verify_factorization_verma(
    m: int, ell: int, n: int, degree_cap: int = 3, flavor=SL, alpha=0, lam2=Fraction(0)
) -> dict:
    """Phi_(m,l) = Phi_(m,0) o phi'_l = phi_{m+l} o Emb~_(m,l), three routes."""
    phi_ml, ((phi_prime, phi_m0), (emb, phi_big)) = _factorization_routes(
        m, ell, n, flavor, alpha, lam2
    )
    nv = phi_ml.target.num_vars
    mismatches = []
    checked = 0
    for g in range(degree_cap + 1):
        for mono, lbl in phi_ml.source.basis(g):
            v = {lbl: {mono: 1}}
            direct = canonical_sums(phi_ml.sums(v))
            route1 = canonical_sums(phi_m0.sums(phi_prime.sums(v)))
            route2 = canonical_sums(phi_big.sums(emb.sums(v)))
            checked += 1
            # every route runs through VermaHom.sums, so a fault there that
            # they share (say, unpadded source monomials) shows only in the
            # arity of the image's monomials
            if not direct == route1 == route2 or any(
                len(x) != nv for terms in direct.values() for x in terms
            ):
                mismatches.append((g, mono, lbl))
    return {
        "identity": "verma-factorization",
        "n": n,
        "m": m,
        "l": ell,
        "degree_cap": degree_cap,
        "vectors_checked": checked,
        "status": "pass" if not mismatches else "fail",
        "counterexample": mismatches[:1] or None,
    }


def classify_homs(
    n,
    connected=False,
    m_max=3,
    l_max=3,
    s_samples=DEFAULT_SAMPLES,
) -> list:
    """Classification of (g',P')- or g'-homomorphisms via the duality mirror."""
    return classify(
        n, m_max=m_max, l_max=l_max, lambda_samples=s_samples, homs=True, connected=connected
    )
