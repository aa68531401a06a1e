"""The F-method engine: equivariant spaces, the F-system, classification scans.

The solution space Sol(n_+; V, W) is the space of solutions of the F-system
(the F-method of T. Kobayashi and M. Pevzner, "Differential symmetry
breaking operators I", Selecta Math. 22, 2016).  It is computed literally:
take all pairs (zeta-monomial, fiber label), impose the l'-equivariance and
the component group sign condition by exact linear algebra, then intersect
with the kernel of the F-system operators dpi_hat(N^+) tensor id over the
primed (or, in full-nilradical mode, the whole) nilpotent radical.

Both stages are solved on generators; m' below reads m in full-nilradical
mode, and n_+' reads n_+.

* Equivariance under m' is imposed through its simple raising operators
  E_{i,i+1} alone.  Every candidate psi already has m'-weight 0, because
  the diagonal conditions come first.  m' preserves degree, so each degree
  piece tensor the fiber is a finite-dimensional m'-module, and a weight-0
  vector that every simple raising operator kills is a maximal vector.  It
  spans a trivial submodule, so all of m' kills it (J. E. Humphreys,
  "Introduction to Lie Algebras and Representation Theory", sections 20-21).
* The F-system is imposed through N_1^+ alone.  If psi is m'-invariant and
  dpi_hat(N_1^+) psi = 0, then dpi_hat([Y, N_1^+]) psi = 0 for every Y in
  m': dpi_hat is a Lie homomorphism (criterion 8 certifies it) and
  dpi_hat(N_1^+) tensor 1 commutes with the fiber action.  n_+' is an
  irreducible m'-module, so this reaches every N_j^+.

The independent checks (`operators.check_equivariance`,
`verma.check_hom_equivariance`, the Lie-homomorphism certificate and
`branch.invariants_in`) keep the full bases.

Diagonal constraints (the A'-weights, the Cartan of m', the gamma signs)
act diagonally on monomial pairs, so they are solved by enumeration: each
diagonal element's eigenvalue on zeta^m is an affine form c0 + c . m in the
exponents, read from the normal form of its operator, and the pairs of a
degree are the monomials whose integer-scaled weights and sign parities key
a fiber label.  Degrees whose A'-weight range holds no label are not
enumerated at all.  What remains goes through two exact sparse nullspaces
per homogeneous degree (equivariance, then the F-system).  Each piece is
built at the level it depends on:

* per algebra and nilradical mode, once per process: one `_LieData`
  record with every lambda-free piece of a solve.  Every operator a solve
  reads is dpi_hat(X) = base + sum_i w_i part_i, w = 2rho - lambda, and
  the record reads each element's weight-free pieces from
  `rep.dpi_hat_parts` once: the raising operators of m', which have no
  weight part, so they are the bases themselves, and N_1^+'s (base,
  part_1[, part_2]), each piece with its memo of monomial images; for
  each diagonal element, c0 of each piece, its integer form and scale;
  and whether every weight part's c0_i equals the character chi_i;
* per scan: every monomial's key at a degree, cached by the integer forms
  and the gamma masks, which do not depend on lambda, nu or the fiber;
* per lambda-family (the cells at a fixed gap nu - lambda): one solve
  context, built from the first member (`_SolveContext`): the record with
  the fiber (the raising pairs, the gamma parities, each diagonal
  element's shift fiber weight - c0 with c0 = c0(base) + sum_i w_i
  c0(part_i)), the label keys from the weight-free m-action of the fiber
  plus the shifts, then the unknowns and the equivariant vectors
  (`solve_family`);
* per member: only a check and its weights w.  The check asks for the
  first member's n, flavor, signs and l and the same gap in every
  component.  Along the gap a shift moves by sum_i lambda_i (c0_i -
  chi_i), so a family of two or more members also needs the record's
  c0_i = chi_i.  A member combines the memoized images of N_1^+'s pieces
  with w for its F-system and nullspace.

Output bases are RREF-canonical in the graded-lex coordinate order, so
every scan is reproducible byte for byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache

from .algebra import (
    Polynomial,
    monomial_basis,
    rref_basis,
    same_span,
    sparse_nullspace,
)
from .liealg import GL, SL, parabolic
from .params import (
    GLTuple,
    SLQuadruple,
    in_lambda_gl,
    in_lambda_sl,
    in_lambda_sl_connected,
    predicted_dim_ido,
    record_dim,
    sign_shift,
    sign_str,
)
from .rep import (
    ScalarRepParams,
    SymFiber,
    TargetRepParams,
    VectorValuedPolynomial,
    characters,
    dpi_hat_parts,
)


@dataclass
class EquivariantSpace:
    """Basis of Hom_{M'A'}(W^v, Pol(n_+) tensor V^v) in one homogeneous degree."""

    source: ScalarRepParams
    target: TargetRepParams
    degree: int
    unknowns: list
    basis_vectors: list  # sparse {index into `unknowns`: coefficient} vectors
    connected: bool = False
    full_nilradical: bool = False

    @property
    def basis(self):
        return [_vector_to_vvp(v, self.unknowns, self.source.n) for v in self.basis_vectors]

    @property
    def dim(self):
        return len(self.basis_vectors)


@dataclass
class SolutionSpace:
    """Joint kernel of the F-system inside the equivariant space."""

    source: ScalarRepParams
    target: TargetRepParams
    basis: list  # VectorValuedPolynomial, zeta variables
    degrees: list
    provenance: dict = field(default_factory=dict)

    @property
    def dim(self):
        return len(self.basis)


def _vector_to_vvp(vec, unknowns, arity) -> VectorValuedPolynomial:
    """The VVP of a sparse vector over `unknowns`, built in column order."""
    comps = {}
    for col in sorted(vec):
        mono, lbl = unknowns[col]
        comps.setdefault(lbl, {})[mono] = vec[col]
    return VectorValuedPolynomial(
        arity, {l: Polynomial(arity, t, "zeta") for l, t in comps.items()}, "zeta"
    )


def _add_entry(rows, key, col, value):
    row = rows.setdefault(key, {})
    row[col] = row.get(col, Fraction(0)) + value


def _eigenvalue_form(op):
    """(c0, [c_1, .., c_n]) with op(zeta^m) = (c0 + sum_j c_j m_j) zeta^m.

    Read off the normal form: a term p(zeta) d^alpha maps every monomial to
    a multiple of itself only when p = c zeta^alpha, and then acts on zeta^m
    by c times the falling power m^(alpha), which is affine for |alpha| <= 1.
    """
    c0 = Fraction(0)
    coeffs = [Fraction(0)] * op.arity
    for alpha, p in op.terms.items():
        if set(p.terms) != {alpha}:
            raise ValueError("diagonal element acted off-diagonally")
        order = sum(alpha)
        if order > 1:
            raise ValueError("diagonal element has a non-affine eigenvalue")
        c = p.terms[alpha]
        if order == 0:
            c0 = c
        else:
            coeffs[alpha.index(1)] = c
    return c0, coeffs


def _image(piece, mono) -> dict:
    """A piece (operator, memo) of a `_LieData` applied to zeta^mono, as {monomial: coefficient}.

    Applied once per (piece, monomial) while the record lives, and shared
    through the memo, so not to be mutated.
    """
    op, images = piece
    image = images.get(mono)
    if image is None:
        image = images[mono] = op.apply(Polynomial.monomial(op.arity, mono, 1, "zeta")).terms
    return image


@dataclass(frozen=True, eq=False)
class _LieData:
    """Every lambda-free piece of a solve, shared by every context of one algebra and nilradical mode.

    The element lists, then what a solve reads of them (`of` builds it).
    dpi_hat(X, source) = base + sum_i w_i part_i with w = 2rho - lambda,
    and each operator below is paired with its {monomial: image} memo, as a
    piece `(operator, memo)` that `_image` reads.
    """

    diag: tuple  # H0~' (H0~ in full mode), J0' (J0) for GL, the Cartan of m' (m)
    raising: tuple  # the simple raising operators E_{i,i+1} of m' (m)
    gammas: tuple  # generators of the component group of M' (M)
    n_plus: tuple  # N_1^+ alone: it generates n_+' (n_+) as an m'- (m-)module
    raising_ops: tuple  # the piece of each raising element: its base, as it has no weight part
    fsystem: tuple  # the pieces (base, part_1[, part_2]) of each n_plus element
    constants: tuple  # per diagonal element, c0 of each of its pieces
    forms: tuple  # per diagonal element, its coefficients c times its scale
    scales: tuple  # per diagonal element, the lcm of the denominators of c
    lambda_free: bool  # does every diagonal element have c0_i = chi_i (`rep.characters`)?

    @classmethod
    def of(cls, pd, diag, raising, gammas, n_plus):
        """The record of these element lists of the algebra `pd`.

        Each element's `dpi_hat_parts` are read once.  No character sees a
        raising element Z (Z[0, 0] = 0 and trace 0), so a weight part there
        is a ValueError.  A diagonal element's operator has the eigenvalue
        form (c0_base + sum_i w_i c0_i, c): every piece must act diagonally,
        and a weight part only by a scalar, else ValueError.
        """
        raising_ops = []
        for Z in raising:
            base, *parts = dpi_hat_parts(Z, pd)
            if any(not part.is_zero() for part in parts):
                raise ValueError("a raising operator of m' has a weight part")
            raising_ops.append((base, {}))
        constants, forms, scales = [], [], []
        for Z in diag:
            (c0, coeffs), *parts = map(_eigenvalue_form, dpi_hat_parts(Z, pd))
            if any(any(c) for _, c in parts):
                raise ValueError("a weight part of a diagonal element is not a scalar")
            constants.append((c0, *(c for c, _ in parts)))
            scales.append(math.lcm(*(c.denominator for c in coeffs)))
            forms.append(tuple(int(c * scales[-1]) for c in coeffs))
        return cls(
            diag, raising, gammas, n_plus, tuple(raising_ops),
            tuple(tuple((op, {}) for op in dpi_hat_parts(N, pd)) for N in n_plus),
            tuple(constants), tuple(forms), tuple(scales),
            all(c[1:] == characters(Z, pd) for Z, c in zip(diag, constants)),
        )


@lru_cache(maxsize=None)
def _lie_data(pd, full_nilradical) -> _LieData:
    """The `_LieData` of an algebra and nilradical mode, built once per process."""
    primed = not full_nilradical
    diag = [pd.h0_tilde if full_nilradical else pd.h0_tilde_prime]
    if pd.flavor == GL:
        diag.append(pd.j0 if full_nilradical else pd.j0_prime)
    diag.extend(pd.m_cartan(primed=primed))
    top = pd.n if primed else pd.n + 1
    return _LieData.of(
        pd,
        tuple(diag),
        tuple(pd.unit(i, i + 1) for i in range(2, top)),
        tuple(pd.gamma_elements(primed=primed)),
        (pd.n_plus(1),),
    )


@lru_cache(maxsize=None)
def _gamma_parities(pd, full_nilradical, alpha, beta, ell):
    """(masks, parities): the component group conditions, which read only signs and labels.

    For each generator gamma, its mask holds the coordinates where gamma
    acts on zeta by -1; `parities[label]` holds, per generator, the parity
    of m summed over the mask that a pair (zeta^m, label) needs.
    """
    block = pd.n if full_nilradical else pd.n - 1
    labels = monomial_basis(block, ell)
    masks, parities = [], {lbl: () for lbl in labels}
    for gamma in _lie_data(pd, full_nilradical).gammas:
        g0 = gamma[0, 0]
        ad = [gamma[j, j] * g0 for j in range(1, pd.n + 1)]
        v_side = pd.sign_character(gamma, alpha, pd.n)
        w_side = pd.sign_character(gamma, beta, block)
        masks.append(tuple(j for j, a in enumerate(ad) if a < 0))
        # The fiber transforms by the block entries themselves (no Ad twist).
        # Every sign is +-1, so  w_side * fiber sign == v_side * ad^m  fixes
        # the parity of m summed over the coordinates where ad is -1.
        for lbl in labels:
            fiber_sign = math.prod(gamma[j + 1, j + 1] ** lbl[j] for j in range(block))
            parities[lbl] += (int(w_side * v_side * fiber_sign < 0),)
    return tuple(masks), parities


@lru_cache(maxsize=64)
def _monomial_keys(n, degree, forms, masks):
    """(monomial, key) for every monomial of one degree, in `monomial_basis` order.

    A monomial's key is its value under each integer form, then its parity
    over each gamma mask.  Forms and masks do not depend on lambda, nu or
    the fiber, so a whole scan shares these lists.  A scan holds one entry
    per (degree, engine mode) it reaches: 5 to 16 on the benchmark workloads,
    21 on SL n = 3 with m, l <= 8, so 64 keeps a scan's working set.
    """
    return tuple(
        (mono, tuple(sum(c * e for c, e in zip(form, mono)) for form in forms)
         + tuple(sum(mono[j] for j in mask) % 2 for mask in masks))
        for mono in monomial_basis(n, degree)
    )


class _SolveContext:
    """One lambda-family's solve: its mode's `_LieData`, the fiber and the first member's weights.

    The members of a family differ only in lambda at a fixed gap nu - lambda.
    Everything built here but `weights`, the first member's 2rho - lambda,
    serves every member: the raising pairs (each raising piece with the
    fiber's action), the gamma parities and each diagonal element's shift
    (fiber weight - c0).  A further member brings only its weights, from
    `member_weights`, which checks that it belongs to the family; the
    F-system stage reads nothing else of a member.

    A pair (zeta^m, label) is kept when every diagonal element has the same
    eigenvalue on zeta^m as on the label, and every component group
    generator the same sign.  Each condition is scaled to an integer
    equation  form . m == scale * (m-part eigenvalue on the label + shift);
    the gamma signs become parities of m over the coordinates where gamma
    acts by -1.  The label keys are built on first use.
    """

    def __init__(self, source, target, connected=False, full_nilradical=False):
        self.source = source
        self.target = target
        self.n = source.n
        self.pd = pd = parabolic(source.n, source.flavor)
        self.fiber = SymFiber(
            target.ell, self.n if full_nilradical else self.n - 1, tuple(-x for x in target.nu)
        )
        self.lie = lie = _lie_data(pd, full_nilradical)
        self._two_rho = pd.two_rho()
        self.weights = self._weights(source)
        self.raising = tuple(
            (piece, self.fiber.m_action(Z, pd)) for Z, piece in zip(lie.raising, lie.raising_ops)
        )
        # c0 = c0(base) + sum_i w_i c0(part_i)
        self._shifts = tuple(
            self.fiber.weight(Z, pd) - c0 - sum(w * c for w, c in zip(self.weights, weight_c0))
            for Z, (c0, *weight_c0) in zip(lie.diag, lie.constants)
        )
        self._gamma_masks, self._parities = ((), {}) if connected else _gamma_parities(
            pd, full_nilradical, source.alpha, target.beta, target.ell
        )

    def _weights(self, source):
        """A member's `dual_weights`, 2rho - lambda, with 2rho read once per family."""
        return tuple(r - lam for r, lam in zip(self._two_rho, source.lam))

    @staticmethod
    def _family_data(source, target):
        """What every member shares: n, flavor, alpha, beta, ell and the gap nu - lambda."""
        gap = tuple(nu - lam for nu, lam in zip(target.nu, source.lam))
        return source.n, source.flavor, source.alpha, target.beta, target.ell, gap

    def member_weights(self, source, target):
        """A further member's weights w = 2rho - lambda, once it is checked to be one.

        It must share `_family_data` with the first member, and the shifts
        must not move along the gap, else ValueError.  With nu = lambda +
        gap and w = 2rho - lambda, a diagonal element Z's shift is const +
        sum_i lambda_i (c0_i(Z) - chi_i(Z)), chi_i the characters that the
        fiber weights scale and c0_i the scalar of Z's i-th weight part; so
        the shifts stay put exactly when the record is `lambda_free`.
        """
        if (
            self._family_data(source, target) != self._family_data(self.source, self.target)
            or not self.lie.lambda_free
        ):
            raise ValueError("a lambda-family's members differ in a lambda-independent stage")
        return self._weights(source)

    @cached_property
    def _keys(self):
        """{key: labels}: the labels under their integer targets, then gamma parities."""
        fiber, pd = self.fiber, self.pd
        labels = fiber.labels(pd)
        targets = {lbl: [] for lbl in labels}
        for Z, scale, shift in zip(self.lie.diag, self.lie.scales, self._shifts):
            acts = fiber.m_action(Z, pd)
            if any(k[0] != k[1] for k in acts):
                raise ValueError("fiber action of a diagonal element is not diagonal")
            shift *= scale
            for lbl in labels:
                targets[lbl].append(acts.get((lbl, lbl), 0) * scale + shift)
        out = {}
        for lbl in labels:
            # a non-integral target is met by no monomial
            if all(t.denominator == 1 for t in targets[lbl]):
                key = tuple(int(t) for t in targets[lbl]) + self._parities.get(lbl, ())
                out.setdefault(key, []).append(lbl)
        return out

    # -- enumeration ----------------------------------------------------------

    def unknowns_at_degree(self, degree):
        """The (monomial, label) pairs of one degree that meet every diagonal condition.

        Listed in descending graded-lex order of (monomial, label): the
        monomials come from `monomial_basis` and each key's labels keep the
        order of `fiber.labels`, both descending.
        """
        forms, labels_by_key = self.lie.forms, self._keys
        lo, hi = degree * min(forms[0]), degree * max(forms[0])
        if not any(lo <= key[0] <= hi for key in labels_by_key):
            return []
        out = []
        for mono, key in _monomial_keys(self.n, degree, forms, self._gamma_masks):
            out.extend((mono, lbl) for lbl in labels_by_key.get(key, ()))
        return out

    # -- linear stages ------------------------------------------------------

    def equivariant_vectors(self, unknowns):
        """Kernel of the equivariance constraints under the raising operators of m'."""
        if not unknowns:
            return []
        rows = {}
        for zi, (piece, act) in enumerate(self.raising):
            # -A_{l', l} c_{(mono, l')} lands in the row (zi, l, mono):
            # read it column-wise via the transposed action, grouped by l'
            column = {}
            for (outl, inl), a in act.items():
                column.setdefault(outl, []).append((inl, a))
            for col, (mono, lbl) in enumerate(unknowns):
                for om, c in _image(piece, mono).items():
                    _add_entry(rows, (zi, lbl, om), col, c)
                for inl, a in column.get(lbl, ()):
                    _add_entry(rows, (zi, inl, mono), col, -a)
        return sparse_nullspace(rows.values(), len(unknowns))

    def fsystem_images(self, mono, weights):
        """Each F-system operator's image of zeta^mono at a member's weights, as {monomial: coefficient}.

        The image under base + sum_i w_i part_i is the base's image plus
        w_i times each part's, the pieces' images read from their memos.
        """
        out = []
        for pieces in self.lie.fsystem:
            base, *images = (_image(piece, mono) for piece in pieces)
            acc = dict(base)
            for w, image in zip(weights, images):
                if w:
                    for om, c in image.items():
                        acc[om] = acc[om] + w * c if om in acc else w * c
            out.append({om: c for om, c in acc.items() if c})
        return out

    def fsystem_vectors(self, unknowns, eq_vectors, weights):
        """The equivariant vectors' combinations that the F-system at `weights` kills."""
        if not eq_vectors:
            return []
        images = {}  # monomial: its `fsystem_images`, once per member
        rows = {}
        for b, vec in enumerate(eq_vectors):
            for col, coeff in vec.items():
                mono, lbl = unknowns[col]
                if mono not in images:
                    images[mono] = self.fsystem_images(mono, weights)
                for jop, image in enumerate(images[mono]):
                    for om, c in image.items():
                        _add_entry(rows, (jop, lbl, om), b, coeff * c)
        out = []
        for cv in sparse_nullspace(rows.values(), len(eq_vectors)):
            # a cancelled entry stays as 0; `rref_basis` drops it
            full = {}
            for b, w in cv.items():
                for i, x in eq_vectors[b].items():
                    full[i] = full[i] + w * x if i in full else w * x
            out.append(full)
        return out


def equivariant_basis(
    source: ScalarRepParams,
    target: TargetRepParams,
    degree: int,
    connected: bool = False,
    full_nilradical: bool = False,
) -> EquivariantSpace:
    """Step-2 space at one homogeneous degree, by brute-force nullspace."""
    ctx = _SolveContext(source, target, connected, full_nilradical)
    unknowns = ctx.unknowns_at_degree(degree)
    vectors = ctx.equivariant_vectors(unknowns)
    return EquivariantSpace(
        source, target, degree, unknowns, vectors, connected, full_nilradical
    )


def solve_family(
    members,
    degree_cap: int,
    connected: bool = False,
    full_nilradical: bool = False,
) -> list:
    """Exact bases of Sol(n_+; V, W) in degrees <= degree_cap, one per (source, target).

    The members of a lambda-family differ only in lambda at a fixed gap
    nu - lambda.  One `_SolveContext`, built from the first member, gives
    the label keys, unknowns and equivariant vectors.  Every further member
    brings only its weights, after `_SolveContext.member_weights` checks
    that it belongs to the family (else ValueError); the F-system is then
    solved at each member's weights, from the memoized images of the
    weight-free pieces of N_1^+.
    """
    if not members:
        return []
    ctx = _SolveContext(*members[0], connected, full_nilradical)
    weights = [ctx.weights] + [ctx.member_weights(s, t) for s, t in members[1:]]
    stages = []
    for d in range(max(degree_cap, -1) + 1):
        unknowns = ctx.unknowns_at_degree(d)
        eq_vectors = ctx.equivariant_vectors(unknowns)
        if eq_vectors:
            stages.append((d, unknowns, eq_vectors))
    out = []
    for (source, target), w in zip(members, weights):
        solutions = []
        degrees = []
        sizes = {}
        for d, unknowns, eq_vectors in stages:
            sol_vectors = ctx.fsystem_vectors(unknowns, eq_vectors, w)
            if sol_vectors:
                # homogeneity bookkeeping: the constraints preserve degree, so
                # every solution vector lives in this single degree
                sizes[d] = (len(unknowns), len(eq_vectors), len(sol_vectors))
                degrees.append(d)
                solutions.extend(
                    _vector_to_vvp(v, unknowns, ctx.n) for v in rref_basis(sol_vectors)
                )
        provenance = {
            "degree_cap": degree_cap,
            "sizes": sizes,
            "connected": connected,
            "full_nilradical": full_nilradical,
        }
        out.append(SolutionSpace(source, target, solutions, degrees, provenance))
    return out


def solve_fsystem(
    source: ScalarRepParams,
    target: TargetRepParams,
    degree_cap: int,
    connected: bool = False,
    full_nilradical: bool = False,
) -> SolutionSpace:
    """Exact basis of Sol(n_+; V, W) in homogeneous degrees <= degree_cap."""
    (sol,) = solve_family([(source, target)], degree_cap, connected, full_nilradical)
    return sol


def weight_degree_cap(gap: Fraction) -> int:
    """Largest homogeneous degree compatible with the A'-weight gap nu - lambda."""
    if gap < 0:
        return -1
    return math.floor(gap)


# -- expected bases ---------------------------------------------------------


def psi_vector(m: int, ell: int, n: int) -> VectorValuedPolynomial:
    """psi_{(m,ell)} = zeta_n^m sum_l zeta^l tensor ytilde_l."""
    comps = {}
    for lbl in monomial_basis(n - 1, ell):
        mono = lbl + (m,)
        comps[lbl] = Polynomial.monomial(n, mono, 1, "zeta")
    return VectorValuedPolynomial(n, comps, "zeta")


def ido_symbol_vector(k: int, n: int) -> VectorValuedPolynomial:
    """Symbol of the order-k intertwining operator: sum zeta^k tensor ytilde_k."""
    comps = {}
    for lbl in monomial_basis(n, k):
        comps[lbl] = Polynomial.monomial(n, lbl, 1, "zeta")
    return VectorValuedPolynomial(n, comps, "zeta")


def same_solution_span(a, b) -> bool:
    """Do two lists of vector-valued polynomials span the same space?

    Each VVP is compared as the sparse vector {(monomial, label): coefficient}.
    """

    def rows(vvps):
        return [
            {(m, l): c for l, p in v.components.items() for m, c in p.terms.items()}
            for v in vvps
        ]

    return same_span(rows(a), rows(b))


# -- classification scans -----------------------------------------------------
#
# A scan is the list of `Family` records from `scan_jobs`, one per
# lambda-family: the cells of fixed (m, ell, signs), or of fixed k for the
# intertwining operators, that differ only in lambda (and lambda_2 for GL) at
# a fixed gap nu - lambda.  `scan_jobs` builds the SL, GL and homs records
# from one grid (`_grid`) and the IDO records from the orders k.  `run_cell`
# hands a record to the row builder of its kind, which solves the members
# together through `_rows`, one row per member, and `row_key` orders the
# table.  `classify` and the CLI, which may map the records over a process
# pool, share all of them.

DEFAULT_SAMPLES = (Fraction(1, 3), Fraction(5), Fraction(-7, 2))
DEFAULT_LAMBDA2_SAMPLES = (Fraction(0), Fraction(1, 2))


@dataclass(frozen=True)
class Family:
    """One lambda-family: the unit of a scan and of a `--jobs` worker.

    `kind` is the row flavor: sl, gp (homs), gprime (connected homs), gl,
    sl-ido or gl-ido.  `ell` is the order k for the IDO kinds, whose signs
    are alpha = 0 and beta = the parity of k.  `lams` holds the first lambda
    components, critical value first (-s for homs); `lam2s` the second
    ones, (None,) for SL.
    """

    kind: str
    n: int
    m: int
    ell: int
    alpha: int
    beta: int
    lams: tuple
    lam2s: tuple = (None,)

    @property
    def flavor(self):
        return GL if self.kind.startswith("gl") else SL

    @property
    def signs(self):
        """(alphas, betas); the second GL signs are +."""
        pad = (0,) if self.flavor == GL else ()
        return (self.alpha,) + pad, (self.beta,) + pad

    def members(self):
        """Each member's lambda components, lambda_2 fastest."""
        return [(lam,) if lam2 is None else (lam, lam2) for lam in self.lams for lam2 in self.lam2s]


def _critical_first(critical, samples):
    """The critical value, then every sample not equal to an earlier value, as Fractions."""
    return tuple(dict.fromkeys(map(Fraction, (critical, *samples))))


def _grid(m_max, l_max, samples, alphas, flips):
    """Families (m, ell, lambdas, alpha, beta), lambdas = 1 - (m + ell) first.

    beta is the matched sign alpha + (m + ell) for flip 0, the other for 1.
    """
    for m in range(m_max + 1):
        for ell in range(l_max + 1):
            lams = _critical_first(1 - (m + ell), samples)
            for alpha in alphas:
                matched = sign_shift(alpha, m + ell)
                for flip in flips:
                    yield m, ell, lams, alpha, sign_shift(matched, flip)


def _rows(family, cells, degree_cap, **mode):
    """Solve a family's cells (pair, source, target, predicted, expected) together
    and compare each with its predicted dimension and basis.

    A row's parameters come in table order: flavor, n, alpha, beta, l, then
    `pair` (lambda, nu or s, r); GL pairs print comma-joined.
    """
    sols = solve_family([(src, tgt) for _, src, tgt, _, _ in cells], degree_cap, **mode)
    alphas, betas = family.signs
    head = {
        "flavor": family.kind,
        "n": family.n,
        "alpha": ",".join(map(sign_str, alphas)),
        "beta": ",".join(map(sign_str, betas)),
        "l": family.ell,
    }
    return [
        {
            **head,
            **{key: ",".join(map(str, values)) for key, values in pair.items()},
            "predicted_dim": predicted,
            "computed_dim": sol.dim,
            "basis_symbols": "; ".join(str(v) for v in sol.basis),
            "ok": sol.dim == predicted and same_solution_span(sol.basis, expected),
        }
        for (pair, _, _, predicted, expected), sol in zip(cells, sols)
    ]


def _folded_psi(m: int, ell: int) -> VectorValuedPolynomial:
    """n = 2 picture: psi_{(m,ell)} = zeta2^m zeta1^ell on the trivial fiber."""
    return VectorValuedPolynomial(
        2, {(0,): Polynomial.monomial(2, (ell, m), 1, "zeta")}, "zeta"
    )


def _expected_basis(rec: dict, n: int):
    """Closed-form solutions named by an SL or GL membership record.

    The record lists family one, family two and, for SL, the doubled n = 2
    family; an SL record at n = 2 is in the folded picture.
    """
    one, two, *plus = rec.values()
    if n == 2 and plus:
        if plus[0]:
            w = plus[0]
            return [_folded_psi(w["m"] + 2 * w["ell"], 0), _folded_psi(w["m"], w["ell"])]
        return [_folded_psi(one["m"], 0)] if one else []
    if two:
        return [psi_vector(two["m"], two["ell"], n)]
    if one:
        return [psi_vector(one["m"], 0, n)]
    return []


def classify_sl_cell(family):
    """Rows of an SL family, one per lambda.

    A homs family (kind gp, or gprime for the g'-homomorphisms) is the SL
    family at (lambda, nu) = (-s, -r); its rows show (s, r).
    """
    n, ell, alpha = family.n, family.ell, family.alpha
    connected = family.kind == "gprime"
    gap = family.m + Fraction(n, n - 1) * ell
    cells = []
    for (lam,) in family.members():
        nu = lam + gap
        q = SLQuadruple(alpha, family.beta, ell, lam, nu).canonical(n)
        rec = in_lambda_sl_connected(q.ell, lam, nu, n) if connected else in_lambda_sl(q, n)
        pair = {"lambda": (lam,), "nu": (nu,)} if family.kind == "sl" else {"s": (-lam,), "r": (-nu,)}
        cells.append((
            pair, ScalarRepParams.sl(n, lam, alpha), TargetRepParams.sl(n, nu, ell=q.ell, beta=q.beta),
            record_dim(rec), _expected_basis(rec, n),
        ))
    return _rows(family, cells, weight_degree_cap(gap), connected=connected)


def classify_gl_cell(family):
    """Rows of a GL family, one per (lambda_1, lambda_2)."""
    n, ell = family.n, family.ell
    alphas, betas = family.signs
    gaps = (family.m + Fraction(n, n - 1) * ell, -Fraction(ell, n - 1))
    cells = []
    for lams in family.members():
        nus = (lams[0] + gaps[0], lams[1] + gaps[1])
        rec = in_lambda_gl(GLTuple(alphas, betas, ell, lams, nus), n)
        cells.append((
            {"lambda": lams, "nu": nus},
            ScalarRepParams(n, GL, alphas, lams), TargetRepParams(n, GL, betas, nus, ell),
            record_dim(rec), _expected_basis(rec, n),
        ))
    return _rows(family, cells, weight_degree_cap(gaps[0]))


def classify_ido_cell(family):
    """Rows of the order-k family (k = `ell`), one per lambda (SL) or (lambda_1, lambda_2) (GL)."""
    n, k, flavor = family.n, family.ell, family.flavor
    alphas, deltas = family.signs
    cells = []
    for lams in family.members():
        taus = (lams[0] + Fraction(n + 1, n) * k,) + tuple(x - Fraction(k, n) for x in lams[1:])
        predicted = predicted_dim_ido(n, alphas, deltas, k, lams, taus)
        cells.append((
            {"lambda": lams, "nu": taus},
            ScalarRepParams(n, flavor, alphas, lams), TargetRepParams(n, flavor, deltas, taus, k),
            predicted, [ido_symbol_vector(k, n)] if predicted == 1 else [],
        ))
    return _rows(family, cells, k, full_nilradical=True)


def scan_jobs(
    n,
    flavor=SL,
    m_max=3,
    l_max=3,
    lambda_samples=DEFAULT_SAMPLES,
    lambda2_samples=DEFAULT_LAMBDA2_SAMPLES,
    ido=False,
    k_max=4,
    homs=False,
    connected=False,
):
    """One `Family` per lambda-family of the scan.

    `homs` scans the SL homomorphisms and takes `lambda_samples` as s
    samples; their alpha is +, and the g'-homomorphisms (`connected`)
    ignore the sign, so they take the matched beta only.  Otherwise `ido`
    picks the intertwining operators of `flavor`.
    """
    lam2s = (None,) if homs or flavor == SL else tuple(dict.fromkeys(map(Fraction, lambda2_samples)))
    if homs:
        kind = "gprime" if connected else "gp"
        minus_s = [-Fraction(s) for s in lambda_samples]  # lambda = -s
        grid = _grid(m_max, l_max, minus_s, (0,), (0,) if connected else (0, 1))
    elif ido:
        return [
            Family(f"{flavor}-ido", n, 0, k, 0, sign_shift(0, k),
                   _critical_first(1 - k, lambda_samples), lam2s)
            for k in range(k_max + 1)
        ]
    else:
        kind, grid = flavor, _grid(m_max, l_max, lambda_samples, (0, 1), (0, 1))
    return [Family(kind, n, m, ell, alpha, beta, lams, lam2s) for m, ell, lams, alpha, beta in grid]


def run_cell(family):
    """The rows of one `scan_jobs` family.

    The row builders are named in the body, so each call reads them from
    the module namespace: a wrapper bound there sees every family.
    """
    if family.kind.endswith("-ido"):
        return classify_ido_cell(family)
    if family.kind == "gl":
        return classify_gl_cell(family)
    return classify_sl_cell(family)


def row_key(row):
    """Table order: flavor, n, l, lambda (or s), nu (or r), alpha, beta."""
    lam, nu = ("s", "r") if "s" in row else ("lambda", "nu")
    return (row["flavor"], row["n"], row["l"], row[lam], row[nu], row["alpha"], row["beta"])


def classify(n, **options):
    """Full classification table; `options` are those of `scan_jobs`.

    Every row carries predicted vs computed.
    """
    rows = (row for family in scan_jobs(n, **options) for row in run_cell(family))
    return sorted(rows, key=row_key)
