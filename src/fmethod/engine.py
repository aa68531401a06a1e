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
act diagonally on monomial pairs, so they are solved per label: each
diagonal element's eigenvalue on zeta^m is an affine form c0 + c . m in the
exponents, read from the normal form of its operator.  Scaled to integers,
these forms and the degree row (1, .., 1) have full rank n, so a label's
pair at degree d, if any, is the one monomial m = (P + c + d u) / D: P from
the label, c from the family's shifts, u and D from n independent rows.
Each label keeps the interval of degrees on which m >= 0 and the other rows
hold, and a degree in it keeps the pair when m is integral and has the
label's gamma parities.  What remains goes through two exact sparse
nullspaces per homogeneous degree (equivariance, then the F-system).  Each
piece is built at the level it depends on:

* per algebra and nilradical mode, once per process: one `_LieData`
  record with every lambda-free piece of a solve.  Every operator a solve
  reads is dpi_hat(X) = base + sum_i w_i part_i, w = 2rho - lambda, and
  the record reads each element's weight-free pieces from
  `rep.dpi_hat_parts` once: the raising operators of m', which have no
  weight part, so they are the bases themselves, and N_1^+'s (base,
  part_1[, part_2]); for each diagonal element, c0 of each piece, its
  integer form and scale; whether every weight part's c0_i equals the
  character chi_i; the n independent rows, with D times the inverse of
  their matrix; and per gamma, from `liealg`'s integer sign rule, its
  zeta mask over n, its fiber mask over the mode's block and the sign
  coefficients a and b of the source and target characters;
* per record and l: each fiber label's integer P, its part of the other
  rows' checks and its fiber bits (its exponents summed over each fiber
  mask), from the weight-free m-action of the fiber
  (`_LieData.solve_labels`), kept on the record;
* per family (the cells of one relative sign at a fixed gap nu - lambda):
  one solve context, built from the first member (`_SolveContext`): the
  record with the fiber (the raising pairs, each diagonal element's shift
  fiber weight - c0 with c0 = c0(base) + sum_i w_i c0(part_i)), c and
  each label's degree interval from the shifts, the labels' parities,
  then the unknowns, the equivariant vectors and the F-system's rows on
  them, one row set per piece of N_1^+ (`solve_family`).  The
  signs enter only through the sign key, one parity alpha . a + beta . b
  (mod 2) per gamma, which a label's fiber bits complete to its parities;
  both characters see the same -1 entries (a = b), so (alpha, beta)
  and (alpha + 1, beta + 1) share one key and one solve;
* per member: only a check and its weights w.  The check asks for the
  first member's n, flavor, l and sign key (empty when connected) and
  the same gap in every component.  Along the gap a shift moves by
  sum_i lambda_i (c0_i - chi_i), so a family of two or more members also
  needs the record's c0_i = chi_i.  The F-system is solved once per
  distinct weights: weigh the family's piece rows, base + sum_i w_i
  part_i, and take one nullspace; both sign pairs at one lambda share it.

Output bases are RREF-canonical in the graded-lex coordinate order, so
every scan is reproducible byte for byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import cycle
from operator import sub

from .algebra import (
    Polynomial,
    add_terms,
    exact,
    monomial_basis,
    rref_basis,
    same_span,
    sparse_nullspace,
    sparse_rref,
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
        return _to_vvps(self.basis_vectors, self.unknowns, self.source.n)

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


def _label_terms(vec, unknowns) -> dict:
    """A sparse vector over `unknowns` as {label: {monomial: coefficient}}, in column order."""
    terms = {}
    for col in sorted(vec):
        mono, lbl = unknowns[col]
        terms.setdefault(lbl, {})[mono] = vec[col]
    return terms


def _to_vvps(vectors, unknowns, arity) -> list:
    """Sparse vectors over `unknowns` as zeta VVPs."""
    return [VectorValuedPolynomial.from_sums(arity, _label_terms(vec, unknowns), "zeta") for vec in vectors]


def _add_entry(rows, key, col, value):
    row = rows.setdefault(key, {})
    row[col] = row.get(col, 0) + value


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


@dataclass(frozen=True, eq=False)
class _LieData:
    """Every lambda-free piece of a solve, shared by every context of one algebra and nilradical mode.

    The element lists, then what a solve reads of them (`of` builds it).
    dpi_hat(X, source) = base + sum_i w_i part_i with w = 2rho - lambda,
    each piece a `WeylElement` from `rep.dpi_hat_parts`.
    """

    diag: tuple  # H0~' (H0~ in full mode), J0' (J0) for GL, the Cartan of m' (m)
    raising: tuple  # the simple raising operators E_{i,i+1} of m' (m)
    gammas: tuple  # generators of the component group of M' (M)
    n_plus: tuple  # N_1^+ alone: it generates n_+' (n_+) as an m'- (m-)module
    raising_ops: tuple  # each raising element's base, as it has no weight part
    fsystem: tuple  # the pieces (base, part_1[, part_2]) of each n_plus element
    constants: tuple  # per diagonal element, c0 of each of its pieces
    forms: tuple  # per diagonal element, its coefficients c times its scale
    scales: tuple  # per diagonal element, the lcm of the denominators of c
    lambda_free: bool  # does every diagonal element have c0_i = chi_i (`rep.characters`)?
    # the diagonal solve: the degree row and the forms `pivots` are n
    # independent rows; `inverse` is D times the inverse of their matrix
    # (one integer row per exponent, one column per row, degree first) and
    # `denominator` the least D > 0 that makes it integral
    pivots: tuple  # indices of the forms among the n rows, in column order
    inverse: tuple
    denominator: int
    degree_column: tuple  # u, the first column of `inverse`
    checks: tuple  # per other form r: (r, form_r . u)
    # per gamma (`ParabolicData.sign_masks`, `sign_coefficients`): the
    # coordinates of zeta and of the fiber block that it negates, and the
    # parity each sign component of the source and of the target adds
    zeta_masks: tuple
    fiber_masks: tuple
    source_signs: tuple
    target_signs: tuple
    label_solves: dict = field(default_factory=dict)  # ell: `solve_labels` of the fiber S^ell
    raising_acts: dict = field(default_factory=dict)  # ell: each raising element's m-action on S^ell
    sign_keys: dict = field(default_factory=dict)  # (alpha, beta): `sign_key`

    @classmethod
    def of(cls, pd, block, diag, raising, gammas, n_plus):
        """The record of these element lists of the algebra `pd`, whose fibers live on `block` coordinates.

        Each element's `dpi_hat_parts` are read once.  No character sees a
        raising element Z (Z[0, 0] = 0 and trace 0), so a weight part there
        is a ValueError.  A diagonal element's operator has the eigenvalue
        form (c0_base + sum_i w_i c0_i, c): every piece must act diagonally,
        and a weight part only by a scalar, else ValueError.  The forms and
        the degree row (1, .., 1) must have full rank n, else ValueError;
        the degree row comes first, then the first forms that stay
        independent of the rows before them.
        """
        raising_ops = []
        for Z in raising:
            base, *parts = dpi_hat_parts(Z, pd)
            if any(not part.is_zero() for part in parts):
                raise ValueError("a raising operator of m' has a weight part")
            raising_ops.append(base)
        constants, forms, scales = [], [], []
        for Z in diag:
            (c0, coeffs), *parts = map(_eigenvalue_form, dpi_hat_parts(Z, pd))
            if any(any(c) for _, c in parts):
                raise ValueError("a weight part of a diagonal element is not a scalar")
            constants.append((c0, *(c for c, _ in parts)))
            scales.append(math.lcm(*(c.denominator for c in coeffs)))
            forms.append(tuple(int(c * scales[-1]) for c in coeffs))
        n = pd.n
        rows = [(1,) * n, *forms]
        # the pivot columns of the transposed rows: the first independent rows
        chosen = list(sparse_rref({r: row[j] for r, row in enumerate(rows)} for j in range(n)))
        if len(chosen) < n:
            raise ValueError("the diagonal forms and the degree do not have full rank")
        # [M | 1] reduces to [1 | M^-1]
        reduced = sparse_rref({**dict(enumerate(rows[r])), n + k: 1} for k, r in enumerate(chosen))
        inverse = [[reduced[j].get(n + k, Fraction(0)) for k in range(n)] for j in range(n)]
        denominator = math.lcm(*(x.denominator for row in inverse for x in row))
        inverse = tuple(tuple(int(x * denominator) for x in row) for row in inverse)
        degree_column = tuple(row[0] for row in inverse)
        zeta_masks, fiber_masks = zip(*(pd.sign_masks(g, n, block) for g in gammas))
        return cls(
            diag, raising, gammas, n_plus, tuple(raising_ops),
            tuple(dpi_hat_parts(N, pd) for N in n_plus),
            tuple(constants), tuple(forms), tuple(scales),
            all(c[1:] == characters(Z, pd) for Z, c in zip(diag, constants)),
            tuple(r - 1 for r in chosen[1:]), inverse, denominator, degree_column,
            tuple((r, _dot(f, degree_column)) for r, f in enumerate(forms) if r + 1 not in chosen),
            zeta_masks, fiber_masks,
            tuple(pd.sign_coefficients(g, n) for g in gammas),
            tuple(pd.sign_coefficients(g, block) for g in gammas),
        )

    def solve_labels(self, fiber, pd):
        """Per label of `fiber` (an S^ell of this record's mode), in `fiber.labels` order.

        Each item is (label, P, e, bits).  A diagonal element's m-part
        eigenvalue on the label, times the element's scale, is an integer a_r
        (else ValueError).  P = `inverse` . (0, a_pivots) is the label's part
        of D times its monomial, and e_r = D a_r - form_r . P its part of
        each check; bits holds, per gamma, the label's exponents summed over
        its fiber mask.  Built once per ell and kept on the record.
        """
        solves = self.label_solves.get(fiber.degree)
        if solves is not None:
            return solves
        labels = fiber.labels()
        eigenvalues = {lbl: [] for lbl in labels}
        for Z, scale in zip(self.diag, self.scales):
            acts = fiber.act(Z, pd)
            if any(k[0] != k[1] for k in acts):
                raise ValueError("fiber action of a diagonal element is not diagonal")
            for lbl in labels:
                a = acts.get((lbl, lbl), 0) * scale
                if a.denominator != 1:
                    raise ValueError("a scaled fiber eigenvalue is not an integer")
                eigenvalues[lbl].append(int(a))
        solves = []
        for lbl in labels:
            a = eigenvalues[lbl]
            p = tuple(_dot(row[1:], (a[r] for r in self.pivots)) for row in self.inverse)
            e = tuple(self.denominator * a[r] - _dot(self.forms[r], p) for r, _ in self.checks)
            solves.append((lbl, p, e, tuple(sum(lbl[j] for j in mask) for mask in self.fiber_masks)))
        self.label_solves[fiber.degree] = solves = tuple(solves)
        return solves

    def sign_key(self, alpha, beta):
        """Per gamma, the parity alpha . a + beta . b of the source and target sign characters.

        a and b are the record's sign coefficients.  Built once per (alpha,
        beta) and kept on the record, so a family's member check reads a
        dict, not a sum per gamma.
        """
        key = self.sign_keys.get((alpha, beta))
        if key is None:
            key = self.sign_keys[alpha, beta] = tuple(
                (_dot(alpha, a) + _dot(beta, b)) % 2 for a, b in zip(self.source_signs, self.target_signs)
            )
        return key


def _dot(u, v):
    return sum(x * y for x, y in zip(u, v))


def _degree_interval(q, u, checks):
    """(lo, hi) bounding the degrees d >= 0 with q + d u >= 0 and a d == b for each
    (a, b) in `checks`; hi is None when unbounded, and None is returned when none is left.
    """
    lo, hi = 0, None
    for x, y in zip(q, u):
        if y > 0:
            lo = max(lo, -(x // y))
        elif y < 0:
            hi = x // -y if hi is None else min(hi, x // -y)
        elif x < 0:
            return None
    for a, b in checks:
        if a == 0:
            if b:
                return None
        elif b % a:
            return None
        else:
            lo, hi = max(lo, b // a), b // a if hi is None else min(hi, b // a)
    if hi is not None and lo > hi:
        return None
    return lo, hi


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
        pd.n if full_nilradical else pd.n - 1,
        tuple(diag),
        tuple(pd.unit(i, i + 1) for i in range(2, top)),
        tuple(pd.gamma_elements(primed=primed)),
        (pd.n_plus(1),),
    )


class _SolveContext:
    """One family's solve: its mode's `_LieData`, the fiber and the first member's weights.

    The members of a family differ only in lambda at a fixed gap nu -
    lambda, and in the sign pair within one relative sign.  Everything
    built here but `weights`, the first member's 2rho - lambda, serves
    every member: the raising pairs (each raising operator with the fiber's
    action), the sign key and each diagonal element's shift (the target
    character -nu . chi less c0).  A further member brings only its
    weights, from `member_weights`, which checks that it belongs to the
    family; the F-system stage reads nothing else of a member.

    A pair (zeta^m, label) is kept when every diagonal element has the same
    eigenvalue on zeta^m as on the label, and every component group
    generator the same sign.  Each condition is scaled to an integer
    equation  form . m == scale * (m-part eigenvalue on the label + shift);
    the gamma signs become parities of m over each zeta mask, the label's
    fiber bits plus the sign key.  With the degree row, n of these
    equations fix m, so each label is solved once, from the record's per-l
    solves plus the shifts, into its interval of degrees (`_labels`, built
    on first use); a degree then reads each label's pair off that solve.
    """

    def __init__(self, source, target, connected=False, full_nilradical=False):
        self.source = source
        self.target = target
        self.n = source.n
        self.pd = pd = parabolic(source.n, source.flavor)
        self.fiber = SymFiber(target.ell, self.n if full_nilradical else self.n - 1)
        self.lie = lie = _lie_data(pd, full_nilradical)
        self._connected = connected
        self._two_rho = pd.two_rho()
        self.weights = self._weights(source)
        acts = lie.raising_acts.get(target.ell)
        if acts is None:
            acts = lie.raising_acts[target.ell] = tuple(self.fiber.act(Z, pd) for Z in lie.raising)
        self.raising = tuple(zip(lie.raising_ops, acts))
        # the target character -nu . chi(Z), less c0 = c0(base) + sum_i w_i c0(part_i)
        self._shifts = tuple(
            -_dot(target.nu, characters(Z, pd)) - c0 - _dot(self.weights, weight_c0)
            for Z, (c0, *weight_c0) in zip(lie.diag, lie.constants)
        )
        self._data = self._family_data(source, target)

    def _family_data(self, source, target):
        """What the solve reads of a member besides its weights.

        n, flavor, l, the gap nu - lambda and the sign key: per gamma, the
        parity alpha . a + beta . b of the source and target characters
        there, a and b the record's sign coefficients, read from the
        record's `sign_key` memo.  The signs enter only
        through the key, so a member whose signs give the same key shares
        every stage but the F-system's weights.  The key is empty when
        connected: no label then carries a parity, and no zeta mask is read.
        """
        gap = tuple(map(sub, target.nu, source.lam))
        key = () if self._connected else self.lie.sign_key(source.alpha, target.beta)
        return source.n, source.flavor, target.ell, gap, key

    def _weights(self, source):
        """w = 2rho - lambda, `exact`, so an integral lambda weighs the F-system's piece rows with ints."""
        return tuple(map(exact, map(sub, self._two_rho, source.lam)))

    def member_weights(self, source, target):
        """A further member's weights w = 2rho - lambda, once it is checked to be one.

        It must share `_family_data` with the first member, so its signs
        may differ only by flipping alpha and beta together (freely in the
        connected mode, which reads no sign), and the shifts must not move
        along the gap, else ValueError.  With nu = lambda + gap and w =
        2rho - lambda, a diagonal element Z's shift is const +
        sum_i lambda_i (c0_i(Z) - chi_i(Z)), chi_i the characters that nu_i
        scales and c0_i the scalar of Z's i-th weight part; so
        the shifts stay put exactly when the record is `lambda_free`.
        """
        if self._family_data(source, target) != self._data or not self.lie.lambda_free:
            raise ValueError("a lambda-family's members differ in a lambda-independent stage")
        return self._weights(source)

    @cached_property
    def _labels(self):
        """(lo, hi, index, label, q, parities) per label that some degree pairs, in label order.

        Every condition on a pair (zeta^m, label) of degree d is linear in
        m: the n pivot rows give D m = q + d u with q = P(label) + c, c =
        `inverse` . (0, s) for the scaled shifts s, and each other form
        checks a d = e_r(label) + D s_r - form_r . c, a = form_r . u.  The
        degrees with m >= 0 and every check met form [lo, hi] (hi None when
        unbounded); labels with none are left out.  Each target is an
        integer eigenvalue plus a scaled shift, and form . m is an integer,
        so a non-integral scaled shift leaves no pair at all.  A label's
        parities, per gamma, are its fiber bits plus the family's sign key,
        mod 2.
        """
        lie, key = self.lie, self._data[-1]
        shifts = [scale * shift for scale, shift in zip(lie.scales, self._shifts)]
        if any(s.denominator != 1 for s in shifts):
            return ()
        shifts = [int(s) for s in shifts]
        c = [_dot(row[1:], (shifts[r] for r in lie.pivots)) for row in lie.inverse]
        checks = [(a, lie.denominator * shifts[r] - _dot(lie.forms[r], c)) for r, a in lie.checks]
        out = []
        for index, (lbl, p, e, bits) in enumerate(lie.solve_labels(self.fiber, self.pd)):
            q = tuple(x + y for x, y in zip(p, c))
            targets = [(a, b + x) for (a, b), x in zip(checks, e)]
            interval = _degree_interval(q, lie.degree_column, targets)
            if interval is not None:
                out.append((*interval, index, lbl, q, tuple((b + k) % 2 for b, k in zip(bits, key))))
        return out

    # -- enumeration ----------------------------------------------------------

    def unknowns_at_degree(self, degree):
        """The (monomial, label) pairs of one degree that meet every diagonal condition.

        A label in range pairs with m = (q + degree u) / D when that is
        integral and m has the label's gamma parities.  Listed in
        descending graded-lex order of (monomial, label), as `monomial_basis`
        and `fiber.labels` list them.
        """
        D, u, masks = self.lie.denominator, self.lie.degree_column, self.lie.zeta_masks
        out = []
        for lo, hi, index, lbl, q, parities in self._labels:
            if degree < lo or (hi is not None and degree > hi):
                continue
            m = [x + degree * y for x, y in zip(q, u)]
            if any(x % D for x in m):
                continue
            m = [x // D for x in m]
            if all(sum(m[j] for j in mask) % 2 == p for mask, p in zip(masks, parities)):
                out.append((tuple(m), -index, lbl))
        out.sort(reverse=True)
        return [(mono, lbl) for mono, _, lbl in out]

    # -- linear stages ------------------------------------------------------

    def equivariant_vectors(self, unknowns):
        """Kernel of the equivariance constraints under the raising operators of m'."""
        if not unknowns:
            return []
        rows = {}
        for zi, (op, act) in enumerate(self.raising):
            # -A_{l', l} c_{(mono, l')} lands in the row (zi, l, mono):
            # read it column-wise via the transposed action, grouped by l'
            column = {}
            for (outl, inl), a in act.items():
                column.setdefault(outl, []).append((inl, a))
            for col, (mono, lbl) in enumerate(unknowns):
                for om, c in op.sums({mono: 1}).items():
                    _add_entry(rows, (zi, lbl, om), col, c)
                for inl, a in column.get(lbl, ()):
                    _add_entry(rows, (zi, inl, mono), col, -a)
        return sparse_nullspace(rows.values(), len(unknowns))

    def fsystem_rows(self, unknowns, eq_vectors):
        """The F-system's rows on the equivariant vectors, one set per piece (base, part_1[, part_2]).

        Each is {(operator, label, monomial): {vector: coefficient}}: every
        piece is applied once per (vector, label) to the vector's terms of
        that label, and a cancelled sum stays as 0 for the sparse kernel to
        clean.  `_weigh` combines the sets for a member.
        """
        pieces = [{} for _ in self.lie.fsystem[0]]
        for b, vec in enumerate(eq_vectors):
            terms = _label_terms(vec, unknowns)
            for jop, ops in enumerate(self.lie.fsystem):
                for rows, op in zip(pieces, ops):
                    for lbl, t in terms.items():
                        for om, c in op.sums(t).items():
                            _add_entry(rows, (jop, lbl, om), b, c)
        return pieces


def _weigh(pieces, weights) -> dict:
    """The rows of base + sum_i w_i part_i at `weights`, summed into fresh rows: pieces serve every member.

    The pieces' entries are `exact`; at a non-integral weight a product
    or sum can be an integral `Fraction`, so those rows are put back in
    the `exact` normal form and reach the kernel as `int`s.
    """
    base, *parts = pieces
    rows = {key: dict(row) for key, row in base.items()}
    for w, part in zip(weights, parts):
        if w:
            for key, row in part.items():
                add_terms(rows.setdefault(key, {}), row, w)
    if any(type(w) is Fraction for w in weights):
        rows = {key: {col: exact(v) for col, v in row.items()} for key, row in rows.items()}
    return rows


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

    The members of a family differ only in lambda at a fixed gap nu -
    lambda, and in their signs within one relative sign.  One
    `_SolveContext`, built from the first member, gives the label solves,
    unknowns, equivariant vectors and F-system piece rows.  Every further
    member brings only its weights, after `_SolveContext.member_weights`
    checks that it belongs to the family (else ValueError).  The F-system is
    then solved once per distinct weights, by weighing the piece rows;
    members at equal weights, such as the two sign pairs at one lambda, each
    get their own `SolutionSpace` of that solve.
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
            stages.append((d, unknowns, eq_vectors, ctx.fsystem_rows(unknowns, eq_vectors)))

    def solve_at(w):
        solutions = []
        degrees = []
        sizes = {}
        for d, unknowns, eq_vectors, pieces in stages:
            kernel = sparse_nullspace(_weigh(pieces, w).values(), len(eq_vectors))
            if kernel:
                # homogeneity bookkeeping: the constraints preserve degree, so
                # every solution vector lives in this single degree
                sizes[d] = (len(unknowns), len(eq_vectors), len(kernel))
                degrees.append(d)
                vectors = []
                for cv in kernel:
                    # a cancelled entry stays as 0; `rref_basis` drops it
                    full = {}
                    for b, x in cv.items():
                        add_terms(full, eq_vectors[b], x)
                    vectors.append(full)
                solutions.extend(_to_vvps(rref_basis(vectors), unknowns, ctx.n))
        return solutions, degrees, sizes

    solved = {}  # weights: their solve, shared by the members at those weights
    out = []
    for (source, target), w in zip(members, weights):
        if w not in solved:
            solved[w] = solve_at(w)
        solutions, degrees, sizes = solved[w]
        provenance = {
            "degree_cap": degree_cap,
            "sizes": dict(sizes),
            "connected": connected,
            "full_nilradical": full_nilradical,
        }
        out.append(SolutionSpace(source, target, list(solutions), list(degrees), provenance))
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
    Two empty lists span the same (zero) space, with no elimination.
    """
    if not a and not b:
        return True

    def rows(vvps):
        return [
            {(m, l): c for l, p in v.components.items() for m, c in p.terms.items()}
            for v in vvps
        ]

    return same_span(rows(a), rows(b))


# -- classification scans -----------------------------------------------------
#
# A scan is the list of `Family` records from `scan_jobs`, one per family:
# the cells of fixed (m, ell) and one relative sign, or of fixed k for the
# intertwining operators, that differ only in lambda (and lambda_2 for GL) at
# a fixed gap nu - lambda, and for SL and GL in the sign pair (alpha, beta)
# or (alpha + 1, beta + 1).  `scan_jobs` builds the SL, GL and homs records
# from one grid (`_grid`) and the IDO records from the orders k.  `run_cell`
# hands a record to the row builder of its kind, which solves the members
# together through `_rows`, one row per member, and `row_key` orders the
# table.  `classify` and the CLI, which may map the records over a process
# pool, share all of them.

DEFAULT_SAMPLES = (Fraction(1, 3), Fraction(5), Fraction(-7, 2))
DEFAULT_LAMBDA2_SAMPLES = (Fraction(0), Fraction(1, 2))


@dataclass(frozen=True)
class Family:
    """One family of one relative sign: the unit of a scan and of a `--jobs` worker.

    `kind` is the row flavor: sl, gp (homs), gprime (connected homs), gl,
    sl-ido or gl-ido.  `signs` holds the (alpha, beta) pairs of the first
    sign characters: for sl and gl the two pairs of one relative sign,
    alpha = 0 and 1, whose solves read only that sign; one pair for the
    other kinds.  `ell` is the order k for the IDO kinds, whose signs are
    alpha = 0 and beta = the parity of k.  `lams` holds the first lambda
    components, critical value first (-s for homs); `lam2s` the second
    ones, (None,) for SL.
    """

    kind: str
    n: int
    m: int
    ell: int
    signs: tuple
    lams: tuple
    lam2s: tuple = (None,)

    @property
    def flavor(self):
        return GL if self.kind.startswith("gl") else SL

    def lambdas(self):
        """Each member's lambda components, lambda_2 fastest: (lambda,) for SL, else (lambda_1, lambda_2)."""
        return [(lam,) if lam2 is None else (lam, lam2) for lam in self.lams for lam2 in self.lam2s]

    def members(self):
        """Each member's ((alphas, betas), lambda components), signs slowest, lambda_2 fastest.

        So member i has lambda components `lambdas()[i % len(lambdas())]`.
        The second GL signs are +.
        """
        pad = (0,) if self.flavor == GL else ()
        lambdas = self.lambdas()
        return [(((alpha,) + pad, (beta,) + pad), lams) for alpha, beta in self.signs for lams in lambdas]


def _critical_first(critical, samples):
    """The critical value, then every sample not equal to an earlier value, as `exact` scalars."""
    return tuple(dict.fromkeys(map(exact, (critical, *samples))))


def _grid(m_max, l_max, samples, alphas, flips):
    """Families (m, ell, lambdas, signs), one per flip, lambdas = 1 - (m + ell) first.

    `signs` pairs each alpha with beta = the matched sign alpha + (m + ell)
    for flip 0, the other for 1.
    """
    for m in range(m_max + 1):
        for ell in range(l_max + 1):
            lams = _critical_first(1 - (m + ell), samples)
            for flip in flips:
                yield m, ell, lams, tuple((alpha, sign_shift(alpha, m + ell + flip)) for alpha in alphas)


def _member_targets(family, gaps):
    """Per member, in `Family.members` order: (nu, the row's printed pair).

    nu = lambda + gaps, componentwise and `exact`.  Both are built once
    per lambda and shared by the members there.  The pair is (lambda, nu),
    or (s, r) = (-lambda, -nu) for a homs family (kind gp or gprime), each
    side's components comma-joined.
    """
    shared = []
    for lams in family.lambdas():
        nus = tuple(exact(lam + gap) for lam, gap in zip(lams, gaps))
        if family.kind in ("gp", "gprime"):
            pair = {"s": [-x for x in lams], "r": [-x for x in nus]}
        else:
            pair = {"lambda": lams, "nu": nus}
        shared.append((nus, {key: ",".join(map(str, values)) for key, values in pair.items()}))
    return cycle(shared)


def _rows(family, cells, degree_cap, **mode):
    """Solve a family's cells ((alphas, betas), pair, source, target, predicted,
    expected) together and compare each with its predicted dimension and basis.

    A row's parameters come in table order: flavor, n, the cell's alpha and
    beta, l, then `pair` (from `_member_targets`); GL signs print
    comma-joined.  Members at one lambda share one solve (their
    weights 2rho - lambda are equal), so its basis symbols are printed once.
    """
    sols = solve_family([(src, tgt) for _, _, src, tgt, _, _ in cells], degree_cap, **mode)
    symbols = {}  # lambda: the basis symbols of its solve

    def basis_symbols(sol):
        if not sol.basis:
            return ""
        text = symbols.get(sol.source.lam)
        if text is None:
            text = symbols[sol.source.lam] = "; ".join(map(str, sol.basis))
        return text

    return [
        {
            "flavor": family.kind,
            "n": family.n,
            "alpha": ",".join(map(sign_str, alphas)),
            "beta": ",".join(map(sign_str, betas)),
            "l": family.ell,
            **pair,
            "predicted_dim": predicted,
            "computed_dim": sol.dim,
            "basis_symbols": basis_symbols(sol),
            "ok": sol.dim == predicted and same_solution_span(sol.basis, expected),
        }
        for ((alphas, betas), pair, _, _, predicted, expected), sol in zip(cells, sols)
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
    """Rows of an SL family, one per (sign pair, lambda).

    A homs family (kind gp, or gprime for the g'-homomorphisms) is the SL
    family at (lambda, nu) = (-s, -r); its rows show (s, r).
    """
    n, ell = family.n, family.ell
    connected = family.kind == "gprime"
    gap = exact(family.m + Fraction(n, n - 1) * ell)
    cells = []
    for (signs, (lam,)), ((nu,), pair) in zip(family.members(), _member_targets(family, (gap,))):
        (alpha,), (beta,) = signs
        q = SLQuadruple(alpha, beta, ell, lam, nu).canonical(n)
        rec = in_lambda_sl_connected(q.ell, lam, nu, n) if connected else in_lambda_sl(q, n)
        cells.append((
            signs, pair,
            ScalarRepParams.sl(n, lam, alpha), TargetRepParams.sl(n, nu, ell=q.ell, beta=q.beta),
            record_dim(rec), _expected_basis(rec, n),
        ))
    return _rows(family, cells, weight_degree_cap(gap), connected=connected)


def classify_gl_cell(family):
    """Rows of a GL family, one per (sign pair, lambda_1, lambda_2)."""
    n, ell = family.n, family.ell
    gaps = (exact(family.m + Fraction(n, n - 1) * ell), exact(-Fraction(ell, n - 1)))
    cells = []
    for ((alphas, betas), lams), (nus, pair) in zip(family.members(), _member_targets(family, gaps)):
        rec = in_lambda_gl(GLTuple(alphas, betas, ell, lams, nus), n)
        cells.append((
            (alphas, betas), pair,
            ScalarRepParams(n, GL, alphas, lams), TargetRepParams(n, GL, betas, nus, ell),
            record_dim(rec), _expected_basis(rec, n),
        ))
    return _rows(family, cells, weight_degree_cap(gaps[0]))


def classify_ido_cell(family):
    """Rows of the order-k family (k = `ell`), one per lambda (SL) or (lambda_1, lambda_2) (GL)."""
    n, k, flavor = family.n, family.ell, family.flavor
    gaps = (Fraction(n + 1, n) * k, -Fraction(k, n))
    cells = []
    for ((alphas, deltas), lams), (taus, pair) in zip(family.members(), _member_targets(family, gaps)):
        predicted = predicted_dim_ido(n, alphas, deltas, k, lams, taus)
        cells.append((
            (alphas, deltas), pair,
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
    """One `Family` per family of the scan.

    An SL or GL family holds both sign pairs of one relative sign, so the
    scan has one per (m, l, matched or flipped beta).  `homs` scans the SL
    homomorphisms and takes `lambda_samples` as s samples; their alpha is
    +, and the g'-homomorphisms (`connected`) ignore the sign, so they take
    the matched beta only.  Otherwise `ido` picks the intertwining
    operators of `flavor`.
    """
    lam2s = (None,) if homs or flavor == SL else tuple(dict.fromkeys(map(exact, lambda2_samples)))
    if homs:
        kind = "gprime" if connected else "gp"
        minus_s = [-exact(s) for s in lambda_samples]  # lambda = -s
        grid = _grid(m_max, l_max, minus_s, (0,), (0,) if connected else (0, 1))
    elif ido:
        return [
            Family(f"{flavor}-ido", n, 0, k, ((0, sign_shift(0, k)),),
                   _critical_first(1 - k, lambda_samples), lam2s)
            for k in range(k_max + 1)
        ]
    else:
        kind, grid = flavor, _grid(m_max, l_max, lambda_samples, (0, 1), (0, 1))
    return [Family(kind, n, m, ell, signs, lams, lam2s) for m, ell, lams, signs in grid]


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
