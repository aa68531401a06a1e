"""Reference builders that kernels of `src/` are tested against.

The exact-scalar normal form (test_algebra, test_weyl and test_rep), the
entrywise difference of two operator matrices (test_rep), the
restricting kernels of `operators` (shared by test_algebra, test_weyl and
test_operators), the generator-frame versions of the term kernels'
exponent arithmetic and the compositions that `SBO.sums` and
`IDOOp.sums` stand for (test_kernels), the vector- and operator-level
loops of the two equivariance checks (test_operators, test_kernels and
test_verma), the component-group signs as products of `Fraction`
entries (test_liealg, test_engine and test_verma), and the noncompact-
picture action built from the bracket series of Ad(exp(-sum x_k N_k^-))
and the Gelfand-Naimark split of each term (test_liealg and test_rep),
the engine's equivariance and F-system rows built one monomial at a
time, and the per-weight F-system solve that the lambda-loci of
`engine.solve_family` replace (test_engine); not a test module.
"""

import itertools
import math
from fractions import Fraction

from fmethod.algebra import (
    Polynomial,
    add_terms,
    canonical_sums,
    derivative_terms,
    exact,
    monomial_basis,
    monomials_up_to,
    rref_basis,
    sparse_nullspace,
    unit_monomial,
)
from fmethod.engine import _SolveContext, _to_vvps
from fmethod.liealg import GL, SL, LieElement, bracket, parabolic
from fmethod.rep import OperatorOnVV, VectorValuedPolynomial, characters, dpi_lambda, dpi_target
from fmethod.weyl import WeylElement


def is_exact_normal_form(c) -> bool:
    """c is nonzero, an `int` when its denominator is 1 and a `Fraction`
    otherwise; a bool or a float never is."""
    return c != 0 and type(c) is (int if Fraction(c).denominator == 1 else Fraction)


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


def entry_differences(a, b) -> dict:
    """{(out, in): a's entry minus b's} of two `OperatorOnVV`s, at every key
    where the two differ, by the arithmetic of `WeylElement`."""
    keys = set(a.terms) | set(b.terms)
    return {k: a.entry(*k) - b.entry(*k) for k in keys if a.entry(*k) != b.entry(*k)}


# -- the term kernels' exponent arithmetic in generator frames ---------------


def monomial_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def add_product(acc: dict, p: dict, q: dict, scale=1) -> None:
    """`algebra.add_product`: acc += scale * p * q, a cancelled sum kept as 0."""
    for m1, c1 in p.items():
        if scale != 1:
            c1 = c1 * scale
        for m2, c2 in q.items():
            m = monomial_mul(m1, m2)
            c = c1 * c2
            old = acc.get(m)
            acc[m] = c if old is None else old + c


def add_composite(sums: dict, p: dict, alpha, q: dict, beta) -> None:
    """`weyl._add_composite`: sums += (p d^alpha) o (q d^beta) by the Leibniz rule."""
    for gamma in itertools.product(*(range(a + 1) for a in alpha)):
        dq = derivative_terms(q, gamma)
        if dq:
            binom = math.prod(math.comb(a, g) for a, g in zip(alpha, gamma))
            key = tuple(a - g + b for a, g, b in zip(alpha, gamma, beta))
            add_product(sums.setdefault(key, {}), p, dq, binom)


def labels_below(e, k) -> list:
    """`operators._labels_below`: (alpha, prod e_i!/(e_i - alpha_i)!) over alpha <= e, |alpha| = k."""
    out = [((), 0, 1)]
    later = sum(e)
    for ei in e:
        later -= ei
        out = [
            (alpha + (a,), used + a, fall * math.perm(ei, a))
            for alpha, used, fall in out
            for a in range(max(0, k - used - later), min(ei, k - used) + 1)
        ]
    return [(alpha, fall) for alpha, _, fall in out]


def restricted_leibniz(alpha, e) -> list:
    """`operators._restricted_leibniz`: (gamma, C(alpha, gamma) e!/(e-gamma)!) with gamma_n = e_n."""
    if e[-1] > alpha[-1]:
        return []
    out = [((), 1)]
    for a, x in zip(alpha[:-1], e[:-1]):
        out = [
            (gamma + (g,), factor * math.comb(a, g) * math.perm(x, g))
            for gamma, factor in out
            for g in range(min(a, x) + 1)
        ]
    last = math.comb(alpha[-1], e[-1]) * math.factorial(e[-1])
    return [(gamma + (e[-1],), factor * last) for gamma, factor in out]


def sbo_images(D, f: dict) -> dict:
    """`SBO.sums` as canonical sums: each component applied to f by
    `WeylElement.apply`, then Rest_{x_n=0}."""
    p = Polynomial(D.n, f)
    return canonical_sums({lbl: rest(op.apply(p)).terms for lbl, op in D.components})


def ido_images(n: int, k: int, comps: dict) -> dict:
    """`IDOOp.sums` as canonical sums: d^alpha of each input component at
    label alpha + its label, over the alpha of degree k."""
    out = {}
    for in_lbl, terms in comps.items():
        p = Polynomial(n, terms)
        for alpha in monomial_basis(n, k):
            lbl = tuple(a + b for a, b in zip(alpha, in_lbl))
            add_terms(out.setdefault(lbl, {}), p.derivative_multi(alpha).terms)
    return canonical_sums(out)


# -- the equivariance checks on built operators and vectors -------------------


def _restricted_witness(diff: WeylElement):
    """The first monomial of degree <= order + degree + 2 that Rest o diff does not kill."""
    n = diff.arity
    cap = diff.order() + max(p.degree() for p in diff.terms.values()) + 2
    for mono in monomials_up_to(n, cap):
        if not rest(diff.apply(Polynomial.monomial(n, mono))).is_zero():
            return mono
    return None


def sbo_after(D, op) -> dict:
    """{label: Rest o (D_l o op)} by generic composition."""
    return {lbl: restrict_last_var(comp.compose(op)) for lbl, comp in D.components}


def target_before(T, D) -> dict:
    """{label: Rest o sum_in T_(l, in) o D_in} over T's output labels, by generic composition."""
    out = {}
    for out_lbl in T.out_labels:
        acc = WeylElement.zero(D.n)
        for in_lbl, d in D.components:
            acc = acc + restrict_last_var(T.entry(out_lbl, in_lbl).pad_vars(D.n).compose(d))
        out[out_lbl] = acc
    return out


def equivariance_violations(D, source, target):
    """`operators.check_equivariance`'s violations by generic composition.

    Per X of g', the first label (in sorted order) at which `sbo_after`
    and `target_before` differ, with its witness monomial.
    """
    zero = WeylElement.zero(D.n)
    violations = []
    for X in parabolic(source.n, source.flavor).g_basis(primed=True):
        lhs = sbo_after(D, dpi_lambda(X, source))
        rhs = target_before(dpi_target(X, target), D)
        for lbl in sorted(set(lhs) | set(rhs)):
            a, b = lhs.get(lbl, zero), rhs.get(lbl, zero)
            if a != b:
                violations.append(
                    {"X": X.describe(), "component": lbl, "monomial": _restricted_witness(a - b)}
                )
                break
    return violations


def _differ(lhs, rhs) -> bool:
    """lhs() != rhs() as vectors; a side whose vector cannot be built (ValueError) differs."""
    try:
        return not (lhs() - rhs()).is_zero()
    except ValueError:
        return True


def hom_violations(h, degree_cap):
    """`verma.check_hom_equivariance`'s (violations, sign_violations), vector by vector.

    Each side is built as a vector through `apply`, once per (X, vector),
    and the signs through the Fraction products of `gamma_action` below.
    A side that cannot be built as a vector of the target (say, its
    monomials have another arity) counts as a violation.
    """
    pd = h.source.pd
    primed = h.source.primed
    violations = []
    for X in pd.g_basis(primed=primed):
        srcop = h.source.action(X)
        tgtop = h.target.action(X)
        for g in range(degree_cap + 1):
            for mono, lbl in h.source.basis(g):
                v = h.source.unit(mono, lbl)
                if _differ(lambda: h.apply(srcop.apply(v)), lambda: tgtop.apply(h.apply(v))):
                    violations.append({"X": X.describe(), "grade": g, "vector": (mono, lbl)})
                    break
            if violations and violations[-1]["X"] == X.describe():
                break
    sign_violations = []
    for gamma in pd.gamma_elements(primed=primed):
        for lbl in h.source.fiber_labels():
            v = h.source.unit((0,) * h.source.num_vars, lbl)
            if _differ(
                lambda: h.apply(gamma_action(h.source, gamma, v)),
                lambda: gamma_action(h.target, gamma, h.apply(v)),
            ):
                sign_violations.append({"gamma": gamma.describe(), "label": lbl})
    return violations, sign_violations


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


# -- the noncompact-picture action from the bracket series ----------------------


def _split_first_column(row):
    """(the column-0 pair of a sparse row, or (), and the rest of the row)."""
    return (row[:1], row[1:]) if row and row[0][0] == 0 else ((), row)


def gn_project(pd, X):
    """The Gelfand-Naimark split of X into (n_- part, l part, n_+ part):
    column 0 below the corner, the corner and the block, row 0 right of the corner."""
    firsts, rests = zip(*(_split_first_column(row) for row in X.entries))
    blank = ((),) * (pd.size - 1)
    return (
        LieElement(((),) + firsts[1:], pd.flavor),
        LieElement((firsts[0],) + rests[1:], pd.flavor),
        LieElement((rests[0],) + blank, pd.flavor),
    )


def ad_series(X, pd, num_x):
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


def fiber_action(fiber, L, pd):
    """`SymFiber.act`, the m-part of the l-element L's action, from the block
    of L - dchi(L) h0~ (- dchi2(L) J0 for GL), entry by entry."""
    block = fiber.block
    c1 = L[0, 0]
    Z = L.sub((pd.h0_tilde_prime if block == pd.n - 1 else pd.h0_tilde).scale(c1))
    if pd.flavor == GL:
        Z = Z.sub((pd.j0_prime if block == pd.n - 1 else pd.j0).scale(L.trace()))
    B = sorted(
        (j - 1, i - 1, b)
        for i in range(1, block + 1)
        for j, b in Z.entries[i]
        if 1 <= j <= block
    )
    out = {}
    for k in monomial_basis(block, fiber.degree):
        for j, i, b in B:
            if k[j]:
                coeff = k[j] * b
                kk = list(k)
                kk[j] -= 1
                kk[i] += 1
                kk = tuple(kk)
                key = (k, kk) if fiber.dual else (kk, k)
                sgn = -coeff if fiber.dual else coeff
                out[key] = out.get(key, Fraction(0)) + sgn
    return {k: v for k, v in out.items() if v}


def induced_operator(X, pd, num_x, fiber, weights):
    """`rep.affine_operator` (unpictured) from `ad_series`: per term of the
    series, its Gelfand-Naimark split, the n_- part as -dR, the fiber action of
    the l part and, on the diagonal, sum_i w_i chi_i of the l part, w =
    `weights`; `rep.induced_operator` at `weights=()`."""
    labels = fiber.labels()
    lowering, l_part = {}, {}
    for mono, L in ad_series(X, pd, num_x).items():
        lower, middle, _ = gn_project(pd, L)
        for j in range(num_x):
            if lower[j + 1, 0]:
                lowering.setdefault(unit_monomial(num_x, j), {})[mono] = -lower[j + 1, 0]
        for j in range(num_x + 1, pd.n + 1):
            if lower[j, 0]:
                raise ValueError("element leaves the active subalgebra")
        action = fiber_action(fiber, middle, pd)
        weight = sum(w * c for w, c in zip(weights, characters(middle, pd)))
        if weight:
            for k in labels:
                action[(k, k)] = action.get((k, k), 0) + weight
        for key, val in action.items():
            if val:
                l_part.setdefault(key, {})[mono] = val
    shared = WeylElement.from_sums(num_x, lowering)
    terms = {(lbl, lbl): shared for lbl in labels}
    for key, t in l_part.items():
        diagonal = shared.terms if key[0] == key[1] else {}
        terms[key] = WeylElement(num_x, {**diagonal, (0,) * num_x: Polynomial(num_x, t)})
    return OperatorOnVV(num_x, labels, labels, terms)


def affine_parts(X, pd, num_x, fiber, fourier):
    """`rep._affine_parts` from `ad_series`: the weight-free `induced_operator`
    and, per character of pd's flavor, multiplication by that character of
    each series term."""
    base = induced_operator(X, pd, num_x, fiber, ())
    chars = {mono: characters(L, pd) for mono, L in ad_series(X, pd, num_x).items()}
    parts = [
        WeylElement.from_sums(num_x, {(0,) * num_x: {mono: c[i] for mono, c in chars.items()}})
        for i in range(len(pd.two_rho()))
    ]
    return tuple(op.fourier() for op in (base, *parts)) if fourier else (base, *parts)


def _add_entry(rows, key, col, value):
    row = rows.setdefault(key, {})
    row[col] = row.get(col, 0) + value


def equivariance_rows(ctx, unknowns) -> dict:
    """The rows whose kernel `_SolveContext.equivariant_vectors` returns, one
    column at a time: each raising operator applied to the unknown's
    monomial, minus the fiber's action on its label."""
    rows = {}
    for zi, (op, act) in enumerate(ctx.raising):
        for col, (mono, lbl) in enumerate(unknowns):
            for om, c in op.sums({mono: 1}).items():
                _add_entry(rows, (zi, lbl, om), col, c)
            for (outl, inl), a in act.items():
                if outl == lbl:
                    _add_entry(rows, (zi, inl, mono), col, -a)
    return rows


def fsystem_rows(ctx, unknowns, eq_vectors) -> list:
    """`_SolveContext.fsystem_rows` one monomial at a time: each piece of
    N_1^+ applied to each column's monomial, times the vector's coefficient."""
    pieces = [{} for _ in ctx.lie.fsystem[0]]
    for jop, ops in enumerate(ctx.lie.fsystem):
        for rows, op in zip(pieces, ops):
            for b, vec in enumerate(eq_vectors):
                for col, coeff in vec.items():
                    mono, lbl = unknowns[col]
                    for om, c in op.sums({mono: 1}).items():
                        _add_entry(rows, (jop, lbl, om), b, coeff * c)
    return pieces


def nonzero_rows(rows: dict) -> dict:
    """Sparse rows without their zero entries, and without a row left empty."""
    return {key: kept for key, row in rows.items() if (kept := {b: c for b, c in row.items() if c})}


def weigh(pieces, weights) -> dict:
    """The rows of base + sum_i w_i part_i at `weights`, summed into fresh rows: pieces serve every member.

    The pieces' entries are `exact`; at a non-integral weight a product
    or sum can be an integral `Fraction`, so those rows are put back in
    the `exact` normal form and reach the kernel as `int`s.
    """
    base, *parts = pieces
    rows = {key: dict(row) for key, row in base.items()}
    for w, part in zip(weights, parts, strict=True):
        if w:
            for key, row in part.items():
                add_terms(rows.setdefault(key, {}), row, w)
    if any(type(w) is Fraction for w in weights):
        rows = {key: {col: exact(v) for col, v in row.items()} for key, row in rows.items()}
    return rows


def solve_family_per_weight(source, target, lams, degree_cap, connected=False, full_nilradical=False) -> list:
    """`engine.solve_family` by elimination at each distinct weight w = 2rho - lambda.

    One context and the same stages, but each lambda's F-system is the
    piece rows weighed at its w, solved by `sparse_nullspace` over the
    stage's equivariant vectors, whatever their number, with the
    solutions put in RREF; equal weights share one solve.
    """
    ctx = _SolveContext(source, target, connected, full_nilradical)
    stages = []
    for d in range(max(degree_cap, -1) + 1):
        unknowns = ctx.unknowns_at_degree(d)
        eq_vectors = ctx.equivariant_vectors(unknowns)
        if eq_vectors:
            stages.append((d, unknowns, eq_vectors, ctx.fsystem_rows(unknowns, eq_vectors)))

    def solve_at(w):
        solutions, degrees, sizes = [], [], {}
        for d, unknowns, eq_vectors, pieces in stages:
            kernel = sparse_nullspace(weigh(pieces, w).values(), len(eq_vectors))
            if kernel:
                sizes[d] = (len(unknowns), len(eq_vectors), len(kernel))
                degrees.append(d)
                vectors = []
                for cv in kernel:
                    full = {}
                    for b, x in cv.items():
                        add_terms(full, eq_vectors[b], x)
                    vectors.append(full)
                solutions.extend(_to_vvps(rref_basis(vectors), unknowns, ctx.n))
        return solutions, degrees, sizes

    solved = {}
    out = []
    for lam in lams:
        w = ctx.weights_at(lam)
        if w not in solved:
            solved[w] = solve_at(w)
        solutions, degrees, sizes = solved[w]
        provenance = {
            "degree_cap": degree_cap,
            "sizes": dict(sizes),
            "connected": connected,
            "full_nilradical": full_nilradical,
        }
        out.append((list(solutions), list(degrees), provenance))
    return out
