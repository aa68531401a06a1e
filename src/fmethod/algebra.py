"""Exact scalars, sparse multivariate polynomials, and linear algebra over Q.

Monomials are exponent tuples of fixed arity.  The global term order is
graded lexicographic: compare total degree first, then the exponent tuple.
All canonical listings (monomial bases, printed polynomials, solver
unknowns) use this order, descending, so every downstream output is
deterministic.

Polynomials have one differentiation loop, `Polynomial.derivative_multi`,
which applies a whole multi-index to each term in one pass, and one
multiplication loop, `add_product`, which sums the products of two
polynomials' terms into a {monomial: Fraction} dict.  The constructor
converts a coefficient only if it is not a `Fraction` yet and drops zeros.

Zeros are dropped in constructors only.  Every sparse container
(`Polynomial`, `weyl.WeylElement`, `rep.VectorValuedPolynomial`,
`rep.OperatorOnVV`) drops its zero entries when it is built, so its
arithmetic only merges, `terms[k] = terms[k] + c if k in terms else c`,
and callers hand whatever cancelled to a constructor unfiltered.

Linear algebra has one kernel: `sparse_rref`, exact Gauss-Jordan
elimination on sparse {column: Fraction} rows.  `sparse_nullspace`,
`rref_basis`, `same_span` and the dense `Matrix` adapter all reduce
through it.  The reduced row echelon form is unique, so every canonical
basis is independent of how the rows were produced.

Coordinate vectors are sparse dicts everywhere: the vectors these
functions return map a column to a nonzero Fraction, the rows they take
may also hold zeros (the kernel drops them), and a column is any key that
orders against the others (an index, or a (monomial, label) pair).
`Matrix` is the only dense form, the reference that `_sparse` and
`_densify` convert for.

Values are immutable after construction and safe to share.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

Monomial = tuple  # exponent tuple, arity fixed by the ambient ring


def monomial_key(m: Monomial):
    """Graded-lex sort key (ascending)."""
    return (sum(m), m)


def monomial_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x + y for x, y in zip(a, b))


def add_product(acc: dict, p: "Polynomial", q: "Polynomial", scale=1) -> None:
    """acc += scale * p * q on a {monomial: Fraction} dict.

    A sum that cancels stays in `acc` as 0 until the `Polynomial`
    constructor drops it, so many products can be summed into one dict and
    made a polynomial once."""
    for m1, c1 in p.terms.items():
        if scale != 1:
            c1 = c1 * scale
        for m2, c2 in q.terms.items():
            m = monomial_mul(m1, m2)
            c = c1 * c2
            old = acc.get(m)
            acc[m] = c if old is None else old + c


def monomial_basis(arity: int, degree: int) -> list[Monomial]:
    """All monomials of exact total degree, graded-lex order (descending)."""
    if degree < 0:
        raise ValueError("degree must be >= 0")
    if arity == 0:
        return [()] if degree == 0 else []
    out = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            out.append(prefix + (remaining,))
            return
        for e in range(remaining, -1, -1):
            rec(prefix + (e,), remaining - e, slots - 1)

    rec((), degree, arity)
    assert len(out) == math.comb(degree + arity - 1, arity - 1)
    return out


def monomials_up_to(arity: int, degree: int) -> list[Monomial]:
    out = []
    for d in range(degree + 1):
        out.extend(monomial_basis(arity, d))
    return out


class Polynomial:
    """Sparse polynomial over Q: map monomial -> nonzero coefficient.

    `var` is a role prefix ("x", "z", "zeta", "y") used for printing and to
    guard against mixing the position picture with the Fourier picture.
    """

    __slots__ = ("arity", "terms", "var")

    def __init__(self, arity: int, terms=None, var: str = "x"):
        self.arity = arity
        self.var = var
        clean = {}
        if terms:
            for mono, coeff in terms.items():
                c = coeff if type(coeff) is Fraction else Fraction(coeff)
                if c:
                    if len(mono) != arity:
                        raise ValueError("monomial arity mismatch")
                    clean[tuple(mono)] = c
        self.terms = clean

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, arity, var="x"):
        return cls(arity, {}, var)

    @classmethod
    def one(cls, arity, var="x"):
        return cls(arity, {(0,) * arity: Fraction(1)}, var)

    @classmethod
    def constant(cls, arity, value, var="x"):
        return cls(arity, {(0,) * arity: Fraction(value)}, var)

    @classmethod
    def variable(cls, arity, index, var="x"):
        """The coordinate function number `index` (0-based)."""
        expo = [0] * arity
        expo[index] = 1
        return cls(arity, {tuple(expo): Fraction(1)}, var)

    @classmethod
    def monomial(cls, arity, expo, coeff=1, var="x"):
        return cls(arity, {tuple(expo): Fraction(coeff)}, var)

    # -- queries -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(m) for m in self.terms)

    def is_constant(self) -> bool:
        return all(sum(m) == 0 for m in self.terms)

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return self.terms.get((0,) * self.arity, Fraction(0))

    def coefficient(self, mono) -> Fraction:
        return self.terms.get(tuple(mono), Fraction(0))

    # -- arithmetic ----------------------------------------------------

    def _check(self, other):
        if self.arity != other.arity:
            raise ValueError("arity mismatch")
        if self.var != other.var:
            raise ValueError(f"variable role mismatch: {self.var} vs {other.var}")

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(self.arity, other, self.var)
        self._check(other)
        terms = dict(self.terms)
        for m, c in other.terms.items():
            terms[m] = terms[m] + c if m in terms else c
        return Polynomial(self.arity, terms, self.var)

    def __neg__(self):
        return Polynomial(self.arity, {m: -c for m, c in self.terms.items()}, self.var)

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(self.arity, other, self.var)
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            return self.scale(other)
        self._check(other)
        terms = {}
        add_product(terms, self, other)
        return Polynomial(self.arity, terms, self.var)

    __rmul__ = __mul__

    def scale(self, scalar) -> "Polynomial":
        s = Fraction(scalar)
        if not s:
            return Polynomial.zero(self.arity, self.var)
        return Polynomial(self.arity, {m: c * s for m, c in self.terms.items()}, self.var)

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power")
        result = Polynomial.one(self.arity, self.var)
        for _ in range(k):
            result = result * self
        return result

    def derivative(self, index: int, order: int = 1) -> "Polynomial":
        alpha = [0] * self.arity
        alpha[index] = order
        return self.derivative_multi(alpha)

    def derivative_multi(self, alpha) -> "Polynomial":
        """d^alpha in one pass: a term survives only if every exponent covers
        its order, and gains the falling factorials e!/(e-k)!.  Shifting by
        alpha is injective, so surviving terms never collide."""
        orders = [(i, k) for i, k in enumerate(alpha) if k]
        if not orders:
            return self
        terms = {}
        for m, c in self.terms.items():
            mm = list(m)
            fall = 1
            for i, k in orders:
                e = m[i]
                if e < k:
                    break
                mm[i] = e - k
                fall *= math.perm(e, k)
            else:
                terms[tuple(mm)] = c * fall
        return Polynomial(self.arity, terms, self.var)

    def set_var_zero(self, index: int) -> "Polynomial":
        """Substitute coordinate `index` = 0."""
        terms = {m: c for m, c in self.terms.items() if m[index] == 0}
        return Polynomial(self.arity, terms, self.var)

    def rest(self) -> "Polynomial":
        """Rest_{x_n=0}: the terms free of the last coordinate, in the others."""
        terms = {m[:-1]: c for m, c in self.terms.items() if m[-1] == 0}
        return Polynomial(self.arity - 1, terms, self.var)

    def pad_vars(self, arity: int) -> "Polynomial":
        """Reinterpret in a larger ring, new trailing variables unused."""
        if arity < self.arity:
            raise ValueError("cannot shrink")
        pad = (0,) * (arity - self.arity)
        return Polynomial(arity, {m + pad: c for m, c in self.terms.items()}, self.var)

    # -- equality / printing --------------------------------------------

    def __eq__(self, other):
        """Same arity, role and terms; a constant also equals its exact scalar."""
        if isinstance(other, Polynomial):
            return (
                self.arity == other.arity
                and self.var == other.var
                and self.terms == other.terms
            )
        if isinstance(other, (int, Fraction)):
            return self.is_constant() and self.constant_value() == other
        return NotImplemented

    def __hash__(self):
        # a constant equals its scalar, so it hashes like it
        if self.is_constant():
            return hash(self.constant_value())
        return hash((self.arity, self.var, frozenset(self.terms.items())))

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: monomial_key(kv[0]), reverse=True)

    def __str__(self):
        return format_polynomial(self)

    __repr__ = __str__


def format_monomial(mono, var: str) -> str:
    parts = []
    for i, e in enumerate(mono):
        if e == 0:
            continue
        name = f"{var}{i + 1}"
        parts.append(name if e == 1 else f"{name}^{e}")
    return "*".join(parts)


def format_terms(chunks) -> str:
    """Signed sum `c1*body1 + c2*body2 - ...` of (coefficient, body) pairs, "0" if none.

    A unit coefficient is left out; an empty body prints the bare number.
    """
    bits = []
    for coeff, body in chunks:
        if not body:
            text = str(abs(coeff))
        elif abs(coeff) == 1:
            text = body
        else:
            text = f"{abs(coeff)}*{body}"
        if not bits:
            bits.append(text if coeff > 0 else f"-{text}")
        else:
            bits.append(f"+ {text}" if coeff > 0 else f"- {text}")
    return " ".join(bits) or "0"


def format_polynomial(p: Polynomial) -> str:
    return format_terms((c, format_monomial(mono, p.var)) for mono, c in p.sorted_terms())


_TERM_RE = re.compile(r"([a-zA-Z]+)(\d+)(?:\^(\d+))?$")


def parse_terms(text: str, arity: int, names) -> dict:
    """Inverse of format_terms over bodies that are monomials in `names`.

    Returns {(exponents of names[0], exponents of names[1], ...): coefficient},
    summed over equal keys; an unknown variable name raises ValueError.
    """
    terms = {}
    for piece in re.split(r"(?=[+-])", text.replace("- ", "-").replace("+ ", "+")):
        piece = piece.strip()
        if not piece:
            continue
        coeff = Fraction(-1 if piece[0] == "-" else 1)
        if piece[0] in "+-":
            piece = piece[1:]
        expos = [[0] * arity for _ in names]
        for factor in piece.split("*"):
            factor = factor.strip()
            m = _TERM_RE.match(factor)
            if m:
                name, idx, power = m.group(1), int(m.group(2)), m.group(3)
                if name not in names:
                    raise ValueError(f"unexpected variable {name!r}, ring uses {names}")
                expos[names.index(name)][idx - 1] += int(power) if power else 1
            else:
                coeff *= Fraction(factor)
        key = tuple(map(tuple, expos))
        terms[key] = terms.get(key, Fraction(0)) + coeff
    return terms


def parse_polynomial(text: str, arity: int, var: str) -> Polynomial:
    """Inverse of format_polynomial (exact round trip on canonical form)."""
    terms = parse_terms(text, arity, (var,))
    return Polynomial(arity, {expo: c for (expo,), c in terms.items()}, var)


class Matrix:
    """Dense exact matrix over Q: a thin adapter over `sparse_rref`."""

    __slots__ = ("rows", "nrows", "ncols")

    def __init__(self, rows, ncols=None):
        self.rows = [[Fraction(x) for x in row] for row in rows]
        self.nrows = len(self.rows)
        if self.nrows:
            self.ncols = len(self.rows[0])
            if any(len(r) != self.ncols for r in self.rows):
                raise ValueError("ragged rows")
        else:
            self.ncols = 0 if ncols is None else ncols

    def rref(self):
        """Reduced row echelon form; returns (Matrix, pivot column list).

        The nonzero rows come first, then as many zero rows as the rank
        falls short of `nrows`.
        """
        reduced = sparse_rref(_sparse(self.rows))
        dense = [_densify(row, self.ncols) for row in reduced.values()]
        dense.extend([Fraction(0)] * self.ncols for _ in range(self.nrows - len(dense)))
        return Matrix(dense, self.ncols), list(reduced)

    def rank(self) -> int:
        return len(sparse_rref(_sparse(self.rows)))

    def nullspace(self) -> list[list[Fraction]]:
        """Basis of the kernel, RREF convention, first nonzero entry 1."""
        basis = sparse_nullspace(_sparse(self.rows), self.ncols)
        return [_densify(v, self.ncols) for v in basis]

    def mul_vector(self, v):
        return [sum((row[j] * v[j] for j in range(self.ncols)), Fraction(0)) for row in self.rows]

    def __eq__(self, other):
        return isinstance(other, Matrix) and self.rows == other.rows and self.ncols == other.ncols

    def __repr__(self):
        return f"Matrix({self.rows})"


def _sparse(vectors) -> list[dict]:
    return [{c: x for c, x in enumerate(v) if x} for v in vectors]


def _densify(row: dict, ncols: int) -> list[Fraction]:
    return [row.get(c, Fraction(0)) for c in range(ncols)]


def sparse_rref(rows) -> dict:
    """Gauss-Jordan elimination of sparse rows ({column: value} dicts).

    Returns the nonzero rows of the reduced row echelon form as
    {pivot column: row}, in ascending pivot order.  Each row is 1 at its
    pivot, which is its first column, and has no entry in any other pivot
    column.  Values must be Fractions or ints; the result holds Fractions
    only, and the input rows are not modified.  The RREF of a row space is
    unique, so the result does not depend on the order of the rows.

    Each row is reduced by the pivot rows found so far; a nonzero remainder
    becomes a new pivot row at its first column and is eliminated from the
    earlier pivot rows.
    """
    reduced = {}
    for row in rows:
        row = {c: v for c, v in row.items() if v}
        for p in [c for c in row if c in reduced]:
            _subtract(row, row.pop(p), reduced[p], p)
        if not row:
            continue
        p = min(row)
        inv = 1 / Fraction(row[p])
        row = {c: v * inv for c, v in row.items()}
        for other in reduced.values():
            if p in other:
                _subtract(other, other.pop(p), row, p)
        reduced[p] = row
    return dict(sorted(reduced.items()))


def _subtract(row: dict, f, pivot_row: dict, p) -> None:
    """row -= f * pivot_row in place, off the pivot column p, dropping zeros."""
    for c, v in pivot_row.items():
        if c != p:
            x = row.get(c, 0) - f * v
            if x:
                row[c] = x
            else:
                del row[c]


def sparse_nullspace(rows, ncols: int) -> list[dict]:
    """Kernel basis of sparse rows ({column: value} dicts) over columns 0..ncols-1.

    One {column: Fraction} vector per free column of the RREF, in column
    order, with its columns ascending and its first entry 1.  No rows at
    all leave every column free: the unit basis.
    """
    reduced = sparse_rref(rows)
    basis = {c: {} for c in range(ncols) if c not in reduced}
    for p, row in reduced.items():
        for c, x in row.items():
            if c != p:
                basis[c][p] = -x
    out = []
    for c, v in basis.items():
        # every pivot in v lies left of its free column c
        v[c] = Fraction(1)
        lead = next(iter(v.values()))
        out.append(v if lead == 1 else {k: x / lead for k, x in v.items()})
    return out


def rref_basis(rows) -> list[dict]:
    """The nonzero RREF rows of sparse vectors: the canonical basis of their span."""
    return list(sparse_rref(rows).values())


def same_span(a, b) -> bool:
    """Exact span equality of sparse vectors: two row spaces are equal iff their RREFs are."""
    return sparse_rref(a) == sparse_rref(b)
