"""Exact scalars, sparse multivariate polynomials, and linear algebra over Q.

Scalars are exact rationals: `int` when integral, `fractions.Fraction`
otherwise; never float.  Every polynomial coefficient is stored in this
normal form, `exact`, so integral products stay `int` products; as
`Fraction(k) == k` and the two hash and print alike, no comparison or
output depends on it.  A scalar enters through `exact` or `rational`,
which take ints, Fractions, other rationals and strings such as "-7/2",
and raise TypeError on a float, a complex or a Decimal, all floating
point (`Fraction(0.1)` is the binary expansion of 0.1, not 1/10).  The
check comes after the int and Fraction fast paths, so the hot path does
no extra work.

Monomials are exponent tuples of fixed arity.  The global term order is
graded lexicographic: compare total degree first, then the exponent tuple.
All canonical listings (monomial bases, printed polynomials, solver
unknowns) use this order, descending, so every downstream output is
deterministic.

Polynomials have one differentiation loop, `derivative_terms`, which
applies a whole multi-index to each term of a term dict in one pass, one
multiplication loop, `add_product`, which sums the products of two term
dicts into a {monomial: coefficient} dict, and one summing loop,
`add_terms`, which adds a scaled term dict into one.  The constructor
puts each coefficient in the normal form of `exact` and drops zeros.
Exponent arithmetic maps C functions over the tuples,
`tuple(map(operator.add, m1, m2))`, rather than running a generator
frame per monomial; here and in `weyl` and `operators` this is the
idiom of every term kernel.

Zeros are dropped in two places only.  Every sparse container
(`Polynomial`, `weyl.WeylElement`, `rep.VectorValuedPolynomial`,
`rep.OperatorOnVV`) drops its zero entries when it is built.  The first
three also have arithmetic, which only merges,
`terms[k] = terms[k] + c if k in terms else c`; `rep.OperatorOnVV` has
none, as its builders sum term dicts and build each entry once.  Callers
hand whatever cancelled to a constructor unfiltered.  The
operator kernels of `operators` and `verma` also return such unfiltered
{label: {monomial: coefficient}} sums, and `canonical_sums` drops their
zeros and empty labels where sums are compared without building a
container.

Linear algebra has one kernel: `sparse_rref`, exact Gauss-Jordan
elimination on sparse {column: value} rows.  `sparse_nullspace`,
`rref_basis`, `same_span` and the dense `Matrix` adapter all reduce
through it.  The reduced row echelon form is unique, so every canonical
basis is independent of how the rows were produced.

Coordinate vectors are sparse dicts everywhere, in the normal form of
`exact` in and out: each row entry enters through `exact` (so a float
raises TypeError), and every value the kernels keep and return is an int
when integral and a Fraction otherwise, so integral elimination runs as
int arithmetic.  The vectors returned map a column to a nonzero value,
the rows taken may also hold zeros (the kernel drops them), and a column
is any key that orders against the others (an index, or a (monomial,
label) pair).  `Matrix` is the only dense form, Fraction-valued (its
entries enter through `rational`), the reference that `_sparse` and
`_densify` convert for.

Values are immutable after construction and safe to share.
"""

from __future__ import annotations

import math
import numbers
from fractions import Fraction
from operator import add

Monomial = tuple  # exponent tuple, arity fixed by the ambient ring


def rational(x) -> Fraction:
    """x as a `Fraction`: from an int, a Fraction, another `numbers.Rational` or a string such as "-7/2".

    A float, a complex or a `decimal.Decimal`, all floating point, raises
    TypeError (`Fraction(0.1)` is 3602879701896397/2**55, not 1/10)."""
    if type(x) is Fraction:
        return x
    if type(x) is int or isinstance(x, (numbers.Rational, str)):
        return Fraction(x)
    raise TypeError(f"{x!r} is not an exact scalar: pass an int, a Fraction or a string like '1/10'")


def exact(x):
    """x as an exact scalar: an `int` when x is integral, else a `Fraction`.

    Takes what `rational` takes and raises as it does."""
    if type(x) is int:
        return x
    if type(x) is not Fraction:
        x = rational(x)
    return x.numerator if x.denominator == 1 else x


def monomial_key(m: Monomial):
    """Graded-lex sort key (ascending)."""
    return (sum(m), m)


def unit_monomial(arity: int, index: int) -> Monomial:
    """The exponent tuple of coordinate number `index` (0-based)."""
    return tuple(int(i == index) for i in range(arity))


def add_product(acc: dict, p: dict, q: dict, scale=1) -> None:
    """acc += scale * p * q on {monomial: coefficient} term dicts.

    A sum that cancels stays in `acc` as 0 until the `Polynomial`
    constructor or `canonical_sums` drops it, so many products can be
    summed into one dict and made a polynomial once."""
    for m1, c1 in p.items():
        if scale != 1:
            c1 = c1 * scale
        for m2, c2 in q.items():
            m = tuple(map(add, m1, m2))
            c = c1 * c2
            old = acc.get(m)
            acc[m] = c if old is None else old + c


def add_terms(acc: dict, terms: dict, scale=1) -> None:
    """acc += scale * terms on {monomial: coefficient} term dicts; a cancelled sum stays as 0."""
    for m, c in terms.items():
        if scale != 1:
            c = c * scale
        old = acc.get(m)
        acc[m] = c if old is None else old + c


def derivative_terms(terms: dict, alpha) -> dict:
    """d^alpha of a {monomial: coefficient} term dict in one pass; `terms` itself if alpha is 0.

    A term survives only if every exponent covers its order, and gains the
    falling factorials e!/(e-k)!.  Shifting by alpha is injective, so
    surviving terms never collide."""
    orders = [(i, k) for i, k in enumerate(alpha) if k]
    if not orders:
        return terms
    out = {}
    for m, c in terms.items():
        mm = list(m)
        fall = 1
        for i, k in orders:
            e = m[i]
            if e < k:
                break
            mm[i] = e - k
            fall *= math.perm(e, k)
        else:
            out[tuple(mm)] = c * fall
    return out


def canonical_sums(sums: dict) -> dict:
    """{label: {monomial: coefficient}} sums without cancelled zeros or empty labels.

    Two operators' images are equal iff their canonical sums are, whatever
    exact type (int or Fraction) each coefficient has."""
    out = {}
    for lbl, terms in sums.items():
        kept = {m: c for m, c in terms.items() if c}
        if kept:
            out[lbl] = kept
    return out


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

    `var` is a role prefix ("x" or "zeta") used for printing and to
    guard against mixing the position picture with the Fourier picture.
    """

    __slots__ = ("arity", "terms", "var")

    def __init__(self, arity: int, terms=None, var: str = "x"):
        self.arity = arity
        self.var = var
        clean = {}
        if terms:
            for mono, coeff in terms.items():
                c = coeff if type(coeff) is int else exact(coeff)
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
        return cls(arity, {(0,) * arity: 1}, var)

    @classmethod
    def constant(cls, arity, value, var="x"):
        return cls(arity, {(0,) * arity: value}, var)

    @classmethod
    def variable(cls, arity, index, var="x"):
        """The coordinate function number `index` (0-based)."""
        return cls(arity, {unit_monomial(arity, index): 1}, var)

    @classmethod
    def monomial(cls, arity, expo, coeff=1, var="x"):
        return cls(arity, {tuple(expo): coeff}, var)

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

    def constant_value(self):
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return self.terms.get((0,) * self.arity, 0)

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
        add_terms(terms, other.terms)
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
        add_product(terms, self.terms, other.terms)
        return Polynomial(self.arity, terms, self.var)

    __rmul__ = __mul__

    def scale(self, scalar) -> "Polynomial":
        s = exact(scalar)
        if not s:
            return Polynomial.zero(self.arity, self.var)
        return Polynomial(self.arity, {m: c * s for m, c in self.terms.items()}, self.var)

    def derivative(self, index: int, order: int = 1) -> "Polynomial":
        alpha = [0] * self.arity
        alpha[index] = order
        return self.derivative_multi(alpha)

    def derivative_multi(self, alpha) -> "Polynomial":
        terms = derivative_terms(self.terms, alpha)
        return self if terms is self.terms else Polynomial(self.arity, terms, self.var)

    def set_var_zero(self, index: int) -> "Polynomial":
        """Substitute coordinate `index` = 0."""
        terms = {m: c for m, c in self.terms.items() if m[index] == 0}
        return Polynomial(self.arity, terms, self.var)

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


class Matrix:
    """Dense exact matrix over Q: a thin adapter over `sparse_rref`."""

    __slots__ = ("rows", "nrows", "ncols")

    def __init__(self, rows, ncols=None):
        self.rows = [[rational(x) for x in row] for row in rows]
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

    def __eq__(self, other):
        return isinstance(other, Matrix) and self.rows == other.rows and self.ncols == other.ncols

    def __repr__(self):
        return f"Matrix({self.rows})"


def _sparse(vectors) -> list[dict]:
    return [{c: x for c, x in enumerate(v) if x} for v in vectors]


def _densify(row: dict, ncols: int) -> list[Fraction]:
    return [Fraction(row.get(c, 0)) for c in range(ncols)]


def sparse_rref(rows) -> dict:
    """Gauss-Jordan elimination of sparse rows ({column: value} dicts).

    Returns the nonzero rows of the reduced row echelon form as
    {pivot column: row}, in ascending pivot order.  Each row is 1 at its
    pivot, which is its first column, and has no entry in any other pivot
    column.  Each value enters through `exact`: an int, a Fraction or a
    string such as "-7/2", while a float, a complex or a Decimal raises
    TypeError.  Every value of the result is in its normal form, an int
    when integral and a Fraction otherwise.  The input rows are not
    modified.  The RREF of a row space is unique, so the
    result does not depend on the order of the rows.

    Each row is reduced by the pivot rows found so far; a nonzero remainder
    becomes a new pivot row at its first column, divided by its lead unless
    that is 1, and is eliminated from the earlier pivot rows.
    """
    reduced = {}
    for row in rows:
        row = {c: x for c, v in row.items() if (x := exact(v))}
        for p in [c for c in row if c in reduced]:
            _subtract(row, row.pop(p), reduced[p], p)
        if not row:
            continue
        p = min(row)
        if row[p] != 1:
            inv = 1 / Fraction(row[p])
            row = {c: exact(v * inv) for c, v in row.items()}
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
                row[c] = x.numerator if type(x) is Fraction and x.denominator == 1 else x
            else:
                del row[c]


def sparse_nullspace(rows, ncols: int) -> list[dict]:
    """Kernel basis of sparse rows ({column: value} dicts) over columns 0..ncols-1.

    One {column: value} vector per free column of the RREF, in column
    order, with its columns ascending and its first entry 1; its values are
    in the normal form of `exact`, and the rows are taken as `sparse_rref`
    takes them (a float raises TypeError).  No rows at all leave every
    column free: the unit basis.
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
        v[c] = 1
        lead = next(iter(v.values()))
        if lead != 1:
            inv = 1 / Fraction(lead)
            v = {k: exact(x * inv) for k, x in v.items()}
        out.append(v)
    return out


def rref_basis(rows) -> list[dict]:
    """The nonzero RREF rows of sparse vectors: the canonical basis of their span."""
    return list(sparse_rref(rows).values())


def same_span(a, b) -> bool:
    """Exact span equality of sparse vectors: two row spaces are equal iff their RREFs are."""
    return sparse_rref(a) == sparse_rref(b)
