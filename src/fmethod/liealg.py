"""Matrix realization of sl(n+1)/gl(n+1), the subalgebra g', and parabolic data.

Everything lives inside one algebra of (n+1)x(n+1) rational matrices; g' is
the upper-left n-block with last row and column zero.  The Gelfand-Naimark
decomposition g = n_- + l + n_+ is the block split along the first row and
column, eigenspaces of ad(H0~) with eigenvalues -(n+1)/n, 0, +(n+1)/n.

Elements store only their nonzero entries: per row, the sorted
(column, Fraction) pairs.  Almost every operand is a matrix unit or a
short sum of them, so a sum, bracket, hash or comparison costs
O(size + nonzeros), not (n+1)^2 or 2(n+1)^3.  Entries are read through
`X[i, j]` or by iterating the rows.  `LieElement.from_units` refuses a
repeated unit and an index outside the matrix.  An element computes its
hash once, from the entries and whether it is GL; there is no `str` in
it, so it is the same in every process whatever PYTHONHASHSEED, and a
pickled element (a `--jobs` worker's) carries a valid one.
`ParabolicData` builds its fixed elements h0~, h0~', J0 and J0' once per
instance.

The component group's generators are diagonal with entries +-1, so every
sign the solver and the Verma modules read is -1 to an integer parity:
`ParabolicData.sign_coefficients` gives a sign character's parity and
`ParabolicData.sign_masks` the coordinates that a generator negates.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

from .algebra import rational

SL = "sl"
GL = "gl"


def _row(acc):
    """A sparse row from a {column: value} dict, zeros dropped."""
    return tuple(sorted((j, v) for j, v in acc.items() if v))


def _add_products(acc, row, rows, sign=1):
    """acc += sign * (row times the matrix with sparse `rows`)."""
    for k, a in row:
        a = sign * a
        for j, b in rows[k]:
            acc[j] = acc[j] + a * b if j in acc else a * b


@dataclass(frozen=True)
class LieElement:
    """Square rational matrix with a group-flavor tag."""

    entries: tuple  # per row, the sorted (column, Fraction) pairs of its nonzeros
    flavor: str = SL

    @classmethod
    def from_units(cls, size, flavor, units):
        """The element sum v*E_{i+1,j+1} over ((i, j), v) in `units` (0-based, distinct).

        ValueError on an index outside 0..size-1 or a repeated (i, j).
        """
        rows = [{} for _ in range(size)]
        for (i, j), v in units:
            if not (0 <= i < size and 0 <= j < size) or j in rows[i]:
                raise ValueError(f"unit ({i}, {j}) is repeated or outside a {size}x{size} matrix")
            rows[i][j] = rational(v)
        return cls(tuple(_row(r) for r in rows), flavor)

    def __hash__(self):
        """Computed once; no `str` in it, so equal in every process whatever PYTHONHASHSEED."""
        if "_hash" not in self.__dict__:
            object.__setattr__(self, "_hash", hash((self.entries, self.flavor == GL)))
        return self._hash

    @classmethod
    def zero(cls, size, flavor=SL):
        return cls(((),) * size, flavor)

    @property
    def size(self):
        return len(self.entries)

    def __getitem__(self, ij):
        i, j = ij
        for col, v in self.entries[i]:
            if col == j:
                return v
        return Fraction(0)

    def trace(self):
        """The sum of the diagonal nonzeros; no zero entry is built."""
        return sum((v for i, row in enumerate(self.entries) for j, v in row if j == i), Fraction(0))

    def is_zero(self):
        return not any(self.entries)

    def add(self, other):
        self._check(other)
        rows = []
        for ra, rb in zip(self.entries, other.entries):
            if rb:
                acc = dict(ra)
                for j, b in rb:
                    acc[j] = acc[j] + b if j in acc else b
                ra = _row(acc)
            rows.append(ra)
        return LieElement(tuple(rows), self.flavor)

    def sub(self, other):
        return self.add(other.scale(-1))

    def scale(self, s):
        s = rational(s)
        if not s:
            return LieElement.zero(self.size, self.flavor)
        return LieElement(
            tuple(tuple((j, s * a) for j, a in row) for row in self.entries), self.flavor
        )

    def _check(self, other):
        if self.size != other.size:
            raise ValueError("size mismatch")
        if self.flavor != other.flavor:
            raise ValueError("flavor mismatch")

    def describe(self) -> str:
        """One-line sum of matrix units, e.g. `E11 + -1/2*E22 + -1/2*E33`."""
        bits = [
            f"{v}*E{i + 1}{j + 1}" if v != 1 else f"E{i + 1}{j + 1}"
            for i, row in enumerate(self.entries)
            for j, v in row
        ]
        return " + ".join(bits) if bits else "0"


def bracket(X: LieElement, Y: LieElement) -> LieElement:
    """[X, Y] = XY - YX, summed row by row over pairs of nonzero entries."""
    X._check(Y)
    rows = []
    for xr, yr in zip(X.entries, Y.entries):
        acc = {}
        _add_products(acc, xr, Y.entries)
        _add_products(acc, yr, X.entries, -1)
        rows.append(_row(acc))
    return LieElement(tuple(rows), X.flavor)


@dataclass(frozen=True)
class ParabolicData:
    """Basis data for the pair (g, g') and the maximal parabolics P, P'.

    `n` is the rank parameter: g = sl(n+1) or gl(n+1), g' the embedded
    sl(n)/gl(n).  n_+ has dimension n, n_+' dimension n-1.
    """

    n: int
    flavor: str = SL

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("n must be >= 2")
        if self.flavor not in (SL, GL):
            raise ValueError("flavor must be 'sl' or 'gl'")

    @property
    def size(self):
        return self.n + 1

    def unit(self, i, j):
        """E_{i,j} with 1-based indices."""
        return LieElement.from_units(self.size, self.flavor, (((i - 1, j - 1), 1),))

    def _cartan(self, i):
        """E_{i,i} - E_{i+1,i+1} with 1-based i."""
        return LieElement.from_units(self.size, self.flavor, (((i - 1, i - 1), 1), ((i, i), -1)))

    def n_plus(self, j):
        """N_j^+ = E_{1,j+1}, j = 1..n."""
        return self.unit(1, j + 1)

    def n_minus(self, j):
        """N_j^- = E_{j+1,1}, j = 1..n."""
        return self.unit(j + 1, 1)

    @cached_property
    def h0_tilde(self):
        n = self.n
        return self._diag([1] + [Fraction(-1, n)] * n)

    @cached_property
    def h0_tilde_prime(self):
        n = self.n
        return self._diag([1] + [Fraction(-1, n - 1)] * (n - 1) + [0])

    @cached_property
    def j0(self):
        if self.flavor != GL:
            raise ValueError("J0 exists only for GL")
        return self._diag([0] + [Fraction(1, self.n)] * self.n)

    @cached_property
    def j0_prime(self):
        if self.flavor != GL:
            raise ValueError("J0' exists only for GL")
        n = self.n
        return self._diag([0] + [Fraction(1, n - 1)] * (n - 1) + [0])

    # -- bases ----------------------------------------------------------

    def n_plus_basis(self, primed=False):
        top = self.n - 1 if primed else self.n
        return [self.n_plus(j) for j in range(1, top + 1)]

    def n_minus_basis(self, primed=False):
        top = self.n - 1 if primed else self.n
        return [self.n_minus(j) for j in range(1, top + 1)]

    def m_basis(self, primed=False):
        """Basis of m (sl(n)-block, rows 2..n+1) or m' (rows 2..n)."""
        top = self.n if primed else self.n + 1
        out = []
        for i in range(2, top + 1):
            for j in range(2, top + 1):
                if i != j:
                    out.append(self.unit(i, j))
        out.extend(self.m_cartan(primed))
        return out

    def m_cartan(self, primed=False):
        top = self.n if primed else self.n + 1
        return [self._cartan(i) for i in range(2, top)]

    def l_basis(self, primed=False):
        out = [self.h0_tilde_prime if primed else self.h0_tilde]
        if self.flavor == GL:
            out.append(self.j0_prime if primed else self.j0)
        out.extend(self.m_basis(primed))
        return out

    def g_basis(self, primed=False):
        return self.n_minus_basis(primed) + self.l_basis(primed) + self.n_plus_basis(primed)

    # -- disconnected generators -----------------------------------------

    def gamma_elements(self, primed=False):
        """Group generators of the component group of M (resp. M').

        SL: one generator diag(-1, 1, .., 1, -1[, 1]).  GL: two generators,
        diag(-1, 1, .., 1) and diag(1, .., 1, -1[, 1]).
        """
        size = self.size
        last = self.n if primed else self.n + 1  # position of the -1 in the block
        if self.flavor == SL:
            diag = [Fraction(1)] * size
            diag[0] = Fraction(-1)
            diag[last - 1] = Fraction(-1)
            return [self._diag(diag)]
        g1 = [Fraction(1)] * size
        g1[0] = Fraction(-1)
        g2 = [Fraction(1)] * size
        g2[last - 1] = Fraction(-1)
        return [self._diag(g1), self._diag(g2)]

    def _diag(self, diag):
        """The diagonal element with entries `diag`."""
        return LieElement.from_units(
            self.size, self.flavor, [((i, i), d) for i, d in enumerate(diag) if d]
        )

    # -- characters -------------------------------------------------------

    def sign_coefficients(self, gamma: LieElement, block: int) -> tuple:
        """Per sign component, the parity it adds at a diagonal component-group element.

        A character with parities a is (-1)^(a . coefficients) at gamma.
        SL: det, the parity of the -1 entries among the `block` diagonal
        entries after the corner g0.  GL: (g0 < 0, that det).
        """
        det = sum(gamma[j, j] < 0 for j in range(1, block + 1)) % 2
        return (det,) if self.flavor == SL else (int(gamma[0, 0] < 0), det)

    def sign_masks(self, gamma: LieElement, num_vars: int, block: int) -> tuple:
        """(zeta mask, fiber mask) of a diagonal component-group element.

        The zeta mask holds the j < `num_vars` where Ad(gamma) acts on zeta_j
        by -1 (gamma[j+1, j+1] g0 < 0); the fiber mask the j < `block` where
        gamma acts on the fiber coordinate j by -1 (gamma[j+1, j+1] < 0, no
        Ad twist).  So gamma acts on zeta^m, or on a fiber label, by -1 to
        the sum of the exponents over the mask.
        """
        g0 = gamma[0, 0]
        zeta = tuple(j for j in range(num_vars) if gamma[j + 1, j + 1] * g0 < 0)
        return zeta, tuple(j for j in range(block) if gamma[j + 1, j + 1] < 0)

    def two_rho(self):
        """Weights of det Ad on n_+ against (dchi[, dchi2]), as `int`s."""
        return (self.n + 1,) if self.flavor == SL else (self.n + 1, -1)

    def two_rho_prime(self):
        return (self.n,) if self.flavor == SL else (self.n, -1)

    def in_g_prime(self, X: LieElement) -> bool:
        last = self.size - 1
        return not X.entries[last] and all(not row or row[-1][0] < last for row in X.entries)


@lru_cache(maxsize=None)
def parabolic(n: int, flavor: str = SL) -> ParabolicData:
    return ParabolicData(n, flavor)
