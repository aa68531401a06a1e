"""Matrix realization of sl(n+1)/gl(n+1), the subalgebra g', and parabolic data.

Everything lives inside one algebra of (n+1)x(n+1) rational matrices; g' is
the upper-left n-block with last row and column zero.  The Gelfand-Naimark
decomposition g = n_- + l + n_+ is the block split along the first row and
column, eigenspaces of ad(H0~) with eigenvalues -(n+1)/n, 0, +(n+1)/n.

Elements keep dense `Fraction` entries, but sums, multiples and products
touch only nonzero entries: almost every operand is a matrix unit or a
short sum of them, so a bracket costs a few multiplications instead of
2(n+1)^3.

The basis elements are shared: `ParabolicData.unit`, the grading
elements, the Cartan elements and so every basis list (`g_basis` and its
parts, each a fresh list) return the same `LieElement` objects for each
algebra, from one `lru_cache` keyed by the size, the flavor and the
nonzero entries.  The operator caches (`rep.dpi_lambda`, `rep.dpi_target`,
`rep._ad_series`, ...) are keyed by these elements, so a lookup with a
basis element hits by identity, without comparing (n+1)^2 entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

SL = "sl"
GL = "gl"


@dataclass(frozen=True)
class LieElement:
    """Square rational matrix with a group-flavor tag."""

    entries: tuple  # tuple of tuples of Fraction
    flavor: str = SL

    def __hash__(self):
        # Elements key the operator caches, so the hash of the (n+1)^2
        # Fractions is stored on first use, outside the fields (equality
        # is unchanged).
        try:
            return self.__dict__["_hash"]
        except KeyError:
            h = self.__dict__["_hash"] = hash((self.entries, self.flavor))
            return h

    def __getstate__(self):
        # a str hash differs between processes, so the stored one stays here
        return {"entries": self.entries, "flavor": self.flavor}

    @classmethod
    def from_rows(cls, rows, flavor=SL):
        entries = tuple(tuple(Fraction(x) for x in row) for row in rows)
        return cls(entries, flavor)

    @classmethod
    def zero(cls, size, flavor=SL):
        return cls.from_rows([[0] * size for _ in range(size)], flavor)

    @property
    def size(self):
        return len(self.entries)

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def trace(self):
        return sum((self.entries[i][i] for i in range(self.size)), Fraction(0))

    def is_zero(self):
        return all(x == 0 for row in self.entries for x in row)

    def add(self, other):
        """Exact sum; only the nonzero entries of `other` are added."""
        self._check(other)
        return LieElement(
            tuple(
                tuple(a + b if b else a for a, b in zip(ra, rb)) if any(rb) else ra
                for ra, rb in zip(self.entries, other.entries)
            ),
            self.flavor,
        )

    def sub(self, other):
        return self.add(other.scale(-1))

    def scale(self, s):
        """Exact multiple; only the nonzero entries are multiplied."""
        s = Fraction(s)
        return LieElement(
            tuple(tuple(s * a if a else a for a in row) for row in self.entries),
            self.flavor,
        )

    def matmul(self, other):
        """Exact product; only pairs of nonzero entries are multiplied."""
        self._check(other)
        n = self.size
        other_rows = [[(j, b) for j, b in enumerate(row) if b] for row in other.entries]
        rows = []
        for a_row in self.entries:
            row = [Fraction(0)] * n
            for k, a in enumerate(a_row):
                if a:
                    for j, b in other_rows[k]:
                        row[j] += a * b
            rows.append(tuple(row))
        return LieElement(tuple(rows), self.flavor)

    def _check(self, other):
        if self.size != other.size:
            raise ValueError("size mismatch")
        if self.flavor != other.flavor:
            raise ValueError("flavor mismatch")

    def describe(self) -> str:
        """One-line sum of matrix units, e.g. `E11 + -1/2*E22 + -1/2*E33`."""
        bits = []
        for i, row in enumerate(self.entries):
            for j, v in enumerate(row):
                if v:
                    bits.append(f"{v}*E{i + 1}{j + 1}" if v != 1 else f"E{i + 1}{j + 1}")
        return " + ".join(bits) if bits else "0"

    def __str__(self):
        return "\n".join(" ".join(str(x) for x in row) for row in self.entries)


def bracket(X: LieElement, Y: LieElement) -> LieElement:
    """[X, Y] = XY - YX."""
    return X.matmul(Y).sub(Y.matmul(X))


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
        """E_{i,j} with 1-based indices, shared."""
        return _shared_element(self.size, self.flavor, (((i - 1, j - 1), 1),))

    def _cartan(self, i):
        """E_{i,i} - E_{i+1,i+1} with 1-based i, shared."""
        return _shared_element(self.size, self.flavor, (((i - 1, i - 1), 1), ((i, i), -1)))

    def n_plus(self, j):
        """N_j^+ = E_{1,j+1}, j = 1..n."""
        return self.unit(1, j + 1)

    def n_minus(self, j):
        """N_j^- = E_{j+1,1}, j = 1..n."""
        return self.unit(j + 1, 1)

    @property
    def h0_tilde(self):
        n = self.n
        return self._diag([1] + [Fraction(-1, n)] * n)

    @property
    def h0_tilde_prime(self):
        n = self.n
        return self._diag([1] + [Fraction(-1, n - 1)] * (n - 1) + [0])

    @property
    def j0(self):
        if self.flavor != GL:
            raise ValueError("J0 exists only for GL")
        return self._diag([0] + [Fraction(1, self.n)] * self.n)

    @property
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
        """The diagonal element with entries `diag`, shared."""
        return _shared_element(
            self.size, self.flavor, tuple(((i, i), d) for i, d in enumerate(diag) if d)
        )

    # -- projections and characters ---------------------------------------

    def gn_project(self, X: LieElement):
        """Split X into (n_- part, l part, n_+ part)."""
        zero = Fraction(0)
        blank = (zero,) * self.size
        head, *tail = X.entries
        lower = (blank,) + tuple((row[0],) + blank[1:] for row in tail)
        middle = ((head[0],) + blank[1:],) + tuple((zero,) + row[1:] for row in tail)
        upper = ((zero,) + head[1:],) + (blank,) * len(tail)
        return (
            LieElement(lower, self.flavor),
            LieElement(middle, self.flavor),
            LieElement(upper, self.flavor),
        )

    def sign_character(self, gamma: LieElement, parities, block: int) -> Fraction:
        """The sign character with `parities` at a diagonal component-group element.

        SL: det^a, the determinant over the `block` diagonal entries after
        the corner g0.  GL: g0^a1 det^a2.
        """
        det = Fraction(1)
        for j in range(1, block + 1):
            det *= gamma.entries[j][j]
        if self.flavor == SL:
            return det if parities[0] % 2 else Fraction(1)
        g0 = gamma.entries[0][0]
        return (g0 if parities[0] % 2 else Fraction(1)) * (det if parities[1] % 2 else Fraction(1))

    def two_rho(self):
        """Weights of det Ad on n_+ against (dchi[, dchi2])."""
        if self.flavor == SL:
            return (Fraction(self.n + 1),)
        return (Fraction(self.n + 1), Fraction(-1))

    def two_rho_prime(self):
        if self.flavor == SL:
            return (Fraction(self.n),)
        return (Fraction(self.n), Fraction(-1))

    def in_g_prime(self, X: LieElement) -> bool:
        size = self.size
        return all(
            X.entries[i][j] == 0
            for i in range(size)
            for j in range(size)
            if i == size - 1 or j == size - 1
        )


@lru_cache(maxsize=None)
def parabolic(n: int, flavor: str = SL) -> ParabolicData:
    return ParabolicData(n, flavor)


@lru_cache(maxsize=None)
def _shared_element(size, flavor, entries):
    """The element with the given ((row, column), value) entries (0-based) and
    zeros elsewhere; one object per key, so the operator caches hit by identity."""
    rows = [[0] * size for _ in range(size)]
    for (i, j), v in entries:
        rows[i][j] = v
    return LieElement.from_rows(rows, flavor)
