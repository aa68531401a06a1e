import dataclasses
import itertools
import os
import pathlib
import pickle
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fmethod.liealg import LieElement, ParabolicData, bracket, parabolic
from references import ad_series, fiber_sign, gn_project, sign_character, zeta_sign


def _from_rows(rows, flavor="sl"):
    """The element with the dense rows `rows`."""
    units = [((i, j), v) for i, row in enumerate(rows) for j, v in enumerate(row) if v]
    return LieElement.from_units(len(rows), flavor, units)


def trace_form(X, Y):
    XY = _dense_matmul(_dense(X), _dense(Y))
    return sum((XY[i][i] for i in range(X.size)), Fraction(0))


def ad_exp_minus(x, X, pd):
    """Ad(exp(-sum_j x_j N_j^-)) X; the series stops after the ad^2 term."""
    Y = LieElement.zero(pd.size, pd.flavor)
    for j, xv in enumerate(x, start=1):
        Y = Y.add(pd.n_minus(j).scale(xv))
    ad1 = bracket(Y, X)
    ad2 = bracket(Y, ad1)
    return X.sub(ad1).add(ad2.scale(Fraction(1, 2)))


def test_bracket_raising_lowering():
    pd = parabolic(2)
    expected = pd.unit(1, 1).sub(pd.unit(2, 2))
    assert bracket(pd.n_plus(1), pd.n_minus(1)) == expected


def test_nilradical_abelian():
    for n in (2, 3, 4):
        pd = parabolic(n)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                assert bracket(pd.n_minus(i), pd.n_minus(j)).is_zero()
                assert bracket(pd.n_plus(i), pd.n_plus(j)).is_zero()


@pytest.mark.parametrize("n", [2, 3, 4])
def test_grading_eigenvalues(n):
    pd = parabolic(n)
    lam = Fraction(n + 1, n)
    for j in range(1, n + 1):
        assert bracket(pd.h0_tilde, pd.n_plus(j)) == pd.n_plus(j).scale(lam)
        assert bracket(pd.h0_tilde, pd.n_minus(j)) == pd.n_minus(j).scale(-lam)


def test_trace_form_duality():
    pd = parabolic(3)
    for i in range(1, 4):
        for j in range(1, 4):
            assert trace_form(pd.n_plus(i), pd.n_minus(j)) == (1 if i == j else 0)


def test_gn_project_cases():
    pd = parabolic(2)
    lower, middle, upper = gn_project(pd, pd.n_plus(1))
    assert lower.is_zero() and middle.is_zero() and upper == pd.n_plus(1)
    lower, middle, upper = gn_project(pd, pd.h0_tilde)
    assert lower.is_zero() and upper.is_zero() and middle == pd.h0_tilde
    X = pd.unit(2, 1).add(pd.unit(2, 2))
    lower, middle, upper = gn_project(pd, X)
    assert lower == pd.unit(2, 1)
    assert middle == pd.unit(2, 2)
    assert upper.is_zero()
    assert lower.add(middle).add(upper) == X


def test_gn_parts_are_h0_eigenvectors():
    pd = parabolic(3)
    X = _from_rows(
        [[1, 2, 3, 4], [5, -1, 6, 7], [8, 9, -1, 10], [11, 12, 13, 1]]
    )
    lower, middle, upper = gn_project(pd, X)
    lam = Fraction(4, 3)
    assert bracket(pd.h0_tilde, lower) == lower.scale(-lam)
    assert bracket(pd.h0_tilde, middle).is_zero()
    assert bracket(pd.h0_tilde, upper) == upper.scale(lam)


def test_ad_exp_minus_identity_and_abelian():
    pd = parabolic(3)
    X = pd.unit(2, 3)
    assert ad_exp_minus((0, 0, 0), X, pd) == X
    Y = pd.n_minus(2)
    assert ad_exp_minus((1, 2, 3), Y, pd) == Y


def test_ad_exp_minus_grading_element():
    # one-term series by hand: H0~ - (3/2) N1^-
    pd = parabolic(2)
    out = ad_exp_minus((1, 0), pd.h0_tilde, pd)
    expected = pd.h0_tilde.sub(pd.n_minus(1).scale(Fraction(3, 2)))
    assert out == expected


def test_jacobi_identity_sampled():
    pd = parabolic(2)
    basis = pd.g_basis()
    for X, Y, Z in itertools.islice(itertools.combinations(basis, 3), 40):
        total = (
            bracket(X, bracket(Y, Z))
            .add(bracket(Y, bracket(Z, X)))
            .add(bracket(Z, bracket(X, Y)))
        )
        assert total.is_zero()


def test_ad_series_degree_at_most_two():
    pd = parabolic(3)
    for X in pd.g_basis():
        series = ad_series(X, pd, 3)
        assert max(sum(mono) for mono in series) <= 2


def test_g_prime_membership():
    pd = parabolic(3)
    assert pd.in_g_prime(pd.n_plus(1))
    assert not pd.in_g_prime(pd.n_plus(3))
    assert pd.in_g_prime(pd.h0_tilde_prime)
    assert not pd.in_g_prime(pd.h0_tilde)


def test_flavor_guards():
    pd_sl = parabolic(2)
    with pytest.raises(ValueError):
        pd_sl.j0
    pd_gl = parabolic(2, "gl")
    assert pd_gl.j0.trace() == 1
    assert pd_gl.j0_prime.trace() == 1


# -- the sparse product against the dense loops it replaced ---------------------


def _dense_matmul(A, B):
    """Reference: the dense triple loop of a matrix product."""
    n = len(A)
    return tuple(
        tuple(sum((A[i][k] * B[k][j] for k in range(n)), Fraction(0)) for j in range(n))
        for i in range(n)
    )


def _dense_gn_project(X):
    """Reference: the entrywise split that `gn_project` makes by splitting sparse rows."""
    size = len(X)
    parts = [[[Fraction(0)] * size for _ in range(size)] for _ in range(3)]
    for i in range(size):
        for j in range(size):
            part = 0 if i > 0 and j == 0 else 2 if i == 0 and j > 0 else 1
            parts[part][i][j] = X[i][j]
    return tuple(tuple(tuple(row) for row in rows) for rows in parts)


# zero weighs double: mostly-zero operands, like the matrix units the code multiplies
_entries = st.one_of(
    st.just(Fraction(0)),
    st.just(Fraction(0)),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
)


@st.composite
def sparse_pairs(draw):
    """Two mostly-zero rational matrices of one size in 3..9 (n = 2..8), and a flavor."""
    size = draw(st.integers(3, 9))
    flavor = draw(st.sampled_from(["sl", "gl"]))
    matrix = st.lists(
        st.lists(_entries, min_size=size, max_size=size), min_size=size, max_size=size
    )
    A, B = draw(matrix), draw(matrix)
    return _from_rows(A, flavor), _from_rows(B, flavor)


def _dense(X):
    """The dense rows of a Lie element, as a tuple of tuples."""
    return tuple(tuple(X[i, j] for j in range(X.size)) for i in range(X.size))


def _all_fractions(X):
    return all(type(x) is Fraction for row in _dense(X) for x in row)


@given(sparse_pairs())
@settings(max_examples=120, deadline=None)
def test_sparse_products_match_dense_reference(pair):
    X, Y = pair
    XY, YX = _dense_matmul(_dense(X), _dense(Y)), _dense_matmul(_dense(Y), _dense(X))
    expected = tuple(tuple(a - b for a, b in zip(ra, rb)) for ra, rb in zip(XY, YX))
    got = bracket(X, Y)
    assert _dense(got) == expected and got.flavor == X.flavor and _all_fractions(got)
    pd = parabolic(X.size - 1, X.flavor)
    parts = gn_project(pd, X)
    assert tuple(_dense(p) for p in parts) == _dense_gn_project(_dense(X))
    assert all(p.flavor == X.flavor and _all_fractions(p) for p in parts)
    assert parts[0].add(parts[1]).add(parts[2]) == X


@given(sparse_pairs(), _entries)
@settings(max_examples=120, deadline=None)
def test_sparse_sums_and_multiples_match_dense_reference(pair, s):
    X, Y = pair
    total = X.add(Y)
    assert _dense(total) == tuple(
        tuple(a + b for a, b in zip(ra, rb)) for ra, rb in zip(_dense(X), _dense(Y))
    )
    assert total.flavor == X.flavor and _all_fractions(total)
    multiple = X.scale(s)
    assert _dense(multiple) == tuple(tuple(s * a for a in row) for row in _dense(X))
    assert multiple.flavor == X.flavor and _all_fractions(multiple)
    difference = X.sub(Y)
    assert _dense(difference) == tuple(
        tuple(a - b for a, b in zip(ra, rb)) for ra, rb in zip(_dense(X), _dense(Y))
    )
    assert _all_fractions(difference)


def test_equal_elements_hash_equal():
    pd = parabolic(3, "gl")
    a = pd.h0_tilde_prime
    b = _from_rows(_dense(a), "gl")
    assert a is not b and a == b
    assert hash(a) == hash(b) == hash(a)
    assert [f.name for f in dataclasses.fields(a)] == ["entries", "flavor"]
    assert a != LieElement(a.entries, "sl") and {a: 1}[b] == 1


def test_hash_survives_pickling_into_another_hash_seed():
    element = parabolic(3, "gl").unit(2, 3)
    hash(element)  # store the hash before pickling
    payload = pickle.dumps(element).hex()
    script = (
        "import pickle\n"
        "from fmethod.liealg import LieElement\n"
        f"x = pickle.loads(bytes.fromhex({payload!r}))\n"
        "fresh = LieElement(x.entries, x.flavor)\n"
        "assert hash(x) == hash(fresh), 'stale hash'\n"
        "assert {fresh: 'found'}[x] == 'found'\n"
    )
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(src))
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("flavor", ["sl", "gl"])
@pytest.mark.parametrize("primed", [False, True])
def test_basis_lists_are_fresh_and_equal(flavor, primed):
    pd = parabolic(3, flavor)
    a, b = pd.g_basis(primed), pd.g_basis(primed)
    assert a is not b and a == b
    a.pop()  # each call's list is the caller's own
    assert len(pd.g_basis(primed)) == len(b)
    assert pd.unit(2, 3) == pd.unit(2, 3) and pd.h0_tilde == pd.h0_tilde
    assert pd.m_cartan(primed)[0] == pd.m_cartan(primed)[0]
    # an instance not from parabolic() builds equal elements
    assert ParabolicData(3, flavor).g_basis(primed) == b



_HASH_SCRIPT = (
    "import pickle, sys\n"
    "from fmethod.liealg import LieElement, parabolic\n"
    "x = parabolic(3, 'gl').h0_tilde_prime.add(parabolic(3, 'gl').unit(2, 3))\n"
    "y = pickle.loads(bytes.fromhex(sys.argv[1]))\n"
    "print(hash(x), hash(y), hash(LieElement(y.entries, y.flavor)))\n"
)


def test_hash_is_the_same_under_every_hash_seed():
    """The cached hash has no `str` in it: two interpreters with different
    PYTHONHASHSEED values, and a pickle round trip into each, agree with
    this process."""
    pd = parabolic(3, "gl")
    element = pd.h0_tilde_prime.add(pd.unit(2, 3))
    payload = pickle.dumps(element).hex()  # carries the hash cached above
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(src))
        done = subprocess.run([sys.executable, "-c", _HASH_SCRIPT, payload], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == [str(hash(element))] * 3
    assert hash(pickle.loads(pickle.dumps(element))) == hash(element)


@pytest.mark.parametrize(
    "units",
    [
        [((0, 1), 1), ((0, 1), 2)],  # repeated: the last value used to win
        [((1, 1), 1), ((0, 2), 3), ((1, 1), -1)],  # repeated, even when the sum is 0
        [((-1, 0), 1)],  # used to wrap around to the last row
        [((0, -1), 1)],
        [((0, 5), 1)],  # used to give E16 on a 3x3 element
        [((3, 0), 1)],
    ],
)
def test_from_units_rejects_a_bad_unit(units):
    with pytest.raises(ValueError, match="repeated or outside a 3x3 matrix"):
        LieElement.from_units(3, "sl", units)


def test_unit_takes_one_based_indices():
    pd = parabolic(2)
    assert pd.unit(1, 2) == LieElement.from_units(3, "sl", [((0, 1), 1)])
    for i, j in ((0, 1), (1, 0), (4, 1), (1, 4)):
        with pytest.raises(ValueError, match="outside a 3x3 matrix"):
            pd.unit(i, j)


# -- the sparse layout against dense rows -----------------------------------------


def _dense_describe(rows):
    """Reference: `describe` read off every entry of the dense rows."""
    bits = [
        f"{v}*E{i + 1}{j + 1}" if v != 1 else f"E{i + 1}{j + 1}"
        for i, row in enumerate(rows)
        for j, v in enumerate(row)
        if v
    ]
    return " + ".join(bits) if bits else "0"


@given(sparse_pairs(), _entries)
@settings(max_examples=120, deadline=None)
def test_sparse_layout_matches_dense_reference(pair, s):
    X, Y = pair
    A, B = _dense(X), _dense(Y)
    size, last = X.size, X.size - 1
    assert LieElement(X.entries, X.flavor) == X == _from_rows(A, X.flavor)
    assert hash(_from_rows(A, X.flavor)) == hash(X)
    assert (X == Y) == (A == B) and (X != LieElement(X.entries, "gl" if X.flavor == "sl" else "sl"))
    assert X.is_zero() == (not any(any(row) for row in A))
    assert X.trace() == sum((A[i][i] for i in range(size)), Fraction(0))
    assert type(X.trace()) is Fraction
    assert X.describe() == _dense_describe(A)
    assert X.scale(s).describe() == _dense_describe([[s * a for a in row] for row in A])
    assert bracket(X, Y).describe() == _dense_describe(
        [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(_dense_matmul(A, B), _dense_matmul(B, A))]
    )
    pd = parabolic(size - 1, X.flavor)
    assert pd.in_g_prime(X) == all(
        A[i][j] == 0 for i in range(size) for j in range(size) if last in (i, j)
    )
    # every result stores sorted distinct columns and no zeros, so equal is identical
    results = (X, X.add(Y), X.sub(Y), X.scale(s), bracket(X, Y), *gn_project(pd, X))
    for row in (row for Z in results for row in Z.entries):
        assert [j for j, _ in row] == sorted({j for j, _ in row}) and all(v for _, v in row)


@given(sparse_pairs())
@settings(max_examples=80, deadline=None)
def test_trace_sums_only_the_diagonal_nonzeros(pair):
    X, _ = pair
    A = _dense(X)

    def no_lookup(self, ij):
        raise AssertionError("trace looked an entry up")

    # every entry lookup of a zero builds a Fraction(0); trace makes none
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(LieElement, "__getitem__", no_lookup)
        trace = X.trace()
    assert trace == sum((A[i][i] for i in range(X.size)), Fraction(0))
    assert type(trace) is Fraction


@st.composite
def series_cases(draw):
    """(pd, X, num_x, x): X a sparse matrix of g (of g' when num_x = n - 1), x a point."""
    n = draw(st.integers(2, 8))
    pd = parabolic(n, draw(st.sampled_from(["sl", "gl"])))
    num_x = draw(st.sampled_from([n, n - 1]))
    top = pd.size if num_x == n else n
    cells = st.tuples(st.integers(0, top - 1), st.integers(0, top - 1), _entries)
    units = {(i, j): v for i, j, v in draw(st.lists(cells, max_size=6))}
    X = LieElement.from_units(pd.size, pd.flavor, units.items())
    x = draw(st.lists(_entries, min_size=num_x, max_size=num_x))
    return pd, X, num_x, x


@given(series_cases())
@settings(max_examples=120, deadline=None)
def test_ad_series_matches_dense_expansion(case):
    """Ad(exp(-Y)) X = X - [Y, X] + 1/2 [Y, [Y, X]] at a point, Y = sum x_k N_k^-, densely."""
    pd, X, num_x, x = case
    size = pd.size
    Y = tuple(
        tuple(x[i - 1] if j == 0 and 1 <= i <= num_x else Fraction(0) for j in range(size))
        for i in range(size)
    )

    def dense_bracket(P, Q):
        PQ, QP = _dense_matmul(P, Q), _dense_matmul(Q, P)
        return tuple(tuple(a - b for a, b in zip(ra, rb)) for ra, rb in zip(PQ, QP))

    A = _dense(X)
    ad1 = dense_bracket(Y, A)
    ad2 = dense_bracket(Y, ad1)
    expected = tuple(
        tuple(a - b + c / 2 for a, b, c in zip(ra, rb, rc)) for ra, rb, rc in zip(A, ad1, ad2)
    )
    got = [[Fraction(0)] * size for _ in range(size)]
    for mono, L in ad_series(X, pd, num_x).items():
        assert sum(mono) <= 2 and not L.is_zero()
        weight = Fraction(1)
        for xv, e in zip(x, mono):
            weight *= xv**e
        for i, row in enumerate(_dense(L)):
            for j, v in enumerate(row):
                got[i][j] += weight * v
    assert tuple(map(tuple, got)) == expected


@st.composite
def sign_cases(draw):
    """(n, flavor, primed, monomial, label): n = 2..8, a label on the mode's block."""
    n, flavor, primed = draw(st.integers(2, 8)), draw(st.sampled_from(["sl", "gl"])), draw(st.booleans())
    exponents = st.integers(0, 3)
    mono = tuple(draw(st.lists(exponents, min_size=n, max_size=n)))
    block = n - 1 if primed else n
    return n, flavor, primed, mono, tuple(draw(st.lists(exponents, min_size=block, max_size=block)))


@given(sign_cases())
@settings(max_examples=200, deadline=None)
def test_sign_parities_match_the_fraction_products(case):
    """(-1)^parity from the integer sign rule is the product of the +-1 entries.

    Per generator gamma and every pair of parity tuples (alpha, beta): the
    character over the source's n and the target's block coordinates, the
    zeta mask on a monomial, the fiber mask on a label, and their sum, the
    parity the solver compares with m over the zeta mask.
    """
    n, flavor, primed, mono, lbl = case
    pd = parabolic(n, flavor)
    block = len(lbl)
    tuples = list(itertools.product((0, 1), repeat=len(pd.two_rho())))
    for gamma in pd.gamma_elements(primed=primed):
        zeta, fiber = pd.sign_masks(gamma, n, block)
        assert (-1) ** sum(mono[j] for j in zeta) == zeta_sign(gamma, mono)
        assert (-1) ** sum(lbl[j] for j in fiber) == fiber_sign(gamma, lbl)
        a, b = pd.sign_coefficients(gamma, n), pd.sign_coefficients(gamma, block)
        assert all(type(x) is int and x in (0, 1) for x in a + b)
        for alpha in tuples:
            v_side = sign_character(pd, gamma, alpha, n)
            assert (-1) ** sum(x * y for x, y in zip(alpha, a)) == v_side
            for beta in tuples:
                w_side = sign_character(pd, gamma, beta, block)
                parity = (
                    sum(x * y for x, y in zip(alpha, a)) + sum(x * y for x, y in zip(beta, b))
                    + sum(lbl[j] for j in fiber) + sum(mono[j] for j in zeta)
                )
                assert (-1) ** parity == v_side * w_side * fiber_sign(gamma, lbl) * zeta_sign(gamma, mono)
