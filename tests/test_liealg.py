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


def trace_form(X, Y):
    return X.matmul(Y).trace()


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
    lower, middle, upper = pd.gn_project(pd.n_plus(1))
    assert lower.is_zero() and middle.is_zero() and upper == pd.n_plus(1)
    lower, middle, upper = pd.gn_project(pd.h0_tilde)
    assert lower.is_zero() and upper.is_zero() and middle == pd.h0_tilde
    X = pd.unit(2, 1).add(pd.unit(2, 2))
    lower, middle, upper = pd.gn_project(X)
    assert lower == pd.unit(2, 1)
    assert middle == pd.unit(2, 2)
    assert upper.is_zero()
    assert lower.add(middle).add(upper) == X


def test_gn_parts_are_h0_eigenvectors():
    pd = parabolic(3)
    X = LieElement.from_rows(
        [[1, 2, 3, 4], [5, -1, 6, 7], [8, 9, -1, 10], [11, 12, 13, 1]]
    )
    lower, middle, upper = pd.gn_project(X)
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
    from fmethod.rep import _ad_series

    pd = parabolic(3)
    for X in pd.g_basis():
        series = _ad_series(X, pd, 3)
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
    """Reference: the dense triple loop `LieElement.matmul` ran before it skipped zeros."""
    n = len(A)
    return tuple(
        tuple(sum((A[i][k] * B[k][j] for k in range(n)), Fraction(0)) for j in range(n))
        for i in range(n)
    )


def _dense_gn_project(X):
    """Reference: the entrywise split `gn_project` ran before it built tuples directly."""
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
    """Two mostly-zero rational matrices of one size in 3..5, and a flavor."""
    size = draw(st.integers(3, 5))
    flavor = draw(st.sampled_from(["sl", "gl"]))
    matrix = st.lists(
        st.lists(_entries, min_size=size, max_size=size), min_size=size, max_size=size
    )
    A, B = draw(matrix), draw(matrix)
    return LieElement.from_rows(A, flavor), LieElement.from_rows(B, flavor)


def _all_fractions(X):
    return all(type(x) is Fraction for row in X.entries for x in row)


@given(sparse_pairs())
@settings(max_examples=120, deadline=None)
def test_sparse_products_match_dense_reference(pair):
    X, Y = pair
    XY, YX = _dense_matmul(X.entries, Y.entries), _dense_matmul(Y.entries, X.entries)
    assert X.matmul(Y) == LieElement(XY, X.flavor) and _all_fractions(X.matmul(Y))
    expected = tuple(tuple(a - b for a, b in zip(ra, rb)) for ra, rb in zip(XY, YX))
    got = bracket(X, Y)
    assert got.entries == expected and got.flavor == X.flavor and _all_fractions(got)
    assert trace_form(X, Y) == sum((XY[i][i] for i in range(X.size)), Fraction(0))
    pd = parabolic(X.size - 1, X.flavor)
    parts = pd.gn_project(X)
    assert tuple(p.entries for p in parts) == _dense_gn_project(X.entries)
    assert all(p.flavor == X.flavor and _all_fractions(p) for p in parts)
    assert parts[0].add(parts[1]).add(parts[2]) == X


@given(sparse_pairs(), _entries)
@settings(max_examples=120, deadline=None)
def test_sparse_sums_and_multiples_match_dense_reference(pair, s):
    X, Y = pair
    total = X.add(Y)
    assert total.entries == tuple(
        tuple(a + b for a, b in zip(ra, rb)) for ra, rb in zip(X.entries, Y.entries)
    )
    assert total.flavor == X.flavor and _all_fractions(total)
    multiple = X.scale(s)
    assert multiple.entries == tuple(tuple(s * a for a in row) for row in X.entries)
    assert multiple.flavor == X.flavor and _all_fractions(multiple)
    difference = X.sub(Y)
    assert difference.entries == tuple(
        tuple(a - b for a, b in zip(ra, rb)) for ra, rb in zip(X.entries, Y.entries)
    )
    assert _all_fractions(difference)


def test_equal_elements_hash_equal():
    pd = parabolic(3, "gl")
    a = pd.h0_tilde_prime
    b = LieElement.from_rows([list(row) for row in a.entries], "gl")
    assert a is not b and a == b
    assert hash(a) == hash(b) == hash(a)
    # the stored hash is no field: equality and the fields stay as they were
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
def test_basis_elements_are_shared_in_fresh_lists(flavor, primed):
    pd = parabolic(3, flavor)
    a, b = pd.g_basis(primed), pd.g_basis(primed)
    assert a is not b and len(a) == len(b)
    assert all(x is y for x, y in zip(a, b))
    a.pop()  # each call's list is the caller's own
    assert len(pd.g_basis(primed)) == len(b)
    assert pd.unit(2, 3) is pd.unit(2, 3) and pd.h0_tilde is pd.h0_tilde
    assert pd.m_cartan(primed)[0] is pd.m_cartan(primed)[0]
    # an instance not from parabolic() shares them too
    assert all(x is y for x, y in zip(ParabolicData(3, flavor).g_basis(primed), b))

