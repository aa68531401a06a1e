from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fmethod.algebra import (
    Matrix,
    Polynomial,
    exact,
    format_polynomial,
    monomial_basis,
    rref_basis,
    same_span,
    sparse_nullspace,
    sparse_rref,
)
from references import is_exact_normal_form, rest


def zeta(i, arity=2):
    return Polynomial.variable(arity, i, "zeta")


def test_mul_variables():
    assert zeta(0) * zeta(1) == Polynomial.monomial(2, (1, 1), 1, "zeta")


def test_mul_identity():
    p = zeta(0) + zeta(1).scale(3)
    assert p * Polynomial.one(2, "zeta") == p


def test_square_expansion():
    # (z1 + z2)^2 = z1^2 + 2 z1 z2 + z2^2, by hand
    p = zeta(0) + zeta(1)
    expected = Polynomial(
        2,
        {(2, 0): 1, (1, 1): 2, (0, 2): 1},
        "zeta",
    )
    assert p * p == expected


def test_rest_keeps_the_terms_free_of_the_last_variable():
    p = Polynomial(3, {(2, 0, 1): 1, (1, 1, 0): 3, (0, 0, 2): 5, (0, 0, 0): -1}, "zeta")
    assert rest(p) == Polynomial(2, {(1, 1): 3, (0, 0): -1}, "zeta")
    assert rest(Polynomial.variable(2, 1)) == Polynomial.zero(1)


def test_monomial_basis_order_and_counts():
    assert monomial_basis(2, 1) == [(1, 0), (0, 1)]
    assert len(monomial_basis(3, 2)) == 6
    assert monomial_basis(2, 0) == [(0, 0)]


def test_nullspace_identity():
    assert Matrix([[1, 0], [0, 1]]).nullspace() == []


def test_nullspace_zero_matrix():
    basis = Matrix([[0, 0], [0, 0]]).nullspace()
    assert basis == [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]


def test_nullspace_row():
    # hand solve: x + y = 0, normalized so the first entry is 1
    assert Matrix([[1, 1]]).nullspace() == [[Fraction(1), Fraction(-1)]]


def test_sparse_nullspace_matches_dense():
    rows = [{0: Fraction(1), 2: Fraction(3)}, {1: Fraction(2)}]
    dense = Matrix([[1, 0, 3], [0, 2, 0]])
    assert dense.nullspace() == [[1, 0, Fraction(-1, 3)]]
    assert sparse_nullspace(rows, 3) == [{0: 1, 2: Fraction(-1, 3)}]


def test_sparse_nullspace_without_rows_is_the_unit_basis():
    assert sparse_nullspace([], 2) == [{0: 1}, {1: 1}]
    assert sparse_nullspace([], 0) == []


def test_nullspace_exactness_and_rank_nullity():
    M = Matrix([[1, 2, 3], [2, 4, 6], [1, 1, 1]])
    basis = M.nullspace()
    for v in basis:
        assert all(sum(a * x for a, x in zip(row, v)) == 0 for row in M.rows)
    assert M.rank() + len(basis) == M.ncols


small_fractions = st.fractions(
    min_value=-4, max_value=4, max_denominator=3
).filter(lambda f: f != 0)


@st.composite
def polynomials(draw, arity=2, max_degree=3):
    n_terms = draw(st.integers(0, 4))
    terms = {}
    for _ in range(n_terms):
        mono = tuple(draw(st.integers(0, max_degree)) for _ in range(arity))
        terms[mono] = draw(small_fractions)
    return Polynomial(arity, terms, "zeta")


@given(polynomials(), polynomials())
@settings(max_examples=60, deadline=None)
def test_mul_commutative(p, q):
    assert p * q == q * p


@given(polynomials(), polynomials())
@settings(max_examples=60, deadline=None)
def test_degree_additive(p, q):
    if p.is_zero() or q.is_zero():
        assert (p * q).is_zero()
    else:
        assert (p * q).degree() == p.degree() + q.degree()


def test_parse_fractional_coefficients():
    p = Polynomial(2, {(2, 1): Fraction(2, 3), (0, 1): -1, (0, 0): 1}, "zeta")
    assert format_polynomial(p) == "2/3*zeta1^2*zeta2 - zeta2 + 1"


# -- the shared printer against the polynomial printer as first written --------
#
# Test-only copy of `format_polynomial` as it built its own signed chunks,
# before one printer served `Polynomial` and `WeylElement`.


def reference_format_polynomial(p):
    if p.is_zero():
        return "0"
    chunks = []
    for mono, coeff in p.sorted_terms():
        mstr = "*".join(
            f"{p.var}{i + 1}" if e == 1 else f"{p.var}{i + 1}^{e}"
            for i, e in enumerate(mono)
            if e
        )
        if not mstr:
            body = str(abs(coeff))
        elif abs(coeff) == 1:
            body = mstr
        else:
            body = f"{abs(coeff)}*{mstr}"
        if not chunks:
            chunks.append(body if coeff > 0 else f"-{body}")
        else:
            chunks.append(f"+ {body}" if coeff > 0 else f"- {body}")
    return " ".join(chunks)


# negative, fractional, unit and constant coefficients; the zero polynomial
TEXT_COEFFS = [Fraction(c) for c in ("-3", "-1", "-1/2", "2/3", "1", "4")]
TEXT_MONOS = [(0, 0), (1, 0), (0, 2), (2, 1)]
TEXT_POLYS = [Polynomial(2, {}, "zeta")] + [
    Polynomial(2, {m1: c1, m2: c2}, var)
    for var in ("zeta", "x")
    for m1 in TEXT_MONOS
    for m2 in TEXT_MONOS
    for c1 in TEXT_COEFFS
    for c2 in TEXT_COEFFS[::2]
]


def test_printer_matches_reference_and_round_trips():
    for p in TEXT_POLYS:
        assert format_polynomial(p) == reference_format_polynomial(p) == str(p)
    assert format_polynomial(TEXT_POLYS[0]) == "0"


@given(polynomials())
@settings(max_examples=60, deadline=None)
def test_printer_matches_reference_random(p):
    assert format_polynomial(p) == reference_format_polynomial(p)


def test_span_helpers():
    a = [{0: Fraction(1)}, {1: Fraction(1)}]
    b = [{0: Fraction(1), 1: Fraction(1)}, {0: Fraction(1), 1: Fraction(-1)}]
    assert same_span(a, b)
    assert not same_span(a, b[:1])
    assert len(sparse_rref(a + b)) == 2
    assert rref_basis(b) == a


def test_arity_and_role_guards():
    with pytest.raises(ValueError):
        Polynomial.variable(2, 0) * Polynomial.variable(3, 0)
    with pytest.raises(ValueError):
        Polynomial.variable(2, 0) * Polynomial.variable(2, 0, "zeta")
    with pytest.raises(ValueError):
        monomial_basis(2, -1)


def test_polynomial_equality_respects_the_role():
    assert Polynomial.variable(2, 0, "x") != Polynomial.variable(2, 0, "zeta")
    assert Polynomial.constant(2, 3, "x") != Polynomial.constant(2, 3, "zeta")
    assert Polynomial.constant(2, 3) == 3 and hash(Polynomial.constant(2, 3)) == hash(3)
    assert Polynomial.zero(2) == 0 and hash(Polynomial.zero(2)) == hash(0)
    assert Polynomial.variable(2, 0) != "x1"


scalars = st.one_of(st.integers(-3, 3), small_fractions)


@given(polynomials(), polynomials(), scalars, st.sampled_from(["x", "zeta"]))
@settings(max_examples=100, deadline=None)
def test_equal_polynomials_hash_equal(p, q, c, var):
    assert (p == q) == (p.terms == q.terms)
    if p == q:
        assert hash(p) == hash(q)
    assert p != Polynomial(p.arity, p.terms, "x")
    assert (p == c) == (p.is_constant() and p.constant_value() == c)
    if p == c:
        assert hash(p) == hash(c)
    const = Polynomial.constant(2, c, var)
    assert const == c and c == const and hash(const) == hash(c)
    assert len({p, q}) == (1 if p == q else 2)


# -- the sparse elimination kernel against the dense loop it replaced -----------


def _dense_rref(rows, ncols):
    """Reference: the dense Gauss-Jordan loop `Matrix.rref` ran before `sparse_rref`."""
    m = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def _dense_nullspace(rows, ncols):
    red, pivots = _dense_rref(rows, ncols)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        lead = next(x for x in v if x != 0)
        basis.append([x / lead for x in v])
    return basis


def _dense_same_span(a, b, ncols):
    def rank(vectors):
        return len(_dense_rref(vectors, ncols)[1])

    return rank(a) == rank(b) == rank(a + b)


entries = st.one_of(st.just(Fraction(0)), small_fractions)


@st.composite
def matrices(draw, max_rows=6, max_cols=5):
    """(rows, ncols): no rows, zero columns, zero rows and repeated rows included."""
    ncols = draw(st.integers(0, max_cols))
    row = st.lists(entries, min_size=ncols, max_size=ncols)
    rows = draw(st.lists(row, max_size=max_rows))
    if rows and draw(st.booleans()):
        rows.append(list(draw(st.sampled_from(rows))))
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), [Fraction(0)] * ncols)
    return rows, ncols


def _sparse(rows):
    return [{c: x for c, x in enumerate(row) if x} for row in rows]


def _dense_row(row, ncols):
    return [row.get(c, Fraction(0)) for c in range(ncols)]


@given(matrices())
@settings(max_examples=120, deadline=None)
def test_sparse_kernel_matches_dense_reference(case):
    rows, ncols = case
    red, pivots = _dense_rref(rows, ncols)
    sparse = _sparse(rows)
    before = [dict(r) for r in sparse]
    reduced = sparse_rref(sparse)
    assert sparse == before
    assert list(reduced) == pivots
    assert [_dense_row(r, ncols) for r in reduced.values()] == red[: len(pivots)]
    got, got_pivots = Matrix(rows, ncols).rref()
    assert (got.rows, got_pivots, got.nrows, got.ncols) == (red, pivots, len(rows), ncols)
    assert all(type(x) is Fraction for r in got.rows for x in r)
    assert Matrix(rows, ncols).rank() == len(reduced) == len(pivots)
    assert [_dense_row(r, ncols) for r in rref_basis(sparse)] == red[: len(pivots)]
    expected = _dense_nullspace(rows, ncols)
    kernel = sparse_nullspace(sparse, ncols)
    dense_kernel = Matrix(rows, ncols).nullspace()
    assert [_dense_row(v, ncols) for v in kernel] == dense_kernel == expected
    assert all(type(x) is Fraction for v in dense_kernel for x in v)
    for v in kernel:
        assert all(is_exact_normal_form(x) for x in v.values())
        assert list(v) == sorted(v) and v[min(v)] == 1
    for row in reduced.values():
        assert all(is_exact_normal_form(x) for x in row.values())


# an entry as a caller passes it: 0, an int, an integral Fraction or a proper Fraction
mixed_entries = st.one_of(
    st.just(0), st.integers(-4, 4), st.integers(-4, 4).map(Fraction), small_fractions
)


@st.composite
def mixed_rows(draw, max_rows=6, max_cols=5):
    """(sparse rows, ncols); a row may keep zeros, as the engine's cancelled sums do."""
    ncols = draw(st.integers(0, max_cols))
    row = st.dictionaries(st.integers(0, max(ncols - 1, 0)), mixed_entries, max_size=ncols)
    return draw(st.lists(row, max_size=max_rows)), ncols


def _typed(rows):
    return [[(c, x, type(x)) for c, x in row.items()] for row in rows]


@given(mixed_rows())
# eliminating pivot 1 from the first row leaves 1/2 + 1/2 at column 2
@example(([{0: 1, 1: Fraction(1, 2), 2: Fraction(1, 2)}, {1: 1, 2: -1}], 3))
# a lead of 1 as an integral Fraction, and one of -1 as an int
@example(([{0: Fraction(1), 1: Fraction(3, 1)}, {0: 1, 2: -1}, {2: -1, 3: 2}], 4))
@settings(max_examples=150, deadline=None)
def test_sparse_kernels_return_the_exact_normal_form(case):
    """Every value `sparse_rref`, `rref_basis` and `sparse_nullspace` return
    is an int exactly when it is integral, never 0 nor a float, and equals
    the dense Fraction reference; the input rows are left as they were."""
    rows, ncols = case
    before = _typed(rows)
    dense = [_dense_row(row, ncols) for row in rows]
    red, pivots = _dense_rref(dense, ncols)
    reduced = sparse_rref(rows)
    basis = rref_basis(rows)
    kernel = sparse_nullspace(rows, ncols)
    assert list(reduced) == pivots
    assert [_dense_row(r, ncols) for r in reduced.values()] == red[: len(pivots)]
    assert [_dense_row(r, ncols) for r in basis] == red[: len(pivots)]
    assert [_dense_row(v, ncols) for v in kernel] == _dense_nullspace(dense, ncols)
    for vector in (*reduced.values(), *basis, *kernel):
        assert all(is_exact_normal_form(x) for x in vector.values())
    assert _typed(rows) == before


@given(matrices(), st.data())
@settings(max_examples=60, deadline=None)
def test_same_span_matches_dense_reference(case, data):
    a, ncols = case
    b = data.draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols), max_size=4))
    expected = _dense_same_span(a, b, ncols)
    assert same_span(_sparse(a), _sparse(b)) == expected
    # the same rows keyed by ordered tuples, as `engine.same_solution_span` keys them
    keys = data.draw(st.permutations([((c,), (ncols - c, 0)) for c in range(ncols)]))

    def relabel(rows):
        return [{keys[c]: x for c, x in row.items()} for row in _sparse(rows)]

    assert same_span(relabel(a), relabel(b)) == expected
    # reordered, rescaled and mixed generators of the same space
    k = data.draw(small_fractions)
    c = [list(r) for r in reversed(a)]
    if c:
        c[0] = [k * x for x in c[0]]
        c.append([x + y for x, y in zip(c[0], c[-1])])
    assert same_span(_sparse(a), _sparse(c)) and _dense_same_span(a, c, ncols)


# -- the one-pass derivative and the constructor ---------------------------------


def _derivative_once(p, index):
    """Reference: d/dx_index term by term, the single-index loop `derivative` ran."""
    terms = {}
    for m, c in p.terms.items():
        if m[index]:
            mm = list(m)
            mm[index] -= 1
            terms[tuple(mm)] = terms.get(tuple(mm), Fraction(0)) + c * m[index]
    return Polynomial(p.arity, terms, p.var)


@given(polynomials(arity=3), st.lists(st.integers(0, 2), max_size=6))
@settings(max_examples=120, deadline=None)
def test_derivative_multi_matches_sequential_differentiation(p, indices):
    # indices repeat, and orders reach past every exponent (max degree 3)
    alpha = tuple(indices.count(i) for i in range(3))
    expected = p
    for i in indices:
        expected = _derivative_once(expected, i)
    got = p.derivative_multi(alpha)
    assert got == expected and got.var == p.var
    assert all(is_exact_normal_form(c) for c in got.terms.values())
    assert p.derivative_multi((0, 0, 0)) == p
    for i, k in enumerate(alpha):
        expected = p
        for _ in range(k):
            expected = _derivative_once(expected, i)
        assert p.derivative(i, k) == expected


@given(st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)),
    st.one_of(
        st.integers(-3, 3), st.booleans(), small_fractions, st.just(Fraction(0)),
        st.integers(-3, 3).map(lambda k: Fraction(2 * k, 2)),
    ),
    max_size=6,
))
@settings(max_examples=100, deadline=None)
def test_polynomial_stores_nonzero_exact_scalars_only(terms):
    p = Polynomial(2, terms)
    assert p.terms == {m: Fraction(c) for m, c in terms.items() if c}
    assert all(is_exact_normal_form(c) for c in p.terms.values())
    with pytest.raises(ValueError):
        Polynomial(2, {**terms, (1, 1, 1): Fraction(1, 2)})


@pytest.mark.parametrize(
    "x, expected",
    [
        (3, 3), (-7, -7), (True, 1), (False, 0), (Fraction(4, 2), 2), (Fraction(0), 0),
        (Fraction(-1, 2), Fraction(-1, 2)), ("6/4", Fraction(3, 2)), ("-8/4", -2),
    ],
)
def test_exact_is_int_when_integral_else_fraction(x, expected):
    got = exact(x)
    assert got == expected and type(got) is type(expected)


def test_exact_keeps_a_non_integral_fraction_itself():
    x = Fraction(5, 3)
    assert exact(x) is x
