"""The term kernels against their generator-frame references (`references`).

`algebra.add_product`, `weyl._add_composite`, `operators._labels_below`
and `operators._restricted_leibniz` do their exponent arithmetic with
`map` over C functions; each must give exactly what its generator version
gives, key order included.  `SBO.sums`, `IDOOp.sums` and the two
equivariance sides must equal the compositions they stand for.  The two
label enumerations are memoised: each memo is bounded and hands out
tuples only, so no caller can change a cached value.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import references
from fmethod import operators
from fmethod.algebra import add_product, canonical_sums, monomial_basis
from fmethod.liealg import parabolic
from fmethod.operators import SBO, IDOOp, _compose_sbo_after, _compose_target_before
from fmethod.rep import ScalarRepParams, TargetRepParams, dpi_lambda, dpi_target
from fmethod.weyl import WeylElement, _add_composite

# zero is drawn too: the kernels sum term dicts whose cancelled entries stay as 0
COEFFS = st.one_of(
    st.integers(-3, 3), st.fractions(min_value=-3, max_value=3, max_denominator=3)
)
ARITIES = st.integers(1, 5)


def exponents(arity, top=3):
    return st.tuples(*[st.integers(0, top)] * arity)


def term_dicts(arity, top=3, max_size=4):
    return st.dictionaries(exponents(arity, top), COEFFS, max_size=max_size)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_add_product_matches_reference(data):
    arity = data.draw(ARITIES)
    acc, p, q = (data.draw(term_dicts(arity)) for _ in range(3))
    scale = data.draw(COEFFS)
    got, want = dict(acc), dict(acc)
    add_product(got, p, q, scale)
    references.add_product(want, p, q, scale)
    assert got == want and list(got) == list(want)


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_add_composite_matches_reference(data):
    arity = data.draw(ARITIES)
    p, q = data.draw(term_dicts(arity)), data.draw(term_dicts(arity))
    alpha, beta = data.draw(exponents(arity, 2)), data.draw(exponents(arity, 2))
    got, want = {}, {}
    _add_composite(got, p, alpha, q, beta)
    references.add_composite(want, p, alpha, q, beta)
    assert got == want and list(got) == list(want)
    assert all(list(got[key]) == list(want[key]) for key in got)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_labels_below_matches_reference(data):
    e = data.draw(ARITIES.flatmap(exponents))
    k = data.draw(st.integers(0, sum(e) + 1))
    want = tuple(references.labels_below(e, k))
    got = operators._labels_below(e, k)
    assert got == want
    hits = operators._labels_below.cache_info().hits
    assert operators._labels_below(e, k) is got
    assert operators._labels_below.cache_info().hits == hits + 1


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_restricted_leibniz_matches_reference(data):
    arity = data.draw(ARITIES)
    alpha, e = data.draw(exponents(arity)), data.draw(exponents(arity))
    want = tuple(references.restricted_leibniz(alpha, e))
    got = operators._restricted_leibniz(alpha, e)
    assert got == want
    hits = operators._restricted_leibniz.cache_info().hits
    assert operators._restricted_leibniz(alpha, e) is got
    assert operators._restricted_leibniz.cache_info().hits == hits + 1


@pytest.mark.parametrize(
    "memo, args",
    [
        (operators._labels_below, ((2, 0, 1), 2)),
        (operators._restricted_leibniz, ((2, 1, 1), (1, 0, 1))),
    ],
    ids=["labels-below", "restricted-leibniz"],
)
def test_memo_is_bounded_and_hands_out_tuples(memo, args):
    maxsize = memo.cache_parameters()["maxsize"]
    assert type(maxsize) is int and maxsize > 0
    out = memo(*args)
    assert out and type(out) is tuple
    for label, factor in out:
        assert type(label) is tuple and all(type(x) is int for x in label)
        assert type(factor) is int
    assert memo(*args) is out


@st.composite
def sbos(draw, arities=ARITIES):
    """A Rest o D with random constant coefficients at distinct labels of one degree."""
    n = draw(arities)
    ell = draw(st.integers(0, 2 if n > 1 else 0))
    labels = draw(st.lists(st.sampled_from(monomial_basis(n - 1, ell)), min_size=1, max_size=3,
                           unique=True))
    zero = (0,) * n
    comps = []
    for lbl in labels:
        alphas = draw(st.lists(exponents(n), min_size=1, max_size=3, unique=True))
        coeffs = draw(st.lists(COEFFS.filter(bool), min_size=len(alphas), max_size=len(alphas)))
        comps.append((lbl, WeylElement.from_sums(n, {a: {zero: c} for a, c in zip(alphas, coeffs)})))
    return SBO(n, tuple(comps))


@given(sbos(), st.data())
@settings(max_examples=100, deadline=None)
def test_sbo_sums_match_the_restricted_composition(D, data):
    f = data.draw(term_dicts(D.n, top=4, max_size=5))
    assert canonical_sums(D.sums(f)) == references.sbo_images(D, f)


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_ido_sums_match_the_derivatives_at_each_label(data):
    n = data.draw(ARITIES)
    k = data.draw(st.integers(0, 3))
    comps = data.draw(st.dictionaries(exponents(n, 2), term_dicts(n, top=4), min_size=1, max_size=2))
    assert canonical_sums(IDOOp(n, k).sums(comps)) == references.ido_images(n, k, comps)


def _nonzero_sums(sides: dict) -> dict:
    """{label: canonical sums} of a kernel's {label: {alpha: terms}}, empty labels left out."""
    out = {lbl: canonical_sums(sums) for lbl, sums in sides.items()}
    return {lbl: sums for lbl, sums in out.items() if sums}


def _operator_sums(ops: dict) -> dict:
    """{label: {alpha: terms}} of a reference's {label: WeylElement}, zero operators left out."""
    return {lbl: {a: p.terms for a, p in op.terms.items()} for lbl, op in ops.items() if op.terms}


@given(sbos(st.integers(2, 4)), st.data())
@settings(max_examples=40, deadline=None)
def test_equivariance_sides_match_the_reference_compositions(D, data):
    n = D.n
    ell = sum(D.components[0][0])
    flavor = data.draw(st.sampled_from(("sl", "gl")))
    lam, nu = data.draw(COEFFS), data.draw(COEFFS)
    if flavor == "sl":
        source, target = ScalarRepParams.sl(n, lam), TargetRepParams.sl(n, nu, ell=ell)
    else:
        lam2 = data.draw(COEFFS)
        source = ScalarRepParams.gl(n, lam, lam2)
        target = TargetRepParams.gl(n, nu, lam2 - ell, ell=ell)
    X = data.draw(st.sampled_from(parabolic(n, flavor).g_basis(primed=True)))
    op, T = dpi_lambda(X, source), dpi_target(X, target)
    assert _nonzero_sums(_compose_sbo_after(D, op)) == _operator_sums(references.sbo_after(D, op))
    assert _nonzero_sums(_compose_target_before(T, D)) == _operator_sums(
        references.target_before(T, D)
    )

