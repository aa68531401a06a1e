"""A standing mutation gate: every mutant in MUTANTS must fail its tests.

Run from anywhere, with pytest and hypothesis installed:

    python tests/mutants.py

For each mutant the runner copies `src/` to a temporary directory, replaces
the mutant's exact old text in one file by its new text, and runs the
mutant's test selection against that copy with `pytest -x`.  The run fails
when a selection still passes, so a check that a refactor has made vacuous
shows up here, and also when an old text does not occur exactly once, so
a refactor that moves the mutated code must re-aim its mutant (the tier-1
test `tests/test_mutants.py` checks the old texts without running any
mutant, so a stranded mutant fails every test run).  Each
selection runs in the temporary directory, with a fixed hypothesis seed,
so nothing is written to the checkout.

Add a mutant for each new invariant: a name, the file under
`src/fmethod/`, the old and the new text, and the tests that must catch it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

MUTANTS = [
    # -- the factorization re-checks on kernel sums ----------------------------
    (
        "sbo-recheck-compares-two-routes",
        "operators.py",
        "        if not a == b == c:\n",
        "        if not a == b:\n",
        ["tests/test_operators.py::test_factorization_fails_when_the_projection_selects_m_plus_one"],
    ),
    (
        "verma-recheck-compares-two-routes",
        "verma.py",
        "            if not direct == route1 == route2 or any(\n",
        "            if not direct == route1 or any(\n",
        ["tests/test_verma.py::test_factorization_fails_when_a_route_is_scaled"],
    ),
    (
        "route-c-selects-m-plus-one",
        "operators.py",
        "if len(lbl) == self.n and lbl[-1] == self.m and sum(lbl) == k",
        "if len(lbl) == self.n and lbl[-1] == self.m + 1 and sum(lbl) == k",
        ["tests/test_operators.py::test_factorization"],
    ),
    (
        "canonical-sums-keep-empty-labels",
        "algebra.py",
        "        if kept:\n            out[lbl] = kept\n",
        "        out[lbl] = kept\n",
        ["tests/test_operators.py::test_factorization"],
    ),
    (
        "verma-kernel-drops-the-padding",
        "verma.py",
        "padded = {mono + pad: c for mono, c in terms.items()}",
        "padded = dict(terms)",
        ["tests/test_verma.py::test_three_route_factorization"],
    ),
    # -- the exact-scalar normal form --------------------------------------------
    (
        "exact-keeps-an-integral-fraction",
        "algebra.py",
        "    return x.numerator if x.denominator == 1 else x\n",
        "    return x\n",
        ["tests/test_algebra.py"],
    ),
    (
        "exact-returns-the-numerator",
        "algebra.py",
        "    return x.numerator if x.denominator == 1 else x\n",
        "    return x.numerator\n",
        ["tests/test_algebra.py"],
    ),
    # -- the equivariance checks on kernel sums --------------------------------
    (
        "hom-check-drops-the-arity-requirement",
        "verma.py",
        "            any(len(x) != nv for sums in (lhs, image) for terms in sums.values() for x in terms)\n"
        "            or canonical_sums(lhs)",
        "            canonical_sums(lhs)",
        ["tests/test_verma.py::test_hom_check_matches_reference_loop_when_the_kernel_drops_the_padding"],
    ),
    (
        "hom-check-drops-canonical-sums-on-one-side",
        "verma.py",
        "or canonical_sums(lhs) != canonical_sums(act(image))",
        "or lhs != canonical_sums(act(image))",
        ["tests/test_verma.py"],
    ),
    (
        "equivariance-compares-only-the-left-labels",
        "operators.py",
        "for lbl in sorted(set(lhs) | set(rhs)):",
        "for lbl in sorted(lhs):",
        ["tests/test_operators.py::test_a_label_only_the_target_side_reaches_is_compared"],
    ),
    # -- the per-label diagonal solve --------------------------------------------
    (
        "label-solve-drops-the-overdetermined-rows",
        "engine.py",
        "interval = _degree_interval(q, lie.degree_column, targets)",
        "interval = _degree_interval(q, lie.degree_column, [])",
        ["tests/test_engine.py"],
    ),
    (
        "label-solve-drops-the-parity-check",
        "engine.py",
        "if all(sum(m[j] for j in mask) % 2 == p for mask, p in zip(masks, parities)):",
        "if True:",
        ["tests/test_engine.py"],
    ),
    (
        "label-solve-keeps-a-non-integral-shift",
        "engine.py",
        "        if any(s.denominator != 1 for s in shifts):\n            return ()\n",
        "",
        ["tests/test_engine.py"],
    ),
    (
        "label-solve-negates-the-inverse",
        "engine.py",
        "inverse = tuple(tuple(int(x * denominator) for x in row) for row in inverse)",
        "inverse = tuple(tuple(int(-x * denominator) for x in row) for row in inverse)",
        ["tests/test_engine.py"],
    ),
    # -- the member check: a further member shares every sign-free stage -------
    (
        "member-check-drops-the-gap",
        "engine.py",
        "return source.n, source.flavor, target.ell, gap, key",
        "return source.n, source.flavor, target.ell, key",
        ["tests/test_engine.py"],
    ),
    (
        "member-check-drops-the-sign-key",
        "engine.py",
        "if self._family_data(source, target) != self._data or not self.lie.lambda_free:",
        "if self._family_data(source, target)[:-1] != self._data[:-1] or not self.lie.lambda_free:",
        ["tests/test_engine.py"],
    ),
    (
        "member-check-drops-the-lambda-free-check",
        "engine.py",
        "if self._family_data(source, target) != self._data or not self.lie.lambda_free:",
        "if self._family_data(source, target) != self._data:",
        ["tests/test_engine.py"],
    ),
    # -- the F-system at each member's weights -----------------------------------
    (
        "fsystem-drops-the-weight-parts",
        "engine.py",
        "for w, part in zip(weights, parts):",
        "for w, part in zip(weights, ()):",
        ["tests/test_engine.py"],
    ),
    (
        "fsystem-weighs-into-the-base-rows",
        "engine.py",
        "    rows = {key: dict(row) for key, row in base.items()}\n",
        "    rows = base\n",
        ["tests/test_engine.py::test_weighing_leaves_the_piece_rows_alone"],
    ),
    (
        "family-solves-every-member-at-the-first-weights",
        "engine.py",
        "solved[w] = solve_at(w)",
        "solved[w] = solve_at(weights[0])",
        ["tests/test_engine.py"],
    ),
    # -- the F-system rows: each piece applied to a vector's terms of one label --
    (
        "fsystem-rows-drop-the-coefficient",
        "engine.py",
        "        terms.setdefault(lbl, {})[mono] = vec[col]\n",
        "        terms.setdefault(lbl, {})[mono] = 1\n",
        ["tests/test_engine.py::test_linear_stages_match_the_per_monomial_reference"],
    ),
    (
        "fsystem-rows-file-a-label-under-the-first-label",
        "engine.py",
        "_add_entry(rows, (jop, lbl, om), b, c)",
        "_add_entry(rows, (jop, next(iter(terms)), om), b, c)",
        ["tests/test_engine.py::test_linear_stages_match_the_per_monomial_reference"],
    ),
    # -- the component-group signs as integer parities -------------------------
    (
        "label-parities-drop-the-fiber-bits",
        "engine.py",
        "tuple((b + k) % 2 for b, k in zip(bits, key))",
        "tuple(k % 2 for b, k in zip(bits, key))",
        ["tests/test_engine.py"],
    ),
    (
        "sign-key-drops-the-mod-2",
        "engine.py",
        "(_dot(alpha, a) + _dot(beta, b)) % 2 for a, b",
        "(_dot(alpha, a) + _dot(beta, b)) for a, b",
        ["tests/test_engine.py"],
    ),
    (
        "zeta-mask-ignores-the-corner",
        "liealg.py",
        "if gamma[j + 1, j + 1] * g0 < 0)",
        "if gamma[j + 1, j + 1] < 0)",
        ["tests/test_liealg.py::test_sign_parities_match_the_fraction_products"],
    ),
    (
        "gl-sign-drops-the-corner",
        "liealg.py",
        "(int(gamma[0, 0] < 0), det)",
        "(0, det)",
        ["tests/test_liealg.py::test_sign_parities_match_the_fraction_products"],
    ),
    (
        "verma-gamma-drops-the-character",
        "verma.py",
        "bits = char + sum(lbl[j] for j in fiber)",
        "bits = sum(lbl[j] for j in fiber)",
        ["tests/test_verma.py"],
    ),
    (
        "verma-gamma-drops-the-fiber-bits",
        "verma.py",
        "bits = char + sum(lbl[j] for j in fiber)",
        "bits = char",
        ["tests/test_verma.py"],
    ),
    # -- the weight-free pieces of an action ---------------------------------------
    (
        "member-reads-c0-off-the-base-alone",
        "engine.py",
        " - c0 - _dot(self.weights, weight_c0)",
        " - c0",
        ["tests/test_engine.py::test_member_operators_match_dpi_hat"],
    ),
    (
        "member-shift-drops-the-target-character",
        "engine.py",
        "-_dot(target.nu, characters(Z, pd)) - c0",
        "-c0",
        ["tests/test_engine.py::test_member_operators_match_dpi_hat"],
    ),
    (
        "record-drops-the-raising-weight-part-check",
        "engine.py",
        "            if any(not part.is_zero() for part in parts):\n"
        "                raise ValueError(\"a raising operator of m' has a weight part\")\n",
        "",
        ["tests/test_engine.py::test_lambda_dependent_shared_stage_raises"],
    ),
    (
        "record-drops-the-diagonal-weight-part-check",
        "engine.py",
        "            if any(any(c) for _, c in parts):\n"
        "                raise ValueError(\"a weight part of a diagonal element is not a scalar\")\n",
        "",
        ["tests/test_engine.py::test_context_checks_each_weight_part_of_a_diagonal_element"],
    ),
    (
        "affine-parts-read-the-first-character-for-every-weight",
        "rep.py",
        "{(0,) * num_x: c}) for c in chars]",
        "{(0,) * num_x: chars[0]}) for c in chars]",
        ["tests/test_rep.py"],
    ),
    (
        "affine-parts-build-both-characters-for-every-flavor",
        "rep.py",
        "chars = _characters(X, num_x)[: len(characters(X, pd))]",
        "chars = _characters(X, num_x)",
        ["tests/test_rep.py"],
    ),
    (
        "affine-operator-reads-the-first-weight-only",
        "rep.py",
        "for w, part in zip(weights, parts):",
        "for w, part in zip(weights[:1], parts):",
        ["tests/test_rep.py"],
    ),
    (
        "affine-operator-skips-labels-missing-from-the-base",
        "rep.py",
        "    for lbl in base.in_labels:\n",
        "    for lbl in (out for out, inp in base.terms if out == inp):\n",
        ["tests/test_rep.py"],
    ),
    (
        "induced-operator-flips-the-n-minus-sign",
        "rep.py",
        "{m: -c for m, c in column.items()}",
        "{m: c for m, c in column.items()}",
        ["tests/test_rep.py"],
    ),
    # -- the closed form (I - U) X (I + U) and its one fiber kernel ---------------
    (
        "closed-form-drops-u-x-u",
        "rep.py",
        "        for j, t in P[0].items():\n",
        "        for j, t in ((j, {(0,) * num_x: v}) for j, v in X.entries[0]):\n",
        ["tests/test_rep.py::test_closed_form_matches_the_bracket_series"],
    ),
    (
        "fiber-drops-the-h0-shift",
        "rep.py",
        "        add_terms(diagonal, chars[0], -h[i, i])\n",
        "",
        ["tests/test_rep.py::test_closed_form_matches_the_bracket_series"],
    ),
    (
        "fiber-drops-the-j0-shift",
        "rep.py",
        "            add_terms(diagonal, chars[1], -j0[i, i])\n",
        "            pass\n",
        ["tests/test_rep.py::test_closed_form_matches_the_bracket_series"],
    ),
    (
        "corner-character-drops-its-x-terms",
        "rep.py",
        "    corner.update((unit_monomial(num_x, j - 1), v) for j, v in X.entries[0] if 0 < j <= num_x)\n",
        "",
        ["tests/test_rep.py::test_closed_form_matches_the_bracket_series"],
    ),
    (
        "dual-fiber-keeps-the-sign",
        "rep.py",
        "((k, kk), -k[j]) if fiber.dual",
        "((k, kk), k[j]) if fiber.dual",
        ["tests/test_rep.py::test_closed_form_matches_the_bracket_series"],
    ),
    (
        "element-guard-dropped",
        "rep.py",
        "            if i > num_x:\n                raise ValueError(\"element leaves the active subalgebra\")\n",
        "",
        ["tests/test_rep.py::test_an_element_outside_the_active_subalgebra_is_refused"],
    ),
    (
        "raising-actions-rebuilt-per-family",
        "engine.py",
        "        acts = lie.raising_acts.get(target.ell)\n",
        "        acts = None\n",
        ["tests/test_engine.py::test_raising_actions_are_built_once_per_record_and_ell"],
    ),
    (
        "fiber-action-keeps-an-integral-fraction",
        "rep.py",
        "{key: exact(t[()]) for key",
        "{key: t[()] for key",
        ["tests/test_engine.py::test_linear_stages_keep_integral_values_int"],
    ),
    # -- Lie elements: checked units, a cached hash free of str -------------------
    (
        "from-units-accepts-a-repeated-unit",
        "liealg.py",
        " or j in rows[i]:",
        ":",
        ["tests/test_liealg.py::test_from_units_rejects_a_bad_unit"],
    ),
    (
        "hash-reads-the-flavor-string",
        "liealg.py",
        "hash((self.entries, self.flavor == GL))",
        "hash((self.entries, self.flavor))",
        ["tests/test_liealg.py::test_hash_is_the_same_under_every_hash_seed"],
    ),
    # -- one Leibniz loop for compose and fourier -------------------------------
    (
        "leibniz-drops-the-binomial",
        "weyl.py",
        "binom = math.prod(map(math.comb, alpha, gamma))",
        "binom = 1",
        ["tests/test_weyl.py::test_compose_consistent_with_apply",
         "tests/test_weyl.py::test_apply_compose_fourier_match_reference"],
    ),
    (
        "fourier-drops-its-sign",
        "weyl.py",
        "w_alpha = {alpha: (-1) ** sum(alpha)}",
        "w_alpha = {alpha: 1}",
        ["tests/test_weyl.py"],
    ),
    # -- the family shares one solve context -------------------------------------
    (
        "family-builds-a-context-per-member",
        "engine.py",
        "weights = [ctx.weights] + [ctx.member_weights(s, t) for s, t in members[1:]]",
        "weights = [ctx.weights] + [_SolveContext(s, t, connected, full_nilradical).weights"
        " for s, t in members[1:]]",
        ["tests/test_engine.py::test_family_builds_one_solve_context"],
    ),
    # -- the term kernels' exponent arithmetic in C, and their memos ------------
    (
        "product-takes-the-larger-exponent",
        "algebra.py",
        "m = tuple(map(add, m1, m2))",
        "m = tuple(map(max, m1, m2))",
        ["tests/test_kernels.py::test_add_product_matches_reference"],
    ),
    (
        "leibniz-key-drops-beta",
        "weyl.py",
        "key = tuple(map(add, map(sub, alpha, gamma), beta))",
        "key = tuple(map(sub, alpha, gamma))",
        ["tests/test_kernels.py::test_add_composite_matches_reference"],
    ),
    (
        "sbo-sums-needs-e-above-alpha",
        "operators.py",
        "not all(map(ge, e, alpha))",
        "not all(x > a for x, a in zip(e, alpha))",
        ["tests/test_kernels.py::test_sbo_sums_match_the_restricted_composition"],
    ),
    (
        "labels-below-stops-one-short",
        "operators.py",
        "for a in range(max(0, k - used - later), min(ei, k - used) + 1)",
        "for a in range(max(0, k - used - later), min(ei, k - used))",
        ["tests/test_kernels.py::test_labels_below_matches_reference"],
    ),
    (
        "ido-sums-drop-the-input-label",
        "operators.py",
        "acc = sums.setdefault(tuple(map(add, alpha, in_lbl)), {})",
        "acc = sums.setdefault(alpha, {})",
        ["tests/test_kernels.py::test_ido_sums_match_the_derivatives_at_each_label"],
    ),
    (
        "sbo-after-key-drops-beta",
        "operators.py",
        "key = tuple(map(add, map(sub, alpha, gamma), beta))",
        "key = tuple(map(sub, alpha, gamma))",
        ["tests/test_kernels.py::test_equivariance_sides_match_the_reference_compositions"],
    ),
    (
        "target-before-key-adds-beta-to-the-last-order",
        "operators.py",
        "key = tuple(map(add, alpha, beta)) + alpha[-1:]",
        "key = tuple(map(add, alpha, beta + (1,)))",
        ["tests/test_kernels.py::test_equivariance_sides_match_the_reference_compositions"],
    ),
    (
        "labels-below-memo-hands-out-a-list",
        "operators.py",
        "    return tuple((alpha, fall) for alpha, _, fall in out)\n",
        "    return [(alpha, fall) for alpha, _, fall in out]\n",
        ["tests/test_kernels.py::test_memo_is_bounded_and_hands_out_tuples"],
    ),
    (
        "restricted-leibniz-memo-is-unbounded",
        "operators.py",
        "@lru_cache(maxsize=4096)\ndef _restricted_leibniz(",
        "@lru_cache(maxsize=None)\ndef _restricted_leibniz(",
        ["tests/test_kernels.py::test_memo_is_bounded_and_hands_out_tuples"],
    ),
    # -- the exact-scalar normal form through the elimination --------------------
    (
        "subtract-keeps-an-integral-fraction",
        "algebra.py",
        "                row[c] = x.numerator if type(x) is Fraction and x.denominator == 1 else x\n",
        "                row[c] = x\n",
        ["tests/test_algebra.py::test_sparse_kernels_return_the_exact_normal_form"],
    ),
    (
        "nullspace-unit-entry-is-a-fraction",
        "algebra.py",
        "        v[c] = 1\n",
        "        v[c] = Fraction(1)\n",
        ["tests/test_algebra.py::test_sparse_kernels_return_the_exact_normal_form"],
    ),
    (
        "pivot-row-with-an-int-lead-is-not-rescaled",
        "algebra.py",
        "        if row[p] != 1:\n",
        "        if type(row[p]) is not int:\n",
        ["tests/test_algebra.py::test_sparse_kernels_return_the_exact_normal_form"],
    ),
    # -- parameters, weights and weighed rows in the exact normal form ---------
    (
        # rep no longer imports `rational`, so the mutant reaches it through the package
        "params-keep-integral-fractions",
        "rep.py",
        "return cls(n, SL, (int(alpha) % 2,), (exact(lam),))",
        "return cls(n, SL, (int(alpha) % 2,), (__import__('fmethod.algebra').algebra.rational(lam),))",
        ["tests/test_rep.py::test_parameters_are_in_the_exact_normal_form"],
    ),
    (
        "weigh-boxes-integral-products",
        "engine.py",
        "    if any(type(w) is Fraction for w in weights):\n"
        "        rows = {key: {col: exact(v) for col, v in row.items()} for key, row in rows.items()}\n",
        "",
        ["tests/test_engine.py::test_weighing_at_a_non_integral_lambda_keeps_integral_entries_int"],
    ),
    # -- classify rows through the C encoder, with json.dumps(indent=2)'s bytes -
    (
        "json-rows-lose-one-indent",
        "cli.py",
        'separators=(",\\n    ", ": ")',
        'separators=(",\\n  ", ": ")',
        ["tests/test_cli.py::test_json_rows_match_json_dumps", "tests/test_golden.py"],
    ),
    # -- no inexact scalar at the exact-scalar boundary --------------------------
    (
        "rational-takes-a-float",
        "algebra.py",
        "if type(x) is int or isinstance(x, (numbers.Rational, str)):",
        "if type(x) is int or isinstance(x, (numbers.Real, complex, str)):",
        ["tests/test_no_float.py::test_entry_point_rejects_an_inexact_scalar"],
    ),
    (
        "row-entry-skips-exact",
        "algebra.py",
        "        row = {c: x for c, v in row.items() if (x := exact(v))}\n",
        "        row = {c: v for c, v in row.items() if v}\n",
        ["tests/test_no_float.py::test_entry_point_rejects_an_inexact_scalar"],
    ),
]


def run_mutant(name, path, old, new, selection) -> str | None:
    """None when the selection fails on the mutant as it must, else the reason it did not."""
    with tempfile.TemporaryDirectory(prefix="fmethod-mutant-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        target = src / "fmethod" / path
        text = target.read_text()
        count = text.count(old)
        if count != 1:
            return f"its old text occurs {count} times in src/fmethod/{path}"
        target.write_text(text.replace(old, new))
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             "--hypothesis-seed=0", *(str(ROOT / s) for s in selection)],
            cwd=tmp, env=env, capture_output=True, text=True,
        )
        if proc.returncode == 0:
            return "its test selection passed"
        if proc.returncode != 1:
            # 2-5: interrupted, internal error, usage error or no tests collected
            return f"pytest exited with {proc.returncode}:\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}"
    return None


def main() -> int:
    survivors = 0
    for mutant in MUTANTS:
        started = time.monotonic()
        reason = run_mutant(*mutant)
        elapsed = time.monotonic() - started
        print(f"{'killed' if reason is None else 'SURVIVED'} {mutant[0]} ({elapsed:.1f} s)"
              + ("" if reason is None else f": {reason}"), flush=True)
        survivors += reason is not None
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
