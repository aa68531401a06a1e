"""Self-tests of the benchmark itself.

Usage (from the repository root): python3 perfbench/selftest.py

They check the input generator, the tracer's transparency and the
correctness gate; none of them times anything.
"""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import unittest
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import fmethod.branch  # noqa: E402
import fmethod.cli  # noqa: E402
import fmethod.engine  # noqa: E402
from fmethod.algebra import Polynomial  # noqa: E402

import run  # noqa: E402
import suites  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

SEEDS = range(10)


def _scan_rows(argv):
    """Rows a classify invocation produces, counted from the cell lists alone."""
    args = fmethod.cli.build_parser().parse_args(argv)
    lams = [Fraction(x) for x in args.lambda_samples.split(",")]
    lam2 = [Fraction(x) for x in args.lambda2_samples.split(",")]
    e = fmethod.engine
    if args.homs:
        rows = 0
        for m in range(args.m_max + 1):
            for ell in range(args.l_max + 1):
                svals = {Fraction(m + ell - 1), *lams}
                rows += len(svals) * (1 if args.connected else 2)
        return rows
    if args.ido:
        return len(e.classify_ido_cells(args.n, args.k_max, lams, args.flavor,
                                        lam2 if args.flavor == "gl" else (None,)))
    if args.flavor == "sl":
        return len(e.classify_sl_cells(args.n, args.m_max, args.l_max, lams))
    return len(e.classify_gl_cells(args.n, args.m_max, args.l_max, lams, lam2))


def _cli_json(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = fmethod.cli.main(argv)
    return rc, buf.getvalue()


class GeneratorTest(unittest.TestCase):
    def test_deterministic_per_seed(self):
        for w in workloads.WORKLOADS:
            for s in SEEDS:
                self.assertEqual(workloads.jobs(w, s), workloads.jobs(w, s))
        self.assertNotEqual(workloads.samples(1), workloads.samples(2))

    def test_seed0_is_acceptance_samples(self):
        s = workloads.samples(0)
        self.assertEqual(s["generic"], (Fraction(1, 3), Fraction(5), Fraction(-7, 2)))
        self.assertEqual(s["lambda2"], (Fraction(0), Fraction(1, 2)))

    def test_other_seeds_draw_non_integral(self):
        for seed in range(1, 50):
            s = workloads.samples(seed)
            for x in s["generic"] + s["lambda2"]:
                self.assertNotEqual(x.denominator, 1)

    def test_item_counts_fixed_across_seeds(self):
        for w in workloads.WORKLOADS:
            for seed in SEEDS:
                for job in workloads.jobs(w, seed):
                    if job["kind"] == "scan":
                        got = _scan_rows(job["argv"])
                    else:
                        got = len(suites.SUITES[job["suite"]](job["params"]))
                    self.assertEqual(got, job["items"], (w, seed, job["name"]))


class TracerTest(unittest.TestCase):
    ARGV = ["classify", "--n", "3", "--m-max", "1", "--l-max", "1", "--format", "json"]

    def test_transparent_and_restored(self):
        originals = {
            "engine": fmethod.engine.solve_fsystem,
            "cli": fmethod.cli.classify_sl_cell,
            "mul": Polynomial.__dict__["__mul__"],
            "pkg": fmethod.solve_fsystem,
        }
        rc0, plain = _cli_json(self.ARGV)
        tracer = Tracer("selftest").install()
        try:
            self.assertIsNot(fmethod.cli.classify_sl_cell, originals["cli"])
            self.assertIsNot(fmethod.solve_fsystem, originals["pkg"])
            rc1, traced = _cli_json(self.ARGV)
        finally:
            tracer.remove()
        self.assertTrue(tracer.restored())
        self.assertEqual((rc0, plain), (rc1, traced))
        self.assertIs(fmethod.engine.solve_fsystem, originals["engine"])
        self.assertIs(fmethod.cli.classify_sl_cell, originals["cli"])
        self.assertIs(Polynomial.__dict__["__mul__"], originals["mul"])
        self.assertIs(fmethod.solve_fsystem, originals["pkg"])
        summary = tracer.summary()
        rows = len(json.loads(plain))
        self.assertEqual(summary["stats"]["engine.cell"]["calls"], rows)
        self.assertEqual(summary["stats"]["engine.solve_fsystem"]["calls"], rows)
        self.assertEqual(summary["stats"]["cli.main"]["calls"], 1)
        apply = summary["stats"]["weyl.WeylElement.apply"]
        self.assertGreater(apply["by_parent"].get("engine.solve_fsystem", 0), 0)

    def test_self_time_excludes_children(self):
        ticks = iter(range(100))
        tracer = Tracer("t", clock=lambda: next(ticks))
        outer = tracer._wrap(lambda: inner(), "outer", "span")
        inner = tracer._wrap(lambda: None, "inner", "span")
        outer()  # outer 0..3, inner 1..2
        self.assertEqual(tracer.stats["outer"].total, 3)
        self.assertEqual(tracer.stats["outer"].self, 2)
        self.assertEqual(tracer.stats["inner"].by_parent, {"outer": 1})
        self.assertEqual([s[2] for s in tracer.spans], [1, None])


class GateTest(unittest.TestCase):
    def _branching_item(self, expected):
        return [("n=2 s=1/3", lambda: fmethod.branch.verify_branching(2, s=Fraction(1, 3), D=3),
                 expected)]

    def test_wrong_expected_status_counts_as_failed(self):
        job = {"name": "b", "kind": "verify", "items": 1}
        for expected, failed in (("pass", 0), ("fail", 1)):
            out = json.dumps(suites.run_items(self._branching_item(expected)), default=str)
            self.assertEqual(run.failures(job, {"rc": 0, "output": out}, None), failed)

    def test_expected_fail_needs_witness(self):
        self.assertFalse(suites.judge({"status": "fail", "violations": [{"monomial": None}]}, "fail"))
        self.assertTrue(suites.judge({"status": "fail", "violations": [{"monomial": [1]}]}, "fail"))

    def test_raising_item_fails(self):
        out = suites.run_items([("boom", lambda: 1 / 0, "pass")])
        self.assertEqual(out[0]["report"]["status"], "error")
        self.assertFalse(out[0]["ok"])

    def test_scan_rows_not_ok_and_reference_mismatch(self):
        argv = ["classify", "--n", "2", "--m-max", "1", "--l-max", "0", "--format", "json"]
        rc, out = _cli_json(argv)
        rows = json.loads(out)
        job = {"name": "s", "kind": "scan", "items": len(rows)}
        self.assertEqual(run.failures(job, {"rc": rc, "output": out}, out), 0)
        rows[0]["ok"] = False
        bad = json.dumps(rows, indent=2) + "\n"
        self.assertEqual(run.failures(job, {"rc": 1, "output": bad}, None), 1)
        rows[0]["ok"] = True
        rows[1]["computed_dim"] += 1
        off = json.dumps(rows, indent=2) + "\n"
        self.assertEqual(run.failures(job, {"rc": 0, "output": off}, out), 1)
        self.assertEqual(run.failures(job, {"rc": 2, "output": ""}, None), len(rows))

    def test_scaled_to_nominal_host_speed(self):
        nominal = run.NOMINAL_ITER_S
        self.assertAlmostEqual(run.scaled(2.0, [nominal, nominal]), 2.0)
        self.assertAlmostEqual(run.scaled(1.0, [nominal / 2, nominal * 3 / 2]), 1.0)
        self.assertAlmostEqual(run.scaled(1.0, [nominal / 2]), 2.0)

    def test_tail_needs_ten_beyond(self):
        self.assertIsNone(run.tail(list(range(10))))
        self.assertEqual(run.tail(list(range(11))), (100 / 11, 0))
        self.assertEqual(run.tail(list(range(20))), (50.0, 9))


class EmptyCheckoutTest(unittest.TestCase):
    def test_fails_without_the_program(self):
        """Only BENCHMARK.json and the benchmark's files: nonzero exit, no result."""
        scratch = ROOT / run.OUT_DIR / "selftest-empty"
        shutil.rmtree(scratch, ignore_errors=True)
        shutil.copytree(HERE, scratch / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", scratch)
        try:
            proc = subprocess.run(
                [sys.executable, f"{HERE.name}/run.py", "--workload", "scan-sl-large",
                 "--seed", "0", "--seconds", "1", "--trace", "0"],
                cwd=scratch, capture_output=True, text=True, timeout=60,
                env=dict(os.environ, PYTHONPATH=""),
            )
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
