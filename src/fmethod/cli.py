"""Batch driver: classification scans, verification suites, branching reports.

Exit codes: 0 all checks pass, 1 a mathematical identity failed, 2 usage
error (bad or conflicting arguments, rejected before any work starts),
3 internal error (an invariant of the engine failed).  Output is
deterministic byte for byte for a fixed configuration: bases are
RREF-canonical and rows are sorted after any parallel merge.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction

from .branch import verify_branching
from .engine import DEFAULT_LAMBDA2_SAMPLES, DEFAULT_SAMPLES, row_key, run_cell, scan_jobs
from .operators import (
    build_sbo,
    check_equivariance,
    fg_submodule,
    image_computations,
    verify_factorization_sbo,
)
from .params import parse_sign
from .rep import ScalarRepParams, TargetRepParams
from .verma import verify_factorization_verma

TABLE_COLUMNS = [
    "flavor",
    "n",
    "alpha",
    "beta",
    "l",
    "lambda",
    "nu",
    "predicted_dim",
    "computed_dim",
    "basis_symbols",
]
HOMS_COLUMNS = [
    "flavor", "n", "alpha", "beta", "l", "s", "r",
    "predicted_dim", "computed_dim", "basis_symbols",
]


def _worker_count(jobs: int, families: int, cpus) -> int:
    """Worker processes for a scan: min(--jobs, CPUs, lambda-families), at least one.

    `cpus` may be None (unknown).  The pool starts every worker up front,
    so asking for more than can run only costs start-up.
    """
    return max(1, min(jobs, cpus or 1, families))


def _usable_cpus():
    """CPUs this process may run on (its affinity mask where the OS has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count()


def _run_families(jobs, requested):
    """The rows of every job, one job per lambda-family."""
    workers = _worker_count(requested, len(jobs), _usable_cpus())
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            families = list(pool.map(run_cell, jobs))
    else:
        families = map(run_cell, jobs)
    return [row for rows in families for row in rows]


def _emit(rows_or_report, fmt, out_path, columns=None):
    if fmt == "json":
        text = json.dumps(rows_or_report, indent=2, default=str) + "\n"
    elif fmt == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=columns, extrasaction="ignore")
        writer.writeheader()
        for row in rows_or_report:
            writer.writerow(row)
        text = buf.getvalue()
    else:
        widths = {
            c: max([len(c)] + [len(str(r.get(c, ""))) for r in rows_or_report])
            for c in columns
        }
        lines = ["  ".join(c.ljust(widths[c]) for c in columns)]
        for row in rows_or_report:
            lines.append("  ".join(str(row.get(c, "")).ljust(widths[c]) for c in columns))
        text = "\n".join(lines) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_classify(args) -> int:
    jobs = scan_jobs(
        args.n, args.flavor, args.m_max, args.l_max, args.lambda_samples, args.lambda2_samples,
        ido=args.ido, k_max=args.k_max, homs=args.homs, connected=args.connected,
    )
    rows = sorted(_run_families(jobs, args.jobs), key=row_key)
    columns = HOMS_COLUMNS if args.homs else TABLE_COLUMNS
    _emit(rows, args.format, args.out, columns)
    bad = [r for r in rows if not r["ok"]]
    if bad:
        sys.stderr.write(f"{len(bad)} cells disagree with the predicted dimensions\n")
        for r in bad[:10]:
            sys.stderr.write(json.dumps(r, default=str) + "\n")
        return 1
    return 0


def _verify_equivariance(args) -> dict:
    n, m, ell, lam = args.n, args.m, args.l, args.lam
    nu = lam + m + Fraction(n, n - 1) * ell if args.nu is None else args.nu
    if args.flavor == "sl":
        source = ScalarRepParams.sl(n, lam)
        target = TargetRepParams.sl(n, nu, ell=ell)
    else:
        nu2 = args.lam2 - Fraction(ell, n - 1)
        source = ScalarRepParams.gl(n, lam, args.lam2)
        target = TargetRepParams.gl(n, nu, nu2, ell=ell)
    return check_equivariance(build_sbo(m, ell, n), source, target, args.deg)


def cmd_verify(args) -> int:
    if args.what == "factorization":
        report = verify_factorization_sbo(args.m, args.l, args.n, args.deg)
    elif args.what == "equivariance":
        report = _verify_equivariance(args)
    elif args.what == "images":
        report = image_computations(args.m, args.l, args.n)
        stability = fg_submodule(args.m + args.l, args.n, flavor=args.flavor)
        report["fg_stability"] = stability["status"]
        if stability["status"] != "pass":
            report["status"] = "fail"
    elif args.what == "verma-factorization":
        report = verify_factorization_verma(
            args.m, args.l, args.n, args.deg, flavor=args.flavor, alpha=args.alpha, lam2=args.lam2
        )
    else:
        raise ValueError(f"unknown verify target {args.what!r}")
    _emit(report, "json", args.out)
    return 0 if report["status"] == "pass" else 1


def cmd_branch(args) -> int:
    report = verify_branching(args.n, s=args.s, p=args.p, D=args.deg)
    _emit(report, "json", args.out)
    return 0 if report["status"] == "pass" else 1


def _int_at_least(lowest):
    """argparse type: an int >= lowest, else a usage error (exit 2)."""

    def parse(text):
        value = int(text)
        if value < lowest:
            raise argparse.ArgumentTypeError(f"must be >= {lowest}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def _fraction(text):
    """argparse type: one exact rational such as -7/2, else a usage error."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from None


def _fractions(text):
    """argparse type: comma-separated rationals (empty items are skipped)."""
    return tuple(_fraction(x) for x in text.split(",") if x.strip())


def _sign(text):
    """argparse type: a sign character, + or -, as its parity."""
    try:
        return parse_sign(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a sign (+ or -): {text!r}") from None


def _out_path(text):
    """argparse type: a writable file in an existing directory, else a usage error.

    Checked without opening it, so a rejected path is neither created nor
    truncated, and no cell is solved before the check.  An empty path names
    no file.
    """
    parent = os.path.dirname(text) or "."
    if not text or os.path.isdir(text) or not os.path.isdir(parent):
        raise argparse.ArgumentTypeError(f"not a file in an existing directory: {text!r}")
    if not os.access(text if os.path.exists(text) else parent, os.W_OK):
        raise argparse.ArgumentTypeError(f"not writable: {text!r}")
    return text


def _ignored_mode(args):
    """The classify flag that the chosen scan would silently ignore, if any.

    A sample or bound flag counts only when set away from its default, so
    a default spelled out passes.  An empty lambda_2 sample list counts
    too: a GL scan would run no cell.
    """
    if args.homs and args.flavor != "sl":
        return "--homs scans the SL homomorphisms only; drop --flavor gl"
    if args.connected and not args.homs:
        return "--connected applies to --homs only"

    def changed(dest):
        return getattr(args, dest) != args.parser.get_default(dest)

    if changed("k_max") and not args.ido:
        return "--k-max applies to --ido only"
    if args.ido and (changed("m_max") or changed("l_max")):
        return "--m-max and --l-max do not apply to --ido, which scans the orders k <= --k-max"
    if changed("lambda2_samples") and args.flavor == "sl":
        return "--lambda2-samples applies to --flavor gl only"
    if args.flavor == "gl" and not args.lambda2_samples:
        return "--lambda2-samples is empty, so a GL scan would check nothing"
    return None


# the optional flags each verify target reads (--n, --m, --l and --out serve all);
# --lambda2 is read under --flavor gl only.  equivariance reads no --alpha: the
# check is infinitesimal, dpi_lambda reads only lambda, and the report has no sign
VERIFY_READS = {
    "factorization": {"--deg"},
    "equivariance": {"--deg", "--lambda", "--lambda2", "--nu", "--flavor"},
    "images": {"--flavor"},
    "verma-factorization": {"--deg", "--lambda2", "--alpha", "--flavor"},
}
VERIFY_DEST = {
    "--deg": "deg", "--lambda": "lam", "--lambda2": "lam2", "--nu": "nu", "--alpha": "alpha",
    "--flavor": "flavor",
}


def _ignored_verify_flag(args):
    """A verify flag set away from its default that the target would not read, if any."""
    reads = VERIFY_READS[args.what]
    for flag, dest in VERIFY_DEST.items():
        if getattr(args, dest) == args.parser.get_default(dest):
            continue
        if flag not in reads:
            return f"verify {args.what} does not read {flag}"
        if flag == "--lambda2" and args.flavor == "sl":
            return "--lambda2 applies to --flavor gl only"
    return None


def build_parser():
    ap = argparse.ArgumentParser(
        prog="fmethod",
        description="Exact classification and verification of differential "
        "symmetry breaking operators on real projective spaces.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    c = sub.add_parser("classify", help="run a classification scan")
    c.add_argument("--flavor", choices=["sl", "gl"], default="sl")
    c.add_argument("--n", type=_int_at_least(2), required=True)
    c.add_argument("--m-max", type=_int_at_least(0), default=3)
    c.add_argument("--l-max", type=_int_at_least(0), default=3)
    c.add_argument("--k-max", type=_int_at_least(0), default=4)
    c.add_argument("--lambda-samples", type=_fractions, default=DEFAULT_SAMPLES)
    c.add_argument("--lambda2-samples", type=_fractions, default=DEFAULT_LAMBDA2_SAMPLES)
    scan = c.add_mutually_exclusive_group()
    scan.add_argument("--ido", action="store_true", help="scan intertwining operators (full nilradical)")
    scan.add_argument("--homs", action="store_true", help="scan Verma-module homomorphisms")
    c.add_argument("--connected", action="store_true", help="identity-component equivariance only")
    c.add_argument("--format", choices=["json", "csv", "table"], default="table")
    c.add_argument("--out", type=_out_path, default=None)
    c.add_argument("--jobs", type=_int_at_least(1), default=1)
    c.set_defaults(func=cmd_classify, parser=c)

    v = sub.add_parser("verify", help="verify operator identities")
    v.add_argument("what", choices=["factorization", "equivariance", "images", "verma-factorization"])
    v.add_argument("--n", type=_int_at_least(2), required=True)
    v.add_argument("--m", type=_int_at_least(0), default=1)
    v.add_argument("--l", type=_int_at_least(0), default=0)
    v.add_argument("--deg", type=_int_at_least(0), default=6)
    v.add_argument("--lambda", dest="lam", type=_fraction, default=Fraction(0))
    v.add_argument("--lambda2", dest="lam2", type=_fraction, default=Fraction(0))
    v.add_argument("--nu", type=_fraction, default=None)
    v.add_argument("--alpha", type=_sign, default=0)
    v.add_argument("--flavor", choices=["sl", "gl"], default="sl")
    v.add_argument("--out", type=_out_path, default=None)
    v.set_defaults(func=cmd_verify, parser=v)

    b = sub.add_parser("branch", help="verify branching laws")
    b.add_argument("--n", type=_int_at_least(2), required=True)
    mode = b.add_mutually_exclusive_group(required=True)
    mode.add_argument("--s", type=_fraction, default=None)
    mode.add_argument("--p", type=_int_at_least(0), default=None)
    b.add_argument("--deg", type=_int_at_least(0), default=10)
    b.add_argument("--out", type=_out_path, default=None)
    b.set_defaults(func=cmd_branch)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    check = {"classify": _ignored_mode, "verify": _ignored_verify_flag}.get(args.command)
    ignored = check(args) if check else None
    if ignored:
        args.parser.error(ignored)
    try:
        return args.func(args)
    except (ValueError, ZeroDivisionError) as exc:
        # every argument was checked above, so this is a broken invariant
        sys.stderr.write(f"internal error: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
