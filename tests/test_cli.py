import concurrent.futures
import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fmethod import cli
from fmethod.algebra import Polynomial
from fmethod.cli import _usable_cpus, _worker_count, main
from fmethod.liealg import parabolic
from fmethod.rep import dpi_hat_parts
from fmethod.weyl import WeylElement


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_pass(capsys):
    code, out, err = run(
        capsys, "classify", "--flavor", "sl", "--n", "2", "--m-max", "1",
        "--l-max", "1", "--format", "json",
    )
    assert code == 0
    rows = json.loads(out)
    assert all(r["ok"] for r in rows)
    dim2 = [r for r in rows if r["computed_dim"] == 2]
    assert dim2 and all(r["predicted_dim"] == 2 for r in dim2)


def test_classify_deterministic(capsys):
    args = ("classify", "--flavor", "gl", "--n", "2", "--m-max", "1", "--l-max", "1", "--format", "csv")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2
    header = out1.splitlines()[0]
    assert header.startswith("flavor,n,alpha,beta,l,lambda,nu,predicted_dim,computed_dim")


def test_classify_ido(capsys):
    code, out, _ = run(
        capsys, "classify", "--n", "2", "--ido", "--k-max", "2", "--format", "json"
    )
    assert code == 0
    rows = json.loads(out)
    assert all(r["ok"] for r in rows)


def test_classify_homs(capsys):
    code, out, _ = run(
        capsys, "classify", "--n", "2", "--homs", "--connected",
        "--m-max", "1", "--l-max", "1", "--format", "json",
    )
    assert code == 0
    rows = json.loads(out)
    assert any(r["computed_dim"] == 2 for r in rows)


def test_verify_equivariance_pass(capsys):
    code, out, _ = run(
        capsys, "verify", "equivariance", "--n", "3", "--m", "1", "--l", "0",
        "--lambda", "5",
    )
    assert code == 0
    assert json.loads(out)["status"] == "pass"


def test_verify_equivariance_mismatch_exit_one(capsys):
    code, out, _ = run(
        capsys, "verify", "equivariance", "--n", "3", "--m", "1", "--l", "0",
        "--lambda", "5", "--nu", "7",
    )
    assert code == 1
    report = json.loads(out)
    assert report["status"] == "fail" and report["violations"]


def test_verify_factorization(capsys):
    code, out, _ = run(
        capsys, "verify", "factorization", "--n", "3", "--m", "2", "--l", "1",
        "--deg", "5",
    )
    assert code == 0


def test_verify_images(capsys):
    code, out, _ = run(capsys, "verify", "images", "--n", "3", "--m", "1", "--l", "2")
    assert code == 0
    assert json.loads(out)["fg_stability"] == "pass"


def test_verify_images_checks_the_requested_flavor(capsys, monkeypatch):
    seen = []

    def recording(k, n, flavor="sl"):
        seen.append((k, n, flavor))
        return {"status": "pass"}

    monkeypatch.setattr(cli, "fg_submodule", recording)
    code, out, _ = run(
        capsys, "verify", "images", "--n", "3", "--m", "1", "--l", "1", "--flavor", "gl"
    )
    assert code == 0
    assert seen == [(2, 3, "gl")]


def test_verify_verma_factorization(capsys):
    code, out, _ = run(
        capsys, "verify", "verma-factorization", "--n", "2", "--m", "1", "--l", "1",
        "--deg", "3",
    )
    assert code == 0


@pytest.mark.parametrize("sign, parity", [("+", 0), ("-", 1)])
def test_verify_verma_factorization_passes_the_sign(capsys, monkeypatch, sign, parity):
    seen = []

    def recording(m, ell, n, degree_cap, **options):
        seen.append(options["alpha"])
        return {"status": "pass"}

    monkeypatch.setattr(cli, "verify_factorization_verma", recording)
    code, _, _ = run(
        capsys, "verify", "verma-factorization", "--n", "2", "--m", "1", "--l", "1",
        "--alpha", sign,
    )
    assert code == 0
    assert seen == [parity]


def test_branch_pass(capsys):
    code, out, _ = run(capsys, "branch", "--n", "2", "--s", "1/3", "--deg", "8")
    assert code == 0
    assert json.loads(out)["status"] == "pass"


def test_branch_multiplicity_report(capsys):
    code, out, _ = run(capsys, "branch", "--n", "2", "--p", "0", "--deg", "6")
    assert code == 0
    assert json.loads(out)["invariant_counts"]["-2"] == 2


def test_branch_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["branch", "--n", "2"])
    assert exc.value.code == 2
    assert "one of the arguments --s --p is required" in capsys.readouterr().err


def test_branch_s_and_p_are_exclusive(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["branch", "--n", "2", "--s", "1/3", "--p", "2"])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert "not allowed with argument" in captured.err


def test_rational_argument_parsing(capsys):
    code, out, _ = run(
        capsys, "verify", "equivariance", "--n", "2", "--m", "1", "--l", "1",
        "--lambda", "-1",
    )
    assert code == 0
    # a negative fraction reads as an option unless joined to its flag by "="
    code, out, _ = run(
        capsys, "verify", "equivariance", "--n", "3", "--m", "1", "--lambda=-7/2"
    )
    assert code == 0 and json.loads(out)["status"] == "pass"
    code, out, _ = run(
        capsys, "classify", "--n", "2", "--m-max", "1", "--l-max", "1",
        "--lambda-samples=-7/2,1/3", "--format", "json",
    )
    assert code == 0
    assert {"-7/2", "1/3"} <= {r["lambda"] for r in json.loads(out)}
    code, out, _ = run(capsys, "branch", "--n", "2", "--s=-1/2", "--deg", "4")
    assert code == 0 and json.loads(out)["s"] == "-1/2"


def test_bad_fraction_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "equivariance", "--n", "2", "--m", "1", "--l", "0",
              "--lambda", "nonsense"])
    assert exc.value.code == 2


def test_output_file(tmp_path, capsys):
    out_file = tmp_path / "table.json"
    code, _, _ = run(
        capsys, "classify", "--n", "2", "--m-max", "0", "--l-max", "0",
        "--format", "json", "--out", str(out_file),
    )
    assert code == 0
    rows = json.loads(out_file.read_text())
    assert rows


@pytest.mark.parametrize(
    "where", ["missing-directory", "a-directory", "other-argument-bad", "empty"]
)
@pytest.mark.parametrize(
    "verb",
    [
        ("classify", "--n", "2", "--m-max", "1", "--l-max", "1"),
        ("verify", "factorization", "--n", "2"),
        ("branch", "--n", "2", "--p", "0"),
    ],
    ids=["classify", "verify", "branch"],
)
def test_unusable_out_is_a_usage_error_before_any_work(tmp_path, capsys, verb, where):
    kept = tmp_path / "kept.json"
    kept.write_text("kept\n")
    out, extra = {
        "missing-directory": (tmp_path / "missing" / "x.json", ()),
        "a-directory": (tmp_path, ()),
        "other-argument-bad": (kept, ("--n", "1")),
        # an empty path would have sent the output to stdout
        "empty": ("", ()),
    }[where]
    with pytest.raises(SystemExit) as exc:
        main([*verb, "--out", str(out), *extra])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    if where != "other-argument-bad":
        assert "--out: not a file in an existing directory" in captured.err
    # nothing was created, and the existing file was not truncated
    assert list(tmp_path.iterdir()) == [kept]
    assert kept.read_text() == "kept\n"


def test_unwritable_out_is_a_usage_error(tmp_path, capsys, monkeypatch):
    # the permission bits do not bind a superuser, so stand in for them
    monkeypatch.setattr(cli.os, "access", lambda path, mode: False)
    with pytest.raises(SystemExit) as exc:
        main(["branch", "--n", "2", "--p", "0", "--out", str(tmp_path / "x.json")])
    assert exc.value.code == 2
    assert "--out: not writable" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "scan",
    [
        ("--m-max", "1", "--l-max", "0"),
        ("--homs", "--m-max", "1", "--l-max", "1"),
        ("--flavor", "gl", "--m-max", "1", "--l-max", "0"),
        ("--ido", "--k-max", "2"),
        ("--flavor", "gl", "--ido", "--k-max", "2"),
    ],
    ids=["sl", "homs", "gl", "sl-ido", "gl-ido"],
)
def test_jobs_flag_matches_serial(capsys, monkeypatch, scan):
    # on a one-CPU host the clamp would run --jobs 2 serially; force the pool
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    started = []

    class Recording(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            started.append(kwargs["max_workers"])
            super().__init__(*args, **kwargs)

    # the pool is imported where it runs, so it is patched where it is defined
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
    base = ("classify", "--n", "2", *scan, "--format", "json")
    _, serial, _ = run(capsys, *base, "--jobs", "1")
    _, parallel, _ = run(capsys, *base, "--jobs", "2")
    assert started == [2]
    assert serial == parallel


def test_cli_import_loads_no_process_pool():
    # a serial run (the default --jobs 1) pays for no multiprocessing import
    script = "import sys, fmethod.cli; print('concurrent.futures' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(cli.__file__).resolve().parent.parent))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"


# usage errors other than a number out of range, with the text each must print
OTHER_USAGE_ERRORS = {
    ("classify", "--n", "2", "--flavor", "gl", "--homs"): "--homs scans the SL homomorphisms only",
    ("classify", "--n", "2", "--ido", "--homs"): "not allowed with argument --ido",
    ("classify", "--n", "2", "--connected"): "--connected applies to --homs only",
    ("classify", "--n", "2", "--ido", "--connected"): "--connected applies to --homs only",
    ("classify", "--n", "2", "--lambda-samples=abc"): "not a rational number: 'abc'",
    ("classify", "--n", "2", "--lambda-samples=1/3,1/0"): "not a rational number: '1/0'",
    ("classify", "--n", "2", "--lambda2-samples=x"): "not a rational number: 'x'",
    # a sample or bound flag, set away from its default, that the scan does not read
    ("classify", "--n", "2", "--k-max", "2"): "--k-max applies to --ido only",
    ("classify", "--n", "2", "--homs", "--k-max", "0"): "--k-max applies to --ido only",
    ("classify", "--n", "2", "--ido", "--m-max", "1"): "--m-max and --l-max do not apply to --ido",
    ("classify", "--n", "2", "--ido", "--l-max", "0"): "--m-max and --l-max do not apply to --ido",
    ("classify", "--n", "2", "--lambda2-samples", "1"): "--lambda2-samples applies to --flavor gl only",
    ("classify", "--n", "2", "--ido", "--lambda2-samples", "0"):
        "--lambda2-samples applies to --flavor gl only",
    ("classify", "--n", "2", "--homs", "--lambda2-samples", "0,1/2,2"):
        "--lambda2-samples applies to --flavor gl only",
    ("classify", "--n", "2", "--flavor", "gl", "--lambda2-samples="): "--lambda2-samples is empty",
    ("classify", "--n", "3", "--flavor", "gl", "--ido", "--lambda2-samples", ""):
        "--lambda2-samples is empty",
    ("verify", "equivariance", "--n", "2", "--lambda", "1/0"): "not a rational number",
    ("verify", "equivariance", "--n", "2", "--lambda2", "q"): "not a rational number",
    ("verify", "equivariance", "--n", "2", "--nu", "1/0"): "not a rational number",
    ("verify", "equivariance", "--n", "2", "--alpha", "q"): "not a sign (+ or -): 'q'",
    ("branch", "--n", "2", "--s", "x"): "argument --s: not a rational number: 'x'",
    # a verify flag, set away from its default, that the target does not read
    ("verify", "factorization", "--n", "3", "--m", "1", "--l", "1", "--deg", "3", "--flavor", "gl",
     "--alpha", "-", "--lambda", "7"): "verify factorization does not read --lambda",
    ("verify", "factorization", "--n", "3", "--flavor", "gl"):
        "verify factorization does not read --flavor",
    ("verify", "factorization", "--n", "3", "--alpha", "-"): "verify factorization does not read --alpha",
    ("verify", "factorization", "--n", "3", "--lambda2", "1/2"):
        "verify factorization does not read --lambda2",
    ("verify", "factorization", "--n", "3", "--nu", "2"): "verify factorization does not read --nu",
    ("verify", "images", "--n", "3", "--alpha", "-"): "verify images does not read --alpha",
    ("verify", "images", "--n", "3", "--lambda", "1"): "verify images does not read --lambda",
    ("verify", "images", "--n", "3", "--flavor", "gl", "--lambda2", "1"):
        "verify images does not read --lambda2",
    ("verify", "images", "--n", "3", "--nu", "1/2"): "verify images does not read --nu",
    ("verify", "images", "--n", "3", "--deg", "4"): "verify images does not read --deg",
    ("verify", "verma-factorization", "--n", "2", "--lambda", "1"):
        "verify verma-factorization does not read --lambda",
    ("verify", "verma-factorization", "--n", "2", "--nu", "1"):
        "verify verma-factorization does not read --nu",
    ("verify", "verma-factorization", "--n", "2", "--lambda2", "1/2"):
        "--lambda2 applies to --flavor gl only",
    ("verify", "equivariance", "--n", "2", "--lambda2", "1/2"): "--lambda2 applies to --flavor gl only",
    # the equivariance check is infinitesimal, and dpi_lambda reads only lambda
    ("verify", "equivariance", "--n", "3", "--alpha", "-"): "verify equivariance does not read --alpha",
}


@pytest.mark.parametrize(
    "argv",
    [
        ("classify", "--n", "1"),
        ("classify", "--n", "0", "--ido"),
        ("classify", "--n", "2", "--jobs", "0"),
        ("classify", "--n", "2", "--jobs", "-3"),
        ("verify", "factorization", "--n", "1"),
        ("branch", "--n", "1", "--p", "0"),
        ("classify", "--n", "2", "--m-max", "-1"),
        ("classify", "--n", "2", "--l-max", "-1"),
        ("classify", "--n", "2", "--ido", "--k-max", "-1"),
        ("verify", "factorization", "--n", "2", "--m", "-1"),
        ("verify", "factorization", "--n", "2", "--l", "-1"),
        ("verify", "factorization", "--n", "2", "--deg", "-1"),
        ("branch", "--n", "2", "--s", "1/3", "--deg", "-3"),
        ("branch", "--n", "2", "--p", "-1"),
        *OTHER_USAGE_ERRORS,
    ],
)
def test_out_of_range_arguments_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert "usage:" in captured.err
    assert OTHER_USAGE_ERRORS.get(argv, "must be >= ") in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "factorization", "--n", "2", "--deg", "6", "--lambda", "0", "--alpha", "+",
         "--flavor", "sl", "--lambda2", "0"),
        ("verify", "equivariance", "--n", "2", "--flavor", "gl", "--lambda2", "1/2"),
    ],
    ids=["defaults-spelled-out", "equivariance-gl-lambda2"],
)
def test_verify_flags_the_target_reads_are_accepted(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == ""
    assert json.loads(out)["status"] == "pass"


@pytest.mark.parametrize(
    "spelled, plain",
    [
        (("--m-max", "0", "--l-max", "0", "--k-max", "4", "--lambda2-samples", "0,1/2"),
         ("--m-max", "0", "--l-max", "0")),
        (("--ido", "--k-max", "1", "--m-max", "3", "--l-max", "3", "--lambda2-samples", "0, 2/4"),
         ("--ido", "--k-max", "1")),
        (("--homs", "--m-max", "0", "--l-max", "0", "--k-max", "4", "--lambda2-samples", "0,1/2"),
         ("--homs", "--m-max", "0", "--l-max", "0")),
    ],
    ids=["sl", "ido", "homs"],
)
def test_classify_flag_defaults_spelled_out_are_accepted(capsys, spelled, plain):
    # a flag that the scan does not read passes while it holds its default value
    code, out, err = run(capsys, "classify", "--n", "2", *spelled)
    assert code == 0 and err == ""
    assert out == run(capsys, "classify", "--n", "2", *plain)[1]


def test_broken_invariant_is_an_internal_error(patch_dpi_hat_parts, capsys):
    # the grading element's operator gains a term that moves monomials
    h0 = parabolic(2).h0_tilde_prime
    stray = WeylElement(2, {(0, 1): Polynomial.variable(2, 0, "zeta")}, "zeta")

    def skewed(X, pd):
        base, *parts = dpi_hat_parts(X, pd)
        return (base + stray, *parts) if X == h0 else (base, *parts)

    patch_dpi_hat_parts(skewed)
    code, out, err = run(capsys, "classify", "--n", "2", "--m-max", "0", "--l-max", "0")
    assert code == 3
    assert out == ""
    assert err == "internal error: diagonal element acted off-diagonally\n"


def test_worker_count_clamps():
    assert _worker_count(8, 800, 2) == 2
    assert _worker_count(2, 800, 16) == 2
    assert _worker_count(4, 3, 16) == 3
    assert _worker_count(4, 0, 16) == 1
    assert _worker_count(1, 800, 16) == 1
    assert _worker_count(4, 800, None) == 1


def test_usable_cpus_is_positive():
    assert _usable_cpus() >= 1


# flat rows as a classify table holds them, with the characters JSON escapes:
# quotes, backslashes, newlines, commas and colons, and non-ASCII text
_json_text = st.text(alphabet=st.sampled_from('ab ,:"\\\n\t{}[]éλ−\U0001d53d'), max_size=8) | st.text(max_size=8)
_json_rows = st.lists(
    st.dictionaries(_json_text, _json_text | st.integers(-10**20, 10**20) | st.booleans(), max_size=6),
    max_size=5,
)


@given(_json_rows)
@settings(max_examples=300, deadline=None)
def test_json_rows_match_json_dumps(rows):
    """A classify table's JSON, row by row through the C encoder, has the bytes
    of `json.dumps(indent=2)`, for the empty table too."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        cli._emit(rows, "json", None)
    assert buf.getvalue() == json.dumps(rows, indent=2, default=str) + "\n"
