"""Byte-for-byte CLI outputs of a fixed set of small invocations.

Each case's stdout is stored in `tests/golden/<name>.txt` and its exit code
in the table below.  To rewrite the stored outputs after an intended change
of output, run `PYTHONPATH=src python tests/test_golden.py`.
"""

import contextlib
import io
import pathlib
import sys

import pytest

from fmethod import cli

GOLDEN = pathlib.Path(__file__).parent / "golden"

# name -> (argv, exit code)
CASES = {
    "classify-sl-n2-table": (
        ["classify", "--flavor", "sl", "--n", "2", "--m-max", "1", "--l-max", "1"], 0),
    "classify-gl-n2-csv": (
        ["classify", "--flavor", "gl", "--n", "2", "--m-max", "1", "--l-max", "1",
         "--format", "csv"], 0),
    "classify-sl-n3-json-jobs2": (
        ["classify", "--n", "3", "--m-max", "1", "--l-max", "1", "--format", "json",
         "--jobs", "2"], 0),
    "classify-ido-sl-n2-table": (["classify", "--n", "2", "--ido", "--k-max", "2"], 0),
    "classify-ido-gl-n2-csv": (
        ["classify", "--flavor", "gl", "--n", "2", "--ido", "--k-max", "2",
         "--format", "csv"], 0),
    "classify-homs-n2-json": (
        ["classify", "--n", "2", "--homs", "--m-max", "1", "--l-max", "1",
         "--format", "json"], 0),
    "classify-homs-connected-n3-table": (
        ["classify", "--n", "3", "--homs", "--connected", "--m-max", "1", "--l-max", "1"], 0),
    "classify-homs-n3-csv": (
        ["classify", "--n", "3", "--homs", "--m-max", "1", "--l-max", "1",
         "--format", "csv"], 0),
    "verify-factorization": (
        ["verify", "factorization", "--n", "3", "--m", "2", "--l", "1", "--deg", "4"], 0),
    "verify-equivariance-pass": (
        ["verify", "equivariance", "--n", "3", "--m", "1", "--l", "0", "--lambda", "5"], 0),
    "verify-equivariance-fail": (
        ["verify", "equivariance", "--n", "3", "--m", "1", "--l", "0", "--lambda", "5",
         "--nu", "7"], 1),
    "verify-verma-factorization": (
        ["verify", "verma-factorization", "--n", "2", "--m", "1", "--l", "1", "--deg", "3"], 0),
    "verify-verma-factorization-gl": (
        ["verify", "verma-factorization", "--n", "2", "--m", "1", "--l", "1", "--deg", "3",
         "--flavor", "gl", "--alpha", "-", "--lambda2", "1/2"], 0),
    "verify-images-sl": (["verify", "images", "--n", "3", "--m", "1", "--l", "2"], 0),
    "verify-images-gl": (
        ["verify", "images", "--n", "3", "--m", "1", "--l", "2", "--flavor", "gl"], 0),
    "branch-n2-p0": (["branch", "--n", "2", "--p", "0", "--deg", "6"], 0),
    "branch-n3-p1": (["branch", "--n", "3", "--p", "1", "--deg", "6"], 0),
}


def run_case(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    return code, buf.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name):
    argv, expected_code = CASES[name]
    code, out = run_case(argv)
    assert code == expected_code
    assert out.encode() == (GOLDEN / f"{name}.txt").read_bytes()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, (argv, expected_code) in sorted(CASES.items()):
        code, out = run_case(argv)
        if code != expected_code:
            sys.exit(f"{name}: exit code {code}, expected {expected_code}")
        (GOLDEN / f"{name}.txt").write_bytes(out.encode())
