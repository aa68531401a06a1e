"""Byte-for-byte CLI outputs of a fixed set of small invocations.

Each case's stdout is stored in `tests/golden/<name>.txt` and its exit code
in the table below.  To rewrite the stored outputs after an intended change
of output, run `PYTHONPATH=src python tests/test_golden.py`.  Larger scans,
whose tables are too long to store, are held by the SHA-256 digest of their
stdout in `DIGESTS` (`--format csv`, or `json` for the row framing); the
script prints the current digests.
"""

import contextlib
import hashlib
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
    # GL rows, with their comma-joined lambda and nu pairs, in JSON
    "classify-gl-n2-json": (
        ["classify", "--flavor", "gl", "--n", "2", "--m-max", "1", "--l-max", "1",
         "--format", "json"], 0),
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
    # the target action dpi_target on a dual S^1 fiber with both GL weights
    "verify-equivariance-gl-pass": (
        ["verify", "equivariance", "--n", "3", "--m", "1", "--l", "1", "--flavor", "gl",
         "--lambda=-1", "--lambda2", "1/2"], 0),
    "verify-equivariance-gl-fail": (
        ["verify", "equivariance", "--n", "3", "--m", "1", "--l", "1", "--flavor", "gl",
         "--lambda", "5", "--lambda2", "1/2"], 1),
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

# name -> (argv, SHA-256 of stdout); each exits 0 with every row ok
DIGESTS = {
    "classify-sl-n8": (
        ["classify", "--n", "8", "--m-max", "3", "--l-max", "3", "--format", "csv"],
        "a4a6e3d3a2efec8f4e4d490f416b1a0f02fd52e38a931f3795fdf2f18b62d867"),
    "classify-gl-n6": (
        ["classify", "--flavor", "gl", "--n", "6", "--m-max", "2", "--l-max", "2",
         "--format", "csv"],
        "48cdb7dd339f000786af44a056395a3169b88f89d6dec2f649dd3cf56b337553"),
    "classify-ido-sl-n8": (
        ["classify", "--n", "8", "--ido", "--k-max", "4", "--format", "csv"],
        "18755a3f792b4d2c8425f3ac0abb6ca5a79939aaacff3d0484c5a583609d3637"),
    "classify-ido-gl-n8": (
        ["classify", "--flavor", "gl", "--n", "8", "--ido", "--k-max", "4", "--format", "csv"],
        "a040e21f387ec338b74948738b39253b47f2bcb9cc2f2f172c29b620e02b6f18"),
    "classify-homs-n6": (
        ["classify", "--n", "6", "--homs", "--m-max", "3", "--l-max", "3", "--format", "csv"],
        "da8bd33faba9d50c1bedf13e8ea81519e95d505b6cf86a0ce60a8f0df454c216"),
    "classify-homs-connected-n6": (
        ["classify", "--n", "6", "--homs", "--connected", "--m-max", "3", "--l-max", "3",
         "--format", "csv"],
        "62f7570df1182e6322eaa5741006e9a18eb440b662608f6f2ea35ab56d71636e"),
    # odd n: the primed fiber block n - 1 is even, and the full one odd
    "classify-sl-n7": (
        ["classify", "--n", "7", "--m-max", "3", "--l-max", "3", "--format", "csv"],
        "ca62aabbdf6e1c22680e72a737aecc8977fe700a7e9b76fe367112e7ec386fc0"),
    "classify-gl-n5": (
        ["classify", "--flavor", "gl", "--n", "5", "--m-max", "2", "--l-max", "2",
         "--format", "csv"],
        "a2e5a68f58b4881c647a9ee12d076e94f97d7f95e66b907630efa367342f9018"),
    "classify-homs-n5": (
        ["classify", "--n", "5", "--homs", "--m-max", "3", "--l-max", "3", "--format", "csv"],
        "9aed11f675d7dadf4f22087510d8b15361de88edee52bc27bbf5f0270757af86"),
    "classify-ido-gl-n7": (
        ["classify", "--flavor", "gl", "--n", "7", "--ido", "--k-max", "4", "--format", "csv"],
        "68f3745191f1bb5f70ba62cb828219391d5bde4c08dcfbf26f38d29cb8acf29e"),
    # the JSON row framing of a full table: integral and non-integral
    # lambda pairs (GL), and lambda samples off the defaults (SL)
    "classify-gl-n2-json": (
        ["classify", "--flavor", "gl", "--n", "2", "--m-max", "4", "--l-max", "4",
         "--format", "json"],
        "d21bae3c7b50291e96514c85f1191c24a159428adaa428293b734b09255fe782"),
    "classify-sl-n4-json": (
        ["classify", "--n", "4", "--m-max", "4", "--l-max", "4",
         "--lambda-samples=-5/3,7/4,2/5", "--format", "json"],
        "ec2f1560ddc369315c8b03772962fd5edf9b1639d666b002db11a723ff3b4d7b"),
    # many members per family: lambda and lambda_2 samples off the defaults,
    # integral and not, so each family's lambda-locus is read at 30 members
    "classify-gl-n2-samples": (
        ["classify", "--flavor", "gl", "--n", "2", "--m-max", "8", "--l-max", "8",
         "--lambda-samples=-5/2,3,2/7,-4", "--lambda2-samples=0,-3/2,2", "--format", "csv"],
        "003c2ba53a6f6a5287c1ec0dda63c2c2305d3a184560c9ba6a448d925c097cf8"),
    # homs at lambda = -s for s samples off the defaults; s = 2 meets the
    # critical lambda of the m + l = 3 families
    "classify-homs-n6-samples": (
        ["classify", "--n", "6", "--homs", "--m-max", "4", "--l-max", "4",
         "--lambda-samples=-2,5/3,7,-1/4", "--format", "csv"],
        "4a29a2f71813e5df2ce732769c270c2715ddc3f5673c79f26ba2c5e5d40b8369"),
    # SL n = 2 at lambda samples off the defaults: there a degree's locus
    # point is often not the family's critical lambda, so each row must
    # read the solve at its own lambda
    "classify-sl-n2-samples": (
        ["classify", "--n", "2", "--m-max", "6", "--l-max", "6",
         "--lambda-samples=-3,-1,1/2,2,-5", "--format", "csv"],
        "706dc8e1df5c5e4eb8ad6351901dd07e438289524f99dd274c6bbe2d91843ab3"),
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


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_cli_output_matches_digest(name):
    argv, digest = DIGESTS[name]
    code, out = run_case(argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, (argv, expected_code) in sorted(CASES.items()):
        code, out = run_case(argv)
        if code != expected_code:
            sys.exit(f"{name}: exit code {code}, expected {expected_code}")
        (GOLDEN / f"{name}.txt").write_bytes(out.encode())
    for name, (argv, _) in sorted(DIGESTS.items()):
        print(name, hashlib.sha256(run_case(argv)[1].encode()).hexdigest())
