"""Seeded inputs for the benchmark workloads.

A workload is a list of jobs; each job runs in its own fresh interpreter,
the way a user runs one CLI invocation.  The seed only picks the generic
sample values handed to the program.  Seed 0 reproduces the acceptance
suite's samples; every other seed draws non-integral small-denominator
rationals, which never coincide with an integral critical value, so every
seed scans exactly the same cells and checks the same number of items.
"""

from __future__ import annotations

import random
from fractions import Fraction

SEED0_GENERIC = (Fraction(1, 3), Fraction(5), Fraction(-7, 2))
SEED0_LAMBDA2 = (Fraction(0), Fraction(1, 2))

# non-integral p/q with q in 2..5 and |p/q| <= 5
_POOL = sorted(
    {Fraction(p, q) for q in (2, 3, 4, 5) for p in range(-5 * q, 5 * q + 1) if p % q}
)

WORKLOADS = ("scan-sl-large", "scan-small-modes", "verify-identities")


def samples(seed: int) -> dict:
    """Generic lambda samples, GL lambda2 samples and the generic branching s."""
    if seed == 0:
        generic, lam2 = SEED0_GENERIC, SEED0_LAMBDA2
    else:
        rng = random.Random(seed)
        generic = tuple(rng.sample(_POOL, 3))
        lam2 = tuple(rng.sample(_POOL, 2))
    return {"generic": generic, "lambda2": lam2, "branch_s": generic[0]}


def _csv(values) -> str:
    return ",".join(str(v) for v in values)


def _scan(name, argv, rows):
    return {"name": name, "kind": "scan", "argv": argv + ["--format", "json"], "items": rows}


def _suite(name, params, items):
    return {"name": name, "kind": "verify", "suite": name, "params": params, "items": items}


def jobs(workload: str, seed: int) -> list[dict]:
    """The jobs of one workload; `items` is each job's seed-independent item count."""
    s = samples(seed)
    # "=" keeps a leading negative sample from reading as an option
    lams = [f"--lambda-samples={_csv(s['generic'])}"]
    lam2 = [f"--lambda2-samples={_csv(s['lambda2'])}"]
    if workload == "scan-sl-large":
        return [
            _scan(f"sl-n{n}", ["classify", "--flavor", "sl", "--n", str(n),
                               "--m-max", "4", "--l-max", "4"] + lams, 400)
            for n in (3, 4)
        ]
    if workload == "scan-small-modes":
        # homs at m <= 2, l <= 3: the critical s = m + l - 1 stays below the
        # seed-0 sample 5, so the row count is the same for every seed
        return [
            _scan("sl-n2", ["classify", "--flavor", "sl", "--n", "2",
                            "--m-max", "4", "--l-max", "4"] + lams, 400),
            _scan("gl-n2", ["classify", "--flavor", "gl", "--n", "2",
                            "--m-max", "4", "--l-max", "4"] + lams + lam2, 800),
            _scan("ido-sl-n3", ["classify", "--n", "3", "--ido", "--k-max", "4"] + lams, 20),
            _scan("ido-gl-n3", ["classify", "--flavor", "gl", "--n", "3", "--ido",
                                "--k-max", "4"] + lams + lam2, 40),
            _scan("homs-n3", ["classify", "--n", "3", "--homs",
                              "--m-max", "2", "--l-max", "3"] + lams, 96),
            _scan("homs-connected-n3", ["classify", "--n", "3", "--homs", "--connected",
                                        "--m-max", "2", "--l-max", "3"] + lams, 48),
        ]
    if workload == "verify-identities":
        generic = [str(x) for x in s["generic"]]
        return [
            _suite("equivariance", {"generic": generic, "lambda2": [str(x) for x in s["lambda2"]]}, 164),
            _suite("factorization", {}, 96),
            _suite("lie-homomorphism", {"lams": [generic[0], "-2"]}, 12),
            _suite("duality", {}, 30),
            _suite("branching", {"s": str(s["branch_s"])}, 5),
        ]
    raise ValueError(f"unknown workload {workload!r}")
