"""fmethod benchmark: cold-process scans and verification, with an outside trace.

Usage (from the repository root):

    python3 perfbench/run.py --workload scan-sl-large --seed 0 --seconds 30 --trace 0

Every job of a workload runs in a fresh interpreter (`child.py`) with cold
caches, one after another (closed loop, one client).  A repetition runs all
jobs of the workload; as many repetitions run as fit in `--seconds` by
the wall time of the first one, and at least one always runs.

--trace 0 prints the end-to-end metrics (medians over repetitions):
  setup_s      spawn to `import fmethod` + `cli.build_parser()` done, median
               over every spawn of the run (twelve set-up-only spawns included)
  run_s        time of one repetition after set-up, cold caches
  items_per_s  rows plus reports per repetition over run_s
  peak_rss_mb  largest peak RSS of a job process within a repetition
setup_s and run_s are wall times scaled to a nominal host speed: each job
process times a fixed Fraction loop around set-up and every 0.2 s during the
job (`child.py`), and a time T measured while the loop took r seconds per
iteration on average is reported as T * NOMINAL_ITER_S / r.  The unscaled
wall times are printed in the summary lines and kept in `.perfbench_out/`.
--trace 1 runs one untraced and one traced repetition and prints the
per-layer metrics of the traced one (see `layer_metrics`).

Every output is checked: rows `ok`, expected report statuses, exit codes,
identical output on every repetition and between traced and untraced runs,
and on seed 0 byte equality with the references in `reference/`.  Spans
and per-run details go to `.perfbench_out/` in the working directory.  The
last stdout line is the JSON result; the lines before it are a readable
summary, including the unscaled times and the host-speed reference.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SETUP_SPAWNS = 12
# Times are scaled to a host on which one reference iteration takes this long
NOMINAL_ITER_S = 8e-6
TIME_LIMIT_S = 170  # every run ends well within 180 s
OUT_DIR = ".perfbench_out"


class BenchError(Exception):
    pass


# -- measuring ----------------------------------------------------------------


def scaled(wall_s: float, ref_samples) -> float:
    """Wall time scaled to the nominal host speed seen by the reference samples."""
    return wall_s * NOMINAL_ITER_S / statistics.mean(ref_samples)


def tail(values):
    """Highest percentile with at least ten samples above it: (percent, value)."""
    v = sorted(values)
    if len(v) < 11:
        return None
    k = len(v) - 11
    return 100 * (k + 1) / len(v), v[k]


def spawn(root: Path, job: dict, deadline: float, trace: bool = False) -> dict:
    """Run one job in a fresh interpreter; returns its parsed result plus `spawned`."""
    cmd = [sys.executable, str(HERE / "child.py"), json.dumps(job)]
    if trace:
        cmd.append("--trace")
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("time limit reached")
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"job {job['name']} timed out") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"job {job['name']} exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["spawned"] = spawned
    result["setup_raw_s"] = result["setup_done"] - spawned - result["setup_sampler_s"]
    result["setup_s"] = scaled(result["setup_raw_s"], result["setup_ref_samples"])
    return result


def reference_path(workload: str, job: dict) -> Path:
    return HERE / "reference" / workload / f"{job['name']}.json.gz"


def read_reference(workload: str, job: dict):
    path = reference_path(workload, job)
    return gzip.decompress(path.read_bytes()).decode() if path.is_file() else None


def failures(job: dict, result: dict, reference) -> int:
    """Items of one job that failed: raised, not ok, wrong status, or off-reference."""
    items = job["items"]
    try:
        entries = json.loads(result["output"])
    except json.JSONDecodeError:
        return items
    bad = sum(1 for e in entries if not e.get("ok"))
    bad += abs(items - len(entries))
    if result["rc"] != 0 and bad == 0:
        bad = items
    if reference is not None and result["output"] != reference:
        ref = json.loads(reference)
        diff = sum(1 for a, b in zip(entries, ref) if a != b) + abs(len(entries) - len(ref))
        bad += max(diff, 1)
    return min(bad, items)


def run_rep(root, jobs, deadline, references, trace=False) -> dict:
    rep = {"setup": [], "setup_raw": [], "run_s": 0.0, "wall_s": 0.0, "rss_mb": 0.0,
           "outputs": {}, "failed": 0, "attempted": 0, "traces": [], "job_s": {}, "refs": []}
    for job in jobs:
        try:
            res = spawn(root, job, deadline, trace)
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            rep["failed"] += job["items"]
            rep["attempted"] += job["items"]
            rep["outputs"][job["name"]] = None
            continue
        rep["setup"].append(res["setup_s"])
        rep["setup_raw"].append(res["setup_raw_s"])
        rep["refs"].extend(res["ref_samples"])
        wall = res["end"] - res["start"] - res["sampler_s"]
        rep["job_s"][job["name"]] = scaled(wall, res["ref_samples"])
        rep["run_s"] += rep["job_s"][job["name"]]
        rep["wall_s"] += wall
        rep["rss_mb"] = max(rep["rss_mb"], res["rss_kb"] / 1024)
        rep["outputs"][job["name"]] = res["output"]
        rep["attempted"] += job["items"]
        rep["failed"] += failures(job, res, references.get(job["name"]))
        if trace:
            rep["traces"].append(res["trace"])
    return rep


# -- per-layer metrics -----------------------------------------------------------


def layer_metrics(traced: dict, plain: dict):
    """Per-layer metrics summed over the jobs of one traced repetition, and its spans."""
    stats, caches, spans = {}, {}, []
    pairs_kept = 0
    for tr in traced["traces"]:
        for name, st in tr["stats"].items():
            acc = stats.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                          "extra": 0, "by_parent": {}})
            for k in ("calls", "total_s", "self_s", "extra"):
                acc[k] += st[k]
            for p, c in st["by_parent"].items():
                acc["by_parent"][p] = acc["by_parent"].get(p, 0) + c
        for name, hm in tr["caches"].items():
            acc = caches.setdefault(name, {"hits": 0, "misses": 0})
            acc["hits"] += hm["hits"]
            acc["misses"] += hm["misses"]
        spans.extend(tr["spans"])
        pairs_kept += tr["pairs_kept"]

    def st(name, key):
        return stats.get(name, {}).get(key, 0)

    cells_ms = [(end - start) * 1000 for _, _, _, name, start, end in spans if name == "engine.cell"]
    cell_tail = tail(cells_ms)
    apply_in_solve = stats.get("weyl.WeylElement.apply", {}).get("by_parent", {}).get(
        "engine.solve_fsystem", 0)
    m = {
        "engine.solve_fsystem.calls": st("engine.solve_fsystem", "calls"),
        "engine.solve_fsystem.total_s": st("engine.solve_fsystem", "total_s"),
        "engine.solve_fsystem.self_s": st("engine.solve_fsystem", "self_s"),
        "engine.solve_fsystem.weyl_apply_calls": apply_in_solve,
        "engine.pairs_kept": pairs_kept,
        "engine.apply_per_kept_pair": apply_in_solve / pairs_kept if pairs_kept else 0.0,
        "engine.same_solution_span.calls": st("engine.same_solution_span", "calls"),
        "engine.same_solution_span.total_s": st("engine.same_solution_span", "total_s"),
        "engine.cell_p50_ms": statistics.median(cells_ms) if cells_ms else 0.0,
        "engine.cell_tail_ms": cell_tail[1] if cell_tail else 0.0,
        "algebra.Matrix.rref.calls": st("algebra.Matrix.rref", "calls"),
        "algebra.Matrix.rref.self_s": st("algebra.Matrix.rref", "self_s"),
        "algebra.Matrix.rref.entries": st("algebra.Matrix.rref", "extra"),
        "algebra.Polynomial.mul.calls": st("algebra.Polynomial.mul", "calls"),
        "algebra.Polynomial.derivative.calls": st("algebra.Polynomial.derivative", "calls"),
    }
    for name in ("weyl.WeylElement.apply", "weyl.WeylElement.compose", "weyl.WeylElement.fourier",
                 "rep.induced_operator", "rep.SymFiber.act", "liealg.bracket", "cli.main"):
        m[f"{name}.calls"] = st(name, "calls")
        m[f"{name}.self_s"] = st(name, "self_s")
    for name in ("rep.dpi_hat", "rep.dpi_lambda", "rep.dpi_target", "liealg.parabolic"):
        m[f"{name}.hits"] = caches.get(name, {}).get("hits", 0)
        m[f"{name}.misses"] = caches.get(name, {}).get("misses", 0)
    for name in ("params.predicted_dim", "operators.check_equivariance",
                 "operators.verify_factorization_sbo"):
        m[f"{name}.calls"] = st(name, "calls")
        m[f"{name}.total_s"] = st(name, "total_s")
    for name in ("verma.classify_homs", "verma.check_hom_equivariance",
                 "verma.verify_factorization_verma", "branch.verify_branching",
                 "branch.invariants_in"):
        m[f"{name}.total_s"] = st(name, "total_s")
    m["trace.overhead_ratio"] = traced["run_s"] / plain["run_s"]
    return m, spans


# -- the run -------------------------------------------------------------------------


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "fmethod" / "__init__.py").is_file():
        print("error: run from a checkout holding src/fmethod", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    jobs = workloads.jobs(args.workload, args.seed)
    items = sum(j["items"] for j in jobs)
    references = {}
    if args.seed == 0:
        for job in jobs:
            references[job["name"]] = read_reference(args.workload, job)
            if references[job["name"]] is None:
                print(f"error: no reference for {args.workload}/{job['name']}", file=sys.stderr)
                return 2

    setup_job = {"name": "setup", "kind": "setup"}
    try:
        spawn(root, setup_job, deadline)  # warm-up: compiles bytecode, not counted
        setups = [spawn(root, setup_job, deadline) for _ in range(SETUP_SPAWNS)]
    except BenchError as exc:
        print(f"error: set-up failed: {exc}", file=sys.stderr)
        return 1
    setup_samples = [r["setup_s"] for r in setups]
    setup_raw = [r["setup_raw_s"] for r in setups]
    refs = [x for r in setups for x in r["setup_ref_samples"]]

    # the first repetition fixes how many fit in --seconds (one under --trace 1)
    started = time.monotonic()
    reps = [run_rep(root, jobs, deadline, references)]
    count = max(1, int(args.seconds // (time.monotonic() - started)))
    if args.trace or reps[0]["failed"]:
        count = 1
    while len(reps) < count:
        reps.append(run_rep(root, jobs, deadline, references))
    traced = None
    if args.trace:
        traced = run_rep(root, jobs, deadline, references, trace=True)
        reps_checked = reps + [traced]
    else:
        reps_checked = reps

    attempted = sum(r["attempted"] for r in reps_checked)
    failed = sum(r["failed"] for r in reps_checked)
    first = reps[0]["outputs"]
    consistent = all(r["outputs"] == first for r in reps_checked)
    if not consistent:
        print("error: outputs differ between repetitions", file=sys.stderr)
        failed = max(failed, 1)
    for r in reps:
        setup_samples.extend(r["setup"])
        setup_raw.extend(r["setup_raw"])
        refs.extend(r["refs"])
    run_values = [r["run_s"] for r in reps]
    wall_values = [r["wall_s"] for r in reps]
    setup_s = statistics.median(setup_samples)
    run_s = statistics.median(run_values)
    ref_us = statistics.mean(refs) * 1e6

    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "items_per_rep": items, "reps": len(reps), "run_s": run_values,
        "wall_s": wall_values, "job_s": [r["job_s"] for r in reps],
        "setup_s": setup_samples, "setup_wall_s": setup_raw,
        "peak_rss_mb": [r["rss_mb"] for r in reps], "host_ref_iter_s": refs,
        "attempted": attempted, "failed": failed,
    }
    print(f"{args.workload} seed={args.seed}: {len(reps)} repetition(s) of {len(jobs)} "
          f"job(s), {items} items each, {failed}/{attempted} failed")
    st = tail(setup_samples)
    print(f"setup_s median {setup_s:.4f} (n={len(setup_samples)})"
          + (f", p{st[0]:.1f} {st[1]:.4f}" if st else ", tail needs >= 11 samples"))
    rt = tail(run_values)
    print(f"run_s median {run_s:.3f} (n={len(run_values)})"
          + (f", p{rt[0]:.1f} {rt[1]:.3f}" if rt else ", tail needs >= 11 repetitions"))
    print(f"unscaled wall time: setup median {statistics.median(setup_raw):.4f} s, "
          f"run median {statistics.median(wall_values):.3f} s")
    print(f"host.ref_iter_us mean {ref_us:.3f} (n={len(refs)}; scaled times assume "
          f"{NOMINAL_ITER_S * 1e6:g}; ungated)")

    correct = failed == 0 and consistent
    if args.trace:
        metrics, spans = layer_metrics(traced, reps[0])
        restored = all(t["restored"] for t in traced["traces"])
        if not restored:
            print("error: tracer left a wrapper installed", file=sys.stderr)
        correct = correct and restored
        metrics["failed_ratio"] = failed / attempted
        metrics["host.ref_iter_us"] = ref_us
        units = {k: _unit(k) for k in metrics}
        detail["layers"] = metrics
        print(f"trace.overhead_ratio {metrics['trace.overhead_ratio']:.3f} "
              f"(traced run_s {traced['run_s']:.3f})")
    else:
        spans = []
        metrics = {
            "setup_s": setup_s,
            "run_s": run_s,
            "items_per_s": items / run_s if run_s else 0.0,
            "peak_rss_mb": statistics.median(r["rss_mb"] for r in reps),
        }
        units = {"setup_s": "s", "run_s": "s", "items_per_s": "1/s", "peak_rss_mb": "MiB"}
    _write_details(root, args, detail, spans)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_us"):
        return "us"
    if name.endswith(("ratio", "per_kept_pair")):
        return "ratio"
    return "count"


def _write_details(root, args, detail, spans):
    out = root / OUT_DIR
    out.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out / f"{stem}.json").write_text(json.dumps(detail, indent=1) + "\n")
    if spans:
        with open(out / f"{stem}-spans.jsonl", "w") as fh:
            for trace, sid, parent, name, start, end in spans:
                fh.write(json.dumps({"trace": trace, "id": sid, "parent": parent,
                                     "name": name, "start": start, "end": end}) + "\n")


if __name__ == "__main__":
    sys.exit(main())
