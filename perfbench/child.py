"""One job in a fresh interpreter: the unit the benchmark times.

Usage: python3 perfbench/child.py '<job json>' [--trace]

Set-up is `import fmethod` plus `cli.build_parser()`; the job then runs
with every lru_cache cold, as in a CLI invocation.

The host's speed drifts, on this kind of shared machine by up to 2x
within seconds, so the child also measures it: a short fixed Fraction loop
is timed just before and just after set-up, and every SAMPLE_PERIOD_S
seconds during the job from a SIGALRM handler.  Time spent in these samples
is reported so that it can be left out of the set-up and job times.

The last line of stdout is one JSON object: the monotonic clock readings at
the end of set-up and at the start and end of the job, the reference
samples and the time they took, the exit code, the job's output text, peak
RSS and (when traced) the tracer summary.
"""

import sys
import time
from fractions import Fraction

SAMPLE_PERIOD_S = 0.2
SAMPLE_ITERATIONS = 200  # about 1.5 ms per sample, under 1 % of the job


def ref_loop(iterations: int) -> float:
    """Host-speed reference: seconds per iteration of a fixed stdlib Fraction loop."""
    t = time.perf_counter()
    x = Fraction(0)
    for i in range(1, iterations + 1):
        x += Fraction(i % 7 - 3, i % 11 + 1) * Fraction(1, 3)
    return (time.perf_counter() - t) / iterations


class Sampler:
    """Times `ref_loop`: once per `sample()`, and on a wall-clock timer while started."""

    def __init__(self):
        self.samples = []
        self.spent = 0.0

    def sample(self, *_):
        t = time.perf_counter()
        self.samples.append(ref_loop(SAMPLE_ITERATIONS))
        self.spent += time.perf_counter() - t

    def start(self):
        import signal

        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)

    def stop(self):
        import signal

        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()


def main(argv):
    around_setup = Sampler()
    around_setup.sample()
    import fmethod
    import fmethod.cli

    fmethod.cli.build_parser()
    setup_done = time.monotonic()
    in_setup_s = around_setup.spent
    around_setup.sample()

    import contextlib
    import io
    import json
    import resource

    job = json.loads(argv[1])
    result = {"setup_done": setup_done, "setup_sampler_s": in_setup_s,
              "setup_ref_samples": around_setup.samples}
    if job["kind"] == "setup":
        print(json.dumps(result))
        return 0

    tracer = None
    if "--trace" in argv:
        from tracer import Tracer

        tracer = Tracer(trace_id=job["name"]).install()
    if job["kind"] == "verify":
        import suites

        items = suites.SUITES[job["suite"]](job["params"])

    sampler = Sampler()
    sampler.start()
    start = time.monotonic()
    if job["kind"] == "scan":
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = fmethod.cli.main(job["argv"])
        output = buf.getvalue()
    else:
        rc = 0
        output = json.dumps(suites.run_items(items), default=str) + "\n"
    end = time.monotonic()
    sampler.stop()
    result.update(start=start, end=end, rc=rc, output=output,
                  sampler_s=sampler.spent, ref_samples=sampler.samples,
                  rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)

    if tracer is not None:
        tracer.remove()
        result["trace"] = tracer.summary()
        result["trace"]["restored"] = tracer.restored()
        result["trace"]["spans"] = tracer.spans
        result["trace"]["pairs_kept"] = _pairs_kept(tracer)
    print(json.dumps(result))
    return 0


def _pairs_kept(tracer):
    """Count-only, untimed pass: unknowns kept per solve, via equivariant_basis."""
    from fmethod.engine import equivariant_basis

    total = 0
    for args, kwargs in tracer.solve_args:
        source, target, degree_cap = args[:3]
        extra = dict(zip(("connected", "full_nilradical"), args[3:]), **kwargs)
        for d in range(max(degree_cap, -1) + 1):
            total += len(equivariant_basis(source, target, d, **extra).unknowns)
    return total


if __name__ == "__main__":
    sys.exit(main(sys.argv))
