"""Write the seed-0 reference outputs of every workload into `reference/`.

Usage (from the repository root): python3 perfbench/capture_reference.py

The references pin the program's output bytes; capture them only from a
commit whose output is known good.  Each file is the gzip of one job's
stdout (scans) or JSON report list (verification).
"""

import gzip
import sys
import time
from pathlib import Path

import run
import workloads


def main() -> int:
    root = Path.cwd()
    for workload in workloads.WORKLOADS:
        for job in workloads.jobs(workload, 0):
            res = run.spawn(root, job, time.monotonic() + 600)
            bad = run.failures(job, res, None)
            if bad:
                print(f"{workload}/{job['name']}: {bad} failed items, not written", file=sys.stderr)
                return 1
            path = run.reference_path(workload, job)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(gzip.compress(res["output"].encode(), mtime=0))
            print(f"{path.relative_to(root)}: {len(res['output'])} bytes")
    return 0


if __name__ == "__main__":
    sys.exit(main())
