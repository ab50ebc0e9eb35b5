"""gridshave benchmark.

    python3 perfbench/run.py --workload cli-3day|solve-50
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the package runs from ./src as
users get it without installing (PYTHONPATH=src). Repeats whole rounds of
the workload until --seconds have passed, checks every output against the
benchmark's own references, and prints one JSON line last:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are the end-to-end ones; with --trace 1 the per-layer ones from an extra
traced pass (see README.md).
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
NAMES = ("cli-3day", "solve-50")

#: Thread and worker caps a user's shell may carry; the benchmark measures
#: the program's defaults.
CLEARED_ENV = ("GRIDSHAVE_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
               "MKL_NUM_THREADS")

#: Cold set-ups per run; setup_s is their median.
SETUP_PROBES = 5


def _version(dist: str) -> str:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return "missing"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "gridshave" / "__init__.py").is_file():
        print(f"error: no gridshave sources under {SRC}", file=sys.stderr)
        return 2
    for var in CLEARED_ENV:
        os.environ.pop(var, None)
    # unwind on SIGTERM too, so a running child process is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.path.insert(0, str(SRC))
    print(f"nproc {os.cpu_count()}, python {sys.version.split()[0]}, "
          f"numpy {_version('numpy')}, scipy {_version('scipy')}; "
          f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, "
          f"trace {args.trace}", flush=True)

    import workloads

    setup_s = [] if args.trace else [workloads.setup_probe(args.workload, args.seed)
                                     for _ in range(SETUP_PROBES)]
    work = workloads.WORKLOADS[args.workload](args.seed)
    work.setup()
    # whole rounds, as many as fit in --seconds if the next one takes as
    # long as the last (at least one)
    rounds = 0
    start = last = time.perf_counter()
    while True:
        work.round()
        rounds += 1
        now = time.perf_counter()
        if now + (now - last) - start > args.seconds:
            break
        last = now
    errors = work.verify()

    if args.trace:
        metrics = work.traced()
        units = workloads.LAYER_UNITS
    else:
        metrics = {"setup_s": statistics.median(setup_s), **work.metrics()}
        units = workloads.E2E_UNITS
    for note in work.notes:
        print(note)
    for err in errors:
        print(f"check failed: {err}")
    print(f"{rounds} rounds in {time.perf_counter() - start:.1f} s; "
          f"{work.attempted} operations, {work.failed} failed, "
          f"{len(errors)} check failures")
    print(json.dumps({
        "correct": not errors,
        "attempted": work.attempted,
        "failed": work.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
