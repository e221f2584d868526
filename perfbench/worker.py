"""One workload in a fresh, single-threaded process.

Started by run.py; prints one JSON object on its last stdout line. Steps:
set-up (import plus first-use caches, timed), inputs from the seed, timed
rounds until the time budget is spent, then the output checks. With
``--trace 1`` the layer wrappers are installed and each round's spans are
summarised; checks always run with tracing off.

    python3 perfbench/worker.py --workload census-n7 --seed 1 --seconds 10 --trace 0
    python3 perfbench/worker.py --workload census-n7 --setup-only
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")


def setup(dims) -> float:
    """Import the package from this checkout and fill its first-use caches."""
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import oddcross
    import oddcross.cli  # noqa: F401

    for n in dims:
        dim = oddcross.feasible_dimension(n)
        for axis in range(1, n + 1):
            oddcross.axis_matchings(dim, axis)
        list(oddcross.scheme_branches(dim, limit=1))
    elapsed = time.perf_counter() - t0
    if not os.path.abspath(oddcross.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"oddcross was imported from {oddcross.__file__}, not {SRC}")
    return elapsed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, HERE)
    import spans
    import workloads

    cls = workloads.WORKLOADS[args.workload]
    setup_s = setup(cls.dims)
    import oddcross

    report = {
        "setup_s": setup_s,
        "backend": oddcross.KERNEL_BACKEND,
        "python": platform.python_version(),
    }
    if args.setup_only:
        print(json.dumps(report))
        return 0

    os.makedirs(OUT_DIR, exist_ok=True)
    workload = cls(args.seed, OUT_DIR)
    tracer = spans.Tracer()
    if args.trace:
        spans.install(tracer)

    first = None
    same = 0  # rounds whose output equals round 1's
    rounds, latencies, traces = [], [], []
    ops = failed = 0
    problems = []
    begin = time.perf_counter()
    try:
        while True:
            tracer.reset()
            tracer.active = bool(args.trace)
            result = workload.run_round(tracer)
            tracer.active = False
            rounds.append(sum(result.latencies))
            latencies.append(result.latencies)
            ops += result.ops
            if args.trace:
                traces.append(tracer.summary())
            if first is None or result.data == first:
                first = result.data
                same += 1
            else:
                f, p = workload.check(result.data)
                failed += f
                problems += [f"round {len(rounds)} differs from round 1"] + p
            if time.perf_counter() - begin + statistics.median(rounds) > args.seconds:
                break
        peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        f, p = workload.check(first)
    finally:
        workload.cleanup()
    failed += f * same
    problems = p + problems

    report.update(
        rounds=rounds,
        latencies=latencies,
        ops=ops,
        failed=failed,
        problems=problems,
        peak_rss_mb=peak_rss_kb / 1024,
        traces=traces,
    )
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
