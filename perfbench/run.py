"""oddcross benchmark: run one workload and print its metrics.

Run from the repository root:

    python3 perfbench/run.py --workload census-n7 --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload census-n7 --seed 1 --seconds 36 --trace 1

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, ``--trace 1``
the per-layer ones. The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give the same numbers for people, with the environment they were measured
in. A copy goes to ``perfbench/out/``. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(HERE, "out")

# setup_s is the median over fresh processes: the workload's own and this many
# more, half before and half after it, so that they fall at different times.
SETUP_PROBES = 20
CHILD_TIMEOUT = 170  # seconds; subprocess.run kills and reaps a child past it


class BenchError(Exception):
    pass


def run_worker(workload: str, seed: int, seconds: float, trace: int, setup_only=False) -> dict:
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker timed out after {CHILD_TIMEOUT} s: {' '.join(cmd)}") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker failed ({proc.returncode}):\n{proc.stderr[-3000:]}")
    return json.loads(lines[-1])


def probe_setup(workload: str) -> float:
    return run_worker(workload, 0, 0, 0, setup_only=True)["setup_s"]


def percentile(values, q: float) -> float:
    """Linear interpolation between closest ranks, q in [0, 100]."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def end_to_end(run: dict, setups: list[float]) -> dict:
    """Each request's latency is its upper quartile over the run's rounds (see README: Noise)."""
    typical = [percentile(times, 75) for times in zip(*run["latencies"])]
    busy = sum(typical)
    return {
        "setup_s": statistics.median(setups),
        "wall_s": busy,
        "schemes_per_s": run["ops"] / len(run["rounds"]) / busy,
        "request_p50_ms": percentile(typical, 50) * 1e3,
        "request_p99_ms": percentile(typical, 99) * 1e3,
        "requests_per_s": len(typical) / busy,
        "peak_rss_mb": run["peak_rss_mb"],
    }


# Per-layer metrics that are not "<layer>.<function>.calls|self_s" of a span.
DERIVED = {
    "cli.other_s": lambda t: t["layers"].get("cli.main", {}).get("self_s", 0.0),
    "trace.spans": lambda t: t["spans"],
    "verify.witness.hit_ratio": lambda t: (
        t["counts"].get("verify.witness.found", 0) / t["counts"]["verify.witness.probes"]
        if t["counts"].get("verify.witness.probes") else 0.0
    ),
}


def layer_value(name: str, trace: dict):
    if name in DERIVED:
        return DERIVED[name](trace)
    label, _, field = name.rpartition(".")
    if field in ("calls", "self_s"):
        return trace["layers"].get(label, {}).get(field, 0)
    return trace["counts"].get(name, 0)


def exact_counts(trace: dict) -> str:
    """Everything in a round's trace that must repeat exactly for one seed."""
    calls = {label: v["calls"] for label, v in trace["layers"].items()}
    return json.dumps([calls, trace["counts"], trace["spans"]], sort_keys=True)


def per_layer(names: list[str], untraced: list[dict], traced: list[dict]) -> tuple[dict, list[str]]:
    traces = [t for run in traced for t in run["traces"]]
    problems = []
    if len({exact_counts(t) for t in traces}) != 1:
        problems.append("traced counts differ between rounds or runs with one seed")
    metrics = {}
    for name in names:
        if name == "trace.overhead_s":
            traced_wall = statistics.median([r for run in traced for r in run["rounds"]])
            metrics[name] = traced_wall - statistics.median([r for run in untraced for r in run["rounds"]])
        elif name.endswith("_s"):
            metrics[name] = statistics.median(layer_value(name, t) for t in traces)
        else:
            metrics[name] = layer_value(name, traces[0])
    return metrics, problems


def environment(backend: str, python: str) -> dict:
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10).stdout.split()
        commit = top[1] if len(top) == 2 and os.path.samefile(top[0], ROOT) else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    return {
        "kernel_backend": backend,
        "python": python,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "oddcross", "__init__.py")):
        print(f"error: no oddcross package under {ROOT}/src", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    w, seed, secs = args.workload, args.seed, args.seconds
    try:
        if args.trace:
            # Untraced and traced workers alternate, a quarter of the time
            # each, so that drift in machine speed hits both sides of the
            # overhead alike. The two traced runs' counts must agree exactly.
            runs = [run_worker(w, seed, secs / 4, trace) for trace in (0, 1, 0, 1)]
            metrics, problems = per_layer([m["name"] for m in wanted], runs[0::2], runs[1::2])
        else:
            probe_setup(w)  # warm-up: byte-compiles the package on first use
            setups = [probe_setup(w) for _ in range(SETUP_PROBES // 2)]
            runs = [run_worker(w, seed, secs, 0)]
            setups.append(runs[0]["setup_s"])
            setups += [probe_setup(w) for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
            metrics, problems = end_to_end(runs[0], setups), []
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(r["ops"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    problems = [p for r in runs for p in r["problems"]] + problems
    env = environment(runs[0]["backend"], runs[0]["python"])
    units = {m["name"]: m["unit"] for m in wanted}
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }

    print(f"workload={w} seed={seed} seconds={secs:g} trace={args.trace}")
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"rounds={sum(len(r['rounds']) for r in runs)} requests per round={len(runs[0]['latencies'][0])}")
    for name, m in result["metrics"].items():
        print(f"  {name:<36} {m['value']:.6g} {m['unit']}")
    print(f"  {'error_rate':<36} {failed / attempted:.6g} ({failed} of {attempted} operations failed)")
    for p in problems:
        print(f"problem: {p}")

    os.makedirs(OUT_DIR, exist_ok=True)
    name = f"{w}-seed{seed}-trace{args.trace}.json"
    with open(os.path.join(OUT_DIR, name), "w", encoding="utf-8") as fh:
        json.dump({"env": env, "result": result, "problems": problems,
                   "layers": runs[-1]["traces"][0]["layers"] if args.trace else None,
                   "rounds": [r["rounds"] for r in runs],
                   "setup_samples": None if args.trace else setups}, fh, indent=1)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
