"""Benchmark the enumeration kernel per backend, and the fused census.

Times, on identical inputs:

* exact-cover enumeration of every pairing scheme of the dimension, once
  per available kernel backend (pure-Python, and compiled when built);
* the whole census of the dimension (enumeration, mask classification,
  witnesses and the CSV write to memory) with the active backend.

Usage: python benchmarks/bench_kernels.py [-n 7] [--repeat 3]
"""

import argparse
import io
import time

from oddcross import feasible_dimension
from oddcross import kernels
from oddcross.schemes import _axis_choice_masks
from oddcross.verify import census, write_census_csv


def best_of(repeat, fn):
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - t0)
    return min(times), result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("-n", type=int, default=7)
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args()

    dim = feasible_dimension(args.n)
    masks = _axis_choice_masks(dim.n)
    print(f"n={dim.n}: {dim.pair_count} pairs")
    print(f"available backends: {', '.join(kernels.available_backends())}")
    print()

    results = {}
    header = f"{'backend':<14} {'enumerate':>12}"
    print(header)
    print("-" * len(header))
    for name in kernels.available_backends():
        backend = kernels.get_backend(name)
        t_enum, branches = best_of(
            args.repeat, lambda: backend.enumerate_covers(masks, (), None, 2**62)
        )
        results[name] = (t_enum, branches)
        print(f"{name:<14} {t_enum * 1e3:>10.2f}ms")

    names = list(results)
    if len(names) == 2:
        (e1, b1), (e2, b2) = results[names[0]], results[names[1]]
        if b1 != b2:
            print("\nBACKEND MISMATCH: branches differ between backends")
            return 1
        print(f"\nspeedup ({names[0]} / {names[1]}): enumerate x{e1 / e2:.1f}")

    t_census, count = best_of(
        args.repeat, lambda: write_census_csv(census(dim), io.StringIO())
    )
    print(
        f"\ncensus + CSV ({kernels.BACKEND}): {count} schemes in "
        f"{t_census * 1e3:.1f}ms ({count / t_census:,.0f} schemes/s)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
