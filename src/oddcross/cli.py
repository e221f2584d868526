"""Command-line interface.

Subcommands: dims, matchings, enumerate, tensor, cross, verify, census,
tables. Exit status is 0 on success, 1 on any validation or parse error
or when the reader of stdout closes it early, and 2 when table
reproduction fails.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import sys
import time

from .errors import OddCrossError
from .reference import reproduce_tables
from .schemes import (
    _axis_choice_masks, _check_limit, _count_text, axis_matchings, enumerate_schemes,
    feasible_dimension,
)
from .tensor import build_tensor
from .textio import emit_scheme_json, emit_scheme_text, load_scheme
from .verify import (
    _layout, _matching_masks, census, defect_report, format_witness, tensor_verdict,
    write_census_csv, xab_direct,
)


def _parse_vector(text: str) -> tuple:
    components = []
    for token in text.split(","):
        token = token.strip()
        try:
            components.append(int(token))
        except ValueError:
            try:
                value = float(token)
            except ValueError:
                raise OddCrossError(f"bad vector component {token!r}") from None
            if not math.isfinite(value):  # nan, inf, or a float that overflows: 1e400
                raise OddCrossError(f"bad vector component {token!r}: not a finite number")
            components.append(value)
    return tuple(components)


def _format_number(value) -> str:
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return str(value)


def format_combination(vec) -> str:
    """Render a vector as a signed combination of e1..en, zeros elided."""
    parts = []
    for k, coeff in enumerate(vec, 1):
        if not coeff:
            continue
        magnitude = abs(coeff)
        term = f"e{k}" if magnitude == 1 else f"{_format_number(magnitude)}*e{k}"
        if not parts:
            parts.append(f"-{term}" if coeff < 0 else term)
        else:
            parts.append(f"- {term}" if coeff < 0 else f"+ {term}")
    return " ".join(parts) if parts else "0"


def _bool_text(flag: bool) -> str:
    return "true" if flag else "false"


@contextlib.contextmanager
def _open_output(path):
    if path is None or path == "-":
        yield sys.stdout
    else:
        try:
            fh = open(path, "w", encoding="utf-8", newline="")
        except OSError as exc:
            raise OddCrossError(f"cannot write {path}: {exc.strerror}") from None
        with fh:
            yield fh


def _cmd_dims(args) -> int:
    for n in range(3, args.max + 1):
        try:
            dim = feasible_dimension(n)
        except OddCrossError:
            print(f"n={n}  infeasible (even dimension)")
            continue
        print(
            f"n={n}  pairs/axis={dim.pairs_per_axis}  "
            f"total pairs={dim.pair_count}  matchings/axis={_count_text(n, 1, '')}"
        )
    return 0


def _cmd_matchings(args) -> int:
    dim = feasible_dimension(args.n)
    for matching in axis_matchings(dim, args.axis):
        print(matching)
    return 0


def _cmd_enumerate(args) -> int:
    dim = feasible_dimension(args.n)
    _axis_choice_masks(args.n)  # refuses too many matchings before any output
    stream = enumerate_schemes(dim, limit=args.limit)
    with _open_output(args.output) as out:
        if args.format == "jsonl":
            for i, scheme in enumerate(stream, 1):
                out.write(emit_scheme_json(i, scheme))
        else:
            first = True
            for scheme in stream:
                if not first:
                    out.write("\n")
                out.write(emit_scheme_text(scheme))
                first = False
    return 0


def _cmd_tensor(args) -> int:
    scheme = load_scheme(args.scheme, args.n)
    tensor = build_tensor(scheme)
    for i, j, k, sign in tensor.entries():
        print(f"{i} {j} -> {k} {'+1' if sign > 0 else '-1'}")
    return 0


def _cmd_cross(args) -> int:
    scheme = load_scheme(args.scheme, args.n)
    tensor = build_tensor(scheme)
    a = _parse_vector(args.vector_a)
    b = _parse_vector(args.vector_b)
    print(f"A x B = {format_combination(tensor.cross(a, b))}")
    print(f"X_AB = {_format_number(xab_direct(tensor, a, b))}")
    return 0


def _cmd_verify(args) -> int:
    scheme = load_scheme(args.scheme, args.n)
    tensor = build_tensor(scheme)
    closed, ortho_zero, xab_zero, witness = tensor_verdict(tensor)
    print(f"n: {len(scheme)}")
    print(f"closed: {_bool_text(closed)}")
    print(f"orthogonality_zero: {_bool_text(ortho_zero)}")
    print(f"xab_zero: {_bool_text(xab_zero)}")
    if not xab_zero:
        a, b = witness
        report = defect_report(scheme, a, b, tensor=tensor)
        print(f"witness: {format_witness(witness)}")
        print(
            "X_AB(witness): "
            f"direct={report.xab_direct} tensor={report.xab_tensor} "
            f"pairs={report.xab_pairs}"
        )
        print(
            "defects(witness): "
            f"dot_with_A={report.dot_with_a} dot_with_B={report.dot_with_b}"
        )
    return 0


def _cmd_census(args) -> int:
    start = time.perf_counter()
    dim = feasible_dimension(args.n)
    # Set-up: the matchings, refused before any output when too many, their
    # verdict masks and the mask layout; the rows reuse all three.
    _matching_masks(args.n)
    _layout(args.n)
    rows_start = time.perf_counter()
    records = census(dim, limit=args.limit)
    with _open_output(args.output) as out:
        count = write_census_csv(records, out)
    end = time.perf_counter()
    elapsed = end - start
    print(
        f"census: {count} schemes classified (n={args.n}) in {elapsed:.2f} s "
        f"(set-up {rows_start - start:.2f} s, rows {end - rows_start:.2f} s; "
        f"{count / elapsed:,.0f} schemes/s)",
        file=sys.stderr,
    )
    return 0


def _cmd_tables(args) -> int:
    report, ok = reproduce_tables()
    print(report, end="")
    return 0 if ok else 2


# perfbench/workloads.py passes --seed to census.
_SEED_HELP = "accepted for compatibility; witnesses are constructed, so it has no effect"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oddcross",
        description="Generalized cross products in odd-dimensional space.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dims", help="feasible dimensions and their sizes")
    p.add_argument("--max", type=int, default=9)
    p.set_defaults(func=_cmd_dims)

    p = sub.add_parser("matchings", help="per-axis pair distributions")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--axis", type=int, required=True)
    p.set_defaults(func=_cmd_matchings)

    p = sub.add_parser("enumerate", help="stream every pairing scheme")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--limit", type=int, default=None)
    p.add_argument("--format", choices=("text", "jsonl"), default="text")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("tensor", help="dump a scheme's structure tensor")
    p.add_argument("--scheme", required=True, help="file path, inline text, or -")
    p.add_argument("-n", type=int, default=None)
    p.set_defaults(func=_cmd_tensor)

    p = sub.add_parser("cross", help="evaluate A x B and the cross term")
    p.add_argument("--scheme", required=True)
    p.add_argument("-n", type=int, default=None)
    p.add_argument("-A", dest="vector_a", required=True, help="comma-separated components")
    p.add_argument("-B", dest="vector_b", required=True)
    p.set_defaults(func=_cmd_cross)

    p = sub.add_parser("verify", help="identity-level classification of one scheme")
    p.add_argument("--scheme", required=True)
    p.add_argument("-n", type=int, default=None)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("census", help="classify every scheme of a dimension")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--limit", type=int, default=None)
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--seed", type=int, default=0, help=_SEED_HELP)
    p.set_defaults(func=_cmd_census)

    p = sub.add_parser("tables", help="reproduce the embedded reference tables")
    p.set_defaults(func=_cmd_tables)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_limit(getattr(args, "limit", None))  # before any -o file is opened
        status = args.func(args)
        sys.stdout.flush()
        return status
    except OddCrossError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # The reader closed stdout early (`| head`). Point stdout at devnull
        # so the interpreter's final flush does not fail a second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
