"""Embedded reference data and its reproduction from first principles.

The data files under ``oddcross/data`` hold curated reference content:
the per-axis pair distributions for n=5 and n=7, the six 5-dimensional
schemes, and thirty 7-dimensional schemes. ``reproduce_tables`` recomputes
everything with the enumeration machinery and reports PASS/FAIL per block;
comparisons are set-based since the reference rows carry no inherent order.
"""

from __future__ import annotations

from importlib.resources import files
from typing import Dict, List, Tuple

from .schemes import Pair, Scheme, axis_matchings, enumerate_schemes, feasible_dimension
from .textio import parse_scheme_text


def _data_lines(name: str) -> List[str]:
    text = (files("oddcross") / "data" / name).read_text(encoding="utf-8")
    return [
        line.strip()
        for line in text.splitlines()
        if line.strip() and not line.lstrip().startswith("#")
    ]


def reference_axis_pairings(n: int) -> Dict[int, List[Tuple[Pair, ...]]]:
    """Reference matchings per axis, as tuples of normalized pairs."""
    out: Dict[int, List[Tuple[Pair, ...]]] = {axis: [] for axis in range(1, n + 1)}
    for line in _data_lines(f"axis_pairings_{n}.txt"):
        axis_text, _, rest = line.partition(":")
        axis = int(axis_text)
        pairs = tuple(
            sorted(Pair(int(tok[0]), int(tok[1])) for tok in rest.split())
        )
        out[axis].append(pairs)
    return out


def reference_schemes(n: int) -> List[Scheme]:
    """Reference schemes, in published row order (1-based row = list index + 1)."""
    return [parse_scheme_text(line, n) for line in _data_lines(f"schemes_{n}.txt")]


def _check_axis_pairings(n: int) -> Tuple[str, bool]:
    dim = feasible_dimension(n)
    reference = reference_axis_pairings(n)
    ok = all(
        len(computed) == dim.matchings_per_axis and computed == set(reference[axis])
        for axis in range(1, n + 1)
        for computed in [set(axis_matchings(dim, axis))]
    )
    status = "PASS" if ok else "FAIL"
    return (
        f"axis pair distributions (n={n}): {dim.matchings_per_axis} per axis, "
        f"reference content matched: {status}",
        ok,
    )


def _check_schemes_5() -> Tuple[str, bool]:
    dim = feasible_dimension(5)
    computed = set(enumerate_schemes(dim))
    ref = reference_schemes(5)
    ok = len(ref) == 6 and computed == set(ref) and len(computed) == 6
    status = "PASS" if ok else "FAIL"
    return f"pairing schemes (n=5): 6 enumerated, reference set matched: {status}", ok


def _check_schemes_7() -> Tuple[str, bool]:
    dim = feasible_dimension(7)
    computed = set(enumerate_schemes(dim))
    ref = reference_schemes(7)
    ok = (
        len(computed) == 6240
        and len(ref) == 30
        and len(set(ref)) == 30
        and all(s in computed for s in ref)
    )
    status = "PASS" if ok else "FAIL"
    return (
        f"pairing schemes (n=7): 30 reference rows occur among "
        f"{len(computed)} enumerated: {status}",
        ok,
    )


def reproduce_tables() -> Tuple[str, bool]:
    """Recompute every reference block; returns (report text, all passed)."""
    checks = [
        _check_axis_pairings(5),
        _check_schemes_5(),
        _check_axis_pairings(7),
        _check_schemes_7(),
    ]
    all_ok = all(ok for _, ok in checks)
    lines = [line for line, _ in checks]
    lines.append(f"overall: {'PASS' if all_ok else 'FAIL'}")
    return "\n".join(lines) + "\n", all_ok
