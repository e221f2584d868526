"""Scheme serialization: the line-oriented text format and the compact form.

Canonical text format, one scheme per file:

    n=5
    1: 2-4 3-5
    2: 1-3 4-5
    3: 1-4 2-5
    4: 1-5 2-3
    5: 1-2 3-4

Compact form (accepted on input for n <= 9): double-digit pair tokens
with axes separated by "/", e.g. "24 35 / 13 45 / 14 25 / 15 23 / 12 34".
"""

from __future__ import annotations

import json
import os
import sys
from operator import attrgetter, index
from typing import Optional

from .errors import SchemeSyntaxError, SchemeValidationError
from .schemes import Scheme, validate_scheme


# Each Matching caches its own line (``Matching.line``): an n=9 stream
# draws its lines from 9 x 105 matchings, each formatted once.
_line = attrgetter("line")

_encode_json = json.JSONEncoder(separators=(",", ":")).encode


def _check_scheme(scheme: Scheme) -> None:
    # The lines' proof holds for a Scheme's matchings only: a plain tuple
    # of Matchings need not be one.
    if not isinstance(scheme, Scheme):
        raise SchemeValidationError(f"need a Scheme, got {type(scheme).__name__}")


def emit_scheme_text(scheme: Scheme) -> str:
    """Canonical serialization; parse_scheme_text inverts it exactly.

    Anything but a ``Scheme`` raises SchemeValidationError."""
    _check_scheme(scheme)
    return f"n={len(scheme)}\n" + "".join(map(_line, scheme))


def emit_scheme_json(scheme_id: int, scheme: Scheme) -> str:
    """One JSON Lines row: the id, n, and per axis its "lo-hi" pair tokens,
    cut from the same cached matching lines as ``emit_scheme_text``.

    Anything but a ``Scheme`` raises SchemeValidationError."""
    _check_scheme(scheme)
    axes = [_line(m).split()[1:] for m in scheme]
    return _encode_json({"scheme_id": scheme_id, "n": len(scheme), "axes": axes}) + "\n"


def _parse_full(lines, expected_n: Optional[int]) -> Scheme:
    header = lines[0][1].strip()
    if not header.startswith("n=") or not header[2:].isdecimal():
        raise SchemeSyntaxError(f"expected 'n=<odd>' header, got {header!r}", line=lines[0][0])
    n = int(header[2:])
    if expected_n is not None and n != expected_n:
        raise SchemeSyntaxError(
            f"header says n={n}, but n={expected_n} was given", line=lines[0][0]
        )
    by_axis: dict[int, list] = {}
    for lineno, line in lines[1:]:
        text = line.strip()
        axis_part, colon, rest = text.partition(":")
        if not colon or not (axis_part := axis_part.strip()).isdecimal():
            raise SchemeSyntaxError(f"expected '<axis>: pairs', got {text!r}", line=lineno)
        axis = int(axis_part)
        if not 1 <= axis <= n:
            raise SchemeSyntaxError(f"axis {axis} out of range 1..{n}", line=lineno)
        if axis in by_axis:
            raise SchemeSyntaxError(f"axis {axis} listed twice", line=lineno)
        pairs = by_axis[axis] = []
        for token in rest.split():
            lo, dash, hi = token.partition("-")
            if dash:
                if not (lo.isdecimal() and hi.isdecimal()):
                    raise SchemeSyntaxError(f"bad pair token {token!r}", line=lineno)
                pairs.append((int(lo), int(hi)))
            elif len(token) == 2 and token.isdecimal():
                pairs.append((int(token[0]), int(token[1])))
            else:
                raise SchemeSyntaxError(
                    f"bad pair token {token!r} (want 'lo-hi' or a two-digit code)", line=lineno
                )
    missing = [k for k in range(1, n + 1) if k not in by_axis]
    if missing:
        raise SchemeSyntaxError(f"no line for axis {missing[0]}")
    return validate_scheme(n, [by_axis[k] for k in range(1, n + 1)])


def _parse_compact(text: str, n: Optional[int]) -> Scheme:
    groups = [g for g in text.replace("\n", " ").split("/")]
    if n is not None and len(groups) != n:
        raise SchemeSyntaxError(f"expected {n} axis groups, found {len(groups)}")
    pair_lists = []
    for group in groups:
        if not group.split():
            raise SchemeSyntaxError("empty axis group in compact scheme text")
        pairs = []
        for token in group.split():
            if not (len(token) == 2 and token.isdecimal()):
                raise SchemeSyntaxError(
                    f"bad compact token {token!r} (two digits, so n <= 9)"
                )
            pairs.append((int(token[0]), int(token[1])))
        pair_lists.append(pairs)
    return validate_scheme(len(pair_lists), pair_lists)


def parse_scheme_text(text: str, n: Optional[int] = None) -> Scheme:
    """Parse either the canonical format or the compact double-digit form.

    For the compact form the dimension is inferred from the number of "/"
    separated groups unless ``n`` is given explicitly. A given ``n`` must be
    an int (SchemeValidationError) equal to any ``n=`` header (SchemeSyntaxError).
    """
    if n is not None:
        try:
            n = index(n)
        except TypeError:
            raise SchemeValidationError(f"n must be an int, got {n!r}") from None
    numbered = [(i + 1, line) for i, line in enumerate(text.splitlines())]
    meaningful = [(i, l) for i, l in numbered if l.strip() and not l.lstrip().startswith("#")]
    if not meaningful:
        raise SchemeSyntaxError("empty scheme text")
    if meaningful[0][1].lstrip().startswith("n="):
        return _parse_full(meaningful, n)
    return _parse_compact("\n".join(l for _, l in meaningful), n)


def load_scheme(source: str, n: Optional[int] = None) -> Scheme:
    """Load a scheme from a file path, "-" for stdin, or inline text.

    A one-line source that is neither a file nor scheme text is reported
    as a missing file, next to the reason it is not scheme text.
    """
    if source == "-":
        return parse_scheme_text(sys.stdin.read(), n)
    if os.path.isfile(source):
        with open(source, encoding="utf-8") as fh:
            try:
                text = fh.read()
            except UnicodeDecodeError as exc:
                raise SchemeSyntaxError(f"{source!r} is not UTF-8 text: {exc.reason}") from None
        return parse_scheme_text(text, n)
    try:
        return parse_scheme_text(source, n)
    except SchemeSyntaxError as exc:
        if "\n" in source:
            raise
        raise SchemeSyntaxError(
            f"no file {source!r}, and not scheme text: {exc}"
        ) from None
