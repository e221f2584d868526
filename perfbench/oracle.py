"""Exact evaluator for pairing schemes, independent of the oddcross package.

Output checks use this module instead of the package, so they keep working
when the package's kernels are rewritten or its test oracle moves. It
rebuilds everything from the definitions:

* a scheme is a tuple of per-axis pair lists, axis k (1-based) holding the
  pairs of a perfect matching of {1..n} minus k;
* the orientation rule: for a pair {i, j} on axis k, e_i x e_j = +e_k when
  (i, j, k) is an even permutation of its ascending sort, else -e_k;
* X_AB = |A x B|^2 - |A|^2 |B|^2 + (A . B)^2, in exact integers.

Schemes are enumerated in the order the package documents: axes ascending,
each axis trying its matchings in lexicographic order, depth first.
"""

from __future__ import annotations

from functools import lru_cache

# Rows 11 and 20 of the package's n=7 reference table: the only n=7 schemes
# whose canonically oriented product satisfies X_AB = 0 identically. No
# scheme of n=5 or n=9 does (Massey 1983).
PINNED_ROWS = {
    11: "24 37 56 / 14 35 67 / 17 25 46 / 12 36 57 / 16 23 47 / 15 27 34 / 13 26 45",
    20: "26 34 57 / 16 37 45 / 14 27 56 / 13 25 67 / 17 24 36 / 12 35 47 / 15 23 46",
}


def parse_compact(text: str) -> tuple:
    """'24 35 / 13 45 / ...' -> ((( 2, 4), (3, 5)), ((1, 3), (4, 5)), ...)."""
    return tuple(
        tuple(sorted((int(tok[0]), int(tok[1])) for tok in group.split()))
        for group in text.split("/")
    )


def parse_canonical(text: str) -> tuple:
    """Parse the canonical 'n=<n>' / '<axis>: lo-hi ...' text."""
    lines = [line.strip() for line in text.strip().splitlines()]
    if not lines or not lines[0].startswith("n="):
        raise ValueError(f"not canonical scheme text: {text[:40]!r}")
    n = int(lines[0][2:])
    axes = {}
    for line in lines[1:]:
        head, _, rest = line.partition(":")
        pairs = []
        for tok in rest.split():
            lo, _, hi = tok.partition("-")
            pairs.append((int(lo), int(hi)))
        axes[int(head)] = tuple(pairs)
    if sorted(axes) != list(range(1, n + 1)):
        raise ValueError(f"axes {sorted(axes)} do not cover 1..{n}")
    return tuple(axes[k] for k in range(1, n + 1))


def canonical_text(scheme) -> str:
    """The canonical text of a scheme, one axis per line."""
    lines = [f"n={len(scheme)}"]
    for k, pairs in enumerate(scheme, 1):
        lines.append(f"{k}: " + " ".join(f"{lo}-{hi}" for lo, hi in pairs))
    return "\n".join(lines) + "\n"


def _pairings(items):
    if not items:
        yield ()
        return
    first = items[0]
    for pos in range(1, len(items)):
        rest = items[1:pos] + items[pos + 1 :]
        for tail in _pairings(rest):
            yield ((first, items[pos]),) + tail


@lru_cache(maxsize=None)
def matchings(n: int, axis: int) -> tuple:
    """Perfect matchings of {1..n} minus axis, in lexicographic order."""
    members = tuple(i for i in range(1, n + 1) if i != axis)
    return tuple(sorted(_pairings(members)))


@lru_cache(maxsize=None)
def _masks(n: int) -> tuple:
    def bit(p):
        return 1 << ((p[0] - 1) * n + (p[1] - 1))

    return tuple(
        tuple(sum(bit(p) for p in m) for m in matchings(n, axis))
        for axis in range(1, n + 1)
    )


@lru_cache(maxsize=None)
def matching_index(n: int, axis: int) -> dict:
    return {m: i for i, m in enumerate(matchings(n, axis))}


def branch_of(scheme) -> tuple:
    """Per-axis matching indices of a scheme (KeyError if a row is no matching)."""
    n = len(scheme)
    return tuple(matching_index(n, k)[tuple(pairs)] for k, pairs in enumerate(scheme, 1))


def scheme_of(n: int, branch) -> tuple:
    return tuple(matchings(n, k)[c] for k, c in enumerate(branch, 1))


def branches(n: int, first=None, order=None):
    """Depth-first exact covers as branch tuples.

    ``first`` pins axis 1's choice. ``order(axis)`` may give the candidate
    order per axis (default: lexicographic); a shuffled order yields a
    random scheme first.
    """
    masks = _masks(n)
    cands = [
        list(range(len(masks[d]))) if order is None else order(d + 1)
        for d in range(n)
    ]
    if first is not None:
        cands[0] = [first]
    path = []

    def dfs(d, used):
        if d == n:
            yield tuple(path)
            return
        for c in cands[d]:
            m = masks[d][c]
            if not m & used:
                path.append(c)
                yield from dfs(d + 1, used | m)
                path.pop()

    return dfs(0, 0)


@lru_cache(maxsize=4096)
def table(scheme) -> dict:
    """Signed product table: (i, j) -> (k, s) for every ordered i != j."""
    out = {}
    for k, pairs in enumerate(scheme, 1):
        for i, j in pairs:
            inversions = (i > j) + (i > k) + (j > k)
            s = 1 if inversions % 2 == 0 else -1
            out[(i, j)] = (k, s)
            out[(j, i)] = (k, -s)
    return out


def cross(scheme, a, b) -> list:
    t = table(scheme)
    c = [0] * len(scheme)
    for k, pairs in enumerate(scheme, 1):
        for i, j in pairs:
            c[k - 1] += t[(i, j)][1] * (a[i - 1] * b[j - 1] - a[j - 1] * b[i - 1])
    return c


def dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def xab(scheme, a, b):
    c = cross(scheme, a, b)
    return dot(c, c) - dot(a, a) * dot(b, b) + dot(a, b) ** 2


def closed(scheme) -> bool:
    """Every pair {i, j} on axis k comes with {j, k} on i and {i, k} on j."""
    owner = {p: k for k, pairs in enumerate(scheme, 1) for p in pairs}
    for (i, j), k in owner.items():
        if owner[tuple(sorted((j, k)))] != i or owner[tuple(sorted((i, k)))] != j:
            return False
    return True


def totally_antisymmetric(scheme) -> bool:
    """L[i,j,k] = L[j,k,i] for every entry: the orthogonality identity."""
    t = table(scheme)
    for (i, j), (k, s) in t.items():
        if t[(j, k)] != (i, s):
            return False
    return True


def is_pinned(scheme) -> bool:
    return scheme in _pinned()


@lru_cache(maxsize=None)
def _pinned() -> frozenset:
    return frozenset(parse_compact(text) for text in PINNED_ROWS.values())


def is_scheme(scheme) -> bool:
    """Each axis holds a perfect matching of the others; every pair used once."""
    n = len(scheme)
    seen = set()
    for k, pairs in enumerate(scheme, 1):
        members = sorted(x for p in pairs for x in p)
        if members != [i for i in range(1, n + 1) if i != k]:
            return False
        if any(lo >= hi for lo, hi in pairs):
            return False
        seen.update(pairs)
    return len(seen) == n * (n - 1) // 2
