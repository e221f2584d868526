"""Pairing schemes: feasible dimensions, per-axis matchings, exact covers.

A scheme assigns every unordered index pair {i, j} of {1..n} to exactly
one target axis k, such that the pairs under each axis form a perfect
matching of the remaining n-1 indices. Such an assignment exists only for
odd n, where each axis carries (n-1)/2 pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import islice
from operator import index
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence, Tuple

from . import kernels
from .errors import (
    AxisRangeError,
    BadMatchingError,
    ChoiceRangeError,
    DimensionTooSmallError,
    DuplicatePairError,
    EvenDimensionError,
    MissingPairError,
    SchemeValidationError,
    SelfPairError,
)


@dataclass(frozen=True)
class Dimension:
    """An odd dimension n >= 3 together with the pair budget of each axis.

    The n(n-1)/2 unordered pairs split into n equal groups only when
    (n-1)/2 is an integer, so even n is rejected outright, and each axis
    then holds pairs_per_axis = (n-1)/2 pairs.
    """

    n: int
    pairs_per_axis: int

    def __post_init__(self):
        n, half = self.n, self.pairs_per_axis
        if not isinstance(n, int):
            raise SchemeValidationError(f"dimension must be an int, got {n!r}")
        if n < 3:
            raise DimensionTooSmallError(f"need at least 3 dimensions, got {n}")
        if n % 2 == 0:
            raise EvenDimensionError(
                f"n={n}: {n * (n - 1) // 2} pairs cannot be split evenly over {n} axes"
            )
        if not isinstance(half, int) or half != (n - 1) // 2:
            raise SchemeValidationError(f"inconsistent dimension: n={n}, pairs_per_axis={half!r}")

    @property
    def pair_count(self) -> int:
        """Number of unordered index pairs, n(n-1)/2."""
        return self.n * (self.n - 1) // 2

    @property
    def matchings_per_axis(self) -> int:
        """Perfect matchings of n-1 points: the odd double factorial (n-2)!!."""
        return math.prod(range(1, self.n - 1, 2))


def feasible_dimension(n: int) -> Dimension:
    """The Dimension of n, checked as ``Dimension`` checks it."""
    return Dimension(n, (n - 1) // 2)


class Pair(NamedTuple):
    """An unordered index pair, stored with lo < hi (1-based)."""

    lo: int
    hi: int

    def __str__(self) -> str:
        return f"{self.lo}-{self.hi}"


def make_pair(a: int, b: int) -> Pair:
    if a == b:
        raise SchemeValidationError(f"pair members must differ, got {a}-{b}")
    if a > b:
        a, b = b, a
    if a < 1:
        raise SchemeValidationError(f"indices are 1-based, got {a}-{b}")
    return Pair(a, b)


class Matching(NamedTuple):
    """The disjoint pairs assigned to one axis."""

    axis: int
    pairs: Tuple[Pair, ...]

    def __str__(self) -> str:
        return " ".join(str(p) for p in self.pairs)


@lru_cache(maxsize=None)
def _axis_matchings(n: int, axis: int) -> Tuple[Matching, ...]:
    members = tuple(i for i in range(1, n + 1) if i != axis)

    def pairings(items: Tuple[int, ...]) -> Iterator[Tuple[Pair, ...]]:
        if not items:
            yield ()
            return
        first, rest = items[0], items[1:]
        for pos, partner in enumerate(rest):
            head = Pair(first, partner)
            for tail in pairings(rest[:pos] + rest[pos + 1 :]):
                yield (head,) + tail

    return tuple(Matching(axis, pairs) for pairs in pairings(members))


def axis_matchings(dim: Dimension, axis: int) -> Tuple[Matching, ...]:
    """All perfect matchings of {1..n} minus the axis, in lexicographic order.

    The order is lexicographic on the normalized pair lists; pairing the
    smallest free index first produces exactly that order.
    """
    if not 1 <= axis <= dim.n:
        raise AxisRangeError(f"axis {axis} out of range 1..{dim.n}")
    return _axis_matchings(dim.n, axis)


def pair_index(n: int, pair: Pair) -> int:
    """Slot of an unordered pair in the fixed lexicographic pair ordering."""
    lo, hi = pair
    return (lo - 1) * n - lo * (lo - 1) // 2 + (hi - lo - 1)


@dataclass(frozen=True)
class Scheme:
    """A full assignment: one matching per axis, every pair used exactly once."""

    dim: Dimension
    matchings: Tuple[Matching, ...]

    @cached_property
    def assignment(self) -> dict[Pair, int]:
        """Map each unordered pair to the axis it is assigned to."""
        return {p: m.axis for m in self.matchings for p in m.pairs}

    def __str__(self) -> str:
        return " / ".join(str(m) for m in self.matchings)


def validate_scheme(n: int, pair_lists: Sequence[Iterable]) -> Scheme:
    """Check a raw per-axis pair assignment and build the Scheme.

    ``pair_lists[k-1]`` holds the pairs claimed for axis k, each pair any
    2-sequence of int indices. Raises the most specific violation found:
    SelfPair, BadMatching (overlap within an axis), DuplicatePair (pair on
    two axes), or MissingPair (pair on no axis).
    """
    dim = feasible_dimension(n)
    if len(pair_lists) != n:
        raise SchemeValidationError(
            f"expected one pair list per axis ({n}), got {len(pair_lists)}"
        )

    matchings = []
    for axis0, raw_pairs in enumerate(pair_lists):
        axis = axis0 + 1
        pairs = []
        for raw in raw_pairs:
            try:
                a, b = raw
                a, b = index(a), index(b)
            except (TypeError, ValueError):
                raise SchemeValidationError(
                    f"axis {axis}: pair {raw!r} is not two int indices"
                ) from None
            p = make_pair(a, b)
            if p.hi > n:
                raise SchemeValidationError(
                    f"axis {axis}: index {p.hi} out of range for n={n}"
                )
            pairs.append(p)
        seen = set()
        for p in pairs:
            if axis in p:
                raise SelfPairError(f"axis {axis} appears in its own pair {p}")
            for member in p:
                if member in seen:
                    raise BadMatchingError(
                        f"axis {axis}: index {member} appears in two pairs"
                    )
                seen.add(member)
        matchings.append(Matching(axis, tuple(sorted(pairs))))

    owner: dict[Pair, int] = {}
    for matching in matchings:
        for p in matching.pairs:
            if p in owner:
                raise DuplicatePairError(p, owner[p], matching.axis)
            owner[p] = matching.axis
    for lo in range(1, n + 1):
        for hi in range(lo + 1, n + 1):
            if Pair(lo, hi) not in owner:
                raise MissingPairError(Pair(lo, hi))

    return Scheme(dim, tuple(matchings))


@lru_cache(maxsize=None)
def _all_axis_matchings(n: int) -> Tuple[Tuple[Matching, ...], ...]:
    """``axis_matchings`` of every axis of an odd n, indexed by axis - 1."""
    dim = feasible_dimension(n)
    return tuple(axis_matchings(dim, axis) for axis in range(1, n + 1))


@lru_cache(maxsize=None)
def _axis_choice_masks(n: int) -> Tuple[Tuple[int, ...], ...]:
    masks = []
    for matchings in _all_axis_matchings(n):
        axis_masks = []
        for matching in matchings:
            mask = 0
            for p in matching.pairs:
                mask |= 1 << pair_index(n, p)
            axis_masks.append(mask)
        masks.append(tuple(axis_masks))
    return tuple(masks)


def _branch_scheme(dim: Dimension, branch: Sequence[int]) -> Scheme:
    # Unchecked: for branches the kernel yields, valid by construction.
    per_axis = _all_axis_matchings(dim.n)
    return Scheme(dim, tuple([matchings[c] for matchings, c in zip(per_axis, branch)]))


def branch_scheme(dim: Dimension, branch: Sequence[int]) -> Scheme:
    """Materialize the scheme picked by per-axis matching indices.

    Raises ChoiceRangeError unless ``branch`` holds one index per axis,
    each inside that axis's matchings, and DuplicatePairError when two
    chosen matchings share a pair.
    """
    if len(branch) != dim.n:
        raise ChoiceRangeError(f"branch has {len(branch)} choices, need one per axis ({dim.n})")
    masks = _axis_choice_masks(dim.n)
    for d, choice in enumerate(branch):
        kernels._check_choice(masks, d, choice)
    scheme = _branch_scheme(dim, branch)
    return validate_scheme(dim.n, [m.pairs for m in scheme.matchings])


def scheme_branches(
    dim: Dimension,
    *,
    prefix: Sequence[int] = (),
    limit: Optional[int] = None,
) -> Iterator[Tuple[int, ...]]:
    """Stream branch tuples (per-axis matching indices) in DFS order.

    ``prefix`` restricts the walk to the subtree of branches that begin
    with it. The walk is lazy, but its input is not: before the first
    branch, ``_axis_choice_masks`` builds every axis's (n-2)!! matchings
    and their masks: 135k matchings over all axes at n=13 (1.4-1.8 s and a
    64 MB peak RSS before the first branch, Python 3.11 on a 2-core
    machine), 2.0M at n=15 and 34.5M at n=17. Large n do not stream.
    """
    covers = kernels.enumerate_covers(_axis_choice_masks(dim.n), prefix)
    yield from islice(covers, limit)


def enumerate_schemes(
    dim: Dimension,
    *,
    prefix: Sequence[int] = (),
    limit: Optional[int] = None,
) -> Iterator[Scheme]:
    """Yield every valid scheme exactly once, in DFS lexicographic order.

    Axes are filled in ascending order and each axis tries its matchings in
    ``axis_matchings`` order, so the stream is deterministic. Any assignment
    with all-distinct pairs is automatically an exact cover (n(n-1)/2 slots
    for n(n-1)/2 pairs), so no post-filtering is needed.
    """
    for branch in scheme_branches(dim, prefix=prefix, limit=limit):
        yield _branch_scheme(dim, branch)


def is_closed(scheme: Scheme) -> bool:
    """True when every assigned pair closes into a triple.

    Each pair {i, j} on axis k must be accompanied by {j, k} on axis i and
    {i, k} on axis j; the pairs then organize into (n-1)/2 * n / 3 triples,
    i.e. the scheme is a Steiner triple system on n points.
    """
    assign = scheme.assignment
    for (i, j), k in assign.items():
        if assign[make_pair(j, k)] != i or assign[make_pair(i, k)] != j:
            return False
    return True
