"""Pairing schemes: feasible dimensions, per-axis matchings, exact covers.

A scheme assigns every unordered index pair {i, j} of {1..n} to exactly
one target axis k, such that the pairs under each axis form a perfect
matching of the remaining n-1 indices. Such an assignment exists only for
odd n, where each axis carries (n-1)/2 pairs.

Each fact is stored once. A ``Scheme`` is the tuple of its n matchings,
and its k-th matching is axis k's: the axis is the position and n is the
count. Adding a point 0 and the edge {0, k} to axis k's matching makes the
scheme a 1-factorization of K_{n+1}, whose class holding {0, k} names axis
k. ``Scheme.slots`` is the one structural check, and every scheme, parsed,
branched or built by hand, passes it when it is built; only
``enumerate_schemes`` skips it, for covers valid by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from itertools import combinations, islice
from operator import index
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence, Tuple

from . import kernels
from .errors import (
    AxisRangeError,
    BadMatchingError,
    ChoiceRangeError,
    DimensionTooSmallError,
    DimensionTypeError,
    DuplicatePairError,
    EvenDimensionError,
    LimitError,
    MissingPairError,
    SchemeValidationError,
    SelfPairError,
    TooManyMatchingsError,
)


@dataclass(frozen=True)
class Dimension:
    """An odd dimension n >= 3 and the pair budget of each axis.

    The n(n-1)/2 unordered pairs split into n equal groups only when
    (n-1)/2 is an integer, so even n is rejected outright, and each axis
    then holds pairs_per_axis = (n-1)/2 pairs.
    """

    n: int

    def __post_init__(self):
        n = self.n
        if not isinstance(n, int):
            raise SchemeValidationError(f"dimension must be an int, got {n!r}")
        if n < 3:
            raise DimensionTooSmallError(f"need at least 3 dimensions, got {n}")
        if n % 2 == 0:
            raise EvenDimensionError(
                f"n={n}: {n * (n - 1) // 2} pairs cannot be split evenly over {n} axes"
            )

    @property
    def pairs_per_axis(self) -> int:
        """Pairs on each axis, (n-1)/2."""
        return (self.n - 1) // 2

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
    return Dimension(n)


def _check_dim(dim: Dimension) -> int:
    """``dim.n``, once ``dim`` is a Dimension: a bare int n would otherwise
    fail deep inside as an AttributeError (DimensionTypeError instead)."""
    if not isinstance(dim, Dimension):
        raise DimensionTypeError(
            f"expected a Dimension, as feasible_dimension(n) makes, got {dim!r}"
        )
    return dim.n


class Pair(NamedTuple):
    """An unordered index pair, stored with lo < hi (1-based)."""

    lo: int
    hi: int

    def __str__(self) -> str:
        return f"{self.lo}-{self.hi}"


def make_pair(a: int, b: int) -> Pair:
    try:
        a, b = index(a), index(b)
    except TypeError:
        raise SchemeValidationError(f"pair members must be ints, got {a!r} and {b!r}") from None
    return _int_pair(a, b)


def _int_pair(a: int, b: int) -> Pair:
    """The Pair of two int members in either order, built with
    ``tuple.__new__`` rather than the NamedTuple's Python-level ``__new__``."""
    if a > b:
        a, b = b, a
    if a == b:
        raise SchemeValidationError(f"pair members must differ, got {a}-{b}")
    if a < 1:
        raise SchemeValidationError(f"indices are 1-based, got {a}-{b}")
    return tuple.__new__(Pair, (a, b))


class Matching(tuple):
    """The disjoint pairs of one axis, as a tuple of pairs.

    A matching does not store its axis: ``scheme[k-1]`` is the matching
    of axis k. Nothing else is stored but the cached ``line`` (a
    ``functools.cached_property``), as a ``Scheme`` caches ``slots``.
    """

    def __setattr__(self, name, value):
        # ``line`` caches into the instance dict directly, not through here.
        raise AttributeError(f"cannot set {name!r}: a Matching is immutable")

    def __str__(self) -> str:
        return " ".join(map(str, self))

    @cached_property
    def line(self) -> str:
        """The text line ``"{axis}: {pairs}\\n"`` of ``textio.emit_scheme_text``.

        The line depends on the matching alone. The k-th matching of a
        ``Scheme`` (checked when built, or an exact cover of the walk) is a
        perfect matching of {1..n} minus its axis k: its pairs are disjoint
        and hold every index of 1..n except k. So they hold n - 1 indices,
        n = 2 * len(matching) + 1, and k is the one index of 1..n they
        miss, n(n+1)/2 minus the sum of their members. Two equal matchings
        have the same pairs, hence the same line; each computes its own.
        """
        n = 2 * len(self) + 1
        axis = n * (n + 1) // 2 - sum(map(sum, self))
        return f"{axis}: {self}\n"


@lru_cache(maxsize=None)
def _axis_masks(n: int, axis: int) -> Tuple[int, ...]:
    """The axis's matchings as OR-ed ``1 << pair_index`` bits, in ``axis_matchings`` order."""

    def masks(free: Tuple[int, ...]) -> Iterator[int]:
        if not free:
            yield 0
            return
        first, rest = free[0], free[1:]
        for pos, partner in enumerate(rest):
            bit = 1 << pair_index(n, (first, partner))
            for tail in masks(rest[:pos] + rest[pos + 1 :]):
                yield bit | tail

    return tuple(masks(tuple(i for i in range(1, n + 1) if i != axis)))


def _slots(mask: int) -> Iterator[int]:
    """The set bits of a mask, ascending: a matching's pair slots in pair order."""
    while mask:
        yield (mask & -mask).bit_length() - 1
        mask &= mask - 1


@lru_cache(maxsize=None)
def _axis_matchings(n: int, axis: int) -> Tuple[Matching, ...]:
    """``_axis_masks`` decoded into ``Matching`` objects, for the API edges."""
    pairs = [Pair(*p) for p in combinations(range(1, n + 1), 2)]
    return tuple(Matching(map(pairs.__getitem__, _slots(m))) for m in _axis_masks(n, axis))


# No call builds more matchings than this: the n * (n-2)!! of all axes of
# n=13 (127 MB peak RSS for a census, Python 3.11, mostly verdict masks) or
# the (n-2)!! of one axis of n=15; all axes of n=15 or one of n=17 are 2,027,025.
_MATCHING_BUDGET = 135_135


def axis_matchings(dim: Dimension, axis: int) -> Tuple[Matching, ...]:
    """All perfect matchings of {1..n} minus the axis, in lexicographic order.

    The order is lexicographic on the normalized pair lists; pairing the
    smallest free index first produces exactly that order. An axis with
    more than ``_MATCHING_BUDGET`` matchings, (n-2)!! of them, is refused
    from that count, before any is built (TooManyMatchingsError): from
    n=17 on, 2,027,025 at n=17. An axis is an int of 1..n (AxisRangeError).
    """
    _check_dim(dim)
    try:
        axis = index(axis)  # a float 1.0 would be a second cache key
    except TypeError:
        raise AxisRangeError(f"axis {axis!r} out of range: need an int in 1..{dim.n}") from None
    if not 1 <= axis <= dim.n:
        raise AxisRangeError(f"axis {axis} out of range 1..{dim.n}")
    _refuse_too_many(dim.n, 1, f"axis {axis} has", 15)
    return _axis_matchings(dim.n, axis)


def _refuse_too_many(n: int, axes: int, holder: str, reached: int) -> None:
    """TooManyMatchingsError when ``axes`` axes of n, with (n-2)!! matchings
    each, have more than ``_MATCHING_BUDGET``. The product stops once it
    passes the budget, so a huge n costs a few multiplications."""
    count = axes
    for factor in range(3, n - 1, 2):
        count *= factor
        if count > _MATCHING_BUDGET:
            raise TooManyMatchingsError(
                f"n={n}: {holder} {_count_text(n, axes)} matchings, too many to build "
                f"(the limit is {_MATCHING_BUDGET:,}, reached at n={reached})"
            )


def _count_text(n: int, axes: int, spec: str = ",") -> str:
    """axes * (n-2)!!, formatted with ``spec``, or from 25 digits on as
    ``about 1.23e4567``, read off its logarithm: Python prints no int of
    over 4300 digits, and (n-2)!! has more from n=2847 on."""
    m = (n - 1) // 2  # (n-2)!! = (n-1)! / (2^m m!)
    log10 = (math.lgamma(n) - math.lgamma(m + 1) - m * math.log(2)) / math.log(10)
    log10 += math.log10(axes)
    if log10 < 24:
        return format(axes * math.prod(range(1, n - 1, 2)), spec)
    mantissa, shift = f"{10 ** (log10 % 1):.2e}".split("e")
    return f"about {mantissa}e{int(log10) + int(shift)}"


def pair_index(n: int, pair: Pair) -> int:
    """Slot of an unordered pair in the fixed lexicographic pair ordering."""
    lo, hi = pair
    return (lo - 1) * n - lo * (lo - 1) // 2 + (hi - lo - 1)


class Scheme(tuple):
    """A full assignment: the tuple of its n matchings, one per axis.

    ``scheme[k-1]`` is the matching of axis k, so the axis is the position
    and n is the count: nothing else is stored but the cached ``slots``
    (a ``functools.cached_property``). Every ``Scheme(matchings)``
    is checked when it is built, by reading ``slots``, so a scheme that
    exists has passed the structural check. The one unchecked way in is
    ``enumerate_schemes``, whose kernel branches are valid by construction.
    """

    def __new__(cls, matchings: Iterable[Matching]) -> Scheme:
        scheme = super().__new__(cls, matchings)
        scheme.slots  # the structural check
        return scheme

    def __setattr__(self, name, value):
        # ``slots`` caches into the instance dict directly, not through here.
        raise AttributeError(f"cannot set {name!r}: a Scheme is immutable")

    @property
    def dim(self) -> Dimension:
        """The Dimension of the count of matchings."""
        return Dimension(len(self))

    @cached_property
    def slots(self) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        """The product table as ``(target, sign)``, checked as it is built.

        One slot per pair i < j in ``pair_index`` order, the layout of
        ``StructureTensor``: e_i x e_j = sign * e_(target + 1), with the
        0-based target and the sign of ``tensor.orient_pair``'s rule (-1
        exactly when the axis lies strictly between i and j).

        This one pass is the scheme's structural check. The count of
        matchings is n, so it must be a ``Dimension`` (EvenDimensionError,
        DimensionTooSmallError). Then it takes the axes in order and each
        axis's pairs in order, and raises for the first matching that is not
        a ``Matching`` or pair that is not a ``Pair`` of two ints lo < hi of
        1..n (SchemeValidationError), a pair that holds its own axis
        (SelfPairError), shares an index with an earlier pair of its axis
        (BadMatchingError), or sits in a slot an earlier axis wrote
        (DuplicatePairError). After the pass, a slot left unwritten raises
        MissingPairError for the first such pair in lexicographic order.
        """
        dim = self.dim
        n = dim.n
        target = [-1] * dim.pair_count
        sign = [0] * dim.pair_count
        # row[lo] + hi is pair_index(n, (lo, hi)) for each lo < hi.
        row = [pair_index(n, (lo, lo + 1)) - lo - 1 for lo in range(n)]
        for k, matching in enumerate(self, 1):
            if type(matching) is not Matching:
                raise SchemeValidationError(f"axis {k}: {matching!r} is not a Matching")
            held = 0  # bitmask of the indices the axis's pairs already hold
            for pair in matching:
                if type(pair) is not Pair:
                    raise SchemeValidationError(f"axis {k}: {pair!r} is not a Pair")
                lo, hi = pair
                if not (type(lo) is int and type(hi) is int and 0 < lo < hi <= n):
                    raise SchemeValidationError(
                        f"axis {k}: pair {pair} out of range, need two ints lo < hi in 1..{n}"
                    )
                if lo == k or hi == k:
                    raise SelfPairError(f"axis {k} appears in its own pair {lo}-{hi}")
                if held & (1 << lo | 1 << hi):
                    member = lo if held >> lo & 1 else hi
                    raise BadMatchingError(f"axis {k}: index {member} appears in two pairs")
                held |= 1 << lo | 1 << hi
                p = row[lo] + hi
                if target[p] >= 0:
                    raise DuplicatePairError(pair, target[p] + 1, k)
                target[p] = k - 1
                sign[p] = -1 if lo < k < hi else 1
        if -1 in target:
            pairs = combinations(range(1, n + 1), 2)
            raise MissingPairError(Pair(*next(islice(pairs, target.index(-1), None))))
        return tuple(target), tuple(sign)

    def __str__(self) -> str:
        return " / ".join(map(str, self))


def validate_scheme(n: int, pair_lists: Sequence[Iterable]) -> Scheme:
    """Check a raw per-axis pair assignment and build the Scheme.

    ``pair_lists[k-1]`` holds the pairs claimed for axis k, each pair any
    2-sequence of int indices. The raw shape is checked first, on every
    axis: one iterable of pairs per axis, each pair two distinct ints of at
    least 1 (SchemeValidationError). Then the rest, once, as the Scheme
    is built (``Scheme.slots``): axis by axis, the first pair with an index
    above n (SchemeValidationError), SelfPair, BadMatching (overlap within
    an axis) or DuplicatePair (pair on an earlier axis), and last
    MissingPair (pair on no axis).
    """
    feasible_dimension(n)  # n first, before the raw shape
    try:
        axes = [list(raw_pairs) for raw_pairs in pair_lists]
    except TypeError:
        raise SchemeValidationError(f"need one pair list per axis, got {pair_lists!r}") from None
    if len(axes) != n:
        raise SchemeValidationError(f"expected one pair list per axis ({n}), got {len(axes)}")

    matchings = []
    for axis, raw_pairs in enumerate(axes, 1):
        pairs = []
        for raw in raw_pairs:
            try:
                a, b = raw
                a, b = index(a), index(b)
            except (TypeError, ValueError):
                raise SchemeValidationError(
                    f"axis {axis}: pair {raw!r} is not two int indices"
                ) from None
            pairs.append(_int_pair(a, b))
        matchings.append(Matching(sorted(pairs)))
    return Scheme(matchings)


@lru_cache(maxsize=None)
def _axis_choice_masks(n: int) -> Tuple[Tuple[int, ...], ...]:
    """``_axis_masks`` of every axis of an odd n, indexed by axis - 1: the
    one n-wide table of matchings, so the one place that refuses, from their
    count and before building any, an n whose matchings do not fit in memory
    (TooManyMatchingsError)."""
    feasible_dimension(n)
    _refuse_too_many(n, n, "its axes have", 13)
    return tuple(_axis_masks(n, axis) for axis in range(1, n + 1))


def branch_scheme(dim: Dimension, branch: Sequence[int]) -> Scheme:
    """Materialize the scheme picked by per-axis matching indices.

    Raises ChoiceRangeError unless ``branch`` holds one index per axis,
    each inside that axis's matchings, and DuplicatePairError when two
    chosen matchings share a pair: the Scheme is checked as it is built.
    """
    n = _check_dim(dim)
    if len(branch) != n:
        raise ChoiceRangeError(f"branch has {len(branch)} choices, need one per axis ({n})")
    masks = _axis_choice_masks(n)
    branch = [kernels._check_choice(masks, d, choice) for d, choice in enumerate(branch)]
    return Scheme(_axis_matchings(n, d)[choice] for d, choice in enumerate(branch, 1))


def _check_limit(limit: Optional[int]) -> Optional[int]:
    """``limit`` as None or an int of at least 1, else LimitError.

    The one check of a count of branches or schemes to stop after, for the
    library and the ``--limit`` of the CLI alike.
    """
    if limit is None:
        return None
    try:
        limit = index(limit)
    except TypeError:
        raise LimitError(f"limit must be an int >= 1, got {limit!r}") from None
    if limit < 1:
        raise LimitError(f"limit must be an int >= 1, got {limit}")
    return limit


def scheme_branches(
    dim: Dimension,
    *,
    prefix: Sequence[int] = (),
    limit: Optional[int] = None,
) -> Iterator[Tuple[int, ...]]:
    """Stream branch tuples (per-axis matching indices) in DFS order.

    ``prefix`` restricts the walk to the subtree of branches that begin
    with it, and ``limit`` (None or an int >= 1, else LimitError) stops it
    after that many. The walk is lazy, but its input is not: before the
    first branch, ``_axis_choice_masks`` builds every axis's (n-2)!!
    matchings as int masks, no ``Matching`` among them: 135k over all axes
    at n=13, about 0.4 s and a 26 MB peak RSS to the first three branches
    (Python 3.11 on 2 shared cores). From n=15 on (2.0M at n=15, 34.5M at
    n=17) they are refused with TooManyMatchingsError instead.
    """
    n = _check_dim(dim)
    limit = _check_limit(limit)
    covers = kernels.enumerate_covers(_axis_choice_masks(n), prefix)
    yield from islice(covers, limit)


class _Labels(dict):
    """Candidate c of one axis -> the walk label ``(matchings[c],)``, built
    on first use and kept for one scan: a scan that reaches a few of n=13's
    10,395 matchings per axis builds a few 1-tuples, not all of them."""

    __slots__ = ("matchings",)

    def __init__(self, matchings: Tuple[Matching, ...]):
        super().__init__()
        self.matchings = matchings

    def __missing__(self, c: int) -> Tuple[Matching]:
        label = self[c] = (self.matchings[c],)
        return label


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
    for n(n-1)/2 pairs), so no post-filtering is needed. ``prefix`` and
    ``limit`` are those of ``scheme_branches``, and the k-th matching of
    each scheme is ``axis_matchings(dim, k)[branch[k-1]]`` itself for the
    branch that ``scheme_branches`` streams in its place.

    The walk labels each candidate with the 1-tuple of its ``Matching``
    (``_Labels``), so ``kernels.enumerate_covers`` yields each scheme
    as the tuple of its matchings, and each Scheme is that tuple, built
    without the check that ``Scheme(...)`` runs: the kernel's branches are
    valid by construction. Errors arrive at the first ``next()``: a
    ``dim`` that is not a Dimension (DimensionTypeError), the matching
    budget (TooManyMatchingsError), then ``limit`` (LimitError), then
    ``prefix`` (ChoiceRangeError).
    """
    n = _check_dim(dim)
    axis_masks = _axis_choice_masks(n)  # refuses too many matchings before any is built
    limit = _check_limit(limit)
    labels = [_Labels(_axis_matchings(n, axis)) for axis in range(1, n + 1)]
    covers = kernels.enumerate_covers(axis_masks, prefix, labels)
    yield from map(partial(tuple.__new__, Scheme), islice(covers, limit))


def is_closed(scheme: Scheme) -> bool:
    """True when every assigned pair closes into a triple.

    Each pair {i, j} on axis k must be accompanied by {j, k} on axis i and
    {i, k} on axis j; the pairs then organize into (n-1)/2 * n / 3 triples,
    i.e. the scheme is a Steiner triple system on n points.

    Read off the checked ``slots``: each pair {i, j} on axis k gives the
    triple {i, j, k}, and only the three pairs of a triple can give it, so
    no triple is given more than three times. The n(n-1)/2 pairs give
    exactly n(n-1)/6 distinct triples when each is given three times, which
    is closure, and more otherwise.
    """
    target = scheme.slots[0]
    pairs = combinations(range(len(scheme)), 2)
    triples = {1 << i | 1 << j | 1 << k for (i, j), k in zip(pairs, target)}
    return 3 * len(triples) == len(target)
