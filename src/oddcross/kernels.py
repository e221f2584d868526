"""The exact-cover enumeration kernel.

``enumerate_covers`` is the depth-first search behind
``schemes.scheme_branches``: a recursive walk over the axes that, at each
axis, tries the candidate matchings in order and descends into every one
disjoint from the choices above it, except on the last two axes, whose
picks the choices above determine and which it looks up. It works on plain
integers and tuples, one bitmask over unordered-pair slots per candidate
matching. Identity classification is decided in ``oddcross.verify`` by the
Plücker criterion.
"""

import sys
from operator import index

from .errors import ChoiceRangeError

# Read by perfbench/worker.py, as oddcross.KERNEL_BACKEND.
BACKEND = "pure-python"


def active_backend():
    """The module holding the kernels; perfbench/spans.py traces its functions."""
    return sys.modules[__name__]


def _check_choice(axis_masks, d, choice):
    """``choice`` as the int index of a candidate of axis d.

    Without this a negative choice would silently wrap to the last
    matching, and a float would fail as a bare TypeError.
    """
    last = len(axis_masks[d]) - 1
    try:
        choice = index(choice)
    except TypeError:
        raise ChoiceRangeError(
            f"choice {choice!r} for axis {d + 1} is outside the ints 0..{last}"
        ) from None
    if not 0 <= choice <= last:
        raise ChoiceRangeError(f"choice {choice} for axis {d + 1} is outside 0..{last}")
    return choice


def enumerate_covers(axis_masks, prefix=()):
    """Yield exact covers in depth-first lexicographic order.

    ``axis_masks[d]`` lists, for axis d, the candidate matchings encoded as
    bitmasks over unordered-pair slots. A branch picks one candidate per
    axis such that all masks are disjoint; branches are yielded as tuples
    of candidate indices.

    ``prefix`` pins the first choices, so the walk starts at axis
    ``len(prefix)`` and yields exactly the branches that begin with it.
    Every prefix choice is checked before the scan; one that is not an int
    of ``0..len(candidates)-1`` raises ChoiceRangeError, and an int-like
    choice (``True``, a numpy integer) is walked as the int it stands for.
    A prefix whose choices share a pair yields nothing.

    Precondition (exact cover): the candidates of an axis are distinct
    masks, every candidate has the same number of bits, and the number of
    axes times that number is the number of bits in ``full``, the OR of
    all candidate masks. ``schemes._axis_choice_masks`` meets it: each
    matching has (n-1)/2 pairs, so n disjoint picks hold n(n-1)/2 pairs,
    which is every slot.

    The last two axes are looked up instead of scanned. Disjoint picks
    have as many bits as ``full``, so they cover it exactly: below a node
    at axis n-2 whose picks use the bits ``used``, the last two picks
    ``m1``, ``m2`` are disjoint and ``m1 | m2 == rest`` with
    ``rest = full ^ used``. Hence ``m1`` is a penultimate candidate inside
    ``rest`` and ``m2 == rest ^ m1`` is a last-axis candidate. Conversely
    every such pair is disjoint from ``used`` and from each other, so it
    completes the branch. ``_Tails`` lists these pairs in ``(c1, c2)``
    order, the order of the plain scan, and memoises them per ``rest``
    for the length of one call. A prefix that reaches past axis n-2 walks
    the remaining axes by scan.
    """
    n_axes = len(axis_masks)
    if len(prefix) > n_axes:
        raise ChoiceRangeError("prefix longer than the number of axes")
    prefix = tuple(_check_choice(axis_masks, d, choice) for d, choice in enumerate(prefix))
    used = 0
    for d, choice in enumerate(prefix):
        mask = axis_masks[d][choice]
        if mask & used:
            return
        used |= mask

    yield from _walk(axis_masks, len(prefix), prefix, used, _Tails(axis_masks))


def _walk(axis_masks, d, branch, used, tails):
    # Module-level, not a closure: a recursive closure is a reference cycle
    # that would keep the memo alive until the cyclic GC runs.
    if d == len(axis_masks) - 2:
        for tail in tails[tails.full ^ used]:
            yield branch + tail
        return
    if d == len(axis_masks):
        # Only a prefix of length n-1 or n gets past the tail depth.
        yield branch
        return
    for c, mask in enumerate(axis_masks[d]):
        if not mask & used:
            yield from _walk(axis_masks, d + 1, branch + (c,), used | mask, tails)


class _Tails(dict):
    """Per call: ``rest`` -> the picks ``(c1, c2)`` of the last two axes covering it."""

    def __init__(self, axis_masks):
        super().__init__()
        self.penultimate = axis_masks[-2]
        self.last_index = {mask: c for c, mask in enumerate(axis_masks[-1])}
        self.full = 0
        for masks in axis_masks:
            for mask in masks:
                self.full |= mask

    def __missing__(self, rest):
        last_index = self.last_index
        found = self[rest] = tuple(
            (c1, last_index[rest ^ mask])
            for c1, mask in enumerate(self.penultimate)
            if mask & rest == mask and rest ^ mask in last_index
        )
        return found
