"""Test oracle for ``oddcross.kernels.enumerate_covers``.

``enumerate_covers`` is the plain recursive walk that the kernel used
before it looked up the last two axes and checked forward: at every axis
it scans all candidates and descends into each one disjoint from the
choices above it. It carries no candidate lists, never prunes a node
before reaching its axis, and relies on no exact-cover precondition, so
it checks the kernel's candidate lists, prunes, tail lookup and memo
independently.
"""

from oddcross.errors import ChoiceRangeError


def _check_choice(axis_masks, d, choice):
    # Without this a negative choice would silently wrap to the last matching.
    if not 0 <= choice < len(axis_masks[d]):
        raise ChoiceRangeError(
            f"choice {choice} for axis {d + 1} is outside 0..{len(axis_masks[d]) - 1}"
        )


def enumerate_covers(axis_masks, prefix=()):
    """Yield exact covers in depth-first lexicographic order.

    ``axis_masks[d]`` lists, for axis d, the candidate matchings encoded as
    bitmasks over unordered-pair slots. A branch picks one candidate per
    axis such that all masks are disjoint; branches are yielded as tuples
    of candidate indices.

    ``prefix`` pins the first choices, so the walk starts at axis
    ``len(prefix)`` and yields exactly the branches that begin with it.
    Every prefix choice is checked before the scan; one outside
    ``0..len(candidates)-1`` raises ChoiceRangeError. A prefix whose
    choices share a pair yields nothing.
    """
    n_axes = len(axis_masks)
    if len(prefix) > n_axes:
        raise ChoiceRangeError("prefix longer than the number of axes")
    for d, choice in enumerate(prefix):
        _check_choice(axis_masks, d, choice)
    used = 0
    for d, choice in enumerate(prefix):
        mask = axis_masks[d][choice]
        if mask & used:
            return
        used |= mask

    def walk(d, branch, used):
        if d == n_axes:
            yield branch
            return
        for c, mask in enumerate(axis_masks[d]):
            if not mask & used:
                yield from walk(d + 1, branch + (c,), used | mask)

    yield from walk(len(prefix), tuple(prefix), used)
