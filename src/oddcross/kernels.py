"""The exact-cover enumeration kernel.

``enumerate_covers`` is the depth-first search behind
``schemes.scheme_branches``: a recursive walk over the axes that, at each
axis, tries the candidate matchings in order and descends into every one
disjoint from the choices above it. It works on plain integers and tuples:
one bitmask over unordered-pair slots per candidate matching. Identity
classification is not a kernel: it is decided in ``oddcross.verify`` by
the Plücker criterion.
"""

import sys

# Read by perfbench/worker.py, as oddcross.KERNEL_BACKEND.
BACKEND = "pure-python"


def active_backend():
    """The module holding the kernels; perfbench/spans.py traces its functions."""
    return sys.modules[__name__]


def _check_choice(axis_masks, d, choice):
    # Without this a negative choice would silently wrap to the last matching.
    if not 0 <= choice < len(axis_masks[d]):
        raise ValueError(
            f"choice {choice} for axis {d + 1} is outside 0..{len(axis_masks[d]) - 1}"
        )


def enumerate_covers(axis_masks, prefix=(), resume_after=None):
    """Yield exact covers in depth-first lexicographic order.

    ``axis_masks[d]`` lists, for axis d, the candidate matchings encoded as
    bitmasks over unordered-pair slots. A branch picks one candidate per
    axis such that all masks are disjoint; branches are yielded as tuples
    of candidate indices.

    ``prefix`` pins the first choices (subtree restriction) and
    ``resume_after`` skips everything up to and including a previously
    yielded branch. Both are the same lower bound ``start`` on the walk:
    at axis d the scan begins at ``start[d]`` while every earlier choice
    equals ``start``'s, and at 0 otherwise; a prefix axis also stops at
    ``start[d]``. A resumed scan begins at the resume point itself, so its
    first branch is dropped. Every prefix and resume choice is checked
    before the scan: one outside ``0..len(candidates)-1``, or a resume
    point that is not a branch of the prefix's subtree, raises ValueError.
    """
    n_axes = len(axis_masks)
    p = len(prefix)
    if p > n_axes:
        raise ValueError("prefix longer than the number of axes")
    for d, choice in enumerate(prefix):
        _check_choice(axis_masks, d, choice)
    start = tuple(prefix) + (0,) * (n_axes - p)
    if resume_after is not None:
        if len(resume_after) != n_axes:
            raise ValueError("resume point must be a full branch")
        if tuple(resume_after[:p]) != start[:p]:
            raise ValueError("resume point lies outside the requested prefix")
        used = 0
        for d, choice in enumerate(resume_after):
            _check_choice(axis_masks, d, choice)
            mask = axis_masks[d][choice]
            if mask & used:
                raise ValueError("resume point is not a valid branch")
            used |= mask
        start = tuple(resume_after)

    def walk(d, branch, used, tight):
        # tight: every choice in ``branch`` equals start's.
        candidates = axis_masks[d]
        lo = start[d] if tight else 0
        for c in range(lo, start[d] + 1 if d < p else len(candidates)):
            mask = candidates[c]
            if mask & used:
                continue
            if d + 1 == n_axes:
                yield branch + (c,)
            else:
                yield from walk(d + 1, branch + (c,), used | mask, tight and c == lo)

    covers = walk(0, (), 0, True)
    if resume_after is not None:
        next(covers)  # the resume point itself
    yield from covers
