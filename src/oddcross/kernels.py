"""The exact-cover enumeration kernel.

``enumerate_covers`` is the depth-first search behind
``schemes.scheme_branches``. It works on plain integers and tuples: one
bitmask over unordered-pair slots per candidate matching. Identity
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
    yielded branch. A prefix or resume choice outside
    ``0..len(candidates)-1``, or a resume point that is not a branch of
    the prefix's subtree, raises ValueError.
    """
    n_axes = len(axis_masks)
    p = len(prefix)
    if p > n_axes:
        raise ValueError("prefix longer than the number of axes")

    idx = [0] * n_axes
    used = [0] * (n_axes + 1)
    for d, choice in enumerate(prefix):
        _check_choice(axis_masks, d, choice)
        mask = axis_masks[d][choice]
        if mask & used[d]:
            return  # prefix already conflicts: empty subtree
        idx[d] = choice
        used[d + 1] = used[d] | mask

    depth = p
    if resume_after is not None:
        if len(resume_after) != n_axes:
            raise ValueError("resume point must be a full branch")
        if tuple(resume_after[:p]) != tuple(prefix):
            raise ValueError("resume point lies outside the requested prefix")
        for d in range(p, n_axes):
            choice = resume_after[d]
            _check_choice(axis_masks, d, choice)
            mask = axis_masks[d][choice]
            if mask & used[d]:
                raise ValueError("resume point is not a valid branch")
            idx[d] = choice
            used[d + 1] = used[d] | mask
        # Position the scan just after the resumed leaf.
        depth = n_axes - 1
        if depth < p:
            return
        idx[depth] += 1

    while depth >= p:
        if depth == n_axes:
            yield tuple(idx)
            depth -= 1
            idx[depth] += 1
            continue
        candidates = axis_masks[depth]
        moved = False
        while idx[depth] < len(candidates):
            mask = candidates[idx[depth]]
            if not mask & used[depth]:
                used[depth + 1] = used[depth] | mask
                depth += 1
                if depth < n_axes:
                    idx[depth] = 0
                moved = True
                break
            idx[depth] += 1
        if not moved:
            depth -= 1
            if depth >= p:
                idx[depth] += 1
