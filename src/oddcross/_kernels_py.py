"""Pure-Python kernel: exact-cover enumeration.

This module is the reference backend. ``oddcross._speedups`` is a compiled
twin of ``enumerate_covers``; ``oddcross.kernels`` picks one at import
time. Both operate on plain integers and lists so results are directly
comparable.
"""

BACKEND_NAME = "pure-python"

# Pure Python integers are unbounded, so any pair count works.
MAX_PAIR_BITS = None


def _check_choice(axis_masks, d, choice):
    # Without this a negative choice would silently wrap to the last matching.
    if not 0 <= choice < len(axis_masks[d]):
        raise ValueError(
            f"choice {choice} for axis {d + 1} is outside 0..{len(axis_masks[d]) - 1}"
        )


def enumerate_covers(axis_masks, prefix=(), resume_after=None, limit=2**62):
    """Enumerate exact covers in depth-first lexicographic order.

    ``axis_masks[d]`` lists, for axis d, the candidate matchings encoded as
    bitmasks over unordered-pair slots. A branch picks one candidate per
    axis such that all masks are disjoint; branches are emitted as tuples
    of candidate indices.

    ``prefix`` pins the first choices (subtree restriction), ``resume_after``
    skips everything up to and including a previously emitted branch, and
    ``limit`` caps the number of branches returned, which makes the scan
    restartable in chunks. A prefix or resume choice outside
    ``0..len(candidates)-1`` raises ValueError.
    """
    n_axes = len(axis_masks)
    out = []
    p = len(prefix)
    if p > n_axes:
        raise ValueError("prefix longer than the number of axes")

    idx = [0] * n_axes
    used = [0] * (n_axes + 1)
    for d, choice in enumerate(prefix):
        _check_choice(axis_masks, d, choice)
        mask = axis_masks[d][choice]
        if mask & used[d]:
            return out  # prefix already conflicts: empty subtree
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
            return out
        idx[depth] += 1

    while depth >= p:
        if depth == n_axes:
            out.append(tuple(idx))
            if len(out) >= limit:
                return out
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
    return out
