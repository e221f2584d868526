"""The exact-cover enumeration kernel.

``enumerate_covers`` is the depth-first search behind
``schemes.scheme_branches``, ``schemes.enumerate_schemes`` and
``verify.census``: a recursive walk over the axes that descends, at each
axis, into the candidate matchings disjoint from the choices above it, in
order, except on the last two axes, whose picks the choices above
determine and which it looks up. It works on plain integers and tuples,
one bitmask over unordered-pair slots per candidate matching.

Each candidate also has a label, and a cover is yielded as the sum of its
picks' labels, built up as the walk descends. With the 1-tuple ``(c,)``
as the label of candidate c, the default, the sum is the tuple of picked
indices, the branch ``scheme_branches`` streams. With the 1-tuple of
candidate c's ``Matching``, the sum is the tuple of the picked matchings,
which ``enumerate_schemes`` makes a Scheme. With each matching's verdict
mask as its label, the sum is the scheme's whole verdict mask, which
``verify.census`` classifies without ever seeing the branch.

The walk checks forward (Haralick & Elliott, *Artif. Intell.* 14 (1980)
263-313). A node does not rescan every candidate of an axis; it carries,
for each axis it will still walk, the ascending list of candidates that
are disjoint from its picks. Picking a candidate filters each later list
by the new mask, and a child whose filter leaves a list empty is pruned:
no completion exists below it. The last two walked axes, n-4 and n-3,
share one frame: a node at axis n-4 loops over the axis-(n-3) candidates
disjoint from each of its picks and yields the tails below them itself,
with no child generator and no child list. Identity classification is
decided in ``oddcross.verify`` by the Plücker criterion.
"""

import sys
from functools import lru_cache
from operator import getitem, index

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


@lru_cache(maxsize=None)
def _index_labels(size):
    """The labels ``(c,)`` of candidates 0..size-1: summed along a branch,
    the tuple of its picks. One table per size, shared by all its axes."""
    return tuple((c,) for c in range(size))


def enumerate_covers(axis_masks, prefix=(), labels=None):
    """Yield exact covers in depth-first lexicographic order.

    ``axis_masks[d]`` lists, for axis d, the candidate matchings encoded as
    bitmasks over unordered-pair slots. A branch picks one candidate per
    axis such that all masks are disjoint. ``labels[d][c]`` is the label of
    candidate c of axis d, and each branch is yielded as the sum of its
    picks' labels in axis order, starting from the labels' empty value
    ``type(label)()``. By default the label of c is ``(c,)``, so a branch
    is yielded as the tuple of its candidate indices.

    ``prefix`` pins the first choices, so the walk starts at axis
    ``len(prefix)`` and yields exactly the branches that begin with it.
    Every prefix choice is checked before the walk; one that is not an int
    of ``0..len(candidates)-1`` raises ChoiceRangeError, and an int-like
    choice (``True``, a numpy integer) is walked as the int it stands for.
    A prefix whose choices share a pair yields nothing.

    Precondition (exact cover): the candidates of an axis are distinct
    masks, every candidate has the same number of bits, and the number of
    axes times that number is the number of bits in ``full``, the OR of
    all candidate masks. ``schemes._axis_choice_masks`` meets it: each
    matching has (n-1)/2 pairs, so n disjoint picks hold n(n-1)/2 pairs,
    which is every slot.

    The last two axes are looked up instead of walked. Disjoint picks
    have as many bits as ``full``, so they cover it exactly: below a node
    at axis n-2 whose picks use the bits ``used``, the last two picks
    ``m1``, ``m2`` are disjoint and ``m1 | m2 == rest`` with
    ``rest = full ^ used``. Hence ``m1`` is a penultimate candidate inside
    ``rest`` and ``m2 == rest ^ m1`` is a last-axis candidate. Conversely
    every such pair is disjoint from ``used`` and from each other, so it
    completes the branch. ``_Tails`` lists the label sums of these pairs
    in ``(c1, c2)`` order, the order of the plain scan, and memoises them
    per ``rest`` for the length of one call. For the same reason a prefix
    of length n-1 has one completion at most: a last pick disjoint from
    ``used`` has as many bits as ``rest``, so it is ``rest``.

    The axes before those two, down to axis n-3, are walked with forward
    checking. Invariant: a node at axis d whose picks use ``used`` holds,
    for each axis x of d..n-3, the list of exactly the candidates of x
    disjoint from ``used``, in ascending order. The root's lists are
    filtered from the prefix's ``used`` (whole ``range``s when it is 0),
    and picking candidate c of axis d, with mask m, keeps in each later
    list the candidates disjoint from m, which are the ones disjoint from
    ``used | m``. So the candidates a node descends into are the ones the
    plain scan would descend into, in the same order, and the stream is
    the scan's. A child with an empty list has no cover below it, since
    every cover below it needs a pick on that axis disjoint from its
    picks; pruning it loses no branch.

    The last two walked axes, n-4 and n-3, are walked in one frame. For
    each listed candidate c of axis n-4, with mask m, the node loops over
    its own axis-(n-3) list and keeps the candidates disjoint from m: those
    are exactly the ones the child's filter would keep, in the same order,
    so the stream is still the scan's, and where the filter would leave
    the list empty the loop yields nothing, as the pruned child did. Each
    kept candidate goes straight to ``_Tails``, and each label is added
    once for all the tails below it. A walk that starts at axis n-3 (a
    prefix of length n-3, or n=3) loops over its one list the same way.

    No carries for the census labels, the verdict masks of
    ``verify._matching_masks``. Each is a row of 6-bit fields, one per
    4-subset and per triple, and the sum of a cover's masks is their
    field-by-field sum as long as no field's sum passes 63. A split field
    gets a plane's value only from an axis that holds both pairs of the
    split; each pair sits on exactly one axis of a cover, so at most one
    axis adds each of its three planes. A triple field gets a role's value
    only from the axis that holds the role's pair, so again one axis at
    most per role. A field therefore sums at most one value per plane or
    role, 52 at most, and no sum carries into the next field (the field
    values and their bound are in ``verify._verdict``).
    """
    n_axes = len(axis_masks)
    if len(prefix) > n_axes:
        raise ChoiceRangeError("prefix longer than the number of axes")
    prefix = tuple(_check_choice(axis_masks, d, choice) for d, choice in enumerate(prefix))
    if not all(axis_masks):
        return  # an axis without candidates: no cover, and no label to sum
    used = 0
    for d, choice in enumerate(prefix):
        mask = axis_masks[d][choice]
        if mask & used:
            return
        used |= mask
    if labels is None:
        labels = [_index_labels(len(masks)) for masks in axis_masks]
    branch = sum(map(getitem, labels, prefix), type(labels[0][0])())

    tails = _Tails(axis_masks, labels)
    rest = tails.full ^ used
    depth = len(prefix)
    if depth == n_axes:
        yield branch
    elif depth == n_axes - 1:
        last = tails.last_index.get(rest)
        if last is not None:
            yield branch + labels[-1][last]
    elif depth == n_axes - 2:
        for tail in tails[rest]:
            yield branch + tail
    else:
        lists = [
            [c for c, mask in enumerate(masks) if not mask & used] if used else range(len(masks))
            for masks in axis_masks[depth:-2]
        ]
        if all(lists):
            yield from _walk(axis_masks, labels, depth, branch, rest, lists, tails)


def _walk(axis_masks, labels, d, branch, rest, lists, tails):
    # ``lists`` holds the free candidates of axes d..n-3, ``rest`` the bits
    # no pick uses yet and ``branch`` the label sum of the picks. Module-level,
    # not a closure: a recursive closure is a reference cycle that would keep
    # the memo and the lists alive until the cyclic GC runs.
    masks, label = axis_masks[d], labels[d]
    if len(lists) == 1:  # a walk that starts at axis n-3
        for c in lists[0]:
            head = branch + label[c]
            for tail in tails[rest ^ masks[c]]:
                yield head + tail
        return
    if len(lists) == 2:  # axes n-4 and n-3, in this one frame
        last_masks, last_label = axis_masks[d + 1], labels[d + 1]
        last_candidates = lists[1]
        for c in lists[0]:
            mask = masks[c]
            head = branch + label[c]
            left = rest ^ mask
            for x in last_candidates:
                last_mask = last_masks[x]
                if not last_mask & mask:
                    last_head = head + last_label[x]
                    for tail in tails[left ^ last_mask]:
                        yield last_head + tail
        return
    later = list(zip(axis_masks[d + 1 :], lists[1:]))
    for c in lists[0]:
        mask = masks[c]
        child = []
        for later_masks, candidates in later:
            kept = [x for x in candidates if not later_masks[x] & mask]
            if not kept:
                break
            child.append(kept)
        else:
            yield from _walk(
                axis_masks, labels, d + 1, branch + label[c], rest ^ mask, child, tails
            )


class _Tails(dict):
    """Per call: ``rest`` -> the label sums of the picks ``(c1, c2)`` of the
    last two axes covering it."""

    def __init__(self, axis_masks, labels):
        super().__init__()
        self.penultimate = axis_masks[-2]
        self.last_index = {mask: c for c, mask in enumerate(axis_masks[-1])}
        self.labels = labels[-2], labels[-1]
        self.full = 0
        for masks in axis_masks:
            for mask in masks:
                self.full |= mask

    def __missing__(self, rest):
        last_index = self.last_index
        labels1, labels2 = self.labels
        found = self[rest] = tuple(
            labels1[c1] + labels2[last_index[rest ^ mask]]
            for c1, mask in enumerate(self.penultimate)
            if mask & rest == mask and rest ^ mask in last_index
        )
        return found
