"""Test oracle for the matchings of ``oddcross.schemes``.

``axis_matchings`` is the recursion the package used before it built its
matchings as int masks: it pairs off the smallest free index with each
partner in turn and builds every matching as a ``Matching`` of ``Pair``
objects as it goes. ``choice_masks`` converts those objects to choice
masks, one bit per pair slot, as the package once did.
"""

from oddcross.schemes import Matching, Pair, pair_index


def axis_matchings(n, axis):
    """The perfect matchings of {1..n} minus the axis, in lexicographic order."""
    members = tuple(i for i in range(1, n + 1) if i != axis)

    def pairings(items):
        if not items:
            yield ()
            return
        first, rest = items[0], items[1:]
        for pos, partner in enumerate(rest):
            head = Pair(first, partner)
            for tail in pairings(rest[:pos] + rest[pos + 1 :]):
                yield (head,) + tail

    return tuple(Matching(pairs) for pairs in pairings(members))


def choice_masks(n):
    """Per axis (0-based) and matching: the OR of ``1 << pair_index`` of its pairs."""
    return tuple(
        tuple(sum(1 << pair_index(n, p) for p in m) for m in axis_matchings(n, axis))
        for axis in range(1, n + 1)
    )
