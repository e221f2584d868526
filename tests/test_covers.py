"""The exact-cover walk against the plain scan of ``covers_oracle``.

The kernel carries each later axis's free candidates down the walk
(forward checking), finishes the last two walked axes in one frame and
looks up the last two axes in a per-call memo instead of scanning them;
a prefix that reaches those axes pins their candidates in the memo.
These streams must equal the oracle's branch for branch, in the same
order, for full walks, prefixes of every length around the tail depth
(under index, ``Matching`` and verdict-mask labels), the prefixes of one
length taken together, prefixes below which an axis has no candidate
left, and generators that run interleaved.
"""

import gc
import itertools
import random
import sys
import weakref
from operator import getitem

import pytest

from oddcross import branch_scheme, feasible_dimension, kernels
from oddcross.schemes import _axis_choice_masks, _axis_matchings, scheme_branches
from oddcross.verify import _matching_masks

import covers_oracle
from conftest import random_branch


def oracle_branches(n, prefix=(), limit=None):
    covers = covers_oracle.enumerate_covers(_axis_choice_masks(n), prefix)
    return list(itertools.islice(covers, limit))


@pytest.mark.parametrize("n", [3, 5, 7])
def test_full_stream(n):
    assert list(scheme_branches(feasible_dimension(n))) == oracle_branches(n)


def check_under_every_label(n, prefixes):
    """Walk each prefix with each kind of label against the oracle's
    branches: indices, ``Matching`` 1-tuples (each cover the branch's
    scheme) and verdict masks (each cover the int sum of the branch's
    masks)."""
    dim = feasible_dimension(n)
    masks = _axis_choice_masks(n)
    matchings = [tuple((m,) for m in _axis_matchings(n, axis)) for axis in range(1, n + 1)]
    verdicts = _matching_masks(n)
    for prefix in prefixes:
        want = oracle_branches(n, prefix)
        assert list(scheme_branches(dim, prefix=prefix)) == want
        schemes = [branch_scheme(dim, branch) for branch in want]
        assert list(kernels.enumerate_covers(masks, prefix, matchings)) == schemes
        sums = [sum(map(getitem, verdicts, branch)) for branch in want]
        assert list(kernels.enumerate_covers(masks, prefix, verdicts)) == sums


def every_prefix(n, length):
    """All in-range prefixes of ``length`` choices, in lexicographic order."""
    masks = _axis_choice_masks(n)
    return itertools.product(*(range(len(masks[d])) for d in range(length)))


def test_every_prefix_n3():
    check_under_every_label(3, [p for length in range(4) for p in every_prefix(3, length)])


def test_every_prefix_n5():
    check_under_every_label(5, [p for length in range(6) for p in every_prefix(5, length)])


@pytest.mark.parametrize(
    "n, lengths", [(3, range(4)), (5, range(6)), (7, (1, 2))], ids=["3", "5", "7"]
)
def test_prefix_parts_add_up_to_the_stream(n, lengths):
    # The streams of all prefixes of one length, joined in lexicographic
    # order, are the full stream: each branch lies below exactly one of them.
    masks = _axis_choice_masks(n)
    full = list(kernels.enumerate_covers(masks))
    for length in lengths:
        parts = [kernels.enumerate_covers(masks, prefix) for prefix in every_prefix(n, length)]
        assert list(itertools.chain.from_iterable(parts)) == full


def check_prefixes_under_every_label(n, lengths, seed):
    """Prefixes of the given lengths, cut from seeded branches, plus random
    in-range prefixes (the longer ones mostly conflict), walked with each
    kind of label against the oracle's branches."""
    masks = _axis_choice_masks(n)
    rng = random.Random(seed)
    branches = [random_branch(n, rng) for _ in range(20)]
    prefixes = {b[:length] for b in branches for length in lengths}
    prefixes |= {
        tuple(rng.randrange(len(masks[d])) for d in range(length))
        for length in lengths
        for _ in range(20)
    }
    check_under_every_label(n, sorted(prefixes))


def test_prefixes_around_tail_depth_n7():
    # Every length: 0-2 walk down to axis n-4, 3 (n-4) starts at the
    # two-axis loop, 4 (n-3) walks one axis down to the tails, and 5-7
    # (n-2 and up) read the tails at once, pinned on the prefix's axes
    # n-2 and n-1.
    check_prefixes_under_every_label(7, range(8), seed=7)


def test_prefixes_around_tail_depth_n9():
    # Length 5 (n-4) starts at the two-axis loop, 6 (n-3) one axis above
    # the tails.
    check_prefixes_under_every_label(9, (5, 6), seed=9)


def test_prefixes_near_the_end_n11():
    # Lengths n-3 to n: one walked axis, then none with the tails unpinned,
    # pinned on axis n-2, and pinned on both.
    check_prefixes_under_every_label(11, range(8, 12), seed=11)


@pytest.mark.parametrize("first", [0, 52, 104])
def test_n9_subtree_head(first):
    dim9 = feasible_dimension(9)
    got = list(scheme_branches(dim9, prefix=(first,), limit=3000))
    assert len(got) == 3000
    assert got == oracle_branches(9, (first,), 3000)


def test_n11_head():
    # The first 2,000 branches from the root and below a 3-choice prefix.
    dim11 = feasible_dimension(11)
    assert list(scheme_branches(dim11, limit=2000)) == oracle_branches(11, limit=2000)
    prefix = random_branch(11, random.Random(11))[:3]
    got = list(scheme_branches(dim11, prefix=prefix, limit=2000))
    assert len(got) == 2000
    assert got == oracle_branches(11, prefix, 2000)


def dead_ends(n, length, seed, tries=3000):
    """Disjoint prefixes of ``length`` picks, drawn from ``seed``, whose
    next axis has no candidate disjoint from the picks."""
    masks = _axis_choice_masks(n)
    rng = random.Random(seed)
    found = set()
    for _ in range(tries):
        prefix, used = [], 0
        for d in range(length):
            free = [c for c, mask in enumerate(masks[d]) if not mask & used]
            if not free:
                break
            prefix.append(rng.choice(free))
            used |= masks[d][prefix[-1]]
        else:
            if all(mask & used for mask in masks[length]):
                found.add(tuple(prefix))
    return sorted(found)


@pytest.mark.parametrize("n, length", [(7, 5), (9, 6)])
def test_dead_end_prefixes(monkeypatch, n, length):
    # At n=9 the empty axis is the last walked one, n-3, so the root's
    # filter prunes and the walk is never entered. At n=7 no walked axis
    # ever empties (every n=7 node was checked), so the empty axis is the
    # penultimate one: the walk starts there and finds no tail.
    prefixes = dead_ends(n, length, seed=n)
    assert len(prefixes) >= 5
    masks = _axis_choice_masks(n)

    def no_walk(*args):
        raise AssertionError("walked below a dead end")

    with monkeypatch.context() as patch:
        if length <= n - 3:
            patch.setattr(kernels, "_walk", no_walk)
        for prefix in prefixes:
            assert list(kernels.enumerate_covers(masks, prefix)) == []
            assert oracle_branches(n, prefix) == []
    # One pick shorter, the dead end is a child that the walk prunes.
    dim = feasible_dimension(n)
    for prefix in prefixes:
        parent = prefix[:-1]
        assert list(scheme_branches(dim, prefix=parent)) == oracle_branches(n, parent)


def test_interleaved_generators_keep_their_own_stream():
    dim9 = feasible_dimension(9)
    left = scheme_branches(dim9, prefix=(0,), limit=1000)
    right = scheme_branches(dim9, prefix=(52, 3), limit=1000)
    pairs = list(zip(left, right))
    assert [a for a, _ in pairs] == oracle_branches(9, (0,), 1000)
    assert [b for _, b in pairs] == oracle_branches(9, (52, 3), 1000)


def test_memo_dies_with_the_walk():
    def memos():
        return {id(o): o for o in gc.get_objects() if isinstance(o, kernels._Tails)}

    dim9 = feasible_dimension(9)
    gc.disable()
    try:
        before = memos()
        covers = scheme_branches(dim9, prefix=(1,))
        next(covers)
        (memo,) = [weakref.ref(o) for key, o in memos().items() if key not in before]
        del covers
        # Freed by reference counting alone, with the cyclic GC off.
        assert memo() is None
    finally:
        gc.enable()


def test_candidate_lists_die_with_the_walk():
    gc.disable()
    try:
        covers = kernels.enumerate_covers(_axis_choice_masks(9), (1,))
        next(covers)
        walks, found = [], {}
        gen = covers
        while gen is not None:
            walks.append(weakref.ref(gen))
            found.update((id(x), x) for x in gen.gi_frame.f_locals["lists"])
            gen = gen.gi_yieldfrom
        # enumerate_covers, then _walk at axes 1..5 (0-based): the walk at
        # axis 5, n-4, finishes axes 5 and 6 in its own frame.
        assert len(walks) == 6
        held = [[], *found.values()]  # held[0] is a control: only ``held`` refers to it
        del found, gen
        counts = [sys.getrefcount(x) for x in held]
        assert min(counts[1:]) > counts[0]
        del covers
        # Freed by reference counting alone, with the cyclic GC off: the
        # generators are gone, and nothing but ``held`` refers to the lists.
        assert [walk() for walk in walks] == [None] * len(walks)
        counts = [sys.getrefcount(x) for x in held]
        assert counts == [counts[0]] * len(held)
    finally:
        gc.enable()
