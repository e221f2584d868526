"""The exact-cover walk against the plain scan of ``covers_oracle``.

The kernel looks up the last two axes in a per-call memo instead of
scanning them; these streams must equal the oracle's branch for branch,
in the same order, for full walks, prefixes that stop before, at and past
the tail depth, and generators that run interleaved.
"""

import gc
import itertools
import random
import weakref

import pytest

from oddcross import feasible_dimension, kernels
from oddcross.schemes import _axis_choice_masks, scheme_branches

import covers_oracle
from conftest import random_branch


def oracle_branches(n, prefix=(), limit=None):
    covers = covers_oracle.enumerate_covers(_axis_choice_masks(n), prefix)
    return list(itertools.islice(covers, limit))


@pytest.mark.parametrize("n", [3, 5, 7])
def test_full_stream(n):
    assert list(scheme_branches(feasible_dimension(n))) == oracle_branches(n)


def test_every_prefix_n5(dim5):
    prefixes = [p for length in range(6) for p in itertools.product(range(3), repeat=length)]
    for prefix in prefixes:
        assert list(scheme_branches(dim5, prefix=prefix)) == oracle_branches(5, prefix)


def test_prefixes_around_tail_depth_n7(dim7):
    # Lengths n-2 (the lookup starts at once), n-1 and n (plain scan), cut
    # from seeded branches, plus in-range prefixes that mostly conflict.
    rng = random.Random(7)
    branches = [random_branch(7, rng) for _ in range(20)]
    prefixes = {b[:length] for b in branches for length in (5, 6, 7)}
    prefixes |= {
        tuple(rng.randrange(15) for _ in range(length)) for length in (5, 6, 7) for _ in range(20)
    }
    for prefix in sorted(prefixes):
        assert list(scheme_branches(dim7, prefix=prefix)) == oracle_branches(7, prefix)


@pytest.mark.parametrize("first", [0, 52, 104])
def test_n9_subtree_head(first):
    dim9 = feasible_dimension(9)
    got = list(scheme_branches(dim9, prefix=(first,), limit=3000))
    assert len(got) == 3000
    assert got == oracle_branches(9, (first,), 3000)


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
