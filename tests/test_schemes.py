import itertools
import math
import random

import pytest

from oddcross import (
    BadMatchingError,
    ChoiceRangeError,
    Dimension,
    DimensionTooSmallError,
    DuplicatePairError,
    EvenDimensionError,
    MissingPairError,
    OddCrossError,
    Pair,
    SchemeValidationError,
    SelfPairError,
    axis_matchings,
    branch_scheme,
    enumerate_schemes,
    feasible_dimension,
    is_closed,
    make_pair,
    validate_scheme,
)
from oddcross.schemes import scheme_branches


def as_pair_lists(scheme):
    return [[tuple(p) for p in m.pairs] for m in scheme.matchings]


class TestFeasibility:
    @pytest.mark.parametrize("n,k", [(3, 1), (5, 2), (7, 3), (9, 4)])
    def test_odd_dimensions(self, n, k):
        dim = feasible_dimension(n)
        assert dim.pairs_per_axis == k
        assert dim.n == 2 * k + 1
        assert dim.pair_count == n * (n - 1) // 2

    @pytest.mark.parametrize("n", [4, 6, 8, 100])
    def test_even_dimensions_rejected(self, n):
        with pytest.raises(EvenDimensionError):
            feasible_dimension(n)

    @pytest.mark.parametrize("n", [-3, 0, 1, 2])
    def test_too_small_rejected(self, n):
        with pytest.raises(DimensionTooSmallError):
            feasible_dimension(n)

    @pytest.mark.parametrize(
        "n,pairs_per_axis,error",
        [
            # Both used to construct: 4 == 2 * 1.5 + 1 and 1 == 2 * 0 + 1.
            (4, 1.5, EvenDimensionError),
            (1, 0, DimensionTooSmallError),
            (5, 2.0, SchemeValidationError),
            (5, 3, SchemeValidationError),
            (7.0, 3, SchemeValidationError),
        ],
    )
    def test_dimension_checks_its_fields(self, n, pairs_per_axis, error):
        with pytest.raises(error):
            Dimension(n=n, pairs_per_axis=pairs_per_axis)


class TestAxisMatchings:
    @pytest.mark.parametrize("n,count", [(3, 1), (5, 3), (7, 15), (9, 105)])
    def test_count_is_double_factorial(self, n, count):
        dim = feasible_dimension(n)
        assert dim.matchings_per_axis == count
        assert count == math.prod(range(1, n - 1, 2))
        for axis in range(1, n + 1):
            assert len(axis_matchings(dim, axis)) == count

    def test_lexicographic_order_5d(self, dim5):
        pairs = [m.pairs for m in axis_matchings(dim5, 1)]
        assert pairs == [
            (Pair(2, 3), Pair(4, 5)),
            (Pair(2, 4), Pair(3, 5)),
            (Pair(2, 5), Pair(3, 4)),
        ]

    def test_first_matching_7d(self, dim7):
        matchings = axis_matchings(dim7, 1)
        assert len(matchings) == 15
        assert matchings[0].pairs == (Pair(2, 3), Pair(4, 5), Pair(6, 7))

    def test_single_matching_3d(self, dim3):
        matchings = axis_matchings(dim3, 3)
        assert [m.pairs for m in matchings] == [(Pair(1, 2),)]

    def test_matching_covers_complement(self, dim7):
        for axis in range(1, 8):
            for m in axis_matchings(dim7, axis):
                members = sorted(i for p in m.pairs for i in p)
                assert members == [i for i in range(1, 8) if i != axis]

    def test_axis_out_of_range(self, dim5):
        with pytest.raises(IndexError):
            axis_matchings(dim5, 0)
        with pytest.raises(IndexError):
            axis_matchings(dim5, 6)


class TestValidateScheme:
    def test_valid_5d(self, scheme5_row3):
        rebuilt = validate_scheme(5, as_pair_lists(scheme5_row3))
        assert rebuilt == scheme5_row3

    def test_unique_3d(self):
        scheme = validate_scheme(3, [[(2, 3)], [(1, 3)], [(1, 2)]])
        assert scheme.dim.n == 3

    def test_duplicate_pair(self):
        lists = [
            [(2, 3), (4, 5)],
            [(4, 5), (1, 3)],
            [(1, 4), (2, 5)],
            [(1, 5), (2, 3)],
            [(1, 2), (3, 4)],
        ]
        with pytest.raises(DuplicatePairError) as err:
            validate_scheme(5, lists)
        assert err.value.pair == Pair(4, 5)
        assert err.value.axes == (1, 2)

    def test_missing_pair(self):
        lists = [
            [(2, 3)],  # 4-5 dropped
            [(1, 4), (3, 5)],
            [(1, 5), (2, 4)],
            [(1, 3), (2, 5)],
            [(1, 2), (3, 4)],
        ]
        with pytest.raises(MissingPairError) as err:
            validate_scheme(5, lists)
        assert err.value.pair == Pair(4, 5)

    def test_self_pair(self):
        lists = [
            [(1, 3), (4, 5)],
            [(1, 4), (3, 5)],
            [(1, 5), (2, 4)],
            [(2, 3), (2, 5)],
            [(1, 2), (3, 4)],
        ]
        with pytest.raises(SelfPairError):
            validate_scheme(5, lists)

    def test_overlapping_matching(self):
        lists = [
            [(2, 3), (3, 4)],
            [(1, 4), (3, 5)],
            [(1, 5), (2, 4)],
            [(1, 3), (2, 5)],
            [(1, 2), (3, 4)],
        ]
        with pytest.raises(BadMatchingError):
            validate_scheme(5, lists)

    def test_even_dimension_rejected(self):
        with pytest.raises(EvenDimensionError):
            validate_scheme(4, [[], [], [], []])

    def test_out_of_range_index(self):
        lists = [[(2, 6), (4, 5)], [], [], [], []]
        with pytest.raises(Exception, match="out of range"):
            validate_scheme(5, lists)

    def test_wrong_number_of_pair_lists(self):
        with pytest.raises(SchemeValidationError, match="one pair list per axis"):
            validate_scheme(3, [[(2, 3)], [(1, 3)]])

    @pytest.mark.parametrize(
        "raw",
        [(2, 3, 4), 5, ("2", "3"), (2.0, 3)],
        ids=["three-members", "int", "strings", "float"],
    )
    def test_malformed_pair_rejected(self, raw):
        # These used to raise a bare ValueError or TypeError, and (2.0, 3)
        # was accepted and then emitted as "2.0-3".
        with pytest.raises(SchemeValidationError, match=r"axis 1: pair .* not two int"):
            validate_scheme(3, [[raw], [(1, 3)], [(1, 2)]])


class TestMakePair:
    def test_equal_members_rejected(self):
        with pytest.raises(SchemeValidationError, match="must differ"):
            make_pair(2, 2)

    def test_zero_based_index_rejected(self):
        with pytest.raises(SchemeValidationError, match="1-based"):
            make_pair(2, 0)


class TestEnumeration:
    @pytest.mark.parametrize("n,count", [(3, 1), (5, 6), (7, 6240)])
    def test_scheme_counts(self, n, count):
        dim = feasible_dimension(n)
        assert sum(1 for _ in enumerate_schemes(dim)) == count

    def test_every_scheme_validates(self, dim5):
        for scheme in enumerate_schemes(dim5):
            assert validate_scheme(5, as_pair_lists(scheme)) == scheme

    def test_exact_cover(self, dim7):
        for scheme in enumerate_schemes(dim7, limit=50):
            pairs = [p for m in scheme.matchings for p in m.pairs]
            assert len(pairs) == dim7.pair_count
            assert len(set(pairs)) == dim7.pair_count

    def test_deterministic_order(self, dim5):
        assert list(enumerate_schemes(dim5)) == list(enumerate_schemes(dim5))

    def test_branches_are_lexicographic(self, dim7):
        branches = list(scheme_branches(dim7))
        assert branches == sorted(branches)
        assert len(set(branches)) == len(branches)

    def test_limit(self, dim7):
        assert len(list(enumerate_schemes(dim7, limit=17))) == 17

    def test_prefix_partitions_cover_stream(self, dim5, dim7):
        full = list(scheme_branches(dim5))
        parts = [list(scheme_branches(dim5, prefix=(c,))) for c in range(3)]
        union = [b for part in parts for b in part]
        assert sorted(union) == sorted(full)
        assert len(union) == len(full)
        # A prefix whose choices share a pair has an empty subtree; a
        # full-length prefix that is a branch is its own subtree.
        assert list(scheme_branches(dim5, prefix=(0, 0))) == []
        assert list(scheme_branches(dim5, prefix=full[3])) == [full[3]]
        # Against a filter of the full stream: every in-range prefix of
        # every length at n=5, and the prefixes of random n=7 branches.
        prefixes = [
            p for length in range(6) for p in itertools.product(range(3), repeat=length)
        ]
        for prefix in prefixes:
            expected = [b for b in full if b[: len(prefix)] == prefix]
            assert list(scheme_branches(dim5, prefix=prefix)) == expected
        full7 = list(scheme_branches(dim7))
        sample = random.Random(7).sample(full7, 20)
        for prefix in sorted({b[:length] for b in sample for length in range(8)}):
            expected = [b for b in full7 if b[: len(prefix)] == prefix]
            assert list(scheme_branches(dim7, prefix=prefix)) == expected

    @pytest.mark.parametrize("prefix", [(-1,), (3,), (0, 15), (0, 0, -1)])
    def test_out_of_range_prefix_rejected(self, dim5, prefix):
        # (-1,) used to wrap silently to the last matching of axis 1. Every
        # choice is checked, even after an earlier pair of choices conflicts.
        with pytest.raises(ValueError, match="outside"):
            list(scheme_branches(dim5, prefix=prefix))

    @pytest.mark.parametrize(
        "branch,error,match",
        [
            # A negative choice must not wrap to the last matching of axis 1.
            ((-1, 0, 0, 0, 0), ChoiceRangeError, "outside 0..2"),
            ((0, 0, 0, 0, 3), ChoiceRangeError, "outside 0..2"),
            # In range, but axes 1 and 2 both take pair 4-5.
            ((0, 0, 0, 0, 0), DuplicatePairError, "4-5"),
            # Too short: a typed error, not an IndexError from indexing.
            ((0, 0), ChoiceRangeError, "one per axis"),
        ],
    )
    def test_invalid_branch_rejected(self, dim5, branch, error, match):
        with pytest.raises(error, match=match) as info:
            branch_scheme(dim5, branch)
        assert isinstance(info.value, OddCrossError)
        assert isinstance(info.value, ValueError)

    def test_prefix_longer_than_axes_rejected(self, dim5):
        with pytest.raises(ChoiceRangeError, match="prefix longer"):
            list(scheme_branches(dim5, prefix=(0,) * 6))

    def test_lazy_stream_large_dimension(self):
        dim9 = feasible_dimension(9)
        first = list(enumerate_schemes(dim9, limit=3))
        assert len(first) == 3
        for scheme in first:
            assert validate_scheme(9, as_pair_lists(scheme)) == scheme


class TestClosure:
    def test_reference_7d_row11_closed(self, scheme7_row11):
        assert is_closed(scheme7_row11)

    def test_5d_row3_not_closed(self, scheme5_row3):
        # {2,4} sits on axis 1 but {1,4} sits on axis 3, not 2.
        assert scheme5_row3.assignment[Pair(2, 4)] == 1
        assert scheme5_row3.assignment[Pair(1, 4)] == 3
        assert not is_closed(scheme5_row3)

    def test_3d_closed(self, scheme3):
        assert is_closed(scheme3)

    def test_no_5d_scheme_closed(self, dim5):
        assert not any(is_closed(s) for s in enumerate_schemes(dim5))
