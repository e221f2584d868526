import dataclasses
import functools
import inspect
import itertools
import math
import operator
import random

import pytest

import oddcross.schemes
import oddcross.verify
from oddcross import (
    AxisRangeError,
    BadMatchingError,
    ChoiceRangeError,
    Dimension,
    DimensionTooSmallError,
    DimensionTypeError,
    DuplicatePairError,
    EvenDimensionError,
    FeasibilityError,
    LimitError,
    Matching,
    MissingPairError,
    OddCrossError,
    Pair,
    Scheme,
    SchemeValidationError,
    SelfPairError,
    StructureTensor,
    TooManyMatchingsError,
    axis_matchings,
    branch_scheme,
    build_tensor,
    census,
    enumerate_schemes,
    feasible_dimension,
    is_closed,
    make_pair,
    validate_scheme,
)
from oddcross.schemes import _axis_choice_masks, scheme_branches

import matchings_oracle


def as_pair_lists(scheme):
    return [[tuple(p) for p in m] for m in scheme]


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

    @pytest.mark.parametrize("n", ["7", None])
    def test_non_int_rejected(self, n):
        # Both used to raise a bare TypeError from (n - 1) // 2.
        with pytest.raises(SchemeValidationError, match="must be an int"):
            feasible_dimension(n)

    @pytest.mark.parametrize(
        "n,error",
        [
            (4, EvenDimensionError),
            (1, DimensionTooSmallError),
            (7.0, SchemeValidationError),
        ],
    )
    def test_dimension_checks_its_fields(self, n, error):
        with pytest.raises(error):
            Dimension(n)

    def test_n_is_the_only_field(self):
        # pairs_per_axis used to be a second field that had to agree with n.
        assert [f.name for f in dataclasses.fields(Dimension)] == ["n"]
        assert Dimension(9).pairs_per_axis == 4
        assert feasible_dimension(9) == Dimension(9)

    @pytest.mark.parametrize(
        "call",
        [
            lambda dim: next(census(dim)),
            lambda dim: next(enumerate_schemes(dim)),
            lambda dim: next(scheme_branches(dim)),
            lambda dim: StructureTensor(dim, [], []),
            lambda dim: branch_scheme(dim, (0,) * 5),
            lambda dim: axis_matchings(dim, 1),
        ],
        ids=[
            "census",
            "enumerate_schemes",
            "scheme_branches",
            "StructureTensor",
            "branch_scheme",
            "axis_matchings",
        ],
    )
    @pytest.mark.parametrize("dim", [5, 5.0, None], ids=["int", "float", "None"])
    def test_dimension_argument_must_be_a_dimension(self, call, dim):
        # A bare n is refused up front as an OddCrossError, not left to fail
        # as an AttributeError wherever dim.n happens to be read first.
        with pytest.raises(DimensionTypeError, match="expected a Dimension") as caught:
            call(dim)
        assert isinstance(caught.value, OddCrossError)
        assert isinstance(caught.value, TypeError)


class TestAxisMatchings:
    @pytest.mark.parametrize("n,count", [(3, 1), (5, 3), (7, 15), (9, 105)])
    def test_count_is_double_factorial(self, n, count):
        dim = feasible_dimension(n)
        assert dim.matchings_per_axis == count
        assert count == math.prod(range(1, n - 1, 2))
        for axis in range(1, n + 1):
            assert len(axis_matchings(dim, axis)) == count

    def test_lexicographic_order_5d(self, dim5):
        pairs = list(axis_matchings(dim5, 1))
        assert pairs == [
            (Pair(2, 3), Pair(4, 5)),
            (Pair(2, 4), Pair(3, 5)),
            (Pair(2, 5), Pair(3, 4)),
        ]

    def test_first_matching_7d(self, dim7):
        matchings = axis_matchings(dim7, 1)
        assert len(matchings) == 15
        assert matchings[0] == (Pair(2, 3), Pair(4, 5), Pair(6, 7))

    def test_single_matching_3d(self, dim3):
        matchings = axis_matchings(dim3, 3)
        assert list(matchings) == [(Pair(1, 2),)]

    def test_matching_covers_complement(self, dim7):
        for axis in range(1, 8):
            for m in axis_matchings(dim7, axis):
                members = sorted(i for p in m for i in p)
                assert members == [i for i in range(1, 8) if i != axis]

    @pytest.mark.parametrize("n", [3, 5, 7, 9, 11])
    def test_matchings_and_masks_match_the_oracle(self, n):
        dim = feasible_dimension(n)
        assert _axis_choice_masks(n) == matchings_oracle.choice_masks(n)
        for axis in range(1, n + 1):
            matchings = axis_matchings(dim, axis)
            assert matchings == matchings_oracle.axis_matchings(n, axis)
            assert {type(m) for m in matchings} == {Matching}
            assert {type(p) for m in matchings for p in m} == {Pair}

    def test_axis_out_of_range(self, dim5):
        with pytest.raises(IndexError):
            axis_matchings(dim5, 0)
        with pytest.raises(IndexError):
            axis_matchings(dim5, 6)

    def test_axis_taken_as_an_int(self, dim5):
        # A float axis 1.0 used to return axis 1's matchings under a second
        # cache key, and a string raised a bare TypeError.
        class Index:
            def __index__(self):
                return 1

        first = axis_matchings(dim5, 1)
        cached = oddcross.schemes._axis_matchings.cache_info().currsize
        assert axis_matchings(dim5, True) is first
        assert axis_matchings(dim5, Index()) is first
        for axis in (1.0, "1", None):
            with pytest.raises(AxisRangeError, match="need an int in 1..5"):
                axis_matchings(dim5, axis)
        assert oddcross.schemes._axis_matchings.cache_info().currsize == cached


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
        "pair_lists,match",
        [
            ([[(2, 3, 4)], [(1, 3)], [(1, 2)]], r"axis 1: pair .* not two int"),
            ([[5], [(1, 3)], [(1, 2)]], r"axis 1: pair .* not two int"),
            ([[("2", "3")], [(1, 3)], [(1, 2)]], r"axis 1: pair .* not two int"),
            ([[(2.0, 3)], [(1, 3)], [(1, 2)]], r"axis 1: pair .* not two int"),
            (5, "one pair list per axis"),
            ([5, [(1, 3)], [(1, 2)]], "one pair list per axis"),
        ],
        ids=["three-members", "int", "strings", "float", "not-a-list", "axis-not-a-list"],
    )
    def test_malformed_pair_rejected(self, pair_lists, match):
        # These used to raise a bare ValueError or TypeError, and (2.0, 3)
        # was accepted and then emitted as "2.0-3".
        with pytest.raises(SchemeValidationError, match=match):
            validate_scheme(3, pair_lists)

    @pytest.mark.parametrize(
        "lists,error,match",
        [
            # Axis 2 repeats pair 4-5 of axis 1, axis 3 uses index 1 twice.
            (
                [[(2, 3), (4, 5)], [(4, 5), (1, 3)], [(1, 4), (1, 5)], [(1, 5), (2, 3)], [(1, 2), (3, 4)]],
                DuplicatePairError,
                "4-5 assigned to both axis 1 and axis 2",
            ),
            # Axis 2 uses index 3 twice, axis 3 repeats pair 4-5 of axis 1.
            (
                [[(2, 3), (4, 5)], [(1, 3), (3, 4)], [(4, 5), (1, 2)], [(1, 5), (2, 3)], [(1, 2), (3, 5)]],
                BadMatchingError,
                "axis 2: index 3",
            ),
            # Axis 1 leaves out 4-5, axis 3 uses index 1 twice.
            (
                [[(2, 3)], [(1, 4), (3, 5)], [(1, 2), (1, 5)], [(1, 5), (2, 3)], [(1, 2), (3, 4)]],
                BadMatchingError,
                "axis 3: index 1",
            ),
        ],
        ids=["duplicate-before-overlap", "overlap-before-duplicate", "overlap-before-missing"],
    )
    def test_first_faulty_axis_decides(self, lists, error, match):
        # Axes are checked in order, so the fault on the lower axis wins,
        # whatever its kind; a missing pair is reported only after all axes.
        with pytest.raises(error, match=match):
            validate_scheme(5, lists)


class TestMakePair:
    def test_equal_members_rejected(self):
        with pytest.raises(SchemeValidationError, match="must differ"):
            make_pair(2, 2)

    def test_zero_based_index_rejected(self):
        with pytest.raises(SchemeValidationError, match="1-based"):
            make_pair(2, 0)

    @pytest.mark.parametrize("a,b", [(2.0, 3), ("2", 3), (None, 1)])
    def test_non_int_member_rejected(self, a, b):
        # (2.0, 3) used to return Pair(lo=2.0, hi=3); the others raised a
        # bare TypeError.
        with pytest.raises(SchemeValidationError, match="must be ints"):
            make_pair(a, b)

    def test_int_like_members_stored_as_int(self):
        assert type(make_pair(True, 3).lo) is int


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
            pairs = [p for m in scheme for p in m]
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

    @pytest.mark.parametrize("limit", [0, -1, 1.5, "2"])
    def test_bad_limit(self, dim5, limit):
        # 0 used to yield nothing; it is refused like the rest.
        for stream in (scheme_branches, enumerate_schemes, census):
            with pytest.raises(LimitError, match="limit must be an int >= 1"):
                next(stream(dim5, limit=limit))

    def test_int_like_limit(self, dim5):
        assert len(list(scheme_branches(dim5, limit=True))) == 1

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

    @pytest.mark.parametrize(
        "prefix", [(-1,), (3,), (0, 15), (0, 0, -1), (1.0,), (0, "1"), (0, 0, None)]
    )
    def test_out_of_range_prefix_rejected(self, dim5, prefix):
        # (-1,) used to wrap silently to the last matching of axis 1. Every
        # choice is checked, even after an earlier pair of choices conflicts.
        # A choice that is not an int used to raise a bare TypeError.
        with pytest.raises(ChoiceRangeError, match="outside"):
            list(scheme_branches(dim5, prefix=prefix))

    def test_int_like_choices_stored_as_int(self, dim5):
        # A prefix of (True,) used to yield branches that hold True.
        branches = list(scheme_branches(dim5, prefix=(True,)))
        assert branches == list(scheme_branches(dim5, prefix=(1,)))
        assert all(type(c) is int for branch in branches for c in branch)
        assert branch_scheme(dim5, (True,) + branches[0][1:]) == branch_scheme(dim5, branches[0])

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
            # Not ints: typed errors, not a TypeError from tuple indexing.
            ((0.0, 1, 2, 0, 0), ChoiceRangeError, "choice 0.0 for axis 1 is outside the ints"),
            ((0, 1, 2, 0, "0"), ChoiceRangeError, "choice '0' for axis 5 is outside the ints"),
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


class TestEnumerateSchemes:
    """``enumerate_schemes`` yields, for each branch of ``scheme_branches``,
    the Scheme of that branch's ``axis_matchings`` objects themselves."""

    @pytest.mark.parametrize(
        "n,prefix,limit",
        [(5, (), None), (7, (), None), (9, (50,), 3_000), (11, (), 2_000)],
        ids=["n5", "n7", "n9-subtree", "n11-first"],
    )
    def test_kth_matching_is_the_branch_pick(self, n, prefix, limit):
        dim = feasible_dimension(n)
        per_axis = [axis_matchings(dim, k) for k in range(1, n + 1)]
        count = 0
        stream = enumerate_schemes(dim, prefix=prefix, limit=limit)
        branches = scheme_branches(dim, prefix=prefix, limit=limit)
        for scheme, branch in itertools.zip_longest(stream, branches):
            assert type(scheme) is Scheme and len(scheme) == n
            assert all(map(operator.is_, scheme, map(operator.getitem, per_axis, branch)))
            count += 1
        assert count == (limit or {5: 6, 7: 6240}[n])

    def test_is_a_generator_function(self):
        assert inspect.isgeneratorfunction(enumerate_schemes)

    @pytest.mark.parametrize(
        "n,kwargs,error",
        [
            (5, {"limit": 0}, LimitError),
            (5, {"prefix": (0, 99)}, ChoiceRangeError),
            (5, {"prefix": (-1,)}, ChoiceRangeError),
            (15, {}, TooManyMatchingsError),
        ],
        ids=["limit-0", "prefix-out-of-range", "prefix-negative", "n15"],
    )
    def test_errors_arrive_at_the_first_next(self, n, kwargs, error):
        stream = enumerate_schemes(feasible_dimension(n), **kwargs)
        with pytest.raises(error):
            next(stream)


class TestSchemeTuple:
    """A Scheme is the tuple of its n matchings, checked when it is built."""

    def test_tuple_of_matchings(self, scheme5_row3):
        assert isinstance(scheme5_row3, tuple) and len(scheme5_row3) == 5
        assert scheme5_row3[0] == Matching((Pair(2, 4), Pair(3, 5)))
        assert scheme5_row3.dim == Dimension(5)
        # The cached slots of the check are all that it holds besides them.
        assert vars(scheme5_row3) == {"slots": scheme5_row3.slots}
        with pytest.raises(AttributeError):
            scheme5_row3.slots = ((), ())

    def test_enumerate_path_skips_the_check(self, dim5):
        for scheme in enumerate_schemes(dim5):
            assert type(scheme) is Scheme and vars(scheme) == {}
            assert Scheme(scheme) == scheme
            assert "slots" in vars(Scheme(scheme))

    def test_slots_computed_once_and_kept_in_the_instance(self, monkeypatch, scheme5_row3):
        # functools.cached_property, a non-data descriptor: the first read
        # computes and stores, and later reads find the stored tuple first.
        descriptor = vars(Scheme)["slots"]
        assert type(descriptor) is functools.cached_property
        assert not hasattr(descriptor, "__set__")
        assert Scheme.slots is descriptor and "structural check" in descriptor.__doc__
        calls = []
        compute = descriptor.func
        monkeypatch.setattr(descriptor, "func", lambda scheme: calls.append(1) or compute(scheme))
        scheme = Scheme(scheme5_row3)
        assert scheme.slots is scheme.slots is vars(scheme)["slots"]
        assert scheme.slots == scheme5_row3.slots and len(calls) == 1

    def test_str(self, scheme5_row3):
        assert str(scheme5_row3) == "2-4 3-5 / 1-3 4-5 / 1-4 2-5 / 1-5 2-3 / 1-2 3-4"


def refuse_to_build(n, axis):
    raise AssertionError(f"built the matchings of n={n}")


class TestMatchingBudget:
    """enumerate, census and one axis's matchings refuse an n whose
    matchings would not fit in memory, from their count and before
    building any of them."""

    @pytest.mark.parametrize("n,count", [(15, "2,027,025"), (17, "34,459,425"), (101, "")])
    def test_enumerate_refuses(self, monkeypatch, n, count):
        monkeypatch.setattr(oddcross.schemes, "_axis_masks", refuse_to_build)
        with pytest.raises(TooManyMatchingsError, match=f"n={n}: its axes have {count}"):
            next(enumerate_schemes(feasible_dimension(n)))

    def test_census_refuses(self, monkeypatch):
        monkeypatch.setattr(oddcross.schemes, "_axis_masks", refuse_to_build)
        with pytest.raises(TooManyMatchingsError, match="2,027,025 matchings"):
            next(census(feasible_dimension(15)))

    @pytest.mark.parametrize("n,count", [(17, "2,027,025"), (19, "34,459,425"), (101, "")])
    def test_one_axis_refuses(self, monkeypatch, n, count):
        monkeypatch.setattr(oddcross.schemes, "_axis_masks", refuse_to_build)
        with pytest.raises(TooManyMatchingsError, match=f"n={n}: axis 2 has {count}"):
            axis_matchings(feasible_dimension(n), 2)

    def test_is_a_feasibility_error(self):
        assert issubclass(TooManyMatchingsError, FeasibilityError)

    def test_n13_and_one_axis_of_n15_allowed(self, monkeypatch):
        built = []

        def record(n, axis):
            built.append((n, axis))
            return ()

        monkeypatch.setattr(oddcross.schemes, "_axis_masks", record)
        # The uncached functions, so the stub's results are not kept.
        monkeypatch.setattr(
            oddcross.schemes, "_axis_matchings", oddcross.schemes._axis_matchings.__wrapped__
        )
        assert oddcross.schemes._axis_choice_masks.__wrapped__(13) == ((),) * 13
        assert axis_matchings(feasible_dimension(15), 1) == ()
        assert built == [(13, axis) for axis in range(1, 14)] + [(15, 1)]


class TestObjectsOnlyAtTheEdges:
    def test_census_and_branches_build_no_matching(self, monkeypatch):
        # From empty caches, with the Matching table refused.
        for module in (oddcross.schemes, oddcross.verify):
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()
        monkeypatch.setattr(oddcross.schemes, "_axis_matchings", refuse_to_build)
        assert sum(1 for _ in census(feasible_dimension(7))) == 6240
        assert len(list(scheme_branches(feasible_dimension(9), limit=1000))) == 1000


class TestClosure:
    def test_reference_7d_row11_closed(self, scheme7_row11):
        assert is_closed(scheme7_row11)

    def test_5d_row3_not_closed(self, scheme5_row3):
        # {2,4} sits on axis 1 but {1,4} sits on axis 3, not 2.
        tensor = build_tensor(scheme5_row3)
        assert tensor.lookup(2, 4).axis == 1
        assert tensor.lookup(1, 4).axis == 3
        assert not is_closed(scheme5_row3)

    def test_3d_closed(self, scheme3):
        assert is_closed(scheme3)

    def test_no_5d_scheme_closed(self, dim5):
        assert not any(is_closed(s) for s in enumerate_schemes(dim5))
