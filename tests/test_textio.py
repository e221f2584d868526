import copy
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oddcross import (
    BadMatchingError,
    DuplicatePairError,
    EvenDimensionError,
    Matching,
    MissingPairError,
    Pair,
    Scheme,
    SchemeSyntaxError,
    SchemeValidationError,
    SelfPairError,
    axis_matchings,
    branch_scheme,
    emit_scheme_text,
    enumerate_schemes,
    feasible_dimension,
    load_scheme,
    parse_scheme_text,
    validate_scheme,
)
from oddcross import textio
from oddcross.reference import reference_schemes

from conftest import ROW3_5D, random_branch

ROW3_FULL = "n=5\n1: 2-4 3-5\n2: 1-3 4-5\n3: 1-4 2-5\n4: 1-5 2-3\n5: 1-2 3-4"


class TestParse:
    def test_full_format(self, scheme5_row3):
        assert parse_scheme_text(ROW3_FULL) == scheme5_row3

    def test_compact_with_n(self, scheme5_row3):
        assert parse_scheme_text(ROW3_5D, 5) == scheme5_row3

    def test_compact_inferred_n(self, scheme5_row3):
        assert parse_scheme_text(ROW3_5D) == scheme5_row3

    def test_axis_lines_any_order(self, scheme5_row3):
        lines = ROW3_FULL.splitlines()
        shuffled = [lines[0]] + lines[1:][::-1]
        assert parse_scheme_text("\n".join(shuffled)) == scheme5_row3

    def test_even_dimension(self):
        with pytest.raises(EvenDimensionError):
            parse_scheme_text("n=4\n1: 2-3\n2: 1-4\n3: 1-2\n4: 1-3")

    def test_bad_pair_token_reports_line(self):
        with pytest.raises(SchemeSyntaxError) as err:
            parse_scheme_text("n=5\n1: 2-4 3x5\n2: 1-3 4-5\n3: 1-4 2-5\n4: 1-5 2-3\n5: 1-2 3-4")
        assert err.value.line == 2

    @pytest.mark.parametrize(
        "text,match,line",
        [
            ("n=3\n1: 2-x\n2: 1-3\n3: 1-2", "bad pair token '2-x'", 2),
            ("n=x\n1: 2-3\n2: 1-3\n3: 1-2", "expected 'n=<odd>' header", 1),
            ("n=3\n1: 2-3\n2 1-3\n3: 1-2", "expected '<axis>: pairs'", 3),
            ("n=3\n1: 2-3\n2: 1-3\n4: 1-2", "axis 4 out of range 1..3", 4),
        ],
        ids=["pair-token", "header", "no-axis-colon", "axis-range"],
    )
    def test_full_format_syntax_errors(self, text, match, line):
        with pytest.raises(SchemeSyntaxError, match=match) as err:
            parse_scheme_text(text)
        assert err.value.line == line

    def test_bad_compact_token(self):
        with pytest.raises(SchemeSyntaxError, match="bad compact token '2-3'"):
            parse_scheme_text("2-3 / 13 / 12")

    def test_missing_axis_line(self):
        with pytest.raises(SchemeSyntaxError, match="axis 5"):
            parse_scheme_text("n=5\n1: 2-4 3-5\n2: 1-3 4-5\n3: 1-4 2-5\n4: 1-5 2-3")

    def test_duplicate_axis_line(self):
        text = "n=5\n1: 2-4 3-5\n1: 2-4 3-5\n3: 1-4 2-5\n4: 1-5 2-3\n5: 1-2 3-4"
        with pytest.raises(SchemeSyntaxError, match="twice"):
            parse_scheme_text(text)

    def test_validation_errors_pass_through(self):
        text = "23 45 / 13 45 / 14 25 / 15 23 / 12 34"
        with pytest.raises(DuplicatePairError):
            parse_scheme_text(text, 5)

    def test_compact_group_count_mismatch(self):
        with pytest.raises(SchemeSyntaxError, match="groups"):
            parse_scheme_text("23 45 / 14 35", 5)

    def test_empty_input(self):
        with pytest.raises(SchemeSyntaxError):
            parse_scheme_text("   \n  ")

    def test_n_contradicting_header(self, scheme5_row3):
        # The compact form already rejected a wrong n; the header form
        # used to ignore it.
        with pytest.raises(SchemeSyntaxError, match="n=5.*n=7") as err:
            parse_scheme_text(ROW3_FULL, 7)
        assert err.value.line == 1
        assert parse_scheme_text(ROW3_FULL, 5) == scheme5_row3

    @pytest.mark.parametrize("text", [ROW3_5D, ROW3_FULL], ids=["compact", "canonical"])
    def test_n_must_be_an_int(self, scheme5_row3, text):
        # A string "5" used to be told "expected 5 axis groups, found 5" or
        # "header says n=5, but n=5 was given".
        class Index:
            def __index__(self):
                return 5

        for n in ("5", 5.0):
            with pytest.raises(SchemeValidationError, match=f"n must be an int, got {n!r}"):
                parse_scheme_text(text, n)
        assert parse_scheme_text(text, Index()) == scheme5_row3

    def test_comment_lines_ignored(self, scheme5_row3):
        assert parse_scheme_text("# comment\n" + ROW3_FULL) == scheme5_row3


# One base scheme per n, and per case the token edits (axis, old, new;
# None drops the token; axis 0 is the header line) that plant the fault,
# with the exact error type and message that parsing gave before pairs
# were converted only once.
# Token faults come first, in line order; then raw-shape faults (a pair of
# equal members, an index below 1) on any axis; then the structural ones,
# axis by axis; then a missing pair.
CONTRACT_BASE = {
    5: ROW3_FULL,
    7: "n=7\n1: 2-4 3-7 5-6\n2: 1-4 3-5 6-7\n3: 1-7 2-5 4-6\n4: 1-2 3-6 5-7\n"
    "5: 1-6 2-3 4-7\n6: 1-5 2-7 3-4\n7: 1-3 2-6 4-5",
    9: "n=9\n1: 2-3 4-5 6-7 8-9\n2: 1-3 4-6 5-8 7-9\n3: 1-2 4-7 5-9 6-8\n"
    "4: 1-5 2-6 3-9 7-8\n5: 1-4 2-7 3-8 6-9\n6: 1-7 2-8 3-5 4-9\n"
    "7: 1-8 2-9 3-4 5-6\n8: 1-9 2-4 3-6 5-7\n9: 1-6 2-5 3-7 4-8",
}
EQUAL = (SchemeValidationError, "pair members must differ, got 3-3")
ZERO = (SchemeValidationError, "indices are 1-based, got 0-2")
SHARED = (BadMatchingError, "axis 1: index 2 appears in two pairs")
SUPERSCRIPT_HEADER = (SchemeSyntaxError, "expected 'n=<odd>' header, got 'n=²' (line 1)")
SUPERSCRIPT_CODE = (
    SchemeSyntaxError,
    "bad pair token '²4' (want 'lo-hi' or a two-digit code) (line 2)",
)
NOT_A_NUMBER_LINE_4 = (SchemeSyntaxError, "bad pair token 'x-2' (line 4)")
TWO_AXES = {
    5: (DuplicatePairError, "pair 1-3 assigned to both axis 2 and axis 5"),
    7: (DuplicatePairError, "pair 1-4 assigned to both axis 2 and axis 7"),
    9: (DuplicatePairError, "pair 1-3 assigned to both axis 2 and axis 9"),
}
CONTRACT = {
    # case: {n: (edits, (error, message) or None when it parses to the base)}
    "reversed": {
        5: ([(1, "3-5", "5-3")], None),
        7: ([(2, "3-5", "5-3")], None),
        9: ([(6, "3-5", "5-3")], None),
    },
    "equal-members": {
        5: ([(1, "2-4", "3-3")], EQUAL),
        7: ([(1, "2-4", "3-3")], EQUAL),
        9: ([(1, "2-3", "3-3")], EQUAL),
    },
    "zero-index": {
        5: ([(1, "2-4", "0-2")], ZERO),
        7: ([(1, "2-4", "0-2")], ZERO),
        9: ([(1, "2-3", "0-2")], ZERO),
    },
    "not-a-number": {
        5: ([(1, "2-4", "x-2")], (SchemeSyntaxError, "bad pair token 'x-2' (line 2)")),
        7: ([(1, "2-4", "x-2")], (SchemeSyntaxError, "bad pair token 'x-2' (line 2)")),
        9: ([(1, "2-3", "x-2")], (SchemeSyntaxError, "bad pair token 'x-2' (line 2)")),
    },
    "own-axis": {
        5: ([(1, "2-4", "1-2")], (SelfPairError, "axis 1 appears in its own pair 1-2")),
        7: ([(1, "2-4", "1-2")], (SelfPairError, "axis 1 appears in its own pair 1-2")),
        9: ([(1, "2-3", "1-2")], (SelfPairError, "axis 1 appears in its own pair 1-2")),
    },
    "shared-within-axis": {
        5: ([(1, "3-5", "2-5")], SHARED),
        7: ([(1, "3-7", "2-7")], SHARED),
        9: ([(1, "4-5", "2-5")], SHARED),
    },
    "on-two-axes": {
        5: ([(5, "1-2", "1-3")], TWO_AXES[5]),
        7: ([(7, "1-3", "1-4")], TWO_AXES[7]),
        9: ([(9, "1-6", "1-3")], TWO_AXES[9]),
    },
    "missing": {
        5: ([(5, "3-4", None)], (MissingPairError, "pair 3-4 is not assigned to any axis")),
        7: ([(7, "4-5", None)], (MissingPairError, "pair 4-5 is not assigned to any axis")),
        9: ([(9, "4-8", None)], (MissingPairError, "pair 4-8 is not assigned to any axis")),
    },
    # A fault on axis 1 with one on a later axis.
    "own-axis-then-equal-members": {
        5: ([(1, "2-4", "1-2"), (3, "1-4", "3-3")], EQUAL),
        7: ([(1, "2-4", "1-2"), (3, "1-7", "3-3")], EQUAL),
        9: ([(1, "2-3", "1-2"), (3, "1-2", "3-3")], EQUAL),
    },
    "zero-index-then-on-two-axes": {
        5: ([(1, "2-4", "0-2"), (5, "1-2", "1-3")], ZERO),
        7: ([(1, "2-4", "0-2"), (7, "1-3", "1-4")], ZERO),
        9: ([(1, "2-3", "0-2"), (9, "1-6", "1-3")], ZERO),
    },
    "shared-then-on-two-axes": {
        5: ([(1, "3-5", "2-5"), (5, "1-2", "1-3")], SHARED),
        7: ([(1, "3-7", "2-7"), (7, "1-3", "1-4")], SHARED),
        9: ([(1, "4-5", "2-5"), (9, "1-6", "1-3")], SHARED),
    },
    # Superscript digits pass str.isdigit but not int(), and "\x1f" is
    # whitespace to str.strip but not to int().
    "superscript-header": {
        5: ([(0, "n=5", "n=²")], SUPERSCRIPT_HEADER),
        7: ([(0, "n=7", "n=²")], SUPERSCRIPT_HEADER),
        9: ([(0, "n=9", "n=²")], SUPERSCRIPT_HEADER),
    },
    "separator-after-axis": {
        5: ([(1, "1:", "1\x1f:")], None),
        7: ([(1, "1:", "1\x1f:")], None),
        9: ([(1, "1:", "1\x1f:")], None),
    },
    "superscript-in-pair": {
        5: ([(1, "2-4", "2-³")], (SchemeSyntaxError, "bad pair token '2-³' (line 2)")),
        7: ([(1, "2-4", "2-³")], (SchemeSyntaxError, "bad pair token '2-³' (line 2)")),
        9: ([(1, "2-3", "2-³")], (SchemeSyntaxError, "bad pair token '2-³' (line 2)")),
    },
    "superscript-code": {
        5: ([(1, "2-4", "²4")], SUPERSCRIPT_CODE),
        7: ([(1, "2-4", "²4")], SUPERSCRIPT_CODE),
        9: ([(1, "2-3", "²4")], SUPERSCRIPT_CODE),
    },
    "zero-index-then-not-a-number": {
        5: ([(1, "2-4", "0-2"), (3, "1-4", "x-2")], NOT_A_NUMBER_LINE_4),
        7: ([(1, "2-4", "0-2"), (3, "1-7", "x-2")], NOT_A_NUMBER_LINE_4),
        9: ([(1, "2-3", "0-2"), (3, "1-2", "x-2")], NOT_A_NUMBER_LINE_4),
    },
}


def edited(text, edits):
    lines = text.split("\n")
    for axis, old, new in edits:
        tokens = lines[axis].split()
        assert old in tokens
        lines[axis] = " ".join(new if t == old else t for t in tokens if t != old or new)
    return "\n".join(lines)


class TestParseContract:
    @pytest.mark.parametrize(
        "n,case",
        [(n, case) for case, by_n in CONTRACT.items() for n in by_n],
        ids=[f"{case}-n{n}" for case, by_n in CONTRACT.items() for n in by_n],
    )
    def test_fault_and_message(self, n, case):
        edits, expected = CONTRACT[case][n]
        text = edited(CONTRACT_BASE[n], edits)
        if expected is None:
            scheme = parse_scheme_text(text)
            assert emit_scheme_text(scheme) == CONTRACT_BASE[n] + "\n"
            return
        error, message = expected
        with pytest.raises(error) as err:
            parse_scheme_text(text)
        assert type(err.value) is error
        assert str(err.value) == message
        if error in (DuplicatePairError, MissingPairError):
            assert type(err.value.pair) is Pair

    def test_pairs_are_exact(self):
        # Each pair is converted once, to exact ints, and built as a Pair.
        scheme = validate_scheme(3, [[(3, 2)], [(True, 3)], [(2, True)]])
        assert scheme == parse_scheme_text("n=3\n1: 2-3\n2: 1-3\n3: 1-2")
        for matching in scheme:
            for pair in matching:
                assert type(pair) is Pair
                assert [type(x) for x in pair] == [int, int]


class TestEmit:
    def test_unique_3d(self, scheme3):
        assert emit_scheme_text(scheme3) == "n=3\n1: 2-3\n2: 1-3\n3: 1-2\n"

    def test_7d_shape(self, scheme7_row11):
        text = emit_scheme_text(scheme7_row11)
        lines = text.splitlines()
        assert lines[0] == "n=7"
        assert len(lines) == 8
        assert lines[1] == "1: 2-4 3-7 5-6"

    def test_round_trip_all_5d(self, dim5):
        for scheme in enumerate_schemes(dim5):
            assert parse_scheme_text(emit_scheme_text(scheme)) == scheme

    def test_round_trip_reference_7d(self):
        for scheme in reference_schemes(7):
            text = emit_scheme_text(scheme)
            assert parse_scheme_text(text) == scheme
            assert emit_scheme_text(parse_scheme_text(text)) == text

    def test_round_trip_every_7d_scheme(self, dim7):
        for scheme in enumerate_schemes(dim7):
            assert parse_scheme_text(emit_scheme_text(scheme)) == scheme

    def test_round_trip_3d(self, dim3):
        for scheme in enumerate_schemes(dim3):
            assert parse_scheme_text(emit_scheme_text(scheme)) == scheme


def old_matching_line(axis, matching):
    """The line format before lines were keyed by the matching alone."""
    return f"{axis}: {matching}\n"


class TestMatchingLines:
    """Each matching caches its own text line: its axis is the one index of
    1..2*len+1 that its pairs miss."""

    @pytest.mark.parametrize("n", [3, 5, 7, 9, 11])
    def test_every_matching_gets_its_old_line(self, n):
        dim = feasible_dimension(n)
        for axis in range(1, n + 1):
            for matching in axis_matchings(dim, axis):
                assert textio._line(matching) == old_matching_line(axis, matching)

    @pytest.mark.parametrize("n", [5, 7, 9])
    def test_hand_built_matching_gets_the_same_line(self, n):
        dim = feasible_dimension(n)
        for axis in range(1, n + 1):
            for matching in axis_matchings(dim, axis)[::7]:
                hand = Matching(Pair(lo, hi) for lo, hi in matching)
                assert hand == matching and hand is not matching
                assert textio._line(hand) == old_matching_line(axis, matching)

    def test_line_is_computed_once(self):
        dim = feasible_dimension(7)
        for axis in range(1, 8):
            for matching in axis_matchings(dim, axis):
                line = matching.line
                assert matching.line is line
                assert vars(matching) == {"line": line}

    def test_hand_built_matching_computes_its_own_line(self):
        matching = axis_matchings(feasible_dimension(9), 4)[50]
        hand = Matching(Pair(lo, hi) for lo, hi in matching)
        assert hand == matching and "line" not in vars(hand)
        assert hand.line == matching.line == old_matching_line(4, matching)
        assert hand.line is not matching.line

    @pytest.mark.parametrize("cached", [False, True])
    @pytest.mark.parametrize("name", ["line", "axis", "__dict__"])
    def test_attributes_cannot_be_set(self, cached, name):
        matching = Matching((Pair(2, 3), Pair(4, 5)))
        if cached:
            matching.line
        with pytest.raises(AttributeError, match="a Matching is immutable"):
            setattr(matching, name, "1: 2-3 4-5\n")
        assert vars(matching) == ({"line": "1: 2-3 4-5\n"} if cached else {})

    @pytest.mark.parametrize("cached", [False, True])
    def test_pickle_and_copy_keep_type_equality_and_line(self, cached):
        matching = Matching((Pair(1, 4), Pair(2, 5), Pair(3, 7), Pair(6, 8), Pair(9, 10)))
        if cached:
            matching.line
        rebuilt = [pickle.loads(pickle.dumps(matching, protocol)) for protocol in range(6)]
        rebuilt += [copy.copy(matching), copy.deepcopy(matching)]
        for twin in rebuilt:
            assert type(twin) is Matching and twin == matching
            assert all(type(pair) is Pair for pair in twin)
            assert vars(twin) == vars(matching)
            assert twin.line == "11: 1-4 2-5 3-7 6-8 9-10\n"

    @pytest.mark.parametrize("kind", [tuple, list])
    def test_emitters_take_only_a_scheme(self, scheme5_row3, kind):
        plain = kind(scheme5_row3)
        name = kind.__name__
        with pytest.raises(SchemeValidationError, match=f"need a Scheme, got {name}"):
            emit_scheme_text(plain)
        with pytest.raises(SchemeValidationError, match=f"need a Scheme, got {name}"):
            textio.emit_scheme_json(1, plain)


def scrambled_pairs(scheme, rng):
    """Each axis's pairs in random order, each pair's members in random order."""
    out = []
    for matching in scheme:
        pairs = [tuple(rng.sample(tuple(p), 2)) for p in matching]
        rng.shuffle(pairs)
        out.append(pairs)
    return out


class TestRoundTripProperties:
    @settings(max_examples=40, deadline=None)
    @given(n=st.sampled_from([3, 5, 7, 9, 11]), seed=st.integers(0, 2**32))
    def test_canonical_form(self, n, seed):
        rng = random.Random(seed)
        scheme = branch_scheme(feasible_dimension(n), random_branch(n, rng))
        text = emit_scheme_text(scheme)
        assert parse_scheme_text(text) == scheme
        assert emit_scheme_text(parse_scheme_text(text)) == text
        # Axis lines in any order, pairs and members in any order.
        lines = [
            f"{axis}: " + " ".join(f"{x}-{y}" for x, y in pairs)
            for axis, pairs in enumerate(scrambled_pairs(scheme, rng), 1)
        ]
        rng.shuffle(lines)
        assert emit_scheme_text(parse_scheme_text(f"n={n}\n" + "\n".join(lines))) == text

    @settings(max_examples=40, deadline=None)
    @given(n=st.sampled_from([3, 5, 7, 9]), seed=st.integers(0, 2**32))
    def test_compact_form(self, n, seed):
        rng = random.Random(seed)
        # Two-digit tokens, so the compact form stops at n = 9.
        scheme = branch_scheme(feasible_dimension(n), random_branch(n, rng))
        text = " / ".join(
            " ".join(f"{x}{y}" for x, y in pairs) for pairs in scrambled_pairs(scheme, rng)
        )
        assert parse_scheme_text(text) == scheme
        assert parse_scheme_text(text, n) == scheme
        assert parse_scheme_text(emit_scheme_text(parse_scheme_text(text))) == scheme


class TestHandBuiltSchemes:
    """A hand-built Scheme is checked when it is built, so a faulty one
    never reaches the emitters or their cached matching lines. Pair(3, 2),
    once emitted as "3-2", is refused at ``Scheme(...)`` in test_tensor."""

    @pytest.mark.parametrize(
        "matching,match",
        [
            # Used to be emitted as "1: ((2, 4), (3, 5))", a line that the
            # emitters' cache then returned for the equal Matching too.
            (((2, 4), (3, 5)), r"axis 1: \(\(2, 4\), \(3, 5\)\) is not a Matching"),
            ((Pair(2, 4), Pair(3, 5)), "axis 1: .* is not a Matching"),
            (Matching(((2, 4), (3, 5))), r"axis 1: \(2, 4\) is not a Pair"),
        ],
        ids=["tuple-matching", "tuple-of-pairs", "tuple-pairs"],
    )
    def test_fault_raises_at_build(self, scheme5_row3, matching, match):
        matchings = [matching, *scheme5_row3[1:]]
        with pytest.raises(SchemeValidationError, match=match):
            emit_scheme_text(Scheme(matchings))
        assert emit_scheme_text(scheme5_row3) == ROW3_FULL + "\n"

    @pytest.mark.parametrize("n", [5, 7, 9])
    def test_rebuilt_and_round_tripped(self, n):
        rng = random.Random(n)
        dim = feasible_dimension(n)
        for _ in range(20):
            # Built unchecked by the enumerate path.
            (scheme,) = enumerate_schemes(dim, prefix=random_branch(n, rng))
            assert Scheme(tuple(scheme)) == scheme
            assert parse_scheme_text(emit_scheme_text(scheme)) == scheme


class TestLoadScheme:
    def test_from_file(self, tmp_path, scheme5_row3):
        path = tmp_path / "scheme.txt"
        path.write_text(emit_scheme_text(scheme5_row3))
        assert load_scheme(str(path)) == scheme5_row3

    def test_from_compact_file(self, tmp_path, scheme5_row3):
        path = tmp_path / "compact.txt"
        path.write_text(ROW3_5D + "\n")
        assert load_scheme(str(path), 5) == scheme5_row3

    def test_inline(self, scheme5_row3):
        assert load_scheme(ROW3_5D, 5) == scheme5_row3
