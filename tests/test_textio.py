import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oddcross import (
    DuplicatePairError,
    EvenDimensionError,
    Matching,
    Pair,
    Scheme,
    SchemeSyntaxError,
    SchemeValidationError,
    branch_scheme,
    emit_scheme_text,
    enumerate_schemes,
    feasible_dimension,
    load_scheme,
    parse_scheme_text,
)
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

    def test_comment_lines_ignored(self, scheme5_row3):
        assert parse_scheme_text("# comment\n" + ROW3_FULL) == scheme5_row3


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
