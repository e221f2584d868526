import json

import pytest

from oddcross.cli import format_combination, main

from conftest import ROW2_7D, ROW3_5D, ROW11_7D


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestFormatCombination:
    def test_worked_example(self):
        assert format_combination([2, 0, -1, 0, 1]) == "2*e1 - e3 + e5"

    def test_zero_vector(self):
        assert format_combination([0, 0, 0]) == "0"

    def test_leading_negative(self):
        assert format_combination([-1, 2, 0]) == "-e1 + 2*e2"

    def test_floats(self):
        assert format_combination([2.0, 0.0, -0.5]) == "2*e1 - 0.5*e3"


class TestCommands:
    def test_dims(self, capsys):
        code, out, _ = run(capsys, "dims", "--max", "7")
        assert code == 0
        assert "n=5  pairs/axis=2  total pairs=10  matchings/axis=3" in out
        assert "n=4  infeasible (even dimension)" in out

    def test_matchings(self, capsys):
        code, out, _ = run(capsys, "matchings", "-n", "5", "--axis", "1")
        assert code == 0
        assert out.splitlines() == ["2-3 4-5", "2-4 3-5", "2-5 3-4"]

    def test_enumerate_text(self, capsys):
        code, out, _ = run(capsys, "enumerate", "-n", "3")
        assert code == 0
        assert out == "n=3\n1: 2-3\n2: 1-3\n3: 1-2\n"

    def test_enumerate_jsonl_limit(self, capsys):
        code, out, _ = run(capsys, "enumerate", "-n", "5", "--format", "jsonl", "--limit", "2")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 2
        first = json.loads(lines[0])
        assert first["scheme_id"] == 1
        assert first["n"] == 5
        assert first["axes"][0] == ["2-3", "4-5"]

    def test_enumerate_to_file(self, capsys, tmp_path):
        out_file = tmp_path / "schemes.jsonl"
        code, _, _ = run(
            capsys, "enumerate", "-n", "5", "--format", "jsonl", "-o", str(out_file)
        )
        assert code == 0
        assert len(out_file.read_text().splitlines()) == 6

    def test_tensor(self, capsys):
        code, out, _ = run(capsys, "tensor", "--scheme", ROW3_5D, "-n", "5")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 10
        assert "2 4 -> 1 +1" in lines
        assert "1 3 -> 2 -1" in lines

    def test_cross_worked_example(self, capsys):
        code, out, _ = run(
            capsys,
            "cross", "--scheme", ROW3_5D, "-n", "5",
            "-A", "0,1,1,0,0", "-B", "0,0,0,1,1",
        )
        assert code == 0
        assert out == "A x B = 2*e1 - e3 + e5\nX_AB = 2\n"

    def test_cross_float_input(self, capsys):
        code, out, _ = run(
            capsys,
            "cross", "--scheme", ROW3_5D, "-n", "5",
            "-A", "0,0.5,0,0,0", "-B", "0,0,0,1,0",
        )
        assert code == 0
        assert "A x B = " in out

    def test_verify_identity_scheme(self, capsys):
        code, out, _ = run(capsys, "verify", "--scheme", ROW11_7D, "-n", "7")
        assert code == 0
        assert "closed: true" in out
        assert "orthogonality_zero: true" in out
        assert "xab_zero: true" in out
        assert "witness" not in out

    def test_verify_nonzero_scheme(self, capsys):
        code, out, _ = run(capsys, "verify", "--scheme", ROW2_7D, "-n", "7", "--seed", "0")
        assert code == 0
        assert "xab_zero: false" in out
        assert "witness: " in out
        assert "X_AB(witness): " in out

    def test_census_stdout(self, capsys):
        code, out, err = run(capsys, "census", "-n", "5")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "scheme_id,closed,orthogonality_zero,xab_zero,witness"
        assert len(lines) == 7
        assert "6 schemes classified" in err

    def test_census_limit(self, capsys):
        code, out, _ = run(capsys, "census", "-n", "7", "--limit", "4")
        assert code == 0
        assert len(out.splitlines()) == 5

    def test_tables(self, capsys):
        code, out, _ = run(capsys, "tables")
        assert code == 0
        assert "overall: PASS" in out

    def test_scheme_from_file(self, capsys, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text("n=5\n1: 2-4 3-5\n2: 1-3 4-5\n3: 1-4 2-5\n4: 1-5 2-3\n5: 1-2 3-4\n")
        code, out, _ = run(capsys, "tensor", "--scheme", str(path))
        assert code == 0
        assert "2 4 -> 1 +1" in out


class TestErrors:
    def test_even_dimension_exit_code(self, capsys):
        code, _, err = run(capsys, "census", "-n", "4")
        assert code == 1
        assert err.startswith("error:")

    def test_bad_scheme_text(self, capsys):
        code, _, err = run(capsys, "tensor", "--scheme", "23 45 / 13 45 / 14 25 / 15 23 / 12 34")
        assert code == 1
        assert "error:" in err

    def test_bad_vector(self, capsys):
        code, _, err = run(
            capsys, "cross", "--scheme", ROW3_5D, "-n", "5", "-A", "1,x,0,0,0", "-B", "0,0,0,1,1"
        )
        assert code == 1
        assert "bad vector component" in err

    def test_bad_limit(self, capsys):
        code, _, err = run(capsys, "enumerate", "-n", "5", "--limit", "0")
        assert code == 1
        assert "limit" in err

    @pytest.mark.parametrize("axis", [0, 9])
    def test_axis_out_of_range(self, capsys, axis):
        code, out, err = run(capsys, "matchings", "-n", "7", "--axis", str(axis))
        assert code == 1
        assert out == ""
        assert err == f"error: axis {axis} out of range 1..7\n"
