import hashlib
import json
import os
import re
import subprocess
import sys
import time

import pytest

import oddcross
from oddcross.cli import format_combination, main
from oddcross.reference import _data_lines

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

    def test_cross_exact_ints_stay_exact(self, capsys):
        big = 10**90
        code, out, _ = run(
            capsys,
            "cross", "--scheme", ROW3_5D, "-n", "5",
            "-A", f"{big},1,0,0,0", "-B", "0,1,0,0,1",
        )
        assert code == 0
        assert out == f"A x B = -e3 - {big}*e4 + {big}*e5\nX_AB = 0\n"

    def test_verify_identity_scheme(self, capsys):
        code, out, _ = run(capsys, "verify", "--scheme", ROW11_7D, "-n", "7")
        assert code == 0
        assert "closed: true" in out
        assert "orthogonality_zero: true" in out
        assert "xab_zero: true" in out
        assert "witness" not in out

    def test_verify_nonzero_scheme(self, capsys):
        code, out, _ = run(capsys, "verify", "--scheme", ROW2_7D, "-n", "7")
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

    def test_census_summary_line(self, capsys):
        code, _, err = run(capsys, "census", "-n", "7", "--limit", "1500")
        assert code == 0
        assert re.fullmatch(
            r"census: 1500 schemes classified \(n=7\) in \d+\.\d\d s "
            r"\(set-up \d+\.\d\d s, rows \d+\.\d\d s; \d{1,3}(,\d{3})* schemes/s\)\n",
            err,
        )

    def test_census_limit(self, capsys):
        code, out, _ = run(capsys, "census", "-n", "7", "--limit", "4")
        assert code == 0
        assert len(out.splitlines()) == 5

    def test_tables(self, capsys):
        code, out, _ = run(capsys, "tables")
        assert code == 0
        assert "overall: PASS" in out

    # sha256 of stdout before the walk looked up its last two axes (the
    # n=9 census before its rows were formatted once per distinct tail):
    # any change of order or format shows here.
    @pytest.mark.parametrize(
        "argv,digest",
        [
            ("enumerate -n 7", "2c9d619ab9b76d15c82342583630371ed301bc4e941481a09d14286a286ade36"),
            (
                "enumerate -n 7 --format jsonl",
                "23f21ce2aa51d5a1870c30f25401c3c6e919d74d63531acea1a5a89064ed5740",
            ),
            ("census -n 7", "a69aa66517cdbfeadd788ae9a1e6a0b2ace4a7de0cd34c40d7bf8a5f75b5fe16"),
            (
                "census -n 9 --limit 20000",
                "626504a6ce120d4233a1283c46bf7d498af90f89b30e2771e85b9f0f9550654c",
            ),
            # Taken before the matching lines were keyed by the matching alone.
            (
                "enumerate -n 9 --limit 30000",
                "cc3265c3eb5ad442ac9a5b3f025ca9b743a21d61d47428cb36be8c5af0a8d55a",
            ),
        ],
        ids=["enumerate-text", "enumerate-jsonl", "census", "census-n9-limit", "enumerate-n9-limit"],
    )
    def test_pinned_output(self, capsys, argv, digest):
        code, out, _ = run(capsys, *argv.split())
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest

    def test_pinned_reference_rows(self, capsys):
        # sha256 of the stdout of `tensor`, then `verify`, for each row of
        # schemes_5.txt and then of schemes_7.txt, taken before tensors
        # shared their scheme's slots.
        digest = hashlib.sha256()
        for n in (5, 7):
            for row in _data_lines(f"schemes_{n}.txt"):
                for command in ("tensor", "verify"):
                    code, out, _ = run(capsys, command, "--scheme", row, "-n", str(n))
                    assert code == 0
                    digest.update(out.encode("utf-8"))
        assert digest.hexdigest() == (
            "a9f151d070269b776ed420c430f59338eb7165eb662ca71b387fbcb90d0b308b"
        )

    def test_pinned_n9_verify(self, capsys):
        # sha256 of the stdout of `verify` for fixed n=9 branches, taken
        # before the verdict was stored on the tensor. X_AB is not
        # identically zero at n=9, so each prints a witness and its X_AB and
        # defect lines; the last branch is the affine plane AG(2,3), a
        # closed scheme.
        branches = [
            (49, 90, 45, 26, 10, 38, 47, 89, 98),
            (17, 51, 86, 14, 103, 19, 57, 76, 38),
            (7, 1, 90, 88, 51, 7, 56, 85, 35),
            (30, 68, 57, 99, 7, 41, 76, 15, 53),
            (8, 14, 10, 74, 104, 86, 36, 66, 48),
        ]
        dim = oddcross.feasible_dimension(9)
        digest = hashlib.sha256()
        for branch in branches:
            text = oddcross.emit_scheme_text(oddcross.branch_scheme(dim, branch))
            code, out, _ = run(capsys, "verify", "--scheme", text)
            assert code == 0
            assert "xab_zero: false\nwitness: " in out
            digest.update(out.encode("utf-8"))
        assert "closed: true" in out
        assert digest.hexdigest() == (
            "82d6455c6f142896d98e88969a20a7696ee461f0c46d11659a7e1fadfadc70f7"
        )

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

    def test_n_contradicting_header(self, capsys):
        code, out, err = run(capsys, "verify", "--scheme", "n=3\n1: 2-3\n2: 1-3\n3: 1-2", "-n", "7")
        assert code == 1
        assert out == ""
        assert err == "error: header says n=3, but n=7 was given (line 1)\n"

    def test_bad_vector(self, capsys):
        code, _, err = run(
            capsys, "cross", "--scheme", ROW3_5D, "-n", "5", "-A", "1,x,0,0,0", "-B", "0,0,0,1,1"
        )
        assert code == 1
        assert "bad vector component" in err

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf", "1e400"])
    @pytest.mark.parametrize("bad_b", [False, True])
    def test_non_finite_vector_component(self, capsys, bad_b, token):
        # 1e400 reads as inf. The token is not first, so "-inf" is no option.
        good, bad = "0,1,0,0,0", f"0,{token},0,0,0"
        a, b = (good, bad) if bad_b else (bad, good)
        code, out, err = run(capsys, "cross", "--scheme", ROW3_5D, "-n", "5", "-A", a, "-B", b)
        assert code == 1
        assert out == ""
        assert err == f"error: bad vector component {token!r}: not a finite number\n"

    @pytest.mark.parametrize(
        "a, b",
        [
            ("0.5,1,0,0,0", "0,1,0,0,1e300"),  # finite A x B, but X_AB reads nan
            ("1e200,1,0,0,0", "0,1e200,0,0,1"),  # A x B holds inf; (A.B)**2 raises
            (f"{10**400},1,0,0,0", "0,0.5,0,0,1"),  # an int too large for a float
        ],
        ids=["nan", "inf", "int"],
    )
    def test_cross_overflow(self, capsys, a, b):
        code, out, err = run(capsys, "cross", "--scheme", ROW3_5D, "-n", "5", "-A", a, "-B", b)
        assert code == 1
        assert out == ""
        assert err == "error: A x B or X_AB overflows the float range: not a finite number\n"

    def test_bad_limit(self, capsys):
        code, _, err = run(capsys, "enumerate", "-n", "5", "--limit", "0")
        assert code == 1
        assert "limit" in err

    @pytest.mark.parametrize("command", ["enumerate", "census"])
    @pytest.mark.parametrize("limit", ["0", "-3"])
    def test_bad_limit_opens_no_file(self, capsys, tmp_path, command, limit):
        target = tmp_path / "out"
        code, out, err = run(capsys, command, "-n", "5", "--limit", limit, "-o", str(target))
        assert code == 1
        assert out == "" and not target.exists()
        assert err == f"error: limit must be an int >= 1, got {limit}\n"

    @pytest.mark.parametrize("axis", [0, 9])
    def test_axis_out_of_range(self, capsys, axis):
        code, out, err = run(capsys, "matchings", "-n", "7", "--axis", str(axis))
        assert code == 1
        assert out == ""
        assert err == f"error: axis {axis} out of range 1..7\n"

    @pytest.mark.parametrize("command", ["enumerate", "census"])
    def test_too_many_matchings(self, capsys, monkeypatch, tmp_path, command):
        def refuse(n, axis):
            raise AssertionError(f"built the matchings of n={n}")

        monkeypatch.setattr(oddcross.schemes, "_axis_masks", refuse)
        target = tmp_path / "out"
        code, out, err = run(capsys, command, "-n", "15", "-o", str(target))
        assert code == 1
        assert out == "" and not target.exists()
        assert err == (
            "error: n=15: its axes have 2,027,025 matchings, too many to build "
            "(the limit is 135,135, reached at n=13)\n"
        )

    def test_one_axis_of_n17_refused(self, capsys, monkeypatch):
        def refuse(n, axis):
            raise AssertionError(f"built the matchings of n={n}")

        monkeypatch.setattr(oddcross.schemes, "_axis_masks", refuse)
        assert run(capsys, "matchings", "-n", "17", "--axis", "1") == (
            1,
            "",
            "error: n=17: axis 1 has 2,027,025 matchings, too many to build "
            "(the limit is 135,135, reached at n=15)\n",
        )

    def test_one_axis_of_n15_allowed(self, capsys, monkeypatch):
        one = (oddcross.Matching((oddcross.Pair(2, 3),)),)
        monkeypatch.setattr(oddcross.schemes, "_axis_matchings", lambda n, axis: one)
        assert run(capsys, "matchings", "-n", "15", "--axis", "1") == (0, "2-3\n", "")

    @pytest.mark.parametrize(
        "argv,status",
        [
            (("census", "-n", "2847"), 1),
            (("enumerate", "-n", "2847"), 1),
            (("matchings", "-n", "2849", "--axis", "1"), 1),
            (("census", "-n", "1001"), 1),
            (("dims", "--max", "2849"), 0),
        ],
        ids=["census", "enumerate", "matchings", "census-1001", "dims"],
    )
    def test_huge_n(self, capsys, argv, status):
        # (n-2)!! has over 4300 digits from n=2847 on, which Python refuses
        # to print: these died with a ValueError traceback, the census -n 1001
        # error line was 1,814 bytes long, and the count was multiplied out
        # in full before the refusal.
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1
        assert code == status and "Traceback" not in err
        lines = (out + err).splitlines()
        assert lines and all(len(line) < 200 for line in lines)
        if status:
            assert out == "" and re.fullmatch(
                r"error: n=\d+: (its axes have|axis 1 has) about \d\.\d\de\d+ matchings, "
                r"too many to build \(the limit is 135,135, reached at n=1[35]\)\n",
                err,
            )
        else:
            assert lines[-1].endswith("matchings/axis=about 9.55e4300")
            assert "n=17  pairs/axis=8  total pairs=136  matchings/axis=2027025" in lines

    def test_unwritable_output(self, capsys, tmp_path):
        target = tmp_path / "missing" / "x.csv"
        code, out, err = run(capsys, "census", "-n", "5", "-o", str(target))
        assert code == 1
        assert out == ""
        assert err == f"error: cannot write {target}: No such file or directory\n"

    @pytest.mark.parametrize("name", ["s.txt", ""], ids=["missing", "directory"])
    def test_missing_scheme_file(self, capsys, tmp_path, name):
        path = str(tmp_path / name)
        code, out, err = run(capsys, "tensor", "--scheme", path)
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: no file {path!r}, and not scheme text:")

    @pytest.mark.parametrize(
        "text",
        ["²3 / 13 / 12", "n=3\n1: 2-³\n2: 1-3\n3: 1-2", "n=²\n1: 2-3\n2: 1-3\n3: 1-2"],
        ids=["compact", "pair", "header"],
    )
    def test_superscript_digits(self, text):
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(oddcross.__file__)))
        proc = subprocess.run(
            [sys.executable, "-m", "oddcross.cli", "verify", "--scheme", text],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1

    def test_non_utf8_scheme_file(self, capsys, tmp_path):
        path = tmp_path / "s.txt"
        path.write_bytes(b"\xff\xfen=3\n1: 2-3\n2: 1-3\n3: 1-2\n")
        code, out, err = run(capsys, "verify", "--scheme", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: {str(path)!r} is not UTF-8 text:")

    @pytest.mark.parametrize(
        "argv,lines_read",
        [
            # `| head -1`: the output is larger than a pipe buffer, so the
            # writer is still writing when the reader leaves.
            (["census", "-n", "7"], 1),
            (["enumerate", "-n", "7"], 1),
            # `| true`: the output fits stdout's buffer, so the first write
            # is the final flush.
            (["census", "-n", "7", "--limit", "50"], 0),
        ],
    )
    def test_reader_closes_pipe(self, argv, lines_read):
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = os.path.dirname(os.path.dirname(oddcross.__file__))
        proc = subprocess.Popen(
            [sys.executable, "-m", "oddcross.cli", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        for _ in range(lines_read):
            assert proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1
        assert b"Traceback" not in err
        assert b"Exception ignored" not in err
