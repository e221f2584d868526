"""Acceptance suite: every exit criterion, one test each, exact tolerances.

Each test prints one "acceptance NN PASS" line on success (run pytest with
-s or check the captured output); a failure shows up as an ordinary pytest
failure for that criterion.
"""

import itertools
import random
import time

import pytest

from oddcross import (
    axis_matchings,
    build_tensor,
    census,
    enumerate_schemes,
    feasible_dimension,
    find_witness,
    is_closed,
    orthogonality_defect,
    parse_scheme_text,
    xab_direct,
    xab_pairs,
    xab_tensor,
)
from oddcross.cli import main
from oddcross.verify import classify_tensor
from oddcross.reference import reference_axis_pairings, reference_schemes


@pytest.fixture
def report(capsys):
    def emit(num, message):
        with capsys.disabled():
            print(f"acceptance {num:02d} PASS: {message}")

    return emit


def count_labeled_triple_systems(n):
    """Independent oracle: count Steiner triple systems on n labeled points
    by direct backtracking over pair coverage (no scheme machinery)."""
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    covered = set()
    total = 0

    def extend():
        nonlocal total
        free = next((p for p in pairs if p not in covered), None)
        if free is None:
            total += 1
            return
        a, b = free
        for c in range(1, n + 1):
            if c in (a, b):
                continue
            p2 = (a, c) if a < c else (c, a)
            p3 = (b, c) if b < c else (c, b)
            if p2 in covered or p3 in covered:
                continue
            covered.update((free, p2, p3))
            extend()
            covered.difference_update((free, p2, p3))

    extend()
    return total


def test_criterion_01_matching_counts_and_content(report):
    start = time.perf_counter()
    for n, per_axis in ((5, 3), (7, 15)):
        dim = feasible_dimension(n)
        reference = reference_axis_pairings(n)
        for axis in range(1, n + 1):
            computed = axis_matchings(dim, axis)
            assert len(computed) == per_axis
            assert {m.pairs for m in computed} == set(reference[axis])
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(1, f"3 and 15 matchings per axis, reference content matched ({elapsed:.2f}s)")


def test_criterion_02_scheme_counts(report):
    assert sum(1 for _ in enumerate_schemes(feasible_dimension(3))) == 1

    five = set(enumerate_schemes(feasible_dimension(5)))
    assert len(five) == 6
    assert five == set(reference_schemes(5))

    start = time.perf_counter()
    seven = sum(1 for _ in enumerate_schemes(feasible_dimension(7)))
    elapsed = time.perf_counter() - start
    assert seven == 6240
    assert elapsed < 10.0
    report(2, f"1 / 6 / 6240 schemes; 7d enumeration took {elapsed:.2f}s")


def test_criterion_03_reference_7d_membership_and_identity_rows(report):
    ref = reference_schemes(7)
    assert len(ref) == 30
    stream = set(enumerate_schemes(feasible_dimension(7)))
    assert all(s in stream for s in ref)
    for row in (11, 20):
        assert classify_tensor(build_tensor(ref[row - 1]))[1], f"row {row}"
    report(3, "all 30 reference rows enumerated; rows 11 and 20 satisfy the identity")


def test_criterion_04_negative_classification_with_witness(report):
    row2 = reference_schemes(7)[1]
    tensor = build_tensor(row2)
    assert not classify_tensor(tensor)[1]
    witness = find_witness(tensor, row2, seed=0)
    assert witness is not None
    a, b = witness
    assert all(-2 <= x <= 2 for x in a + b)
    value = xab_direct(tensor, a, b)
    assert value != 0

    for scheme in enumerate_schemes(feasible_dimension(5)):
        assert not classify_tensor(build_tensor(scheme))[1]
    report(4, f"7d row 2 nonzero with witness (X_AB={value}); all six 5d schemes nonzero")


def test_criterion_05_worked_5d_example(report):
    scheme = parse_scheme_text("24 35 / 13 45 / 14 25 / 15 23 / 12 34", 5)
    tensor = build_tensor(scheme)
    a = (0, 1, 1, 0, 0)
    b = (0, 0, 0, 1, 1)
    assert tensor.cross(a, b) == [2, 0, -1, 0, 1]
    assert xab_direct(tensor, a, b) == 2
    assert xab_tensor(tensor, a, b) == 2
    assert xab_pairs(tensor, a, b, scheme) == 2
    report(5, "A x B = 2*e1 - e3 + e5 and X_AB = 2 by all three routes")


def test_criterion_06_path_equivalence_property_suite(report):
    rng = random.Random(2024)
    triples = 0
    for n, rounds in ((3, 100), (5, 60), (7, 40)):
        dim = feasible_dimension(n)
        schemes = list(enumerate_schemes(dim))
        picks = rng.sample(schemes, min(len(schemes), 15))
        for scheme in picks:
            tensor = build_tensor(scheme)
            for _ in range(rounds):
                a = tuple(rng.randint(-6, 6) for _ in range(n))
                b = tuple(rng.randint(-6, 6) for _ in range(n))
                direct = xab_direct(tensor, a, b)
                assert xab_tensor(tensor, a, b) == direct
                assert xab_pairs(tensor, a, b, scheme) == direct

                ab = tensor.cross(a, b)
                assert tensor.cross(b, a) == [-x for x in ab]

                s, t = rng.randint(-4, 4), rng.randint(-4, 4)
                a2 = tuple(rng.randint(-6, 6) for _ in range(n))
                mixed = tensor.cross(
                    [s * x + t * y for x, y in zip(a, a2)], b
                )
                r2 = tensor.cross(a2, b)
                assert mixed == [s * x + t * y for x, y in zip(ab, r2)]
                triples += 1
    assert triples >= 1000
    report(6, f"{triples} random (scheme, A, B) triples: three routes equal, "
              "antisymmetry and bilinearity exact")


def test_criterion_07_orthogonality_census(report):
    closed_counts = {}
    for n in (3, 5, 7):
        dim = feasible_dimension(n)
        records = list(census(dim))
        schemes = list(enumerate_schemes(dim))
        assert len(records) == len(schemes)
        for rec, scheme in zip(records, schemes):
            assert rec.closed == is_closed(scheme)
            assert rec.orthogonality_zero == rec.closed
        closed_counts[n] = sum(r.closed for r in records)
    assert closed_counts == {3: 1, 5: 0, 7: 30}
    assert count_labeled_triple_systems(7) == 30
    assert count_labeled_triple_systems(5) == 0
    report(7, "orthogonality_zero <=> closed everywhere; closed counts 1/0/30 "
              "match the independent triple-system count")


def test_criterion_08_3d_reduction(report):
    scheme = parse_scheme_text("n=3\n1: 2-3\n2: 1-3\n3: 1-2")
    tensor = build_tensor(scheme)
    rng = random.Random(99)
    for _ in range(100):
        a = [rng.randint(-9, 9) for _ in range(3)]
        b = [rng.randint(-9, 9) for _ in range(3)]
        classical = [
            a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0],
        ]
        assert tensor.cross(a, b) == classical
        assert orthogonality_defect(tensor, a, b) == (0, 0)
        assert xab_direct(tensor, a, b) == 0
    report(8, "3d tensor reproduces the classical product with zero defects")


def test_criterion_09_documented_5d_discrepancy(report):
    scheme = parse_scheme_text("24 35 / 13 45 / 14 25 / 15 23 / 12 34", 5)
    tensor = build_tensor(scheme)
    a = (1, 1, 0, 0, 0)  # e1 + e2
    b = (0, 0, 0, 1, 0)  # e4
    assert orthogonality_defect(tensor, a, b) == (1, 0)
    report(9, "5d counterexample: (AxB).A = 1, (AxB).B = 0 for A=e1+e2, B=e4")


def test_criterion_10_census_determinism(report, tmp_path):
    f1, f2, head = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "head.csv"
    assert main(["census", "-n", "7", "-o", str(f1)]) == 0
    assert main(["census", "-n", "7", "-o", str(f2)]) == 0
    assert main(["census", "-n", "7", "--limit", "100", "-o", str(head)]) == 0
    b1 = f1.read_bytes()
    assert b1 == f2.read_bytes()
    lines = b1.splitlines(keepends=True)
    assert len(lines) == 6241
    assert head.read_bytes() == b"".join(lines[:101])
    report(10, "census CSV byte-identical across runs (6240 records); --limit 100 is its head")
