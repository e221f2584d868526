from oddcross import axis_matchings, enumerate_schemes, feasible_dimension, is_closed
from oddcross.reference import (
    reference_axis_pairings,
    reference_schemes,
    reproduce_tables,
)


def test_reference_pairings_5d_complete():
    ref = reference_axis_pairings(5)
    dim = feasible_dimension(5)
    for axis in range(1, 6):
        assert len(ref[axis]) == 3
        assert set(ref[axis]) == set(axis_matchings(dim, axis))


def test_reference_pairings_7d_complete():
    ref = reference_axis_pairings(7)
    dim = feasible_dimension(7)
    for axis in range(1, 8):
        assert len(ref[axis]) == 15
        assert set(ref[axis]) == set(axis_matchings(dim, axis))


def test_reference_schemes_5d():
    ref = reference_schemes(5)
    assert len(ref) == 6
    assert set(ref) == set(enumerate_schemes(feasible_dimension(5)))


def test_reference_schemes_7d_are_the_closed_ones():
    ref = reference_schemes(7)
    assert len(ref) == 30
    assert len(set(ref)) == 30
    closed = {s for s in enumerate_schemes(feasible_dimension(7)) if is_closed(s)}
    assert set(ref) == closed


def test_reproduce_tables_passes():
    report, ok = reproduce_tables()
    assert ok
    assert report.count("PASS") == 5
    assert "FAIL" not in report
