import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oddcross import (
    DimensionMismatchError,
    IndexRangeError,
    OddCrossError,
    Pair,
    SelfPairError,
    StructureTensor,
    TensorEntry,
    TensorValidationError,
    build_tensor,
    dot,
    enumerate_schemes,
    orient_pair,
    pair_determinant,
)


def unit(n, k):
    return tuple(int(i == k) for i in range(1, n + 1))


def int_vec(n):
    return st.tuples(*[st.integers(-9, 9)] * n)


class TestOrientPair:
    @pytest.mark.parametrize(
        "pair,axis,expected",
        [
            ((1, 3), 2, (3, 1)),
            ((2, 4), 1, (2, 4)),
            ((4, 5), 2, (4, 5)),
            ((1, 2), 3, (1, 2)),
        ],
    )
    def test_examples(self, pair, axis, expected):
        assert orient_pair(Pair(*pair), axis) == expected

    def test_axis_collision(self):
        with pytest.raises(SelfPairError):
            orient_pair(Pair(1, 3), 1)

    def test_even_permutation_property(self):
        # (first, second, axis) must sort back to ascending in an even
        # number of transpositions.
        def parity(triple):
            seq = list(triple)
            swaps = 0
            for i in range(len(seq)):
                while seq[i] != sorted(triple)[i]:
                    j = seq.index(sorted(triple)[i], i + 1)
                    seq[i], seq[j] = seq[j], seq[i]
                    swaps += 1
            return swaps % 2

        for lo in range(1, 8):
            for hi in range(lo + 1, 8):
                for axis in range(1, 8):
                    if axis in (lo, hi):
                        continue
                    first, second = orient_pair(Pair(lo, hi), axis)
                    assert {first, second} == {lo, hi}
                    assert parity((first, second, axis)) == 0


class TestBuildTensor:
    def test_row3_entries(self, tensor5_row3):
        assert tensor5_row3.lookup(2, 4) == TensorEntry(1, 1)
        assert tensor5_row3.lookup(4, 2) == TensorEntry(1, -1)
        assert tensor5_row3.lookup(3, 5) == TensorEntry(1, 1)

    def test_row11_entries(self, tensor7_row11):
        assert tensor7_row11.lookup(5, 2) == TensorEntry(3, 1)
        assert tensor7_row11.lookup(1, 5) == TensorEntry(6, 1)

    def test_3d_levi_civita(self, tensor3):
        assert tensor3.lookup(1, 2) == TensorEntry(3, 1)
        assert tensor3.lookup(2, 1) == TensorEntry(3, -1)
        assert tensor3.lookup(2, 3) == TensorEntry(1, 1)
        assert tensor3.lookup(3, 1) == TensorEntry(2, 1)

    def test_diagonal_is_zero(self, tensor5_row3):
        assert tensor5_row3.lookup(2, 2) is None

    def test_lookup_out_of_range(self, tensor5_row3):
        with pytest.raises(IndexError):
            tensor5_row3.lookup(0, 2)
        with pytest.raises(IndexError):
            tensor5_row3.lookup(1, 6)
        with pytest.raises(OddCrossError) as info:
            tensor5_row3.lookup(6, 1)
        assert isinstance(info.value, IndexRangeError)

    def test_antisymmetry_and_entry_count(self, dim5):
        for scheme in enumerate_schemes(dim5):
            tensor = build_tensor(scheme)
            entries = list(tensor.entries())
            assert len(entries) == dim5.pair_count
            for i, j, k, s in entries:
                assert s in (-1, 1)
                assert k not in (i, j)
                assert tensor.lookup(j, i) == TensorEntry(k, -s)


class TestCross:
    def test_basis_product_5d(self, tensor5_row3):
        assert tensor5_row3.cross(unit(5, 1), unit(5, 2)) == list(unit(5, 5))

    def test_worked_example_5d(self, tensor5_row3):
        a = (0, 1, 1, 0, 0)
        b = (0, 0, 0, 1, 1)
        assert tensor5_row3.cross(a, b) == [2, 0, -1, 0, 1]

    def test_classical_3d(self, tensor3):
        assert tensor3.cross((1, 0, 0), (0, 1, 0)) == [0, 0, 1]

    def test_3d_reduction_random(self, tensor3):
        rng = random.Random(7)
        for _ in range(100):
            a = [rng.randint(-9, 9) for _ in range(3)]
            b = [rng.randint(-9, 9) for _ in range(3)]
            classical = [
                a[1] * b[2] - a[2] * b[1],
                a[2] * b[0] - a[0] * b[2],
                a[0] * b[1] - a[1] * b[0],
            ]
            assert tensor3.cross(a, b) == classical

    def test_basis_completeness(self, tensor7_row11):
        n = 7
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if i == j:
                    continue
                result = tensor7_row11.cross(unit(n, i), unit(n, j))
                assert sorted(abs(c) for c in result) == [0] * (n - 1) + [1]

    def test_dimension_mismatch(self, tensor5_row3):
        with pytest.raises(DimensionMismatchError):
            tensor5_row3.cross((1, 0, 0), (0, 1, 0, 0, 0))

    def test_row3_matches_determinant_expansion(self, tensor5_row3):
        # Hand expansion for this scheme: each component is a sum of two
        # oriented 2x2 determinants.
        def det(a, b, i, j):
            return a[i - 1] * b[j - 1] - a[j - 1] * b[i - 1]

        rng = random.Random(11)
        for _ in range(100):
            a = [rng.randint(-9, 9) for _ in range(5)]
            b = [rng.randint(-9, 9) for _ in range(5)]
            expected = [
                det(a, b, 2, 4) + det(a, b, 3, 5),
                det(a, b, 3, 1) + det(a, b, 4, 5),
                det(a, b, 4, 1) + det(a, b, 5, 2),
                det(a, b, 2, 3) + det(a, b, 5, 1),
                det(a, b, 1, 2) + det(a, b, 3, 4),
            ]
            assert tensor5_row3.cross(a, b) == expected

    def test_row11_matches_determinant_expansion(self, tensor7_row11):
        def det(a, b, i, j):
            return a[i - 1] * b[j - 1] - a[j - 1] * b[i - 1]

        rng = random.Random(13)
        for _ in range(100):
            a = [rng.randint(-9, 9) for _ in range(7)]
            b = [rng.randint(-9, 9) for _ in range(7)]
            expected = [
                det(a, b, 2, 4) + det(a, b, 3, 7) + det(a, b, 5, 6),
                det(a, b, 4, 1) + det(a, b, 3, 5) + det(a, b, 6, 7),
                det(a, b, 7, 1) + det(a, b, 5, 2) + det(a, b, 4, 6),
                det(a, b, 1, 2) + det(a, b, 6, 3) + det(a, b, 5, 7),
                det(a, b, 6, 1) + det(a, b, 2, 3) + det(a, b, 7, 4),
                det(a, b, 1, 5) + det(a, b, 7, 2) + det(a, b, 3, 4),
                det(a, b, 1, 3) + det(a, b, 2, 6) + det(a, b, 4, 5),
            ]
            assert tensor7_row11.cross(a, b) == expected

    @given(a=int_vec(5), b=int_vec(5))
    def test_antisymmetry(self, tensor5_row3, a, b):
        ab = tensor5_row3.cross(a, b)
        ba = tensor5_row3.cross(b, a)
        assert all(x == -y for x, y in zip(ab, ba))

    @settings(max_examples=50)
    @given(a=int_vec(5), a2=int_vec(5), b=int_vec(5), s=st.integers(-6, 6), t=st.integers(-6, 6))
    def test_bilinearity(self, tensor5_row3, a, a2, b, s, t):
        lhs = tensor5_row3.cross([s * x + t * y for x, y in zip(a, a2)], b)
        r1 = tensor5_row3.cross(a, b)
        r2 = tensor5_row3.cross(a2, b)
        assert lhs == [s * x + t * y for x, y in zip(r1, r2)]

    def test_float_vectors(self, tensor5_row3):
        a = (0.5, 1.0, 0.0, -2.0, 0.0)
        b = (1.0, 0.0, 3.0, 0.0, 0.25)
        got = tensor5_row3.cross(a, b)
        # same numbers via the determinant expansion
        def det(i, j):
            return a[i - 1] * b[j - 1] - a[j - 1] * b[i - 1]
        expected = [
            det(2, 4) + det(3, 5),
            det(3, 1) + det(4, 5),
            det(4, 1) + det(5, 2),
            det(2, 3) + det(5, 1),
            det(1, 2) + det(3, 4),
        ]
        assert got == pytest.approx(expected, abs=1e-12)


class TestPairDeterminant:
    def test_worked_example(self):
        a = (0, 1, 1, 0, 0)
        b = (0, 0, 0, 1, 1)
        assert pair_determinant(a, b, 2, 4) == 1
        assert pair_determinant(a, b, 3, 5) == 1
        assert pair_determinant(a, b, 5, 2) == -1

    def test_repeated_index_is_zero(self):
        a = (3, 1, 4, 1, 5)
        b = (2, 7, 1, 8, 2)
        assert pair_determinant(a, b, 4, 4) == 0

    def test_unit_vectors(self):
        assert pair_determinant((1, 0), (0, 1), 1, 2) == 1

    def test_antisymmetric_in_indices(self):
        a = (3, -1, 4, 1, -5)
        b = (2, 7, -1, 8, 2)
        for i in range(1, 6):
            for j in range(1, 6):
                assert pair_determinant(a, b, i, j) == -pair_determinant(a, b, j, i)

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            pair_determinant((1, 2), (3, 4), 1, 3)
        with pytest.raises(OddCrossError) as info:
            pair_determinant((1, 2), (3, 4), 0, 1)
        assert isinstance(info.value, IndexRangeError)


class TestDot:
    def test_lengths_must_match(self):
        assert dot((1, 2, 3), (4, 5, 6)) == 32
        with pytest.raises(DimensionMismatchError, match="3 and 2"):
            dot((1, 2, 3), (4, 5))


class TestTensorValidation:
    # Slots are in pair_index order; for n=5: 1-2 -> 0, 1-3 -> 1, 1-4 -> 2.
    def arrays(self, tensor):
        target, sign = tensor.pair_arrays()
        return tensor.dim, target, sign

    def test_scheme_tensor_accepted(self, tensor5_row3):
        dim, target, sign = self.arrays(tensor5_row3)
        assert StructureTensor(dim, target, sign) == tensor5_row3

    def test_negative_target(self, tensor5_row3):
        dim, target, sign = self.arrays(tensor5_row3)
        target[0] = -1
        with pytest.raises(TensorValidationError, match="targets axis 0"):
            StructureTensor(dim, target, sign)

    def test_target_collides_with_pair(self, tensor5_row3):
        dim, target, sign = self.arrays(tensor5_row3)
        target[0] = 1  # e1 x e2 -> e2
        with pytest.raises(TensorValidationError, match="other than 1 and 2"):
            StructureTensor(dim, target, sign)

    def test_wrong_length(self, tensor5_row3):
        dim, target, sign = self.arrays(tensor5_row3)
        with pytest.raises(TensorValidationError, match="10 entries"):
            StructureTensor(dim, target[:-1], sign[:-1])

    def test_sign_not_unit(self, tensor5_row3):
        dim, target, sign = self.arrays(tensor5_row3)
        sign[0] = 2
        with pytest.raises(TensorValidationError, match="sign 2"):
            StructureTensor(dim, target, sign)

    @pytest.mark.parametrize("field", ["target", "sign"])
    def test_float_entry(self, tensor5_row3, field):
        # A float target used to raise a bare TypeError, and a float sign
        # 1.0 was accepted.
        dim, target, sign = self.arrays(tensor5_row3)
        values = target if field == "target" else sign
        values[1] = float(values[1])
        with pytest.raises(TensorValidationError, match=r"entry \(1, 3\).*need ints"):
            StructureTensor(dim, target, sign)

    def test_int_like_entries_stored_as_int(self, tensor5_row3):
        dim, target, sign = self.arrays(tensor5_row3)
        tensor = StructureTensor(dim, [Index(k) for k in target], [Index(s) for s in sign])
        assert tensor == tensor5_row3
        assert all(type(x) is int for x in sum(tensor.pair_arrays(), []))

    def test_axis_pairs_overlap(self, tensor5_row3):
        # Row 3 puts 1-3 on axis 2; moving 1-4 there too (from axis 3)
        # gives axis 2 two pairs that share index 1.
        dim, target, sign = self.arrays(tensor5_row3)
        assert tensor5_row3.lookup(1, 3).axis == 2
        target[2] = 1
        with pytest.raises(TensorValidationError, match="sharing an index"):
            StructureTensor(dim, target, sign)

    def test_error_is_typed(self):
        assert issubclass(TensorValidationError, OddCrossError)


class Index:
    """An int-like value that is not an int, as numpy integers are."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value
