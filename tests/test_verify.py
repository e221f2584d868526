import csv
import io
import itertools
import random
from fractions import Fraction

import pytest
from conftest import random_branch
from expansion_oracle import (
    EVEN_PATTERNS,
    PATTERNS,
    classify_product_table,
    decoded_witness,
    field_value,
    matching_masks_one_field_at_a_time,
    off_pattern,
    pattern_answers,
    planes_of_fields,
    probe_values,
    verdict_two_tests,
    xab_dense,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from oddcross import (
    CensusRecord,
    DimensionMismatchError,
    SchemeTensorMismatchError,
    StructureTensor,
    branch_scheme,
    build_tensor,
    census,
    defect_report,
    enumerate_schemes,
    feasible_dimension,
    find_witness,
    format_witness,
    is_closed,
    orthogonality_defect,
    parse_scheme_text,
    write_census_csv,
    xab_direct,
    xab_pairs,
    xab_tensor,
)
from oddcross.kernels import enumerate_covers
from oddcross.reference import reference_schemes
from oddcross.verify import (
    _field_value,
    _layout,
    _matching_masks,
    _verdict,
    classify_tensor,
    tensor_verdict,
)
from oddcross.schemes import _axis_choice_masks, pair_index, scheme_branches


def unit(n, k):
    return tuple(int(i == k) for i in range(1, n + 1))


def rand_vec(rng, n, lo=-5, hi=5):
    return tuple(rng.randint(lo, hi) for _ in range(n))


def assert_routes_agree(tensor, a, b, scheme=None):
    """The sparse ``xab_tensor`` and ``xab_direct`` (and ``xab_pairs`` when
    the scheme is given) equal the dense n^4 contraction; returns it."""
    dense = xab_dense(tensor, a, b)
    assert xab_tensor(tensor, a, b) == dense
    assert xab_direct(tensor, a, b) == dense
    if scheme is not None:
        assert xab_pairs(tensor, a, b, scheme) == dense
    return dense


class TestDefects:
    def test_5d_counterexample(self, tensor5_row3):
        a = (1, 1, 0, 0, 0)  # e1 + e2
        b = (0, 0, 0, 1, 0)  # e4
        assert tensor5_row3.cross(a, b) == [1, 0, -1, 0, 0]
        assert orthogonality_defect(tensor5_row3, a, b) == (1, 0)

    def test_closed_7d_scheme_has_no_defect(self, tensor7_row11):
        rng = random.Random(3)
        for _ in range(50):
            a, b = rand_vec(rng, 7), rand_vec(rng, 7)
            assert orthogonality_defect(tensor7_row11, a, b) == (0, 0)

    def test_basis_vectors_always_orthogonal(self, tensor5_row3):
        for i in range(1, 6):
            for j in range(1, 6):
                if i != j:
                    d = orthogonality_defect(tensor5_row3, unit(5, i), unit(5, j))
                    assert d == (0, 0)

    def test_dimension_mismatch(self, tensor5_row3):
        with pytest.raises(DimensionMismatchError):
            orthogonality_defect(tensor5_row3, (1, 0, 0), (0, 1, 0, 0, 0))


class TestXabRoutes:
    def test_worked_example(self, scheme5_row3, tensor5_row3):
        a = (0, 1, 1, 0, 0)
        b = (0, 0, 0, 1, 1)
        assert xab_direct(tensor5_row3, a, b) == 2
        assert xab_tensor(tensor5_row3, a, b) == 2
        assert xab_pairs(tensor5_row3, a, b, scheme5_row3) == 2

    def test_closed_7d_scheme_zero(self, scheme7_row11, tensor7_row11):
        rng = random.Random(5)
        for _ in range(30):
            a, b = rand_vec(rng, 7), rand_vec(rng, 7)
            assert xab_direct(tensor7_row11, a, b) == 0
            assert xab_tensor(tensor7_row11, a, b) == 0
            assert xab_pairs(tensor7_row11, a, b, scheme7_row11) == 0

    def test_basis_pairs_zero(self, tensor5_row3):
        # i == j included: there the two delta terms of chi cancel.
        for i in range(1, 6):
            for j in range(1, 6):
                assert assert_routes_agree(tensor5_row3, unit(5, i), unit(5, j)) == 0

    def test_path_equivalence_random_schemes(self):
        rng = random.Random(123)
        for n in (3, 5, 7, 9):
            dim = feasible_dimension(n)
            if n < 7:
                picks = list(enumerate_schemes(dim))
            else:
                picks = [branch_scheme(dim, random_branch(n, rng)) for _ in range(25)]
            for scheme in picks:
                tensor = build_tensor(scheme)
                for _ in range(5):
                    assert_routes_agree(tensor, rand_vec(rng, n), rand_vec(rng, n), scheme)

    @pytest.mark.parametrize("n", [3, 5, 7, 9])
    def test_fraction_paths_agree(self, n):
        # Exact rationals: a slip in any term shows as a nonzero difference.
        rng = random.Random(200 + n)
        dim = feasible_dimension(n)
        for _ in range(6):
            scheme = branch_scheme(dim, random_branch(n, rng))
            a, b = (
                [Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(n)]
                for _ in range(2)
            )
            assert_routes_agree(build_tensor(scheme), a, b, scheme)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_routes_agree_with_arbitrary_signs(self, data):
        # Any signs, integer and Fraction entries mixed; the pair route
        # needs the canonical signs, so only the other two routes run.
        n = data.draw(st.sampled_from([3, 5, 7, 9]))
        rng = data.draw(st.randoms(use_true_random=False))
        dim = feasible_dimension(n)
        target, sign = map(list, build_tensor(branch_scheme(dim, random_branch(n, rng))).slots)
        for p in range(len(sign)):
            if rng.random() < 0.3:
                sign[p] = -sign[p]
        tensor = StructureTensor(dim, target, sign)
        entry = st.integers(-5, 5) | st.fractions(-3, 3, max_denominator=6)
        a, b = (data.draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(2))
        assert_routes_agree(tensor, a, b)

    def test_scaling_covariance(self, tensor5_row3):
        rng = random.Random(17)
        for _ in range(25):
            a, b = rand_vec(rng, 5), rand_vec(rng, 5)
            s, t = rng.randint(-4, 4), rng.randint(-4, 4)
            scaled = xab_direct(
                tensor5_row3, [s * x for x in a], [t * y for y in b]
            )
            assert scaled == s * s * t * t * xab_direct(tensor5_row3, a, b)

    def test_float_paths_agree(self, scheme5_row3, tensor5_row3):
        rng = random.Random(19)
        for _ in range(20):
            a = [rng.uniform(-1, 1) for _ in range(5)]
            b = [rng.uniform(-1, 1) for _ in range(5)]
            report = defect_report(scheme5_row3, a, b, tensor=tensor5_row3)
            routes = (report.xab_direct, report.xab_tensor, report.xab_pairs)
            assert max(routes) - min(routes) <= 1e-9

    def test_defect_report_crosses_once(self, monkeypatch, scheme7_row2, tensor7_row2):
        a, b = (1, -2, 0, 3, 1, 0, 2), (0, 1, 4, -1, 2, 1, 0)
        expected = (*orthogonality_defect(tensor7_row2, a, b), xab_direct(tensor7_row2, a, b))
        calls = []
        cross = StructureTensor.cross

        def counted(self, *args):
            calls.append(args)
            return cross(self, *args)

        monkeypatch.setattr(StructureTensor, "cross", counted)
        report = defect_report(scheme7_row2, a, b, tensor=tensor7_row2)
        assert calls == [(a, b)]
        assert (report.dot_with_a, report.dot_with_b, report.xab_direct) == expected
        assert report.xab_direct == report.xab_tensor == report.xab_pairs != 0

    def test_pairs_requires_matching_scheme(
        self, tensor7_row11, scheme7_row2, tensor5_row3, scheme5_row3
    ):
        a, b = unit(7, 1), unit(7, 2)
        with pytest.raises(SchemeTensorMismatchError):
            xab_pairs(tensor7_row11, a, b, scheme7_row2)
        # Same axes, but pair 1-2 has the opposite sign: for these vectors the
        # pair route would answer -6 where the direct and tensor routes give -2.
        target, sign = map(list, tensor5_row3.slots)
        p = pair_index(5, (1, 2))
        sign[p] = -sign[p]
        flipped = StructureTensor(scheme5_row3.dim, target, sign)
        with pytest.raises(SchemeTensorMismatchError, match="e1 x e2 to -e"):
            xab_pairs(flipped, (0, 1, 1, 0, 1), (1, 1, 0, 1, 0), scheme5_row3)

    def test_pairs_checks_every_tensor_not_holding_the_slots(self, scheme7_row2):
        # An equal copy, with slot tuples of its own, is accepted and agrees
        # with the other two routes; a one-sign flip is refused, and so is a
        # tensor that shares only the scheme's target tuple.
        a, b = (1, -2, 0, 3, 1, 0, 2), (0, 1, 4, -1, 2, 1, 0)
        shared = build_tensor(scheme7_row2)
        copy = StructureTensor(scheme7_row2.dim, *map(list, scheme7_row2.slots))
        assert copy == shared and copy.slots[0] is not scheme7_row2.slots[0]
        expected = xab_direct(copy, a, b)
        assert expected != 0
        assert xab_pairs(copy, a, b, scheme7_row2) == xab_tensor(copy, a, b) == expected
        assert xab_pairs(shared, a, b, scheme7_row2) == expected

        target, sign = map(list, scheme7_row2.slots)
        p = pair_index(7, (1, 2))
        sign[p] = -sign[p]
        flipped = StructureTensor(scheme7_row2.dim, target, sign)
        with pytest.raises(SchemeTensorMismatchError, match="e1 x e2 to -e"):
            xab_pairs(flipped, a, b, scheme7_row2)
        # Sharing one of the two tuples is not enough.
        half = tuple.__new__(
            StructureTensor, (scheme7_row2.dim, scheme7_row2.slots[0], tuple(sign))
        )
        assert half.slots[0] is scheme7_row2.slots[0]
        with pytest.raises(SchemeTensorMismatchError, match="e1 x e2 to -e"):
            xab_pairs(half, a, b, scheme7_row2)

    def test_pairs_requires_matching_dimension(self, tensor5_row3, scheme7_row11):
        with pytest.raises(SchemeTensorMismatchError):
            xab_pairs(tensor5_row3, (0,) * 5, (0,) * 5, scheme7_row11)


class TestIdentityDecisions:
    def test_7d_closed_oriented(self, tensor7_row11):
        assert classify_tensor(tensor7_row11) == (True, True)

    def test_7d_row20(self, scheme7_row20):
        tensor = build_tensor(scheme7_row20)
        assert classify_tensor(tensor) == (True, True)

    def test_7d_row2_fails_magnitude_identity(self, tensor7_row2):
        # closed (so orthogonality holds identically) yet X_AB is nonzero:
        # the two identity-level properties are independent.
        assert classify_tensor(tensor7_row2) == (True, False)

    def test_5d_row3(self, tensor5_row3):
        # L[2,4,1] = +1 but L[1,4,2] = 0 ({1,4} sits on axis 3).
        assert tensor5_row3.lookup(2, 4).axis == 1
        assert tensor5_row3.lookup(1, 4).axis == 3
        assert not classify_tensor(tensor5_row3)[0]

    def test_all_5d_fail_both(self, dim5):
        for scheme in enumerate_schemes(dim5):
            assert classify_tensor(build_tensor(scheme)) == (False, False)

    def test_3d(self, tensor3):
        assert classify_tensor(tensor3) == (True, True)

    def test_identity_sound_against_sampling(self, tensor7_row11, scheme7_row20):
        rng = random.Random(29)
        tensors = [tensor7_row11, build_tensor(scheme7_row20)]
        for tensor in tensors:
            for _ in range(500):
                a, b = rand_vec(rng, 7), rand_vec(rng, 7)
                assert xab_direct(tensor, a, b) == 0

    def test_nonzero_verdict_comes_with_witness(self, scheme7_row2, tensor7_row2):
        witness = find_witness(tensor7_row2, scheme7_row2, seed=0)
        assert witness is not None
        a, b = witness
        assert all(x in (0, 1) for x in a + b)
        assert xab_direct(tensor7_row2, a, b) != 0

    def test_witness_deterministic(self, scheme7_row2, tensor7_row2):
        # Witnesses are constructed, not searched: the seed changes nothing.
        w1 = find_witness(tensor7_row2, scheme7_row2, seed=42)
        w2 = find_witness(tensor7_row2, scheme7_row2, seed=42)
        w3 = find_witness(tensor7_row2, scheme7_row2, seed=43)
        assert w1 == w2 == w3 == find_witness(tensor7_row2, scheme7_row2)

    def test_no_witness_for_zero_verdict(self, scheme7_row11, tensor7_row11):
        assert find_witness(tensor7_row11, scheme7_row11) is None


class TestPluckerCriterion:
    """The mask classifier against the exact coefficient expansion."""

    @pytest.mark.parametrize("n", [3, 5, 7, 9, 11])
    def test_matching_masks_match_one_bit_at_a_time(self, n):
        assert _matching_masks(n) == matching_masks_one_field_at_a_time(n)

    @pytest.mark.parametrize("n", [3, 5, 7])
    def test_census_matches_expansion_oracle(self, n):
        dim = feasible_dimension(n)
        for rec, scheme in zip(census(dim), enumerate_schemes(dim)):
            tensor = build_tensor(scheme)
            ortho, xab = classify_product_table(tensor)
            assert rec.closed == is_closed(scheme)
            assert (rec.orthogonality_zero, rec.xab_zero) == (ortho, xab)
            assert classify_tensor(tensor) == (ortho, xab)

    @pytest.mark.parametrize("n", [5, 7])
    def test_every_nonzero_scheme_gets_a_witness(self, n):
        dim = feasible_dimension(n)
        for rec, scheme in zip(census(dim), enumerate_schemes(dim)):
            tensor = build_tensor(scheme)
            verdict = (rec.closed, rec.orthogonality_zero, rec.xab_zero, rec.witness)
            assert tensor_verdict(tensor) == verdict
            if rec.xab_zero:
                assert rec.witness is None
                continue
            a, b = rec.witness
            assert set(a + b) <= {0, 1}
            assert xab_direct(tensor, a, b) != 0
            assert rec.witness == find_witness(tensor, scheme)

    @settings(max_examples=40, deadline=None)
    @given(rng=st.randoms(use_true_random=False))
    def test_random_n9_branches(self, rng):
        dim = feasible_dimension(9)
        branch = random_branch(9, rng)
        scheme = branch_scheme(dim, branch)
        tensor = build_tensor(scheme)
        ortho, xab = classify_product_table(tensor)
        # The census's row for this branch: its summed verdict mask, looked
        # up among the tails below its first n-2 picks and walked as a whole
        # prefix, and the verdict of that mask.
        choice_masks, labels = _axis_choice_masks(9), _matching_masks(9)
        head = branch[:-2]
        tails = dict(
            zip(enumerate_covers(choice_masks, head), enumerate_covers(choice_masks, head, labels))
        )
        mask = tails[branch]
        assert list(enumerate_covers(choice_masks, branch, labels)) == [mask]
        closed, ortho_zero, xab_zero, witness = _verdict(_layout(9), mask)
        assert closed == is_closed(scheme)
        assert ortho_zero == ortho
        assert xab_zero == xab
        assert classify_tensor(tensor) == (ortho, xab)
        assert witness == find_witness(tensor, scheme)
        if not xab:
            assert xab_direct(tensor, *witness) != 0

    @pytest.mark.parametrize("k", list(itertools.product((-1, 0, 1), repeat=3)))
    def test_split_coefficient_rule(self, k):
        # Split coefficients k alone at 4-subset t, for every t of n=5 and
        # n=7 and the last t of n=9 (where q=126 and r=84 differ): bad
        # exactly when k is neither all 0 nor +-(1, -1, 1), and then the
        # witness that ``_verdict`` looks up is the one the bit-by-bit
        # decoding oracle gives, and X_AB on it is nonzero by the 4-subset
        # formula (only t's splits are covered).
        breaking = k not in EVEN_PATTERNS
        for n in (5, 7, 9):
            layout = _layout(n)
            q = layout.q
            # 16 field values, less 0 (no plane) and 36 (both of +-(1, -1, 1)).
            assert sum(p is not None for p in layout.first_probe) == 14
            if n == 9:
                assert (q, layout.r) == (126, 84)
            quads = list(itertools.combinations(range(n), 4))
            for t in range(q) if n < 9 else [q - 1]:
                mask = field_value(k) << 6 * t
                _, _, xab_zero, witness = _verdict(layout, mask)
                assert xab_zero != breaking
                if not breaking:
                    assert witness is None
                    continue
                splits = planes_of_fields(mask, 0, q)
                off = off_pattern(splits, q)[1]
                assert off == 1 << t
                assert witness == decoded_witness(layout, splits, off)
                a, b = witness
                assert set(a + b) <= {0, 1}
                assert not any(a[i] or b[i] for i in range(n) if i not in quads[t])
                w, x, y, z = quads[t]

                def det(i, j):
                    return a[i] * b[j] - a[j] * b[i]

                x_ab = k[0] * det(w, x) * det(y, z) + k[1] * det(w, y) * det(x, z)
                assert x_ab + k[2] * det(w, z) * det(x, y) != 0

    @pytest.mark.parametrize("k", list(itertools.product((-1, 0, 1), repeat=3)))
    def test_triple_role_rule(self, k):
        # One triple {1,2,3} of n=5 with role signs k (0 = role absent):
        # roles 0, 1, 2 are L[2,3,1], L[1,3,2] and L[1,2,3]. Closed exactly
        # when all roles or none are present; orthogonal exactly when k is
        # all 0 or +-(1, -1, 1), which is total antisymmetry of L on the
        # triple, checked here entry by entry.
        layout = _layout(5)
        mask = field_value(k) << 6 * layout.q  # field q: the first triple
        closed, ortho_zero, xab_zero, witness = _verdict(layout, mask)
        assert closed == (0 not in k or k == (0, 0, 0))
        assert ortho_zero == (k in EVEN_PATTERNS)
        assert (xab_zero, witness) == (True, None)
        entry = {(1, 2, 0): k[0], (0, 2, 1): k[1], (0, 1, 2): k[2]}
        entry.update({(j, i, m): -v for (i, j, m), v in list(entry.items())})
        antisymmetric = all(
            entry.get((m, j, i), 0) == -v and entry.get((i, m, j), 0) == -v
            for (i, j, m), v in entry.items()
        )
        assert ortho_zero == antisymmetric

    @pytest.mark.parametrize("k", PATTERNS)
    def test_field_table(self, k):
        # The field encoding, one pattern at a time (the argument is in
        # ``_verdict``): as a split field and as a triple field, the value
        # fits in 6 bits, the three masked ANDs give the verdict of the
        # original plane test on planes built bit by bit from k, and a
        # breaking value's ``first_probe`` entry is the first probe on which
        # the 4-subset formula is nonzero for k.
        value = _field_value(k)
        assert value == field_value(k)
        assert 0 <= value <= max(map(field_value, PATTERNS)) == 52 < 64
        planes = sum(1 << i for i in range(3) if k[i])  # presence, bits 0..2
        planes += sum(1 << 3 + i for i in range(3) if k[i] < 0)  # sign, bits 3..5
        uneven, off = off_pattern(planes, 1)
        assert (bool(uneven), bool(off)) == pattern_answers(k)[:2]
        for n in (5, 9):
            layout = _layout(n)
            q, r = layout.q, layout.r
            for t in (0, q - 1):
                closed, ortho_zero, xab_zero, witness = _verdict(layout, value << 6 * t)
                assert (closed, ortho_zero, xab_zero) == (True, True, not off)
                assert (witness is None) == (not off)
            for t in (q, q + r - 1):
                verdict = _verdict(layout, value << 6 * t)
                assert verdict == (not uneven, not off, True, None)
        first = _layout(5).first_probe[value]
        if off:
            assert first == pattern_answers(k)[2]
            assert probe_values(k)[first] != 0
        else:
            assert first is None

    @pytest.mark.parametrize(
        "flips",
        [
            # every fully covered 4-subset keeps k0 == k2, some lose k1 == -k0
            ["12", "17", "25", "27", "36", "37", "47", "57", "67"],
            # every fully covered 4-subset keeps k1 == -k0, some lose k2 == k0
            ["13", "14", "15", "16", "24", "35", "36", "45", "46", "47", "57", "67"],
        ],
    )
    def test_sign_flips_that_keep_part_of_the_criterion(self, scheme7_row11, flips):
        # Row 11 has X_AB = 0; these sign flips break it while keeping one of
        # the criterion's conditions on every 4-subset, so a classifier that
        # tests only that condition would still answer zero.
        target, sign = map(list, build_tensor(scheme7_row11).slots)
        for p in (pair_index(7, (int(f[0]), int(f[1]))) for f in flips):
            sign[p] = -sign[p]
        tensor = StructureTensor(scheme7_row11.dim, target, sign)
        assert classify_product_table(tensor) == (False, False)
        assert classify_tensor(tensor) == (False, False)
        assert xab_direct(tensor, *find_witness(tensor, scheme7_row11)) != 0

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_tensor_route_with_arbitrary_signs(self, data):
        # The criterion holds for any signs, not only the canonical ones;
        # orthogonality then no longer follows from closure.
        n = data.draw(st.sampled_from([3, 5, 7]))
        rng = data.draw(st.randoms(use_true_random=False))
        dim = feasible_dimension(n)
        scheme = branch_scheme(dim, random_branch(n, rng))
        target, sign = map(list, build_tensor(scheme).slots)
        for p in range(len(sign)):
            if rng.random() < 0.3:
                sign[p] = -sign[p]
        tensor = StructureTensor(dim, target, sign)
        ortho, xab = classify_product_table(tensor)
        assert classify_tensor(tensor) == (ortho, xab)
        witness = find_witness(tensor, scheme)
        if xab:
            assert witness is None
        else:
            assert xab_direct(tensor, *witness) != 0

    @pytest.mark.parametrize(
        "scheme",
        [parse_scheme_text("n=3\n1: 2-3\n2: 1-3\n3: 1-2")] + reference_schemes(7),
        ids=["n3"] + [f"row{i}" for i in range(1, 31)],
    )
    def test_closed_schemes_with_flipped_signs(self, scheme):
        # Closed schemes whose signs are flipped triple by triple (which
        # keeps total antisymmetry) and then pair by pair (which mostly
        # breaks it): random closed schemes are too rare to check
        # orthogonality under non-canonical signs otherwise.
        n = scheme.dim.n
        rng = random.Random(str(scheme))
        target, canonical = map(list, build_tensor(scheme).slots)
        pairs = list(itertools.combinations(range(n), 2))  # pair_index order
        triples = {frozenset((i, j, k)) for (i, j), k in zip(pairs, target)}

        def flip(i, j):
            p = pairs.index((i, j))
            sign[p] = -sign[p]

        for variant in range(8):
            sign = list(canonical)
            for triple in triples:
                if rng.random() < 0.5:
                    for i, j in itertools.combinations(sorted(triple), 2):
                        flip(i, j)
            whole_triples = variant % 2 == 0
            if not whole_triples:
                for i, j in itertools.combinations(range(n), 2):
                    if rng.random() < 0.15:
                        flip(i, j)
            tensor = StructureTensor(scheme.dim, target, sign)
            ortho, xab = classify_product_table(tensor)
            if whole_triples:
                assert ortho
            assert classify_tensor(tensor) == (ortho, xab)
            closed, ortho_zero, xab_zero, witness = tensor_verdict(tensor)
            assert (closed, ortho_zero, xab_zero) == (True, ortho, xab)
            assert (witness is None) == xab
            if witness is not None:
                assert xab_direct(tensor, *witness) != 0


class TestCensusWalk:
    """The census walk labels each matching with its verdict mask and sums
    them, and ``_verdict`` reads the sum with three masked ANDs."""

    @pytest.mark.parametrize("n,count", [(3, 1), (5, 6), (7, 6240), (9, 20_000)])
    def test_summed_labels_are_the_or_of_the_axis_masks(self, n, count):
        # Every scheme at n <= 7, the first 20,000 at n=9: the walk's sum is
        # the field-by-field sum of the scheme's axis labels, with no field
        # above 63. Each label is also laid out with its 6-bit fields in
        # 12-bit slots, where the n labels of a scheme add without any carry
        # out of a slot; no slot of that sum above 63 means no field sum
        # above 63, and then the field-by-field sum is the plain int sum.
        labels = _matching_masks(n)
        layout = _layout(n)
        fields = layout.q + layout.r
        high = sum(0b111111_000000 << 12 * f for f in range(fields))

        def wide(label):
            assert label >> 6 * fields == 0
            return sum((label >> 6 * f & 63) << 12 * f for f in range(fields))

        wide_labels = [[wide(label) for label in axis_labels] for axis_labels in labels]
        sums = enumerate_covers(_axis_choice_masks(n), labels=labels)
        branches = scheme_branches(feasible_dimension(n), limit=count)
        seen = 0
        for total, branch in zip(sums, branches):
            assert not sum(map(lambda w, c: w[c], wide_labels, branch)) & high
            assert total == sum(map(lambda lab, c: lab[c], labels, branch))
            seen += 1
        assert seen == count

    @pytest.mark.parametrize("n", [3, 5, 7])
    def test_verdict_matches_two_pattern_tests_on_census_masks(self, n):
        layout = _layout(n)
        masks = enumerate_covers(_axis_choice_masks(n), labels=_matching_masks(n))
        for mask in masks:
            assert _verdict(layout, mask) == verdict_two_tests(layout, mask)

    @pytest.mark.parametrize("n", [3, 5, 7, 9])
    def test_verdict_matches_two_pattern_tests_on_random_masks(self, n):
        # Each 4-subset and each triple gets a pattern (k0, k1, k2): all 0,
        # +-(1, -1, 1), or, with probability ``breaking``, any of the 27, so
        # that zero and nonzero verdicts, closed and not, all occur. The
        # oracle decodes each field back to a pattern and runs the original
        # pattern test on planes.
        rng = random.Random(n)
        layout = _layout(n)
        q, r = layout.q, layout.r

        def group(w, breaking):
            fields = 0
            for t in range(w):
                if rng.random() < breaking:
                    k = rng.choice(PATTERNS)
                else:
                    k = rng.choice(EVEN_PATTERNS)
                fields += field_value(k) << 6 * t
            return fields

        verdicts = set()
        for breaking in (0.0, 0.01, 0.1, 0.5):
            for _ in range(100):
                mask = group(q, breaking) + (group(r, breaking) << 6 * q)
                verdict = _verdict(layout, mask)
                assert verdict == verdict_two_tests(layout, mask)
                verdicts.add(verdict[:3])
        # n=3 has no 4-subset (q=0), so its X_AB is always zero.
        assert {(True, True), (True, False), (False, False)} <= {v[:2] for v in verdicts}
        assert {v[2] for v in verdicts} == ({True} if n == 3 else {True, False})


class TestCensus:
    def test_5d_census(self, dim5):
        records = list(census(dim5))
        assert [r.scheme_id for r in records] == [1, 2, 3, 4, 5, 6]
        schemes = list(enumerate_schemes(dim5))
        for rec, scheme in zip(records, schemes):
            assert rec.closed is False
            assert rec.orthogonality_zero is False
            assert rec.xab_zero is False
            a, b = rec.witness
            assert xab_direct(build_tensor(scheme), a, b) != 0

    def test_3d_census(self, dim3):
        (rec,) = list(census(dim3))
        assert rec.closed and rec.orthogonality_zero and rec.xab_zero
        assert rec.witness is None

    def test_limit_prefix_of_full(self, dim7):
        limited = list(census(dim7, limit=10))
        full_first = []
        for rec in census(dim7):
            full_first.append(rec)
            if len(full_first) == 10:
                break
        assert limited == full_first

    def test_limits_give_prefixes_of_the_full_census(self, dim7):
        full = list(census(dim7))
        assert len(full) == 6240
        assert all(type(rec) is CensusRecord for rec in full)
        for k in (1, 2, 7, 100, 3119, 6239, 6240, 6241, 100_000):
            assert list(census(dim7, limit=k)) == full[:k]

    def test_closure_matches_orthogonality(self, dim5, dim7):
        for dim in (dim5, dim7):
            for rec, scheme in zip(census(dim), enumerate_schemes(dim)):
                assert rec.orthogonality_zero == is_closed(scheme)

    def test_csv_shape(self, dim5):
        buf = io.StringIO()
        count = write_census_csv(census(dim5), buf)
        assert count == 6
        lines = buf.getvalue().splitlines()
        assert lines[0] == "scheme_id,closed,orthogonality_zero,xab_zero,witness"
        assert len(lines) == 7
        assert lines[1].startswith("1,false,false,false,")

    def test_csv_byte_deterministic(self, dim7):
        def run(limit=None):
            buf = io.StringIO()
            write_census_csv(census(dim7, limit=limit), buf)
            return buf.getvalue()

        full = run()
        assert full == run()
        lines = full.splitlines(keepends=True)
        assert len(lines) == 6241
        assert run(limit=100) == "".join(lines[:101])

    def test_format_witness(self):
        assert format_witness(None) == ""
        assert format_witness(((1, -2, 0), (0, 1, 2))) == "1,-2,0;0,1,2"


def csv_oracle(records):
    """The census CSV written row by row with a plain ``csv.writer``."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("scheme_id", "closed", "orthogonality_zero", "xab_zero", "witness"))
    for rec in records:
        flags = ("true" if flag else "false" for flag in rec[1:4])
        writer.writerow((rec.scheme_id, *flags, format_witness(rec.witness)))
    return buf.getvalue()


class TestCensusCsv:
    WITNESS = ((1, -2, 0, 10, 0), (0, 1, -13, 2, 100))
    RECORDS = [
        CensusRecord(1, True, True, True),
        CensusRecord(2, False, False, False, WITNESS),
        CensusRecord(3, False, True, False, ((0, 1, 1), (1, 0, 0))),
        CensusRecord(4, False, False, True),  # no witness, other flags than id 1
        # Equal verdicts under other ids: each hits the cached row tail.
        CensusRecord(9_999, False, False, False, WITNESS),
        CensusRecord(10_000, True, True, True, None),
        CensusRecord(123_456, False, False, False, WITNESS),
        # Same flags, another witness: a tail of its own.
        CensusRecord(1_000_000, False, False, False, ((1, 0, 0), (0, 1, 1))),
    ]

    def test_matches_plain_csv_writer(self):
        buf = io.StringIO()
        assert write_census_csv(iter(self.RECORDS), buf) == len(self.RECORDS)
        assert buf.getvalue() == csv_oracle(self.RECORDS)
        assert '2,false,false,false,"1,-2,0,10,0;0,1,-13,2,100"\n' in buf.getvalue()

    def test_one_format_per_distinct_tail(self, monkeypatch):
        import oddcross.verify

        calls = []

        def counted(witness):
            calls.append(witness)
            return format_witness(witness)

        monkeypatch.setattr(oddcross.verify, "format_witness", counted)
        write_census_csv(self.RECORDS, io.StringIO())
        assert len(calls) == len({rec[1:] for rec in self.RECORDS}) == 5

    def test_census_matches_plain_csv_writer(self, dim7):
        buf = io.StringIO()
        write_census_csv(census(dim7), buf)
        assert buf.getvalue() == csv_oracle(census(dim7))

    def test_empty(self):
        buf = io.StringIO()
        assert write_census_csv([], buf) == 0
        assert buf.getvalue() == csv_oracle([])

    def test_record_is_a_named_tuple(self):
        rec = CensusRecord(7, True, False, True)
        assert isinstance(rec, tuple)
        assert CensusRecord._fields == (
            "scheme_id", "closed", "orthogonality_zero", "xab_zero", "witness"
        )
        assert rec == (7, True, False, True, None)
        with pytest.raises(AttributeError):
            rec.closed = False
