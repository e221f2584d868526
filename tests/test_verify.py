import io
import itertools
import random
from fractions import Fraction

import pytest
from conftest import random_branch
from expansion_oracle import classify_product_table, xab_dense
from hypothesis import given, settings
from hypothesis import strategies as st

from oddcross import (
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
from oddcross.reference import reference_schemes
from oddcross.verify import (
    _census_rows,
    _layout,
    _verdict,
    classify_tensor,
    tensor_verdict,
)
from oddcross.schemes import pair_index


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
        target, sign = build_tensor(branch_scheme(dim, random_branch(n, rng))).pair_arrays()
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
            assert report.consistent(tol=1e-9)

    def test_pairs_requires_matching_scheme(
        self, tensor7_row11, scheme7_row2, tensor5_row3, scheme5_row3
    ):
        a, b = unit(7, 1), unit(7, 2)
        with pytest.raises(SchemeTensorMismatchError):
            xab_pairs(tensor7_row11, a, b, scheme7_row2)
        # Same axes, but pair 1-2 has the opposite sign: for these vectors the
        # pair route would answer -6 where the direct and tensor routes give -2.
        target, sign = tensor5_row3.pair_arrays()
        p = pair_index(5, (1, 2))
        sign[p] = -sign[p]
        flipped = StructureTensor(scheme5_row3.dim, target, sign)
        with pytest.raises(SchemeTensorMismatchError, match="e1 x e2 to -e"):
            xab_pairs(flipped, (0, 1, 1, 0, 1), (1, 1, 0, 1, 0), scheme5_row3)

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
        ((closed, ortho_zero, xab_zero, witness),) = _census_rows(9, [branch])
        assert closed == is_closed(scheme)
        assert ortho_zero == ortho
        assert xab_zero == xab
        assert classify_tensor(tensor) == (ortho, xab)
        assert witness == find_witness(tensor, scheme)
        if not xab:
            assert xab_direct(tensor, *witness) != 0

    @pytest.mark.parametrize("k", list(itertools.product((-1, 0, 1), repeat=3)))
    def test_split_coefficient_rule(self, k):
        # One 4-subset {1,2,3,4} of n=5 with split coefficients k: bad
        # exactly when k is neither all 0 nor +-(1, -1, 1), and the witness
        # then has a nonzero X_AB by the 4-subset formula.
        layout = _layout(5)
        q = layout.q
        cov = sum(1 << (plane * q) for plane in range(3) if k[plane])
        neg = sum(1 << (3 * q + plane * q) for plane in range(3) if k[plane] < 0)
        _, _, xab_zero, witness = _verdict(layout, cov | neg)
        assert xab_zero == (k in ((0, 0, 0), (1, -1, 1), (-1, 1, -1)))
        if not xab_zero:
            a, b = witness

            def det(i, j):
                return a[i] * b[j] - a[j] * b[i]

            x = k[0] * det(0, 1) * det(2, 3) + k[1] * det(0, 2) * det(1, 3)
            assert x + k[2] * det(0, 3) * det(1, 2) != 0

    @pytest.mark.parametrize("k", list(itertools.product((-1, 0, 1), repeat=3)))
    def test_triple_role_rule(self, k):
        # One triple {1,2,3} of n=5 with role signs k (0 = role absent):
        # roles 0, 1, 2 are L[2,3,1], L[1,3,2] and L[1,2,3]. Closed exactly
        # when all roles or none are present; orthogonal exactly when k is
        # all 0 or +-(1, -1, 1), which is total antisymmetry of L on the
        # triple, checked here entry by entry.
        layout = _layout(5)
        q, r = layout.q, layout.r
        present = sum(1 << (6 * q + plane * r) for plane in range(3) if k[plane])
        neg = sum(1 << (6 * q + 3 * r + plane * r) for plane in range(3) if k[plane] < 0)
        closed, ortho_zero, xab_zero, witness = _verdict(layout, present | neg)
        assert closed == (0 not in k or k == (0, 0, 0))
        assert ortho_zero == (k in ((0, 0, 0), (1, -1, 1), (-1, 1, -1)))
        assert (xab_zero, witness) == (True, None)
        entry = {(1, 2, 0): k[0], (0, 2, 1): k[1], (0, 1, 2): k[2]}
        entry.update({(j, i, m): -v for (i, j, m), v in list(entry.items())})
        antisymmetric = all(
            entry.get((m, j, i), 0) == -v and entry.get((i, m, j), 0) == -v
            for (i, j, m), v in entry.items()
        )
        assert ortho_zero == antisymmetric

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
        target, sign = build_tensor(scheme7_row11).pair_arrays()
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
        target, sign = build_tensor(scheme).pair_arrays()
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
        target, canonical = build_tensor(scheme).pair_arrays()
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
