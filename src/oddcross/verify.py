"""Axiom defects, the cross term X_AB by three routes, and the census.

For a product A x B built from a pairing scheme, two axiom-level
quantities are of interest:

* the orthogonality defects (AxB).A and (AxB).B, which classical cross
  products keep at zero;
* the cross term X_AB = |AxB|^2 - |A|^2 |B|^2 + (A.B)^2, the deviation
  from the Lagrange-style magnitude identity.

X_AB is computed along three independent routes (direct norms, full
four-index contraction, scheme-pair determinants) that must agree
exactly on integer input. Identity-level questions ("is this zero for
ALL vectors?") are decided exactly, never by sampling: X_AB by the
Plücker criterion on 4-subsets, orthogonality by total antisymmetry
(both proved in ``_classify_masks``). A nonzero X_AB verdict always comes
with a constructed 0/1 witness pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Iterator, NamedTuple, Optional, TextIO, Tuple

from .errors import DimensionMismatchError, SchemeTensorMismatchError
from .schemes import (
    Dimension,
    Scheme,
    axis_matchings,
    feasible_dimension,
    pair_index,
    scheme_branches,
)
from .tensor import StructureTensor, Vector, build_tensor, dot, orient_pair, pair_determinant

CENSUS_CSV_HEADER = ("scheme_id", "closed", "orthogonality_zero", "xab_zero", "witness")


def _check_dims(tensor: StructureTensor, a: Vector, b: Vector) -> int:
    n = tensor.dim.n
    if len(a) != n or len(b) != n:
        raise DimensionMismatchError(
            f"tensor is {n}-dimensional, vectors have length {len(a)} and {len(b)}"
        )
    return n


def orthogonality_defect(tensor: StructureTensor, a: Vector, b: Vector) -> Tuple:
    """((AxB).A, (AxB).B); both are zero for every closed, oriented scheme."""
    _check_dims(tensor, a, b)
    c = tensor.cross(a, b)
    return dot(c, a), dot(c, b)


def xab_direct(tensor: StructureTensor, a: Vector, b: Vector):
    """X_AB from its definition: |AxB|^2 - |A|^2 |B|^2 + (A.B)^2."""
    _check_dims(tensor, a, b)
    c = tensor.cross(a, b)
    return dot(c, c) - dot(a, a) * dot(b, b) + dot(a, b) ** 2


def xab_tensor(tensor: StructureTensor, a: Vector, b: Vector):
    """X_AB as the full four-index contraction of chi with a, b, a, b.

    chi[i,j,l,m] = T[i,j,l,m] + delta(i,m) delta(j,l) - delta(j,m) delta(i,l)
    where T[i,j,l,m] sums L[i,j,k] L[l,m,k] over the output axis k. The sum
    runs over all ordered index 4-tuples, which is what makes the pairwise
    route's factor 2 come out right.
    """
    n = _check_dims(tensor, a, b)
    target, sign = tensor.flat_arrays()
    total = 0
    for i in range(n):
        for j in range(n):
            off = i * n + j
            tij = target[off] if i != j else -1
            sij = sign[off]
            aibj = a[i] * b[j]
            for l in range(n):
                row = l * n
                for m in range(n):
                    chi = 0
                    if tij >= 0 and l != m and target[row + m] == tij:
                        chi = sij * sign[row + m]
                    if i == m and j == l:
                        chi += 1
                    if j == m and i == l:
                        chi -= 1
                    if chi:
                        total += aibj * a[l] * b[m] * chi
    return total


def xab_pairs(tensor: StructureTensor, a: Vector, b: Vector, scheme: Scheme):
    """X_AB from the scheme itself: twice the sum, per axis, of products of
    oriented pair determinants over distinct pair choices.

    The squared norms cancel against the per-pair squares by the Lagrange
    identity, leaving only the mixed products.
    """
    n = _check_dims(tensor, a, b)
    if scheme.dim != tensor.dim:
        raise SchemeTensorMismatchError(
            f"scheme is {scheme.dim.n}-dimensional, tensor is {n}-dimensional"
        )
    for matching in scheme.matchings:
        for pair in matching.pairs:
            entry = tensor.lookup(pair.lo, pair.hi)
            if entry is None or entry.axis != matching.axis:
                raise SchemeTensorMismatchError(
                    f"tensor sends {pair} to axis "
                    f"{entry.axis if entry else '?'}, scheme says {matching.axis}"
                )
    total = 0
    for matching in scheme.matchings:
        dets = [
            pair_determinant(a, b, *orient_pair(pair, matching.axis))
            for pair in matching.pairs
        ]
        for d1, d2 in combinations(dets, 2):
            total += d1 * d2
    return 2 * total


class _Layout(NamedTuple):
    """Bit positions of the classifier's masks for one n (0-based indices).

    A split mask has three planes of ``q`` bits, one per way of splitting a
    4-subset {a<b<c<d} into two pairs: plane 0 is {ab|cd}, plane 1 {ac|bd},
    plane 2 {ad|bc}; bit t of a plane is the t-th 4-subset in
    ``combinations`` order. A triple mask has three planes of ``r`` bits,
    one per role of the axis in a triple {x<y<z}: plane 0 marks the pair
    {y,z} on axis x, plane 1 {x,z} on y, plane 2 {x,y} on z.
    """

    n: int
    q: int
    r: int
    pair_count: int
    split_bit: list  # [p * pair_count + p2]: bit of the split made of pair slots p, p2
    triple_bit: list  # [p * n + k]: bit of pair slot p sitting on axis k
    probes: tuple  # per 4-subset: the three 0/1 probe pairs (A, B) of the witness


@lru_cache(maxsize=None)
def _layout(n: int) -> _Layout:
    pairs = list(combinations(range(n), 2))  # slot order is pair_index order
    slot = {pair: p for p, pair in enumerate(pairs)}
    quads = list(combinations(range(n), 4))
    triples = {t: i for i, t in enumerate(combinations(range(n), 3))}
    q, r, pair_count = len(quads), len(triples), len(pairs)

    split_bit = [-1] * (pair_count * pair_count)
    for t, (a, b, c, d) in enumerate(quads):
        for plane, (x, y) in enumerate((((a, b), (c, d)), ((a, c), (b, d)), ((a, d), (b, c)))):
            px, py = slot[x], slot[y]
            split_bit[px * pair_count + py] = split_bit[py * pair_count + px] = plane * q + t

    triple_bit = [-1] * (pair_count * n)
    for p, (i, j) in enumerate(pairs):
        for k in range(n):
            if k != i and k != j:
                triple = tuple(sorted((i, j, k)))
                triple_bit[p * n + k] = triple.index(k) * r + triples[triple]

    def basis_sum(x, y):
        return tuple(int(i == x or i == y) for i in range(n))

    probes = tuple(
        (
            (basis_sum(a, c), basis_sum(b, d)),
            (basis_sum(a, b), basis_sum(c, d)),
            (basis_sum(a, d), basis_sum(b, c)),
        )
        for a, b, c, d in quads
    )
    return _Layout(n, q, r, pair_count, split_bit, triple_bit, probes)


def _axis_masks(layout: _Layout, axis: int, pairs) -> Tuple[int, int, int]:
    """(cov, neg, tri) of one axis; ``pairs`` lists its (pair slot, sign)."""
    split_bit, triple_bit = layout.split_bit, layout.triple_bit
    width, n = layout.pair_count, layout.n
    cov = neg = tri = 0
    for x, (p, s) in enumerate(pairs):
        tri |= 1 << triple_bit[p * n + axis]
        row = p * width
        for p2, s2 in pairs[x + 1 :]:
            bit = 1 << split_bit[row + p2]
            cov |= bit
            if s != s2:
                neg |= bit
    return cov, neg, tri


@lru_cache(maxsize=None)
def _matching_masks(n: int):
    """Per axis (0-based), per matching index: (cov, neg, tri) under the
    canonical orientation, where e_lo x e_hi = -e_k exactly when lo < k < hi."""
    layout = _layout(n)
    dim = feasible_dimension(n)
    return tuple(
        tuple(
            _axis_masks(
                layout,
                axis - 1,
                [(pair_index(n, p), -1 if p.lo < axis < p.hi else 1) for p in m.pairs],
            )
            for m in axis_matchings(dim, axis)
        )
        for axis in range(1, n + 1)
    )


def _classify_masks(layout: _Layout, cov: int, neg: int, tri: int) -> Tuple[bool, int]:
    """(closed, bad) of a signed scheme from its OR-ed axis masks.

    X_AB is identically zero exactly when ``bad`` is 0; otherwise the lowest
    set bit of ``bad`` names a 4-subset that breaks the criterion below.

    Plücker criterion. Write D_ij = a_i b_j - a_j b_i and let s_ij = +-1 be
    the sign of e_i x e_j (i < j) on the axis the pair sits on. Then
    (AxB)_k = sum over the pairs on axis k of s_ij D_ij, so

        |AxB|^2 = sum_k sum_{ij on k} D_ij^2 + 2 sum_k sum_{p != p' on k} s_p s_p' D_p D_p'.

    Every pair sits on exactly one axis, and sum over all pairs of D_ij^2
    is |A|^2 |B|^2 - (A.B)^2 (Lagrange), so X_AB is the second sum alone.
    Two pairs on one axis are disjoint, so they split a 4-subset
    {a<b<c<d}; collecting terms,

        X_AB = 2 sum_{a<b<c<d} (k0 D_ab D_cd + k1 D_ac D_bd + k2 D_ad D_bc)

    where a split's coefficient is s_p s_p' if both its pairs sit on one
    axis and 0 otherwise (a pair sits on one axis, so at most one axis
    covers a split). The monomials of a 4-subset's products use exactly its
    four indices, so distinct 4-subsets cannot cancel each other. Within
    one 4-subset the three products are pairwise independent and satisfy
    exactly one relation, the Plücker relation
    D_ab D_cd - D_ac D_bd + D_ad D_bc = 0. Hence X_AB is the zero
    polynomial exactly when every 4-subset has (k0, k1, k2) proportional to
    (1, -1, 1), which for k in {-1, 0, 1} means all 0 or +-(1, -1, 1). In
    planes c (covered) and n (covered with k = -1) that is: c0 = c1 = c2,
    n0 = n2, and n1 = c0 & ~n0, so

        bad = (c0^c1) | (c0^c2) | (n0^n2) | (n1 ^ (c0 & ~n0)).

    Closure. The scheme is closed when each pair {i,j} on axis k comes with
    {j,k} on axis i and {i,k} on axis j, that is when every triple has its
    three roles all present or all absent: the three triple planes are
    equal.

    Closed implies totally antisymmetric under the canonical orientation.
    Take a closed triple {x<y<z}. The canonical sign of e_lo x e_hi on axis
    k is -1 exactly when lo < k < hi, so e_x x e_y = +e_z, e_y x e_z = +e_x
    and e_x x e_z = -e_y: on the triple L is the Levi-Civita symbol
    epsilon_xyz, which is totally antisymmetric. Every nonzero entry of L
    lies on one such triple, so L is totally antisymmetric, and
    (AxB).A = sum L[i,j,k] a_i b_j a_k vanishes identically (likewise
    (AxB).B). Conversely total antisymmetry needs L[k,j,i] = -L[i,j,k],
    so the pair {k,j} must sit on axis i: the scheme is closed. So for
    canonically oriented schemes orthogonality_zero equals closed.
    """
    q, r = layout.q, layout.r
    full_q = (1 << q) - 1
    c0, c1, c2 = cov & full_q, (cov >> q) & full_q, cov >> (2 * q)
    n0, n1, n2 = neg & full_q, (neg >> q) & full_q, neg >> (2 * q)
    bad = (c0 ^ c1) | (c0 ^ c2) | (n0 ^ n2) | (n1 ^ (c0 & ~n0))
    full_r = (1 << r) - 1
    t0 = tri & full_r
    closed = t0 == (tri >> r) & full_r and t0 == tri >> (2 * r)
    return closed, bad


def _witness(layout: _Layout, cov: int, neg: int, bad: int):
    """A 0/1 vector pair with X_AB != 0, read off the lowest bit of ``bad``.

    On vectors supported on the 4-subset {a,b,c,d} of that bit only its own
    three splits contribute, and the probes give, in this order,
    (e_a+e_c, e_b+e_d): 2(k0-k2); (e_a+e_b, e_c+e_d): 2(k1+k2);
    (e_a+e_d, e_b+e_c): -2(k0+k1). All three vanish only for
    (k0, k1, k2) = (k, -k, k), which is not a breaking 4-subset.
    """
    t = (bad & -bad).bit_length() - 1
    k0, k1, k2 = (
        0 if not (cov >> bit) & 1 else (-1 if (neg >> bit) & 1 else 1)
        for bit in (t, layout.q + t, 2 * layout.q + t)
    )
    for value, probe in zip((2 * (k0 - k2), 2 * (k1 + k2), -2 * (k0 + k1)), layout.probes[t]):
        if value:
            return probe
    raise AssertionError("bad 4-subset with no nonzero probe")  # excluded by the proof


def _tensor_verdict(tensor: StructureTensor):
    """(layout, cov, neg, bad) of a tensor, from its own pairs and signs."""
    n = tensor.dim.n
    layout = _layout(n)
    target, sign = tensor.flat_arrays()
    per_axis = [[] for _ in range(n)]
    p = 0
    for i in range(n):
        row = i * n
        for j in range(i + 1, n):
            per_axis[target[row + j]].append((p, sign[row + j]))
            p += 1
    cov = neg = tri = 0
    for axis, pairs in enumerate(per_axis):
        c, g, t = _axis_masks(layout, axis, pairs)
        cov |= c
        neg |= g
        tri |= t
    _, bad = _classify_masks(layout, cov, neg, tri)
    return layout, cov, neg, bad


def _totally_antisymmetric(n: int, target: list, sign: list) -> bool:
    # L[k,j,i] == -L[i,j,k] and L[i,k,j] == -L[i,j,k] for every i != j.
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            k = target[i * n + j]
            s = sign[i * n + j]
            if target[k * n + j] != i or sign[k * n + j] != -s:
                return False
            if target[i * n + k] != j or sign[i * n + k] != -s:
                return False
    return True


def classify_tensor(tensor: StructureTensor) -> Tuple[bool, bool]:
    """(orthogonality identically zero, X_AB identically zero), decided exactly.

    X_AB by the Plücker criterion of ``_classify_masks``, which holds for
    any signs; orthogonality by checking total antisymmetry directly,
    since the tensor's signs need not be the canonical orientation.
    """
    bad = _tensor_verdict(tensor)[3]
    target, sign = tensor.flat_arrays()
    return _totally_antisymmetric(tensor.dim.n, target, sign), not bad


def orthogonality_identically_zero(tensor: StructureTensor) -> bool:
    """Whether (AxB).A and (AxB).B vanish for every A, B.

    Equivalent to total antisymmetry of L: the built-in antisymmetry in the
    two input slots plus sign flips under swapping the output slot with
    either input slot.
    """
    return classify_tensor(tensor)[0]


def xab_identically_zero(tensor: StructureTensor) -> bool:
    """Whether the quartic X_AB(A, B) is the zero polynomial.

    Decided exactly by the Plücker criterion; sampling is never trusted
    here because small integer probes of genuinely nonzero schemes
    frequently evaluate to zero.
    """
    return classify_tensor(tensor)[1]


def find_witness(
    tensor: StructureTensor, scheme: Scheme, seed=0
) -> Optional[Tuple[Tuple[int, ...], Tuple[int, ...]]]:
    """A pair of 0/1 vectors with X_AB != 0, or None when X_AB is
    identically zero.

    Constructed, not searched: the first of three probes on the first
    4-subset that breaks the Plücker criterion (see ``_witness``). The
    witness depends on the tensor alone; ``scheme`` and ``seed`` are
    accepted for compatibility (perfbench/workloads.py passes both) and
    change nothing.
    """
    layout, cov, neg, bad = _tensor_verdict(tensor)
    return _witness(layout, cov, neg, bad) if bad else None


@dataclass(frozen=True)
class DefectReport:
    """Orthogonality defects and X_AB via all three routes for one (A, B)."""

    dot_with_a: object
    dot_with_b: object
    xab_direct: object
    xab_tensor: object
    xab_pairs: object

    def consistent(self, tol=0) -> bool:
        spread = max(self.xab_direct, self.xab_tensor, self.xab_pairs) - min(
            self.xab_direct, self.xab_tensor, self.xab_pairs
        )
        return spread <= tol


def defect_report(
    scheme: Scheme, a: Vector, b: Vector, tensor: Optional[StructureTensor] = None
) -> DefectReport:
    if tensor is None:
        tensor = build_tensor(scheme)
    d_a, d_b = orthogonality_defect(tensor, a, b)
    return DefectReport(
        dot_with_a=d_a,
        dot_with_b=d_b,
        xab_direct=xab_direct(tensor, a, b),
        xab_tensor=xab_tensor(tensor, a, b),
        xab_pairs=xab_pairs(tensor, a, b, scheme),
    )


@dataclass(frozen=True)
class CensusRecord:
    """Classification of one scheme, in enumeration order (1-based ids)."""

    scheme_id: int
    closed: bool
    orthogonality_zero: bool
    xab_zero: bool
    witness: Optional[Tuple[Tuple[int, ...], Tuple[int, ...]]] = None


def _census_rows(n: int, branches, witnesses: bool):
    """(closed, xab_zero, witness) per branch tuple, straight from the
    per-matching masks: no Scheme or StructureTensor is built."""
    layout = _layout(n)
    masks = _matching_masks(n)
    for branch in branches:
        cov = neg = tri = 0
        for axis_masks, choice in zip(masks, branch):
            c, g, t = axis_masks[choice]
            cov |= c
            neg |= g
            tri |= t
        closed, bad = _classify_masks(layout, cov, neg, tri)
        witness = _witness(layout, cov, neg, bad) if witnesses and bad else None
        yield closed, not bad, witness


def census(
    dim: Dimension,
    *,
    limit: Optional[int] = None,
    seed=0,  # kept for callers written for the old seeded witness search
    witnesses: bool = True,
) -> Iterator[CensusRecord]:
    """Classify every scheme of the dimension, in enumeration order.

    Witnesses are constructed (see ``find_witness``), so ``seed`` is
    accepted for compatibility and does not affect the output.
    orthogonality_zero equals closed under the canonical orientation
    (proof in ``_classify_masks``).
    """
    rows = _census_rows(dim.n, scheme_branches(dim, limit=limit), witnesses)
    for scheme_id, (closed, xab, witness) in enumerate(rows, 1):
        yield CensusRecord(scheme_id, closed, closed, xab, witness)


def format_witness(witness) -> str:
    if witness is None:
        return ""
    a, b = witness
    return ",".join(map(str, a)) + ";" + ",".join(map(str, b))


def write_census_csv(records, stream: TextIO) -> int:
    """Write records in the fixed CSV layout; returns the number written."""
    import csv

    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(CENSUS_CSV_HEADER)
    flag = ("false", "true")
    # Constructed witnesses repeat (three probes per 4-subset), so each is
    # formatted once.
    witness_text = {None: ""}
    count = 0
    for rec in records:
        text = witness_text.get(rec.witness)
        if text is None:
            text = witness_text[rec.witness] = format_witness(rec.witness)
        writer.writerow(
            (
                rec.scheme_id,
                flag[rec.closed],
                flag[rec.orthogonality_zero],
                flag[rec.xab_zero],
                text,
            )
        )
        count += 1
    return count
