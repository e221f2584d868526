"""Axiom defects, the cross term X_AB by three routes, and the census.

For a product A x B built from a pairing scheme, two axiom-level
quantities are of interest:

* the orthogonality defects (AxB).A and (AxB).B, which classical cross
  products keep at zero;
* the cross term X_AB = |AxB|^2 - |A|^2 |B|^2 + (A.B)^2, the deviation
  from the Lagrange-style magnitude identity.

X_AB is computed along three independent routes (direct norms, a
contraction of the four-index tensor chi over its nonzero entries,
scheme-pair determinants) that must agree exactly on integer input.
Identity-level questions ("is this zero for ALL vectors?") are decided
exactly, never by sampling, in one verdict pass: each axis contributes
one int mask of split and triple planes, and one pattern test on the OR
of those masks decides X_AB (the Plücker criterion on 4-subsets) and
orthogonality (total antisymmetry on triples), both proved in
``_off_pattern``. ``tensor_verdict`` gives a tensor's verdict and
``census`` every scheme's; a nonzero X_AB verdict always comes with a
constructed 0/1 witness pair.
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
from .tensor import StructureTensor, Vector, dot, orient_pair, pair_determinant

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
    """X_AB as the contraction of chi with a, b, a, b, over the nonzero
    entries of chi only.

    chi[i,j,l,m] = T[i,j,l,m] + delta(i,m) delta(j,l) - delta(j,m) delta(i,l)
    where T[i,j,l,m] sums L[i,j,k] L[l,m,k] over the output axis k, and
    X_AB is the sum of chi[i,j,l,m] a_i b_j a_l b_m over all ordered index
    4-tuples, which is what makes the pairwise route's factor 2 come out
    right. By linearity the sum splits into one sum per term of chi, and
    each term is nonzero only on few 4-tuples:

    * L[i,j,k] is nonzero only when i != j and k = target(i,j), where it
      is the sign s_ij. So of the sum over k defining T[i,j,l,m] at most
      the term k = target(i,j) is nonzero, and it is s_ij s_lm when
      l != m and target(l,m) = k: T[i,j,l,m] != 0 only when i != j,
      l != m and target(i,j) = target(l,m). The T sum is therefore, per
      output axis k, the sum over ordered pairs of k's n-1 entries
      (i, j, s), (l, m, s'), an entry paired also with itself and with
      its reverse, of s s' a_i b_j a_l b_m.
    * delta(i,m) delta(j,l) is nonzero only at (i,j,j,i) and
      delta(j,m) delta(i,l) only at (i,j,i,j), each with value 1, so they
      add a_i b_j a_j b_i - a_i b_j a_i b_j over all ordered (i, j); for
      i = j the two cancel and are skipped.

    A skipped 4-tuple has all three terms zero, so chi = 0 there, and the
    result equals the dense n^4 contraction (kept as the test oracle
    ``xab_dense`` in tests/expansion_oracle.py). The per-axis sums are
    never squared as a whole: that would be ``xab_direct``'s |AxB|^2, and
    the routes must stay independent.
    """
    n = _check_dims(tensor, a, b)
    total = 0
    for entries in tensor.axis_entries():
        terms = [s * a[i] * b[j] for i, j, s in entries]
        for t in terms:
            for t2 in terms:
                total += t * t2
    for i in range(n):
        ai, bi = a[i], b[i]
        for j in range(n):
            if i != j:
                aibj = ai * b[j]
                total += aibj * a[j] * bi - aibj * ai * b[j]
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
    oriented = []
    for matching in scheme.matchings:
        axis = matching.axis
        pairs = [orient_pair(pair, axis) for pair in matching.pairs]
        for alpha, beta in pairs:
            # The determinants below assume e_alpha x e_beta = +e_axis.
            entry = tensor.lookup(alpha, beta)
            if entry != (axis, 1):
                raise SchemeTensorMismatchError(
                    f"tensor sends e{alpha} x e{beta} to "
                    f"{'-' if entry.sign < 0 else '+'}e{entry.axis}, "
                    f"scheme says +e{axis}"
                )
        oriented.append(pairs)
    total = 0
    for pairs in oriented:
        dets = [pair_determinant(a, b, alpha, beta) for alpha, beta in pairs]
        for d1, d2 in combinations(dets, 2):
            total += d1 * d2
    return 2 * total


class _Layout(NamedTuple):
    """Bit positions of the verdict mask for one n (0-based indices).

    A mask is one int made of four groups of three planes each:

    * bits 0..3q, covered splits: plane 0 of a 4-subset {a<b<c<d} is
      {ab|cd}, plane 1 {ac|bd}, plane 2 {ad|bc}, and bit t of a plane is
      the t-th 4-subset in ``combinations`` order;
    * bits 3q..6q, the covered splits whose two pairs have opposite signs;
    * bits 6q..6q+3r, present triple roles: plane 0 of a triple {x<y<z}
      marks the pair {y,z} on axis x, plane 1 {x,z} on y, plane 2 {x,y} on
      z, and bit t of a plane is the t-th triple;
    * bits 6q+3r..6q+6r, the present roles whose pair has sign -1
      (e_lo x e_hi = -e_axis).
    """

    n: int
    q: int
    r: int
    pair_count: int
    split_bit: list  # [p * pair_count + p2]: covered bit of the split made of pair slots p, p2
    triple_bit: list  # [p * n + k]: present bit of pair slot p sitting on axis k
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
                triple_bit[p * n + k] = 6 * q + triple.index(k) * r + triples[triple]

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


def _axis_mask(layout: _Layout, axis: int, pairs) -> int:
    """The verdict mask of one axis; ``pairs`` lists its (pair slot, sign)."""
    split_bit, triple_bit = layout.split_bit, layout.triple_bit
    width, n = layout.pair_count, layout.n
    split_neg, triple_neg = 3 * layout.q, 3 * layout.r
    mask = 0
    for x, (p, s) in enumerate(pairs):
        bit = triple_bit[p * n + axis]
        mask |= 1 << bit if s > 0 else (1 << bit) | (1 << (bit + triple_neg))
        row = p * width
        for p2, s2 in pairs[x + 1 :]:
            bit = split_bit[row + p2]
            mask |= 1 << bit if s == s2 else (1 << bit) | (1 << (bit + split_neg))
    return mask


@lru_cache(maxsize=None)
def _matching_masks(n: int):
    """Per axis (0-based), per matching index: the verdict mask under the
    canonical orientation of ``orient_pair``."""
    layout = _layout(n)
    dim = feasible_dimension(n)
    return tuple(
        tuple(
            _axis_mask(
                layout,
                axis - 1,
                # The sign of e_lo x e_hi: +1 when orient_pair keeps (lo, hi).
                [(pair_index(n, p), 1 if orient_pair(p, axis) == p else -1) for p in m.pairs],
            )
            for m in axis_matchings(dim, axis)
        )
        for axis in range(1, n + 1)
    )


def _tensor_mask(tensor: StructureTensor) -> Tuple[_Layout, int]:
    """(layout, mask) of a tensor, from its own pairs and signs."""
    layout = _layout(tensor.dim.n)
    target, sign = tensor.pair_arrays()  # slot p is pair_index order, as in the layout
    per_axis = [[] for _ in range(tensor.dim.n)]
    for p, k in enumerate(target):
        per_axis[k].append((p, sign[p]))
    mask = 0
    for axis, pairs in enumerate(per_axis):
        mask |= _axis_mask(layout, axis, pairs)
    return layout, mask


def _off_pattern(group: int, w: int) -> Tuple[int, int]:
    """(uneven, off) of the three presence and three sign planes of a group.

    ``group`` holds, from bit 0 up, presence planes p0, p1, p2 and sign
    planes s0, s1, s2 of ``w`` bits each (higher bits are ignored); a sign
    bit is set only where its presence bit is. Read k = 0 where p is clear,
    -1 where s is set and +1 otherwise. Bit t of ``uneven`` is set when the
    three planes' presence differs at t; bit t of ``off`` when
    (k0, k1, k2) at t is neither all 0 nor +-(1, -1, 1). With all three
    present, that pattern is s0 = s2 and s1 = not s0, so

        off = (p0^p1) | (p0^p2) | (s0^s2) | (s1 ^ (p0 & ~s0)).

    The X_AB identity is this test on the split planes, and orthogonality
    is the same test on the triple planes.

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
    (1, -1, 1), which for k in {-1, 0, 1} means all 0 or +-(1, -1, 1):
    ``off`` of the split planes is 0.

    Total antisymmetry. (AxB).A = sum L[i,j,k] a_i b_j a_k, and L[i,j,i] = 0,
    so the coefficient of a_i a_k b_j (i != k) is L[i,j,k] + L[k,j,i]:
    (AxB).A vanishes identically exactly when L changes sign under swapping
    its first and third slots, and (AxB).B exactly when it does under
    swapping its second and third. With the built-in antisymmetry in the
    two input slots, both hold exactly when L is totally antisymmetric. A
    nonzero entry L[i,j,k] and its partners under these swaps all have
    their three indices in {i,j,k}, so the condition splits into one per
    triple {x<y<z}. A triple with no role present has only zero entries and
    passes. Otherwise every role must be present, {y,z} on x, {x,z} on y
    and {x,y} on z, and with e = L[x,y,z] (role 2) total antisymmetry
    gives L[y,z,x] = e (role 0, an even permutation) and L[x,z,y] = -e
    (role 1, an odd one): the role signs are e(1, -1, 1). So orthogonality
    holds identically exactly when ``off`` of the triple planes is 0. And
    ``uneven`` of the triple planes is 0 exactly when the scheme is closed:
    each pair {i,j} on axis k comes with {j,k} on axis i and {i,k} on
    axis j.

    Under the canonical orientation e_lo x e_hi = -e_k exactly when
    lo < k < hi, so every present triple has role signs (1, -1, 1) and
    orthogonality_zero equals closed.
    """
    full = (1 << w) - 1
    p0, p1, p2 = group & full, group >> w & full, group >> 2 * w & full
    s0, s1, s2 = group >> 3 * w & full, group >> 4 * w & full, group >> 5 * w & full
    uneven = (p0 ^ p1) | (p0 ^ p2)
    return uneven, uneven | (s0 ^ s2) | (s1 ^ (p0 & ~s0))


def _witness(layout: _Layout, mask: int, off: int):
    """A 0/1 vector pair with X_AB != 0, read off the lowest bit of the
    split planes' ``off``.

    On vectors supported on the 4-subset {a,b,c,d} of that bit only its own
    three splits contribute, and the probes give, in this order,
    (e_a+e_c, e_b+e_d): 2(k0-k2); (e_a+e_b, e_c+e_d): 2(k1+k2);
    (e_a+e_d, e_b+e_c): -2(k0+k1). All three vanish only for
    (k0, k1, k2) = (k, -k, k), which is not a breaking 4-subset.
    """
    t = (off & -off).bit_length() - 1
    q = layout.q
    k0, k1, k2 = (
        0 if not (mask >> bit) & 1 else (-1 if (mask >> (3 * q + bit)) & 1 else 1)
        for bit in (t, q + t, 2 * q + t)
    )
    for value, probe in zip((2 * (k0 - k2), 2 * (k1 + k2), -2 * (k0 + k1)), layout.probes[t]):
        if value:
            return probe
    raise AssertionError("bad 4-subset with no nonzero probe")  # excluded by the proof


def _verdict(layout: _Layout, mask: int):
    """(closed, orthogonality_zero, xab_zero, witness) from a scheme's OR-ed
    axis masks. The witness is None when X_AB is identically zero."""
    xab_off = _off_pattern(mask, layout.q)[1]
    uneven, triple_off = _off_pattern(mask >> 6 * layout.q, layout.r)
    witness = _witness(layout, mask, xab_off) if xab_off else None
    return not uneven, not triple_off, not xab_off, witness


def tensor_verdict(
    tensor: StructureTensor,
) -> Tuple[bool, bool, bool, Optional[Tuple[Tuple[int, ...], Tuple[int, ...]]]]:
    """(closed, orthogonality_zero, xab_zero, witness) of a tensor with any
    signs, decided exactly in one pass over its pairs.

    ``closed``: every pair closes into a triple. ``orthogonality_zero``:
    (AxB).A and (AxB).B vanish for all A, B (total antisymmetry).
    ``xab_zero``: X_AB is the zero polynomial (Plücker criterion); it is
    never decided by sampling, because small integer probes of genuinely
    nonzero schemes frequently evaluate to zero. ``witness``: a 0/1 vector
    pair with X_AB != 0, or None when ``xab_zero``. Proofs in
    ``_off_pattern`` and ``_witness``.
    """
    return _verdict(*_tensor_mask(tensor))


def classify_tensor(tensor: StructureTensor) -> Tuple[bool, bool]:
    """(orthogonality_zero, xab_zero) of ``tensor_verdict``."""
    return tensor_verdict(tensor)[1:3]


def find_witness(
    tensor: StructureTensor, scheme: Scheme, seed=0
) -> Optional[Tuple[Tuple[int, ...], Tuple[int, ...]]]:
    """The witness of ``tensor_verdict``: a pair of 0/1 vectors with
    X_AB != 0, or None when X_AB is identically zero.

    The witness depends on the tensor alone; ``scheme`` and ``seed`` are
    accepted for compatibility (perfbench/workloads.py passes both) and
    change nothing.
    """
    return tensor_verdict(tensor)[3]


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
    scheme: Scheme, a: Vector, b: Vector, tensor: StructureTensor
) -> DefectReport:
    """Orthogonality defects and X_AB by all three routes for one (A, B),
    on ``tensor``, the structure tensor of ``scheme``."""
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


def _census_rows(n: int, branches):
    """The verdict of each branch tuple, straight from the per-matching
    masks: no Scheme or StructureTensor is built."""
    layout = _layout(n)
    masks = _matching_masks(n)
    for branch in branches:
        mask = 0
        for axis_masks, choice in zip(masks, branch):
            mask |= axis_masks[choice]
        yield _verdict(layout, mask)


def census(
    dim: Dimension,
    *,
    limit: Optional[int] = None,
) -> Iterator[CensusRecord]:
    """Classify every scheme of the dimension, in enumeration order.

    Each record carries the scheme's verdict under the canonical
    orientation (see ``tensor_verdict``).
    """
    rows = _census_rows(dim.n, scheme_branches(dim, limit=limit))
    for scheme_id, verdict in enumerate(rows, 1):
        yield CensusRecord(scheme_id, *verdict)


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
