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
one int mask of 6-bit counter fields, one per 4-subset and per triple,
and masked ANDs on the sum of those masks decide X_AB (the Plücker
criterion on 4-subsets), orthogonality (total antisymmetry on triples)
and closure, all proved in ``_verdict``. ``tensor_verdict`` gives a
tensor's verdict and ``census`` every scheme's; a nonzero X_AB verdict
always comes with a constructed 0/1 witness pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, count, islice, product, repeat, starmap
from operator import mul
from typing import Iterator, NamedTuple, Optional, TextIO, Tuple

from .errors import SchemeTensorMismatchError
from .kernels import enumerate_covers
from .schemes import Dimension, Scheme, _axis_choice_masks, _check_dim, _check_limit, _slots
from .tensor import StructureTensor, Vector, _check_vectors, dot, orient_pair

CENSUS_CSV_HEADER = ("scheme_id", "closed", "orthogonality_zero", "xab_zero", "witness")


def orthogonality_defect(tensor: StructureTensor, a: Vector, b: Vector) -> Tuple:
    """((AxB).A, (AxB).B); both are zero for every closed, oriented scheme."""
    c = tensor.cross(a, b)
    return dot(c, a), dot(c, b)


def _xab_of_cross(c: Vector, a: Vector, b: Vector):
    """X_AB from its definition, given c = A x B: |c|^2 - |A|^2 |B|^2 + (A.B)^2."""
    return dot(c, c) - dot(a, a) * dot(b, b) + dot(a, b) ** 2


def xab_direct(tensor: StructureTensor, a: Vector, b: Vector):
    """X_AB from its definition: |AxB|^2 - |A|^2 |B|^2 + (A.B)^2."""
    return _xab_of_cross(tensor.cross(a, b), a, b)


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
      add a_i b_j a_j b_i - a_i b_j a_i b_j over all ordered (i, j),
      i = j included, where the two cancel.

    A skipped 4-tuple has all three terms zero, so chi = 0 there, and the
    result equals the dense n^4 contraction (kept as the test oracle
    ``xab_dense`` in tests/expansion_oracle.py). The per-axis sums are
    never squared as a whole: that would be ``xab_direct``'s |AxB|^2, and
    the routes must stay independent.
    """
    n = _check_vectors(tensor.dim.n, a, b)
    # Per output axis k, s a_i b_j of each of its entries (i, j, s), every
    # stored pair i < j in both orders.
    per_axis = [[] for _ in range(n)]
    for (i, j), k, s in zip(combinations(range(n), 2), *tensor.slots):
        per_axis[k] += s * a[i] * b[j], -s * a[j] * b[i]
    total = 0
    for terms in per_axis:
        for t in terms:
            for t2 in terms:
                total += t * t2
    # Over all ordered (i, j): a_i b_j a_j b_i = (a_i b_i)(a_j b_j) and
    # a_i b_j a_i b_j = (a_i a_i)(b_j b_j).
    ab = list(map(mul, a, b))
    aa, bb = list(map(mul, a, a)), list(map(mul, b, b))
    total += sum(starmap(mul, product(ab, repeat=2)))
    total -= sum(starmap(mul, product(aa, bb)))
    return total


def xab_pairs(tensor: StructureTensor, a: Vector, b: Vector, scheme: Scheme):
    """X_AB from the scheme itself: twice the sum, per axis, of products of
    oriented pair determinants over distinct pair choices.

    The squared norms cancel against the per-pair squares by the Lagrange
    identity, leaving only the mixed products. The determinants assume
    e_alpha x e_beta = +e_axis for each oriented pair, so ``tensor`` must
    equal the scheme's own tensor (SchemeTensorMismatchError otherwise):
    its ``slots`` must equal the scheme's ``slots``, which is one tuple
    comparison, and only a tensor that fails it is walked entry by entry
    to name its first wrong slot.
    """
    n = _check_vectors(tensor.dim.n, a, b)
    if len(scheme) != n:
        raise SchemeTensorMismatchError(
            f"scheme is {len(scheme)}-dimensional, tensor is {n}-dimensional"
        )
    if tensor.slots != scheme.slots:
        for (i, j, axis, sign), k, s in zip(tensor.entries(), *scheme.slots):
            if (axis, sign) != (k + 1, s):
                alpha, beta = (i, j) if s > 0 else (j, i)
                raise SchemeTensorMismatchError(
                    f"tensor sends e{alpha} x e{beta} to {'-' if sign != s else '+'}e{axis}, "
                    f"scheme says +e{k + 1}"
                )
    total = 0
    for axis, matching in enumerate(scheme, 1):
        dets = []
        for pair in matching:
            alpha, beta = orient_pair(pair, axis)  # e_alpha x e_beta = +e_axis
            dets.append(a[alpha - 1] * b[beta - 1] - a[beta - 1] * b[alpha - 1])
        for d1, d2 in combinations(dets, 2):
            total += d1 * d2
    return 2 * total


# A verdict mask is one 6-bit field per 4-subset and per triple, and each
# present split plane or triple role adds its value to its field: the one of
# index i = 0, 1, 2 with sign (product) +1, or the one with -1.
_PLUS = (9, 2, 9)
_MINUS = (17, 18, 17)
_OFF = 0b011011  # a field with one of these bits set breaks the pattern test
_UNEVEN = 0b000011  # a field with one of these bits set has some planes, not all


def _field_value(k) -> int:
    """The field of a pattern (k0, k1, k2), each in {-1, 0, 1} (0 = absent)."""
    return sum(_PLUS[i] if kp > 0 else _MINUS[i] for i, kp in enumerate(k) if kp)


class _Layout(NamedTuple):
    """The fields of the verdict mask for one n (0-based indices).

    A mask is one int of q + r fields of 6 bits: field t, at bits 6t..6t+5,
    is the t-th 4-subset in ``combinations`` order, and field q + t the
    t-th triple. Split plane 0 of a 4-subset {a<b<c<d} is {ab|cd}, plane 1
    {ac|bd}, plane 2 {ad|bc}, and a split covered by one axis adds its
    plane's ``_PLUS`` or ``_MINUS`` value, by the sign product of its two
    pairs. Role 0 of a triple {x<y<z} is the pair {y,z} on axis x, role 1
    {x,z} on y, role 2 {x,y} on z, and a present role adds its ``_PLUS`` or
    ``_MINUS`` value, by the sign of e_lo x e_hi on that axis. The three
    row tests are ``xab_test``, ``ortho_test`` and ``closed_test``, and
    ``first_probe`` maps a breaking split field value to the index of the
    witness probe ``_verdict`` takes for it. At n=3 (q=0) there is no
    4-subset and ``xab_test`` is 0.
    """

    n: int
    q: int
    r: int
    pair_count: int
    split_field: list  # [p * pair_count + p2]: (shift, +1 value, -1 value) of split p|p2
    triple_field: list  # [p * n + k]: (shift, +1 value, -1 value) of pair slot p on axis k
    probes: tuple  # per 4-subset: the three 0/1 probe pairs (A, B) of the witness
    first_probe: tuple  # split field value (0..63) -> index of its first nonzero probe, or None
    xab_test: int  # the ``_OFF`` bits of every split field
    ortho_test: int  # the ``_OFF`` bits of every triple field
    closed_test: int  # the ``_UNEVEN`` bits of every triple field


@lru_cache(maxsize=None)
def _layout(n: int) -> _Layout:
    pairs = list(combinations(range(n), 2))  # slot order is pair_index order
    slot = {pair: p for p, pair in enumerate(pairs)}
    quads = list(combinations(range(n), 4))
    triples = {t: i for i, t in enumerate(combinations(range(n), 3))}
    q, r, pair_count = len(quads), len(triples), len(pairs)

    split_field = [None] * (pair_count * pair_count)
    for t, (a, b, c, d) in enumerate(quads):
        for plane, (x, y) in enumerate((((a, b), (c, d)), ((a, c), (b, d)), ((a, d), (b, c)))):
            px, py = slot[x], slot[y]
            split_field[px * pair_count + py] = split_field[py * pair_count + px] = (
                6 * t, _PLUS[plane], _MINUS[plane]
            )

    triple_field = [None] * (pair_count * n)
    for p, (i, j) in enumerate(pairs):
        for k in range(n):
            if k != i and k != j:
                triple = tuple(sorted((i, j, k)))
                role = triple.index(k)
                triple_field[p * n + k] = (6 * (q + triples[triple]), _PLUS[role], _MINUS[role])

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
    first_probe = [None] * 64
    for k in product((-1, 0, 1), repeat=3):
        k0, k1, k2 = k
        values = (2 * (k0 - k2), 2 * (k1 + k2), -2 * (k0 + k1))
        if any(values):  # all three vanish only for the non-breaking (k, -k, k)
            first_probe[_field_value(k)] = next(i for i, v in enumerate(values) if v)
    split_fields = sum(1 << 6 * t for t in range(q))
    triple_fields = sum(1 << 6 * (q + t) for t in range(r))
    return _Layout(
        n, q, r, pair_count, split_field, triple_field, probes, tuple(first_probe),
        _OFF * split_fields, _OFF * triple_fields, _UNEVEN * triple_fields,
    )


def _pairs_mask(layout: _Layout, pairs) -> int:
    """The verdict mask of ``pairs``, (pair slot, 0-based axis, sign)
    triples with distinct slots: each pair's triple role, and the split it
    makes with each earlier pair of its axis, one field value added each."""
    split_field, triple_field = layout.split_field, layout.triple_field
    width, n = layout.pair_count, layout.n
    earlier = [[] for _ in range(n)]  # per axis: the (slot, sign) seen so far
    mask = 0
    for p, k, s in pairs:
        shift, plus, minus = triple_field[p * n + k]
        mask += (plus if s > 0 else minus) << shift
        row = p * width
        for p2, s2 in earlier[k]:
            shift, plus, minus = split_field[row + p2]
            mask += (plus if s == s2 else minus) << shift
        earlier[k].append((p, s))
    return mask


@lru_cache(maxsize=None)
def _matching_masks(n: int):
    """Per axis (0-based), per matching index: the verdict mask under the
    canonical orientation of ``orient_pair``. An n whose matchings are too
    many is refused before the layout is built."""
    choice_masks = _axis_choice_masks(n)
    layout = _layout(n)
    pairs = list(combinations(range(n), 2))  # slot order is pair_index order
    return tuple(
        tuple(
            _pairs_mask(
                layout,
                # 0-based: e_i x e_j = -e_k exactly when i < k < j (``orient_pair``).
                [(p, k, -1 if pairs[p][0] < k < pairs[p][1] else 1) for p in _slots(m)],
            )
            for m in masks
        )
        for k, masks in enumerate(choice_masks)
    )


def _tensor_mask(tensor: StructureTensor) -> Tuple[_Layout, int]:
    """(layout, mask) of a tensor, from its own slot tuples, whose slot p is
    in ``pair_index`` order, as in the layout."""
    layout = _layout(tensor.dim.n)
    return layout, _pairs_mask(layout, zip(count(), *tensor.slots))


def _verdict(layout: _Layout, mask: int):
    """(closed, orthogonality_zero, xab_zero, witness) of a verdict mask: a
    tensor's ``_tensor_mask``, or a scheme's sum of its axis masks, which
    the census walk yields. The witness is None when X_AB is identically
    zero. ``tensor_verdict`` and ``census`` both take their verdicts here.

    Fields. The mask holds one 6-bit field per 4-subset (its three split
    planes) and one per triple (its three roles). Read k_i = 0 when plane
    or role i is absent and its sign (product) otherwise; the field is the
    sum over the present ones of ``_PLUS[i]`` (k_i = +1) or ``_MINUS[i]``
    (k_i = -1). Write a field as lo + 8 hi. ``_PLUS`` = (1, 2, 1) + 8 (1, 0, 1)
    and ``_MINUS`` = (1, 2, 1) + 8 (2, 2, 2), so

        lo = sum over present i of (1, 2, 1)[i],
        hi = sum over present i of (1, 0, 1)[i] + sum over k_i = -1 of (1, 2, 1)[i].

    lo <= 4 and hi <= 6, so lo stays in bits 0..2, hi in bits 3..5, and a
    field is at most 52. lo is 0 for no plane, 1, 2, 1, 3, 2, 3 for the
    six proper nonempty subsets and 4 for all three, so lo = 0 mod 4
    exactly when none or all are present: no ``_UNEVEN`` bit (0b000011)
    set. With none present hi = 0. With all present hi = 2 plus the
    (1, 2, 1) weights of the negative ones, which is 0 mod 4 exactly when
    those weigh 2: only k_1 = -1, (1, -1, 1), or only k_0 = k_2 = -1,
    (-1, 1, -1). Hence no ``_OFF`` bit (0b011011) of a field is set exactly
    when its (k0, k1, k2) is all 0 or +-(1, -1, 1). The X_AB identity is
    this test on every split field, ``mask & xab_test``, orthogonality is
    the same test on every triple field, ``mask & ortho_test``, and closure
    is the ``_UNEVEN`` test on every triple field, ``mask & closed_test``.

    No carries. Each field receives at most one value per plane or role:
    a pair has one slot, so it sits on one axis (a tensor's target, a
    scheme's one matching holding it), which makes it one role of one
    triple, and at most one axis holds both pairs of a split. So a field
    sums at most ``_MINUS[0] + _MINUS[1] + _MINUS[2]`` = 52 < 64, whether
    ``_pairs_mask`` adds one pair's values at a time or the census walk adds
    the masks of a scheme's n axes: no sum carries into the next field, and
    the int sum is the field-by-field sum.

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
    no split field has an ``_OFF`` bit set.

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
    holds identically exactly when no triple field has an ``_OFF`` bit set.
    And no triple field has an ``_UNEVEN`` bit set exactly when the scheme
    is closed: each pair {i,j} on axis k comes with {j,k} on axis i and
    {i,k} on axis j.

    Under the canonical orientation e_lo x e_hi = -e_k exactly when
    lo < k < hi, so every present triple has role signs (1, -1, 1) and
    orthogonality_zero equals closed.

    Witness. A 0/1 vector pair with X_AB != 0 is read off the split field
    t of the lowest set bit of ``mask & xab_test``, the first breaking
    4-subset, by one table lookup on its value. On vectors supported on the
    4-subset {a,b,c,d} of t only its own three splits contribute, and the
    probes give, in this order, (e_a+e_c, e_b+e_d): 2(k0-k2);
    (e_a+e_b, e_c+e_d): 2(k1+k2); (e_a+e_d, e_b+e_c): -2(k0+k1). All three
    vanish only for (k0, k1, k2) = (k, -k, k), which is not a breaking
    4-subset. ``_PLUS`` and ``_MINUS`` weigh planes 0 and 2 alike, so a
    field value stands for a pattern and its mirror (k2, k1, k0), whose
    probe values are (-v0, -v2, -v1): both take probe 0 when v0 != 0, and
    when v0 = 0, k0 = k2 and the mirror is the pattern itself. The one
    other shared value, 18, is (0, -1, 0) and (1, 0, 1), and
    both take probe 1. So ``first_probe`` names, for every breaking value,
    the first nonzero probe of each pattern with that value, and every
    value that reaches the lookup has an entry (tests/test_verify.py
    checks all 27 patterns).
    """
    closed = not mask & layout.closed_test
    ortho_zero = not mask & layout.ortho_test
    xab_off = mask & layout.xab_test
    if not xab_off:
        return closed, ortho_zero, True, None
    t = ((xab_off & -xab_off).bit_length() - 1) // 6
    return closed, ortho_zero, False, layout.probes[t][layout.first_probe[mask >> 6 * t & 63]]


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
    ``_verdict``.
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


def defect_report(
    scheme: Scheme, a: Vector, b: Vector, tensor: StructureTensor
) -> DefectReport:
    """Orthogonality defects and X_AB by all three routes for one (A, B),
    on ``tensor``, the structure tensor of ``scheme``. A x B is computed
    once, for the defects and the direct route."""
    c = tensor.cross(a, b)
    return DefectReport(
        dot_with_a=dot(c, a),
        dot_with_b=dot(c, b),
        xab_direct=_xab_of_cross(c, a, b),
        xab_tensor=xab_tensor(tensor, a, b),
        xab_pairs=xab_pairs(tensor, a, b, scheme),
    )


class CensusRecord(NamedTuple):
    """Classification of one scheme, in enumeration order (1-based ids).

    A named tuple: it compares equal to the plain tuple of its fields, and
    setting a field raises ``AttributeError``.
    """

    scheme_id: int
    closed: bool
    orthogonality_zero: bool
    xab_zero: bool
    witness: Optional[Tuple[Tuple[int, ...], Tuple[int, ...]]] = None


def census(
    dim: Dimension,
    *,
    limit: Optional[int] = None,
) -> Iterator[CensusRecord]:
    """Classify every scheme of the dimension, in enumeration order.

    Each record carries the scheme's verdict under the canonical
    orientation (see ``tensor_verdict``). No Scheme, StructureTensor or
    branch tuple is built: the exact-cover walk labels each matching with
    its verdict mask (``_matching_masks``) and yields each scheme's sum of
    them, its whole verdict mask, and ``_verdict`` reads that.
    """
    n = _check_dim(dim)
    limit = _check_limit(limit)
    labels = _matching_masks(n)  # first, to refuse too many matchings
    layout = _layout(n)
    masks = enumerate_covers(_axis_choice_masks(n), labels=labels)
    verdicts = map(_verdict, repeat(layout), islice(masks, limit))
    for scheme_id, verdict in enumerate(verdicts, 1):
        # tuple.__new__ skips the NamedTuple's Python-level __new__.
        yield tuple.__new__(CensusRecord, (scheme_id,) + verdict)


def format_witness(witness) -> str:
    if witness is None:
        return ""
    a, b = witness
    return ",".join(map(str, a)) + ";" + ",".join(map(str, b))


def write_census_csv(records, stream: TextIO) -> int:
    """Write records in the fixed CSV layout; returns the number written.

    Census verdicts repeat (a few dozen distinct ones per n), so the part
    of a row after its id is formatted once per distinct ``record[1:]``, by
    ``csv.writer``, and each row is its id followed by that cached tail.
    """
    import csv
    from io import StringIO

    buf = StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CENSUS_CSV_HEADER)
    stream.write(buf.getvalue())
    flag = ("false", "true")
    tails = {}
    count = 0
    for rec in records:
        key = rec[1:]
        tail = tails.get(key)
        if tail is None:
            closed, ortho_zero, xab_zero, witness = key
            buf.seek(0)
            buf.truncate()
            writer.writerow(
                ("", flag[closed], flag[ortho_zero], flag[xab_zero], format_witness(witness))
            )
            tail = tails[key] = buf.getvalue()
        stream.write(f"{rec[0]}{tail}")
        count += 1
    return count
