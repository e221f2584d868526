"""Test oracles for ``oddcross.verify``.

``classify_product_table`` is the exact coefficient expansion of X_AB,
the oracle for the identity classifier. It accumulates the integer
coefficient of every monomial a_i a_l b_j b_m of X_AB, an n^2 x n^2 table
per product, so its X_AB verdict does not depend on the Plücker
criterion that the package uses.

``xab_dense`` is the dense contraction of chi with a, b, a, b over all
n^4 index 4-tuples, the oracle for the sparse ``verify.xab_tensor``.

Both read the product through ``StructureTensor.lookup`` only, so they do
not depend on how the tensor stores it.

The rest are oracles for the verdict mask, one 6-bit field per 4-subset
and per triple, to which split plane or triple role i adds ``PLUS[i]``
with sign (product) +1 and ``MINUS[i]`` with -1. They spell out that
encoding on their own and never read the package's field tables:

``planes_of_fields`` decodes fields back to (k0, k1, k2) patterns, with a
table built by brute force over all 27 patterns, and lays them out as
three presence planes and three sign planes, the form on which
``off_pattern``, the original pattern test, runs.

``decoded_witness`` is the oracle for the witness table lookup of
``verify._verdict``: it decodes the split coefficients of the breaking
4-subset bit by bit from those planes and tries the three probes in
order.

``verdict_two_tests`` is the oracle for ``verify._verdict``: the verdict
as it was first computed, one ``off_pattern`` call on the decoded split
planes and one on the decoded triple planes, with the witness from
``decoded_witness``.

``matching_masks_one_field_at_a_time`` is the oracle for the per-matching
verdict masks of ``verify._matching_masks``, each value added on its own
at a field position computed from the 4-subset or triple itself.
"""

from itertools import combinations, product

# The field encoding: plane or role i adds PLUS[i] with sign (product) +1
# and MINUS[i] with -1 to its field.
PLUS, MINUS = (9, 2, 9), (17, 18, 17)
PATTERNS = list(product((-1, 0, 1), repeat=3))
EVEN_PATTERNS = ((0, 0, 0), (1, -1, 1), (-1, 1, -1))  # the patterns that pass


def field_value(k):
    """The field of pattern (k0, k1, k2): 0 = absent, else the sign."""
    return sum(PLUS[i] if kp > 0 else MINUS[i] for i, kp in enumerate(k) if kp)


def probe_values(k):
    """X_AB, by the 4-subset formula, on the probes (e_a+e_c, e_b+e_d),
    (e_a+e_b, e_c+e_d) and (e_a+e_d, e_b+e_c) of a 4-subset with split
    coefficients k."""
    k0, k1, k2 = k
    return 2 * (k0 - k2), 2 * (k1 + k2), -2 * (k0 + k1)


def pattern_answers(k):
    """(uneven, off, first nonzero probe or None) of one pattern, straight
    from its definition."""
    present = sum(kp != 0 for kp in k)
    first = next((i for i, v in enumerate(probe_values(k)) if v), None)
    return 0 < present < 3, k not in EVEN_PATTERNS, first


def _decoding():
    """Field value -> one pattern with that value. Several patterns share
    a value, so this holds only when they share every answer that the
    verdict reads, which is checked here."""
    table = {}
    for k in PATTERNS:
        table.setdefault(field_value(k), []).append(k)
    for ks in table.values():
        assert len({pattern_answers(k) for k in ks}) == 1, ks
    return {value: ks[0] for value, ks in table.items()}


DECODE = _decoding()


def planes_of_fields(mask, first, count):
    """Fields first..first+count-1 of ``mask`` as three presence planes and
    three sign planes of ``count`` bits each: bit t of presence plane i
    when k_i != 0 at field first+t, of sign plane i when k_i = -1. A field
    value that no pattern has raises KeyError."""
    group = 0
    for t in range(count):
        for plane, kp in enumerate(DECODE[mask >> 6 * (first + t) & 63]):
            if kp:
                group |= 1 << plane * count + t
            if kp < 0:
                group |= 1 << (3 + plane) * count + t
    return group


def product_table(tensor):
    """The ordered product as flattened n*n target/sign arrays (0-based):
    entry (i, j) says e_i x e_j = sign * e_target, with target = -1 and
    sign = 0 on the diagonal."""
    n = tensor.dim.n
    target, sign = [-1] * (n * n), [0] * (n * n)
    for i in range(n):
        for j in range(n):
            entry = tensor.lookup(i + 1, j + 1)
            if entry is not None:
                target[i * n + j], sign[i * n + j] = entry.axis - 1, entry.sign
    return target, sign


def classify_product_table(tensor):
    """Decide both identity-level properties of a tensor's product table.

    Returns ``(orthogonality_zero, xab_zero)``:

    * ``orthogonality_zero``: the polynomials (AxB).A and (AxB).B vanish
      identically, which holds exactly when the table is antisymmetric
      under swapping the output slot with either input slot.
    * ``xab_zero``: the quartic |AxB|^2 - |A|^2|B|^2 + (A.B)^2 is the zero
      polynomial, decided by exact integer coefficient accumulation over
      monomials a_i a_l b_j b_m.
    """
    n = tensor.dim.n
    target, sign = product_table(tensor)
    ortho = True
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            k = target[i * n + j]
            s = sign[i * n + j]
            # Swap output with first input: need L[k,j,i] == -L[i,j,k].
            if target[k * n + j] != i or sign[k * n + j] != -s:
                ortho = False
                break
            # Swap output with second input: need L[i,k,j] == -L[i,j,k].
            if target[i * n + k] != j or sign[i * n + k] != -s:
                ortho = False
                break
        if not ortho:
            break

    # Monomial index for an unordered pair with repetition, i <= l.
    npairs = n * (n + 1) // 2

    def pr(i, l):
        if i > l:
            i, l = l, i
        return i * n - i * (i - 1) // 2 + (l - i)

    coeff = [0] * (npairs * npairs)

    # |AxB|^2: square each output component's bilinear form.
    for k in range(n):
        entries = [
            (i, j, sign[i * n + j])
            for i in range(n)
            for j in range(n)
            if i != j and target[i * n + j] == k
        ]
        for i1, j1, s1 in entries:
            for i2, j2, s2 in entries:
                coeff[pr(i1, i2) * npairs + pr(j1, j2)] += s1 * s2

    # -|A|^2 |B|^2 + (A.B)^2.
    for i in range(n):
        for j in range(n):
            coeff[pr(i, i) * npairs + pr(j, j)] -= 1
            coeff[pr(i, j) * npairs + pr(i, j)] += 1

    xab_zero = not any(coeff)
    return ortho, xab_zero


def xab_dense(tensor, a, b):
    """X_AB as the full four-index contraction of chi with a, b, a, b.

    chi[i,j,l,m] = T[i,j,l,m] + delta(i,m) delta(j,l) - delta(j,m) delta(i,l)
    where T[i,j,l,m] sums L[i,j,k] L[l,m,k] over the output axis k. The sum
    runs over all ordered index 4-tuples, which is what makes the pairwise
    route's factor 2 come out right.
    """
    n = tensor.dim.n
    assert len(a) == n and len(b) == n
    target, sign = product_table(tensor)
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


def decoded_witness(layout, splits, off):
    """The witness of the lowest breaking 4-subset t of ``off``: decode
    (k0, k1, k2) from the covered and sign planes ``splits`` at t, then
    take the first of t's probes whose X_AB, 2(k0-k2), 2(k1+k2) or
    -2(k0+k1), is nonzero."""
    t = (off & -off).bit_length() - 1
    q = layout.q
    k0, k1, k2 = (
        0 if not (splits >> bit) & 1 else (-1 if (splits >> (3 * q + bit)) & 1 else 1)
        for bit in (t, q + t, 2 * q + t)
    )
    for value, probe in zip((2 * (k0 - k2), 2 * (k1 + k2), -2 * (k0 + k1)), layout.probes[t]):
        if value:
            return probe
    raise AssertionError("bad 4-subset with no nonzero probe")


def off_pattern(group, w):
    """(uneven, off) of the three presence and three sign planes of a group
    of ``w`` bits each, from bit 0 up (higher bits are ignored): bit t of
    ``uneven`` is set when the presence planes differ at t, bit t of
    ``off`` when (k0, k1, k2) at t is neither all 0 nor +-(1, -1, 1)."""
    full = (1 << w) - 1
    p0, p1, p2 = group & full, group >> w & full, group >> 2 * w & full
    s0, s1, s2 = group >> 3 * w & full, group >> 4 * w & full, group >> 5 * w & full
    uneven = (p0 ^ p1) | (p0 ^ p2)
    return uneven, uneven | (s0 ^ s2) | (s1 ^ (p0 & ~s0))


def verdict_two_tests(layout, mask):
    """(closed, orthogonality_zero, xab_zero, witness) of a verdict mask by
    two ``off_pattern`` calls, on the decoded split planes and the decoded
    triple planes. A mask with bits above its q + r fields is refused."""
    q, r = layout.q, layout.r
    assert mask >> 6 * (q + r) == 0
    splits = planes_of_fields(mask, 0, q)
    xab_off = off_pattern(splits, q)[1]
    uneven, triple_off = off_pattern(planes_of_fields(mask, q, r), r)
    witness = decoded_witness(layout, splits, xab_off) if xab_off else None
    return not uneven, not triple_off, not xab_off, witness


def matching_masks_one_field_at_a_time(n):
    """``verify._matching_masks(n)`` built from the encoding alone, the
    oracle for ``verify._pairs_mask`` and ``verify._layout``: per axis and
    matching, the pairs listed as (pair, sign), and for each pair the
    value of its triple role, at field q + (index of its triple), and then
    the value of the split it makes with each later pair of the matching,
    at field (index of its 4-subset), each added on its own."""
    from oddcross.schemes import axis_matchings, feasible_dimension
    from oddcross.tensor import orient_pair

    dim = feasible_dimension(n)
    quads = {quad: t for t, quad in enumerate(combinations(range(n), 4))}
    triples = {triple: t for t, triple in enumerate(combinations(range(n), 3))}
    q = len(quads)

    def axis_mask(axis, pairs):
        mask = 0
        for x, (pair, s) in enumerate(pairs):
            triple = tuple(sorted(pair + (axis,)))
            role = triple.index(axis)
            value = PLUS[role] if s > 0 else MINUS[role]
            mask += value << 6 * (q + triples[triple])
            for pair2, s2 in pairs[x + 1 :]:
                a, b, c, d = quad = tuple(sorted(pair + pair2))
                plane = [{(a, b), (c, d)}, {(a, c), (b, d)}, {(a, d), (b, c)}].index(
                    {pair, pair2}
                )
                value = PLUS[plane] if s == s2 else MINUS[plane]
                mask += value << 6 * quads[quad]
        return mask

    return tuple(
        tuple(
            axis_mask(
                axis - 1,
                [
                    ((p[0] - 1, p[1] - 1), 1 if orient_pair(p, axis) == p else -1)
                    for p in m
                ],
            )
            for m in axis_matchings(dim, axis)
        )
        for axis in range(1, n + 1)
    )
