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
"""


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
