"""Signed structure tensors and the generalized cross product.

A scheme fixes which axis each basis product lands on; the orientation
rule fixes the sign. Together they define a sparse tensor L with
e_i x e_j = L[i,j,k] e_k and L[i,j,k] in {-1, 0, +1}, the n-dimensional
analogue of the Levi-Civita symbol.

Arithmetic is polymorphic: integer vectors produce exact integer results,
float vectors go through ordinary double precision.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence, Tuple

from .errors import (
    DimensionMismatchError,
    IndexRangeError,
    SelfPairError,
    TensorValidationError,
)
from .schemes import Dimension, Pair, Scheme

Vector = Sequence


def orient_pair(pair: Pair, axis: int) -> Tuple[int, int]:
    """Order a pair so that (first, second, axis) is an even permutation.

    Even means even relative to the ascending sort of the three indices,
    so e_first x e_second = +e_axis. The ordering flips exactly when the
    axis falls strictly between the two pair members.
    """
    lo, hi = pair
    if axis == lo or axis == hi:
        raise SelfPairError(f"axis {axis} collides with pair {lo}-{hi}")
    if lo < axis < hi:
        return hi, lo
    return lo, hi


def _validate(n: int, target: list, sign: list) -> None:
    size = n * n
    if len(target) != size or len(sign) != size:
        raise TensorValidationError(
            f"target and sign need {size} entries for n={n}, "
            f"got {len(target)} and {len(sign)}"
        )
    used = [0] * n  # per axis: bitmask of the indices its pairs hold
    for i in range(n):
        row = i * n
        if target[row + i] != -1 or sign[row + i] != 0:
            raise TensorValidationError(f"diagonal entry ({i + 1}, {i + 1}) must be (-1, 0)")
        for j in range(i + 1, n):
            k = target[row + j]
            s = sign[row + j]
            if not 0 <= k < n or k == i or k == j:
                raise TensorValidationError(
                    f"entry ({i + 1}, {j + 1}) targets axis {k + 1}, "
                    f"need an axis in 1..{n} other than {i + 1} and {j + 1}"
                )
            if s != 1 and s != -1:
                raise TensorValidationError(f"entry ({i + 1}, {j + 1}) has sign {s}, need +-1")
            if target[j * n + i] != k or sign[j * n + i] != -s:
                raise TensorValidationError(
                    f"entry ({j + 1}, {i + 1}) is not the negation of ({i + 1}, {j + 1})"
                )
            members = (1 << i) | (1 << j)
            if used[k] & members:
                raise TensorValidationError(
                    f"axis {k + 1} holds two pairs sharing an index with {i + 1}-{j + 1}"
                )
            used[k] |= members


class TensorEntry(NamedTuple):
    axis: int
    sign: int


class StructureTensor:
    """Sparse signed tensor: every ordered index pair maps to one axis.

    Stored as flat n*n target/sign arrays (0-based internally, 1-based in
    the API); the (j, i) entry is always the negation of (i, j).

    The constructor rejects, with TensorValidationError, any arrays that are
    not a scheme with signs: wrong lengths, a diagonal other than (-1, 0),
    an off-diagonal target out of range or equal to i or j, a sign other
    than +-1, a (j, i) entry that is not (same target, -sign), or two
    pairs on one axis that share an index. With n axes of at most (n-1)/2
    disjoint pairs each holding all n(n-1)/2 pairs, every axis then carries
    a perfect matching, which the identity classifier relies on.
    """

    def __init__(self, dim: Dimension, target: Sequence[int], sign: Sequence[int]):
        self.dim = dim
        self._target = list(target)
        self._sign = list(sign)
        _validate(dim.n, self._target, self._sign)

    @classmethod
    def from_scheme(cls, scheme: Scheme) -> "StructureTensor":
        n = scheme.dim.n
        target = [-1] * (n * n)
        sign = [0] * (n * n)
        for matching in scheme.matchings:
            k = matching.axis
            for pair in matching.pairs:
                first, second = orient_pair(pair, k)
                target[(first - 1) * n + (second - 1)] = k - 1
                sign[(first - 1) * n + (second - 1)] = 1
                target[(second - 1) * n + (first - 1)] = k - 1
                sign[(second - 1) * n + (first - 1)] = -1
        return cls(scheme.dim, target, sign)

    def lookup(self, i: int, j: int) -> Optional[TensorEntry]:
        """The (axis, sign) slot of e_i x e_j, or None when i == j."""
        n = self.dim.n
        if not (1 <= i <= n and 1 <= j <= n):
            raise IndexRangeError(f"indices {i},{j} out of range 1..{n}")
        if i == j:
            return None
        flat = (i - 1) * n + (j - 1)
        return TensorEntry(self._target[flat] + 1, self._sign[flat])

    def entries(self):
        """Iterate (i, j, axis, sign) over the ordered entries with i < j."""
        n = self.dim.n
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                flat = (i - 1) * n + (j - 1)
                yield i, j, self._target[flat] + 1, self._sign[flat]

    def axis_entries(self) -> list:
        """Per output axis k (0-based), the list of (i, j, sign) with
        e_i x e_j = sign * e_k over ordered i != j (0-based): each axis gets
        its n-1 entries, every pair in both orders. Read from the stored
        arrays without copying them."""
        n = self.dim.n
        target, sign = self._target, self._sign
        per_axis = [[] for _ in range(n)]
        for i in range(n):
            row = i * n
            for j in range(n):
                if i != j:
                    per_axis[target[row + j]].append((i, j, sign[row + j]))
        return per_axis

    def flat_arrays(self) -> Tuple[list, list]:
        """Copies of the 0-based flat target/sign arrays (kernel input form)."""
        return list(self._target), list(self._sign)

    def cross(self, a: Vector, b: Vector) -> list:
        """A x B: component k is the sum of sign * a_i * b_j over entries
        targeting k, taken over all ordered (i, j)."""
        n = self.dim.n
        if len(a) != n or len(b) != n:
            raise DimensionMismatchError(
                f"tensor is {n}-dimensional, vectors have length {len(a)} and {len(b)}"
            )
        out = [0] * n
        for i in range(n):
            ai = a[i]
            if not ai:
                continue
            row = i * n
            for j in range(n):
                if i == j:
                    continue
                s = self._sign[row + j]
                out[self._target[row + j]] += s * ai * b[j]
        return out

    def __eq__(self, other):
        if not isinstance(other, StructureTensor):
            return NotImplemented
        return (
            self.dim == other.dim
            and self._target == other._target
            and self._sign == other._sign
        )

    def __repr__(self):
        return f"StructureTensor(n={self.dim.n})"


def build_tensor(scheme: Scheme) -> StructureTensor:
    """Orient every assigned pair and install the signed entries."""
    return StructureTensor.from_scheme(scheme)


def pair_determinant(a: Vector, b: Vector, alpha: int, beta: int):
    """The 2x2 determinant a_alpha * b_beta - a_beta * b_alpha."""
    n = len(a)
    if not (1 <= alpha <= n and 1 <= beta <= n):
        raise IndexRangeError(f"indices {alpha},{beta} out of range 1..{n}")
    return a[alpha - 1] * b[beta - 1] - a[beta - 1] * b[alpha - 1]


def dot(a: Vector, b: Vector):
    if len(a) != len(b):
        raise DimensionMismatchError(
            f"vectors have different lengths {len(a)} and {len(b)}"
        )
    return sum(x * y for x, y in zip(a, b))
