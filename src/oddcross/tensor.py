"""Signed structure tensors and the generalized cross product.

A scheme fixes which axis each basis product lands on; the orientation
rule fixes the sign. Together they define a sparse tensor L with
e_i x e_j = L[i,j,k] e_k and L[i,j,k] in {-1, 0, +1}, the n-dimensional
analogue of the Levi-Civita symbol.

Arithmetic is polymorphic: integer vectors produce exact integer results,
float vectors go through ordinary double precision.
"""

from __future__ import annotations

from itertools import combinations
from operator import index
from typing import NamedTuple, Optional, Sequence, Tuple

from .errors import (
    DimensionMismatchError,
    IndexRangeError,
    SelfPairError,
    TensorValidationError,
)
from .schemes import Dimension, Pair, Scheme, pair_index

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
    size = n * (n - 1) // 2
    if len(target) != size or len(sign) != size:
        raise TensorValidationError(
            f"target and sign need {size} entries for n={n}, one per pair i < j, "
            f"got {len(target)} and {len(sign)}"
        )
    used = [0] * n  # per axis: bitmask of the indices its pairs hold
    for p, (i, j) in enumerate(combinations(range(n), 2)):
        try:
            # Kept as the ints they stand for, so an int-like value (a numpy
            # integer) stores as an int and a float or string is rejected.
            k = target[p] = index(target[p])
            s = sign[p] = index(sign[p])
        except TypeError:
            raise TensorValidationError(
                f"entry ({i + 1}, {j + 1}) has target {target[p]!r} and sign "
                f"{sign[p]!r}, need ints"
            ) from None
        if not 0 <= k < n or k == i or k == j:
            raise TensorValidationError(
                f"entry ({i + 1}, {j + 1}) targets axis {k + 1}, "
                f"need an axis in 1..{n} other than {i + 1} and {j + 1}"
            )
        if s != 1 and s != -1:
            raise TensorValidationError(f"entry ({i + 1}, {j + 1}) has sign {s}, need +-1")
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

    Stored as one (target, sign) slot per unordered pair i < j, in
    ``pair_index`` order: e_i x e_j = sign * e_target (0-based target
    internally, 1-based in the API), and e_j x e_i is its negation, so the
    n(n-1)/2 slots fix the whole antisymmetric product.

    The constructor rejects, with TensorValidationError, any lists that are
    not a scheme with signs: wrong lengths, a target or sign that is not an
    int, a target out of range or equal to i or j, a sign other than +-1,
    or two pairs on one axis that share an index. With n axes of at most
    (n-1)/2 disjoint pairs each holding all n(n-1)/2 pairs, every axis then
    carries a perfect matching, which the identity classifier relies on.
    """

    def __init__(self, dim: Dimension, target: Sequence[int], sign: Sequence[int]):
        self.dim = dim
        self._target = list(target)
        self._sign = list(sign)
        _validate(dim.n, self._target, self._sign)

    @classmethod
    def from_scheme(cls, scheme: Scheme) -> "StructureTensor":
        n = scheme.dim.n
        target = [0] * scheme.dim.pair_count
        sign = [0] * scheme.dim.pair_count
        for matching in scheme.matchings:
            k = matching.axis
            for pair in matching.pairs:
                p = pair_index(n, pair)
                target[p] = k - 1
                sign[p] = 1 if orient_pair(pair, k) == pair else -1
        return cls(scheme.dim, target, sign)

    def lookup(self, i: int, j: int) -> Optional[TensorEntry]:
        """The (axis, sign) slot of e_i x e_j, or None when i == j."""
        n = self.dim.n
        if not (1 <= i <= n and 1 <= j <= n):
            raise IndexRangeError(f"indices {i},{j} out of range 1..{n}")
        if i == j:
            return None
        if i < j:
            p = pair_index(n, (i, j))
            return TensorEntry(self._target[p] + 1, self._sign[p])
        p = pair_index(n, (j, i))
        return TensorEntry(self._target[p] + 1, -self._sign[p])

    def entries(self):
        """Iterate (i, j, axis, sign) over the ordered entries with i < j."""
        pairs = combinations(range(1, self.dim.n + 1), 2)
        for (i, j), k, s in zip(pairs, self._target, self._sign):
            yield i, j, k + 1, s

    def axis_entries(self) -> list:
        """Per output axis k (0-based), the list of (i, j, sign) with
        e_i x e_j = sign * e_k over ordered i != j (0-based): each axis gets
        its n-1 entries, every pair in both orders."""
        per_axis = [[] for _ in range(self.dim.n)]
        pairs = combinations(range(self.dim.n), 2)
        for (i, j), k, s in zip(pairs, self._target, self._sign):
            per_axis[k] += (i, j, s), (j, i, -s)
        return per_axis

    def pair_arrays(self) -> Tuple[list, list]:
        """Copies of the 0-based target and the sign lists, one slot per
        pair i < j in ``pair_index`` order."""
        return list(self._target), list(self._sign)

    def cross(self, a: Vector, b: Vector) -> list:
        """A x B: component k is the sum of sign * a_i * b_j over entries
        targeting k, taken over all ordered (i, j): each stored pair i < j
        gives s * a_i * b_j and -s * a_j * b_i."""
        n = self.dim.n
        if len(a) != n or len(b) != n:
            raise DimensionMismatchError(
                f"tensor is {n}-dimensional, vectors have length {len(a)} and {len(b)}"
            )
        out = [0] * n
        for (i, j), k, s in zip(combinations(range(n), 2), self._target, self._sign):
            # The terms of e_i x e_j and of e_j x e_i, skipped where a is 0.
            if a[i]:
                out[k] += s * a[i] * b[j]
            if a[j]:
                out[k] += -s * a[j] * b[i]
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
