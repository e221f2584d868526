"""Signed structure tensors and the generalized cross product.

A scheme fixes which axis each basis product lands on; the orientation
rule fixes the sign. Together they define a sparse tensor L with
e_i x e_j = L[i,j,k] e_k and L[i,j,k] in {-1, 0, +1}, the n-dimensional
analogue of the Levi-Civita symbol. ``build_tensor`` holds a scheme's
checked ``Scheme.slots`` tuples as they are; a tensor built from raw
lists is checked by the constructor instead.

Arithmetic is polymorphic: integer vectors produce exact integer results,
float vectors go through ordinary double precision.
"""

from __future__ import annotations

from itertools import combinations
from operator import index, mul
from typing import NamedTuple, Optional, Sequence, Tuple

from .errors import (
    DimensionMismatchError,
    IndexRangeError,
    SelfPairError,
    TensorValidationError,
)
from .schemes import Dimension, Pair, Scheme, _check_dim, _int_pair, pair_index

Vector = Sequence


def orient_pair(pair: Pair, axis: int) -> Tuple[int, int]:
    """Order a pair so that (first, second, axis) is an even permutation.

    Even means even relative to the ascending sort of the three indices,
    so e_first x e_second = +e_axis. The ordering flips exactly when the
    axis falls strictly between the two pair members. The members may come
    in either order; equal members raise SchemeValidationError, as in
    ``make_pair``.
    """
    lo, hi = pair
    if lo >= hi:
        lo, hi = _int_pair(lo, hi)
    if axis == lo or axis == hi:
        raise SelfPairError(f"axis {axis} collides with pair {lo}-{hi}")
    if lo < axis < hi:
        return hi, lo
    return lo, hi


def _validate(n: int, target: Sequence, sign: Sequence) -> Tuple[tuple, tuple]:
    """The raw slot lists as tuples of ints, once they pass the raw-list check."""
    target, sign = list(target), list(sign)
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
    return tuple(target), tuple(sign)


class TensorEntry(NamedTuple):
    axis: int
    sign: int


class StructureTensor(tuple):
    """Sparse signed tensor: every ordered index pair maps to one axis.

    The immutable, hashable tuple ``(dim, target, sign)``, with one (target,
    sign) slot per unordered pair i < j, in ``pair_index`` order: e_i x e_j
    = sign * e_target (0-based target internally, 1-based in the API), and
    e_j x e_i is its negation, so the n(n-1)/2 slots fix the whole
    antisymmetric product.

    There are two ways in. ``build_tensor`` shares a scheme's
    ``Scheme.slots`` tuples, which that scheme's one structural check
    produced, and checks nothing again. The constructor takes raw lists and
    rejects, with TensorValidationError, any that are not a scheme with
    signs: wrong lengths, a target or sign that is not an int, a target out
    of range or equal to i or j, a sign other than +-1, or two pairs on one
    axis that share an index. With n axes of at most (n-1)/2 disjoint pairs
    each holding all n(n-1)/2 pairs, every axis then carries a perfect
    matching, which the identity classifier relies on. Either way the slots
    are stored as immutable tuples.
    """

    __slots__ = ()

    def __new__(cls, dim: Dimension, target: Sequence[int], sign: Sequence[int]):
        return super().__new__(cls, (dim, *_validate(_check_dim(dim), target, sign)))

    def __getnewargs__(self):
        # The arguments pickle and copy pass to __new__, not a plain tuple's one.
        return tuple(self)

    @property
    def dim(self) -> Dimension:
        """The Dimension, the tuple's first item."""
        return self[0]

    @property
    def slots(self) -> Tuple[tuple, tuple]:
        """The 0-based target and the sign slots, in ``pair_index`` order:
        for a ``build_tensor`` tensor, the very ``Scheme.slots`` tuples of
        its scheme."""
        return self[1:]

    def lookup(self, i: int, j: int) -> Optional[TensorEntry]:
        """The (axis, sign) slot of e_i x e_j, or None when i == j."""
        dim, target, sign = self
        n = dim.n
        if not (1 <= i <= n and 1 <= j <= n):
            raise IndexRangeError(f"indices {i},{j} out of range 1..{n}")
        if i == j:
            return None
        if i < j:
            p = pair_index(n, (i, j))
            return TensorEntry(target[p] + 1, sign[p])
        p = pair_index(n, (j, i))
        return TensorEntry(target[p] + 1, -sign[p])

    def entries(self):
        """Iterate (i, j, axis, sign) over the ordered entries with i < j."""
        pairs = combinations(range(1, self.dim.n + 1), 2)
        for (i, j), k, s in zip(pairs, *self.slots):
            yield i, j, k + 1, s

    def cross(self, a: Vector, b: Vector) -> list:
        """A x B: component k is the sum of sign * a_i * b_j over entries
        targeting k, taken over all ordered (i, j): each stored pair i < j
        gives s * a_i * b_j and -s * a_j * b_i."""
        dim, target, sign = self
        n = _check_vectors(dim.n, a, b)
        out = [0] * n
        for (i, j), k, s in zip(combinations(range(n), 2), target, sign):
            # The terms of e_i x e_j and of e_j x e_i, skipped where a is 0.
            if a[i]:
                out[k] += s * a[i] * b[j]
            if a[j]:
                out[k] += -s * a[j] * b[i]
        return out

    def __repr__(self):
        return f"StructureTensor(n={self.dim.n})"


def _check_vectors(n: int, a: Vector, b: Vector) -> int:
    """n, once both vectors have length n (DimensionMismatchError otherwise)."""
    if len(a) != n or len(b) != n:
        raise DimensionMismatchError(
            f"tensor is {n}-dimensional, vectors have length {len(a)} and {len(b)}"
        )
    return n


def build_tensor(scheme: Scheme) -> StructureTensor:
    """The tensor of a scheme under the canonical orientation.

    It holds the scheme's own checked ``slots`` tuples, which a scheme
    from ``enumerate_schemes`` computes here, and the raw-list check does
    not run at all.
    """
    return tuple.__new__(StructureTensor, (scheme.dim, *scheme.slots))


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
    return sum(map(mul, a, b))
