"""Exception hierarchy for scheme validation and tensor operations."""


class OddCrossError(ValueError):
    """Base class for all errors raised by this package."""


class FeasibilityError(OddCrossError):
    """The requested dimension admits no equal-distribution pairing, or
    too many to enumerate."""


class EvenDimensionError(FeasibilityError):
    """Even dimensions cannot distribute the index pairs evenly over axes."""


class DimensionTooSmallError(FeasibilityError):
    """Dimensions below 3 leave no pairs to distribute."""


class TooManyMatchingsError(FeasibilityError):
    """The dimension's per-axis matchings are too many to build in memory."""


class DimensionTypeError(OddCrossError, TypeError):
    """A dimension argument that is not a ``Dimension``, such as a bare int n."""


class AxisRangeError(OddCrossError, IndexError):
    """An axis number outside 1..n."""


class IndexRangeError(OddCrossError, IndexError):
    """A basis index outside 1..n."""


class ChoiceRangeError(OddCrossError):
    """Matching choices that do not fit the axes: a choice outside an
    axis's candidates, a prefix longer than the axes, or a branch without
    exactly one choice per axis."""


class LimitError(OddCrossError):
    """A limit on the schemes or branches to yield that is neither None
    nor an int of at least 1."""


class SchemeValidationError(OddCrossError):
    """A candidate pairing scheme violates a structural invariant."""


class SelfPairError(SchemeValidationError):
    """A pair contains the axis it is assigned to."""


class BadMatchingError(SchemeValidationError):
    """The pairs under one axis overlap or do not cover the other indices."""


class DuplicatePairError(SchemeValidationError):
    """The same unordered pair is assigned to two axes."""

    def __init__(self, pair, first_axis, second_axis):
        self.pair = pair
        self.axes = (first_axis, second_axis)
        super().__init__(
            f"pair {pair[0]}-{pair[1]} assigned to both axis {first_axis} "
            f"and axis {second_axis}"
        )


class MissingPairError(SchemeValidationError):
    """Some unordered pair is assigned to no axis."""

    def __init__(self, pair):
        self.pair = pair
        super().__init__(f"pair {pair[0]}-{pair[1]} is not assigned to any axis")


class TensorValidationError(OddCrossError):
    """Target/sign lists that do not describe a signed scheme product."""


class DimensionMismatchError(OddCrossError):
    """Vectors and tensors of different dimensions were combined."""


class SchemeTensorMismatchError(OddCrossError):
    """A structure tensor does not agree with the scheme it was claimed to come from."""


class SchemeSyntaxError(OddCrossError):
    """Unparseable scheme text; carries the offending line, when known."""

    def __init__(self, message, line=None):
        self.line = line
        super().__init__(message if line is None else f"{message} (line {line})")
