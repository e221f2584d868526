"""Exception hierarchy for scheme validation and tensor operations."""


class OddCrossError(ValueError):
    """Base class for all errors raised by this package."""


class FeasibilityError(OddCrossError):
    """The requested dimension admits no equal-distribution pairing."""


class EvenDimensionError(FeasibilityError):
    """Even dimensions cannot distribute the index pairs evenly over axes."""


class DimensionTooSmallError(FeasibilityError):
    """Dimensions below 3 leave no pairs to distribute."""


class AxisRangeError(OddCrossError, IndexError):
    """An axis number outside 1..n."""


class IndexRangeError(OddCrossError, IndexError):
    """A basis index outside 1..n."""


class ChoiceRangeError(OddCrossError):
    """Matching choices that do not fit the axes: a choice outside an
    axis's candidates, a prefix longer than the axes, or a branch without
    exactly one choice per axis."""


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
    """Unparseable scheme text; carries the offending position."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f" (line {line}" + (f", column {column})" if column is not None else ")")
        super().__init__(message + where)
