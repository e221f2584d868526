"""Generalized cross products in odd-dimensional space.

Enumerates the pairing schemes that define basis-vector products,
builds their signed structure tensors, evaluates A x B and the cross
term X_AB along independent routes, and classifies every scheme of a
dimension by exact identity tests.
"""

from .errors import (
    AxisRangeError,
    BadMatchingError,
    ChoiceRangeError,
    DimensionMismatchError,
    DimensionTooSmallError,
    DuplicatePairError,
    EvenDimensionError,
    FeasibilityError,
    IndexRangeError,
    MissingPairError,
    OddCrossError,
    SchemeSyntaxError,
    SchemeTensorMismatchError,
    SchemeValidationError,
    SelfPairError,
    TensorValidationError,
)
from .kernels import BACKEND as KERNEL_BACKEND  # read by perfbench/worker.py
from .schemes import (
    Dimension,
    Matching,
    Pair,
    Scheme,
    axis_matchings,
    branch_scheme,
    enumerate_schemes,
    feasible_dimension,
    is_closed,
    make_pair,
    scheme_branches,
    validate_scheme,
)
from .tensor import (
    StructureTensor,
    TensorEntry,
    build_tensor,
    dot,
    orient_pair,
    pair_determinant,
)
from .textio import emit_scheme_text, load_scheme, parse_scheme_text
from .verify import (
    CensusRecord,
    DefectReport,
    census,
    defect_report,
    find_witness,
    format_witness,
    orthogonality_defect,
    tensor_verdict,
    write_census_csv,
    xab_direct,
    xab_pairs,
    xab_tensor,
)

__version__ = "0.1.0"
