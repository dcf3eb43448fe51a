"""Numerical toolkit for doubly commuting pure tuples of contractions:
truncated isometric dilation into a vector-valued Hardy space over the
polydisc, characteristic-function multipliers, model-space identities,
and one-variable inner-function recovery."""

from .matrixcore import (
    DEFAULT_TOL,
    DimensionMismatch,
    NotHermitian,
    NotPSD,
    NumericalFailure,
    ToleranceConfig,
    operator_norm,
    orthonormal_range_basis,
    spectral_radius,
    subspace_distance,
)
from .tuples import (
    ContractionTuple,
    DefectData,
    DefectPair,
    FactorNotContractive,
    FactorNotPure,
    ValidationReport,
    defect_commutation_check,
    defect_operators,
    make_random_pure_contraction,
    make_tensor_tuple,
    validate_tuple,
)
from .hardy import (
    PointOutsidePolydisc,
    TruncatedHardySpace,
    apply_coshift,
    apply_shift,
    kernel_vector,
    szego_kernel,
)
from .dilation import (
    DegreeCapExceeded,
    DilationMap,
    adjoint_on_kernels_check,
    build_dilation,
    compressed_tuple_residual,
    intertwining_residual,
    isometry_defect,
    minimality_check,
)
from .model import (
    CharFn,
    ModelSpaces,
    NotProjection,
    ProjectionDriftExceedsTolerance,
    ResolventSingular,
    charfn_eval,
    charfn_taylor,
    charfns_for_tuple,
    inner_boundary_check,
    model_space,
    polydisc_kernel_checks,
    taylor_tail_estimate,
)
from .blh import (
    InnerColumnSet,
    NotCoinvariant,
    RankOneVerdict,
    model_inner_functions,
    rankone_corollary_check,
    reconstruct_S_check,
    wandering_basis,
)
# numpy 2.x loads numpy.random lazily: load it with the package for the CLI's sample
# draws, not in a suite call, and last (before the modules above: 1 MB more peak RSS)
import numpy.random  # noqa: E402

__version__ = "0.1.0"
