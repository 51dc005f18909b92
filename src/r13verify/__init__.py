"""Numerical well-posedness toolkit for the linearized R13 moment system.

Symmetric trace-free tensor calculus, symbol-map ellipticity
classification, Korn-constant estimation, and a mixed Galerkin
discretization on the unit cube with measured saddle-point constants.
"""

from .assembly import (
    BoundaryData,
    MixedSystem,
    ModelParams,
    VolumeSources,
    assemble_form,
    assemble_load,
    assemble_system,
    bc_residuals,
    compute_closures,
)
from .ellipticity import (
    EllipticityCheck,
    EllipticityVerdict,
    OperatorSpec,
    SamplingPlan,
    SymbolMatrix,
    apply_symbol,
    check_ellipticity,
    general_d_prefactors,
    lh_constant,
    symbol_matrix,
)
from .korn import (
    KornEstimate,
    coercivity_chain_check,
    div_right_inverse,
    korn_constant,
    operator_kernel_dimension,
    scalar_div_right_inverse,
)
from .report import RunConfig, VerificationReport, export, run
from .saddlepoint import (
    BrezziConstants,
    MixedSolution,
    brezzi_constants,
    infsup_constant,
    limit_consistency,
    solve_mixed,
)
from .spaces import DiscreteSpaces, ScalarBasis, build_spaces
from .tensors import Frame, frame_components, project2, project3, stf_basis
