"""Stability laboratory for projector-splitting low-rank integrators.

Model hyperbolic and parabolic systems are stepped either on the full
solution matrix or on a factored rank-r state, in two low-rank formulations
(discretize-then-project and project-then-discretize). Closed-form one-step
multipliers for every scheme live next to the steppers, so stability
thresholds can be both derived and measured, and the two paths are
cross-checked mode by mode.
"""

from .amplification import (
    BoundaryResult,
    ContourGrid,
    amp_p1_p2_p3,
    contour_grid,
    find_boundary,
    mode_multiplier,
    stability_surface,
)
from .discretize import (
    VDiscretization,
    XGrid,
    build_modal,
    build_nodal,
    build_xgrid,
    coefficient_from_name,
    fourier_mode,
    gauss_legendre_points,
)
from .harness import (
    BOUNDARY_SUITE,
    VERIFY_SCHEMES,
    ConfigError,
    ExperimentConfig,
    NumericalError,
    RunRecord,
    emit_figure_grids,
    mode_probe_rank,
    parabolic_mode_equivalence,
    parse_config,
    parse_scheme_name,
    run_boundary_suite,
    run_oracle_suite,
    run_simulation,
    serialize_config,
    stability_verdict,
    verify_report,
)
from .integrators import (
    LowRankState,
    SchemeSpec,
    StepReport,
    init_lowrank,
    reconstruct,
    step,
)
from .linalg import (
    SingularMatrixError,
    SpectralDecomposition,
    frobenius_norm,
    matrix_abs,
    qr_thin,
    sym_eig,
)

__version__ = "0.1.0"
