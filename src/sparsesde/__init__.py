"""Simulation and nonparametric coefficient recovery for linear jump SDEs
observed as sparse, noisy functional data."""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    CsvParseError,
    DesignRangeError,
    EstimationFailedError,
    NoIdentifiableRegionError,
    PolicyError,
    SimulationDivergedError,
    SingularFitError,
    SparseQuadratureError,
    SparseSdeError,
    SparseWindowError,
    ValidationError,
)
from .kernels import EPANECHNIKOV, GAUSSIAN_TRUNCATED, KernelSpec, kernel_by_name
from .model import (
    CoefficientSet,
    GaussianInitial,
    LevyConfig,
    PointMass,
    constant_model,
    expression_function,
    rescale_to_unit,
    sinusoid_model,
)
from .moments import MomentSolution, H_value, cov_value, solve_moments
from .simulate import PathGrid, SamplePathSet, simulate_blocks, simulate_ensemble
from .observe import (
    ClippedLinearDesign,
    DesignConfig,
    SparseObservations,
    UniformDesign,
    draw_design,
    export_observations_csv,
    ingest_csv,
    ingest_wide_csv,
    observe,
    observe_ensemble,
)
from .meanfit import (
    MeanEstimate,
    default_bandwidth_mean,
    fit_mean_at,
    fit_mean_curve,
    solve_wls,
)
from .covfit import (
    CovEstimate,
    PairScatter,
    default_bandwidth_cov,
    fit_cov_at,
    fit_cov_grid,
    fit_diag,
    fit_diagonal_inclusive,
    noise_variance_estimate,
    pair_scatter,
    smooth_squares,
)
from .recover import (
    CoefficientEstimate,
    SeparationPolicy,
    estimate_drift,
    estimate_total_noise,
    separate,
)
from .harness import (
    BootstrapResult,
    EmseResult,
    EstimateResult,
    ExperimentConfig,
    OracleReport,
    build_model,
    load_config,
    parse_config,
    run_bootstrap,
    run_emse,
    run_estimate,
    run_oracle_check,
)
