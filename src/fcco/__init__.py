"""Solvers and benchmark harness for convex finite-sum coupled compositional
optimization: a primal-dual block-coordinate method with extrapolation,
baseline solvers, application problem builders with known-optimum benchmark
instances, and an empirical rate-verification harness."""

__version__ = "0.1.0"

from .errors import (
    ConfigValidationError,
    DataError,
    DegenerateSelectionError,
    DivergenceError,
    DomainViolationError,
    FccoError,
    FlatViewUnavailableError,
    InsufficientPointsError,
    InvalidBatchSizeError,
    InvalidParameterError,
    LibsvmParseError,
    NotSmoothError,
    RepresentationMismatchError,
    UnsupportedExactEvaluationError,
)
from .problem import (
    BlockDualState,
    BoxDomain,
    InnerOracle,
    ProblemInstance,
    Regularizer,
    evaluate_objective,
    evaluate_saddle,
    primal_prox_step,
    project_box,
    sample_outer_batch,
)
from .outers import (
    ChiSquareOuter,
    HalfSquareShift,
    HingeHard,
    HuberHard,
    Identity,
    OuterFunction,
    PositivePart,
    ScaledPositivePart,
    grid_prox_oracle,
    primal_map,
    prox_dual_quadratic,
)
from .solvers import (
    AlexrConfig,
    AlexrState,
    BaselineConfig,
    RunRecord,
    alexr_step,
    bsgd_step,
    convex_preset,
    dual_update_conjugate,
    init_alexr_state,
    init_baseline_state,
    msvr_beta,
    msvr_step,
    run,
    sgd_step,
    sox_step,
    strongly_convex_preset,
)
from .instances import (
    HardInstance,
    build_gdro,
    build_hard_nonsmooth,
    build_hard_smooth,
    build_pauc,
    logistic_loss,
    sample_hard_noise,
)
from .datasets import (
    GroupedDataset,
    PaucDataset,
    build_synthetic_gdro,
    build_synthetic_pauc,
    dump_libsvm,
    load_grouped_csv,
    parse_libsvm,
)
from .metrics import (
    DualRadiusReport,
    RateFit,
    compute_dual_witness,
    distance_sq_gap,
    dual_radius,
    fit_rate,
    objective_gap,
    pauc_exact,
    worst_fraction_group_metric,
)
from .harness import (
    ExperimentConfig,
    emit_records,
    load_config,
    run_experiment,
    sweep_rate,
    validate_config,
)
