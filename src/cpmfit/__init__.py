"""Superellipse-based compressor speedline fitting and prediction toolkit."""

from .errors import (
    CpmFitError,
    DegenerateInputError,
    DomainError,
    FitFailureError,
    InvalidPredictionError,
    MetricError,
    NoEllipseError,
    ParseError,
    UndefinedMetricError,
)
from .metrics import (
    ErrorSummary,
    EvalMode,
    MetricKind,
    evaluate_prediction,
    mape,
    nearest_point_on_curve,
    ortho_sum,
    residual_sd,
    rmse,
)
from .model import (
    BetaVector,
    CompressorMap,
    ConicCoefficients,
    OperatingPoint,
    Speedline,
    conic_geometry,
    fit_direct_conic,
    implicit_residual,
    massflow_at,
    pressure_at,
    sample_curve,
)
from .optimize import (
    Bounds,
    FitConfig,
    FitResult,
    InitStrategy,
    LocalSolver,
    default_bounds,
    differential_evolution,
    fit_speedline,
    nelder_mead,
    objective,
    particle_swarm,
)
from .predict import (
    AggregateSummary,
    BetaTable,
    PolyModel,
    PredictionConfig,
    PredictionKind,
    PredictionReport,
    RepairFlags,
    aggregate_reports,
    classify,
    fit_beta_polynomials,
    fit_each_line,
    fit_map,
    holdout_predict,
    loo_crossval,
    predict_beta,
)
from .dataio import (
    RawRecord,
    ScaleRecord,
    denormalize_map,
    export_curve_svg,
    export_report,
    group_speedlines,
    normalize_map,
    parse_map_csv,
)

__version__ = "0.1.0"
