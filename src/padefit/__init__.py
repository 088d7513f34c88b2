"""Rational-function regression on point data.

Fits ratios of polynomials R(x) = P(x**q) / Q(x**q) by linearized least
squares with optional ridge penalties, interpolates through reference
points, searches structure spaces, and ships a small Weibull reliability
toolkit plus deterministic synthetic data generation.
"""

from . import errors
from .datagen import (
    FUNCTIONS,
    NoiseSpec,
    normal_deviates,
    resonance,
    sample_noisy,
    simulate_weibull_failures,
    sin2pi,
    sqrt_exp,
    uniform_grid,
)
from .diagnostics import DerivativeGridSpec, oscillation_measure, rmse
from .fitting import (
    Dataset,
    FitConfig,
    FitReport,
    build_reference_points,
    fit_linearized,
    fit_regularized,
    interpolate_reference,
)
from .linsys import SolveDiagnostics, free_columns, solve_least_squares
from .rational import PoleReport, RationalModel, Tail, add, pole_scan
from .selection import (
    Candidate,
    LambdaSweep,
    SearchSpace,
    SweepRow,
    grid_search,
    lambda_sweep,
    q_search,
    tune_lambda1,
)
from .weibull import (
    WeibullParams,
    median_ranks,
    mle_fit,
    mttf,
    transform_fit,
    weibull_cdf,
    weibull_pdf,
)

__version__ = "0.1.0"

__all__ = [
    "Candidate",
    "Dataset",
    "DerivativeGridSpec",
    "FitConfig",
    "FitReport",
    "FUNCTIONS",
    "LambdaSweep",
    "NoiseSpec",
    "PoleReport",
    "RationalModel",
    "SearchSpace",
    "SolveDiagnostics",
    "SweepRow",
    "Tail",
    "WeibullParams",
    "add",
    "build_reference_points",
    "errors",
    "fit_linearized",
    "fit_regularized",
    "free_columns",
    "grid_search",
    "interpolate_reference",
    "lambda_sweep",
    "median_ranks",
    "mle_fit",
    "mttf",
    "normal_deviates",
    "oscillation_measure",
    "pole_scan",
    "q_search",
    "resonance",
    "rmse",
    "sample_noisy",
    "simulate_weibull_failures",
    "sin2pi",
    "solve_least_squares",
    "sqrt_exp",
    "transform_fit",
    "tune_lambda1",
    "uniform_grid",
    "weibull_cdf",
    "weibull_pdf",
    "__version__",
]
