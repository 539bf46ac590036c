"""Brownian-motion approximants driven by a single Poisson process.

A unit-rate Poisson count N, one angle per coordinate, and the scaling

    component_i(t) = eps * integral_0^{2t/eps^2} trig(theta_i * N_x) dx

produce a process whose law approaches a multidimensional standard
Brownian motion as eps shrinks, provided the angle vector satisfies the
admissibility conditions. This package builds those processes exactly
(no quadrature) and ships a Monte Carlo harness that verifies the
testable consequences: covariance structure, vanishing cross-moments at
the eps^2 rate, fourth-moment tightness, Gaussian marginals, martingale
residuals, and the deterministic degeneracies that appear when the
conditions are violated.
"""

from .angles import (
    Angle,
    HypothesisReport,
    TAU_THETA,
    ThetaConfig,
    Violation,
    parse_angle,
    validate_hypothesis_h,
)
from .poisson import (
    PoissonPath,
    char_fn,
    decay_factor,
    sample_poisson_path,
    trig_integral,
)
from .process import (
    EvaluationGrid,
    ProcessSample,
    SampleBlock,
    build_sample,
    map_to_path_time,
)
from .report import RunReport, emit_plot_data
from .rng import derive_stream
from .runconfig import ConfigError, RunConfig, load_config, parse_config_text
from .runner import InvalidThetaError, generate_samples, run_experiment
from .stats import (
    DegeneratePairError,
    DegenerateSampleError,
    Estimate,
    NormalityReport,
    compensated_sum,
    correlation_matrix,
    cross_moment,
    empirical_increment_covariance,
    fourth_moment_ratio,
    martingale_residual,
    normality_check,
    quadratic_variation,
    rate_fit,
    stroock_variance_check,
    structural_bound_eval,
)
from .version import VERSION as __version__

__all__ = [
    "Angle",
    "ConfigError",
    "DegeneratePairError",
    "DegenerateSampleError",
    "Estimate",
    "EvaluationGrid",
    "HypothesisReport",
    "InvalidThetaError",
    "NormalityReport",
    "PoissonPath",
    "ProcessSample",
    "RunConfig",
    "RunReport",
    "SampleBlock",
    "TAU_THETA",
    "ThetaConfig",
    "Violation",
    "build_sample",
    "char_fn",
    "compensated_sum",
    "correlation_matrix",
    "cross_moment",
    "decay_factor",
    "derive_stream",
    "emit_plot_data",
    "empirical_increment_covariance",
    "fourth_moment_ratio",
    "generate_samples",
    "load_config",
    "map_to_path_time",
    "martingale_residual",
    "normality_check",
    "parse_angle",
    "parse_config_text",
    "quadratic_variation",
    "rate_fit",
    "run_experiment",
    "sample_poisson_path",
    "stroock_variance_check",
    "structural_bound_eval",
    "trig_integral",
    "validate_hypothesis_h",
    "__version__",
]
