"""Stationary diffusion on star graphs with many edges.

Solve the n-edge stage problems with P1 elements, average the solutions
over coefficient groups, and compare against the upscaled limit problem:
convergence tables, Cauchy-window diagnostics, balance identities, and an
equidistribution check, all reproducible from flat config files via the
``starfem`` command.
"""
from ._rng import PRNG_NAME
from .errors import (ConfigError, EmptyGroupError, InvalidArgumentError,
                     NumericalBreakdownError, StarFemError, UndefinedRateError)
from .stargraph import (GROUP_PROBS, GROUP_VALUES, TWO_PI, StarStage,
                        build_stage, coefficient_random)
from .forcing import (ForcingField, GridFunction, builtin_field,
                      manufactured_exact, manufactured_exact_deriv,
                      manufactured_profile, profile_moment)
from .femsolve import (ArrowheadSystem, StageSolution, assemble,
                       assemble_loads, center_flux_sum,
                       center_identity_residual, edge_identity_defects,
                       manufactured_case, solve, solve_stage)
from .upscale import (HomogenizedSolution, UpscaledProblem,
                      analytic_oracle, build_upscaled, center_limit,
                      predicted_edge_flux, solve_upscaled)
from .analysis import (CauchyRow, ConvergenceRow, cauchy_diagnostics,
                       cesaro_solution_average, continuum_error_norms,
                       convergence_table, grid_norms, rate_estimate,
                       rate_from_errors, reference_grids,
                       sample_grid, solve_example_stage, weyl_cos_mean,
                       weyl_fraction)
from .expcli import ExperimentConfig, load_config, parse_config, run

__version__ = "0.1.0"

__all__ = [
    "PRNG_NAME",
    "StarFemError", "InvalidArgumentError", "NumericalBreakdownError",
    "EmptyGroupError", "UndefinedRateError", "ConfigError",
    "GROUP_PROBS", "GROUP_VALUES", "TWO_PI", "StarStage",
    "coefficient_random", "build_stage",
    "ForcingField", "GridFunction", "builtin_field", "profile_moment",
    "manufactured_profile", "manufactured_exact", "manufactured_exact_deriv",
    "ArrowheadSystem", "StageSolution", "assemble", "assemble_loads",
    "solve", "solve_stage", "center_identity_residual",
    "edge_identity_defects", "center_flux_sum", "manufactured_case",
    "UpscaledProblem", "HomogenizedSolution",
    "solve_upscaled", "center_limit", "predicted_edge_flux",
    "build_upscaled", "analytic_oracle",
    "ConvergenceRow", "CauchyRow", "cesaro_solution_average", "grid_norms",
    "continuum_error_norms", "convergence_table", "cauchy_diagnostics",
    "rate_estimate", "rate_from_errors", "weyl_fraction", "weyl_cos_mean",
    "sample_grid", "solve_example_stage", "reference_grids",
    "ExperimentConfig", "parse_config", "load_config", "run",
]
