"""Solvers and benchmark harness for convex finite-sum coupled compositional
optimization: a primal-dual block-coordinate method with extrapolation,
baseline solvers, application problem builders with known-optimum benchmark
instances, and an empirical rate-verification harness.

The names below are the library API; every other name is importable from
its submodule (`fcco.solvers`, `fcco.problem`, `fcco.instances`,
`fcco.outers`, `fcco.datasets`, `fcco.metrics`, `fcco.harness`,
`fcco.errors`)."""

__version__ = "0.1.0"

from .errors import FccoError
from .problem import BoxDomain, InnerOracle, ProblemInstance, Regularizer, evaluate_objective
from .solvers import (
    AlexrConfig,
    BaselineConfig,
    RunRecord,
    convex_preset,
    run,
    strongly_convex_preset,
)
from .instances import build_gdro, build_hard_nonsmooth, build_hard_smooth, build_pauc
from .datasets import build_synthetic_gdro, build_synthetic_pauc, load_grouped_csv, parse_libsvm
from .metrics import fit_rate, pauc_exact
from .harness import load_config, run_experiment, sweep_rate, validate_config

__all__ = [
    "__version__", "FccoError",
    "AlexrConfig", "BaselineConfig", "strongly_convex_preset", "convex_preset", "run",
    "RunRecord",
    "ProblemInstance", "InnerOracle", "Regularizer", "BoxDomain", "evaluate_objective",
    "build_hard_smooth", "build_hard_nonsmooth", "build_gdro", "build_pauc",
    "build_synthetic_gdro", "build_synthetic_pauc", "load_grouped_csv", "parse_libsvm",
    "pauc_exact", "fit_rate",
    "load_config", "validate_config", "run_experiment", "sweep_rate",
]
