"""Stochastic reduced-order density models in one dimension.

Calibrate drift and diffusion coefficients of a density-evolution
equation from ensemble time-series, then propagate the probability
density beyond the training horizon. Includes a synthetic Langevin
ensemble generator, closed-form oracle densities, coefficient
estimation by moment regression, loss-minimization calibration, and a
CLI pipeline with persistent artifacts.
"""

from ._version import __version__
from .calibrate import CalibrationProblem, calibrate
from .coefficients import CoefficientModel
from .density import DensityField, kde_estimate, kl_divergence, tikhonov_smooth
from .errors import InfeasibleConfigError, InputDataError, SolverDivergenceError
from .estimation import TrajectoryEnsemble, regress_time_only_coefficients
from .grid import Grid
from .langevin import SdeSpec, SimPlan, ensemble_to_densities, simulate
from .pipeline import RomArtifact, RunConfig, run_predict, run_train, run_validate
from .sampling import pushforward_density
from .solver import SolverConfig, solve

__all__ = [
    "__version__",
    "CalibrationProblem",
    "CoefficientModel",
    "DensityField",
    "Grid",
    "InfeasibleConfigError",
    "InputDataError",
    "RomArtifact",
    "RunConfig",
    "SdeSpec",
    "SimPlan",
    "SolverConfig",
    "SolverDivergenceError",
    "TrajectoryEnsemble",
    "calibrate",
    "ensemble_to_densities",
    "kde_estimate",
    "kl_divergence",
    "pushforward_density",
    "regress_time_only_coefficients",
    "run_predict",
    "run_train",
    "run_validate",
    "simulate",
    "solve",
    "tikhonov_smooth",
]
