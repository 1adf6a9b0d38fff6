"""Stochastic reduced-order density models in one dimension.

Calibrate drift and diffusion coefficients of a density-evolution
equation from ensemble time-series, then propagate the probability
density beyond the training horizon. Includes a synthetic Langevin
ensemble generator, closed-form oracle densities, coefficient
estimation (conditional moments and moment regression),
loss-minimization calibration, and a CLI pipeline with persistent
artifacts.
"""

from ._version import __version__
from .analytic import (
    drift_diffusion_density,
    gaussian_density,
    pure_diffusion_density,
    pure_drift_density,
)
from .calibrate import CalibrationProblem, CalibrationResult, calibrate, loss
from .coefficients import CoefficientModel
from .density import (
    DensityField,
    MomentSet,
    auto_bandwidth,
    kde_estimate,
    kl_divergence,
    l1_distance,
    moments,
    read_density_csv,
    tikhonov_smooth,
    write_density_csv,
)
from .errors import InfeasibleConfigError, InputDataError, SolverDivergenceError
from .estimation import (
    KmTable,
    MomentSeries,
    TrajectoryEnsemble,
    conditional_km_coefficient,
    moment_series,
    regress_time_only_coefficients,
)
from .grid import Grid
from .langevin import (
    SdeSpec,
    SimPlan,
    ensemble_to_densities,
    simulate,
    write_ensemble_csv,
)
from .pipeline import (
    RomArtifact,
    RunConfig,
    SolverSettings,
    ingest,
    load_artifact,
    run_predict,
    run_train,
    run_validate,
    save_artifact,
    split,
)
from .sampling import TransformSpec, pushforward_density
from .solver import SolutionTrace, SolverConfig, solve

__all__ = [
    "__version__",
    "CalibrationProblem",
    "CalibrationResult",
    "CoefficientModel",
    "DensityField",
    "Grid",
    "InfeasibleConfigError",
    "InputDataError",
    "KmTable",
    "MomentSeries",
    "MomentSet",
    "RomArtifact",
    "RunConfig",
    "SdeSpec",
    "SimPlan",
    "SolutionTrace",
    "SolverConfig",
    "SolverDivergenceError",
    "SolverSettings",
    "TrajectoryEnsemble",
    "TransformSpec",
    "auto_bandwidth",
    "calibrate",
    "conditional_km_coefficient",
    "drift_diffusion_density",
    "ensemble_to_densities",
    "gaussian_density",
    "ingest",
    "kde_estimate",
    "kl_divergence",
    "l1_distance",
    "load_artifact",
    "loss",
    "moment_series",
    "moments",
    "pure_diffusion_density",
    "pure_drift_density",
    "pushforward_density",
    "read_density_csv",
    "regress_time_only_coefficients",
    "run_predict",
    "run_train",
    "run_validate",
    "save_artifact",
    "simulate",
    "solve",
    "split",
    "tikhonov_smooth",
    "write_density_csv",
    "write_ensemble_csv",
]
