"""Coefficient estimation from ensemble time-series by moment regression.

Polynomials are fitted to the mean and variance of an ensemble or of a
density list and
differentiated (drift = d mean/dt, diffusion = half d variance/dt),
which is valid when the coefficients depend on time only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coefficients import MAX_DEGREE, CoefficientModel
from .density import DensityField, moments
from .errors import InfeasibleConfigError

__all__ = [
    "TrajectoryEnsemble",
    "MomentSeries",
    "moment_series",
    "regress_time_only_coefficients",
]

@dataclass(frozen=True)
class TrajectoryEnsemble:
    """Realizations of a scalar process on a shared uniform time axis.

    samples[r, k] is realization r at times[k], in whatever coordinates
    the caller chose; the ensemble does not record them.
    """

    times: np.ndarray
    samples: np.ndarray

    def __post_init__(self) -> None:
        t = np.asarray(self.times, dtype=float)
        x = np.asarray(self.samples, dtype=float)
        if t.ndim != 1 or t.size < 2:
            raise ValueError("need a 1-D time axis with >= 2 levels")
        if x.ndim != 2 or x.shape[1] != t.size:
            raise ValueError(f"samples shape {x.shape} does not match {t.size} times")
        if x.shape[0] < 1:
            raise ValueError("need >= 1 realization")
        # min and max are NaN or inf exactly when some sample is, and
        # need no mask the size of the samples
        if not (np.all(np.isfinite(t)) and np.isfinite(x.min()) and np.isfinite(x.max())):
            raise ValueError("times and samples must be finite")
        steps = np.diff(t)
        mean_step = float(steps.mean())
        if mean_step <= 0.0 or np.any(steps <= 0.0):
            raise ValueError("time axis must be strictly increasing")
        if np.max(np.abs(steps - mean_step)) > 1e-9 * mean_step:
            raise ValueError("time axis must be uniform to 1e-9 relative")
        t.flags.writeable = False
        x.flags.writeable = False
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "samples", x)

    @property
    def n_realizations(self) -> int:
        return int(self.samples.shape[0])

    @property
    def n_times(self) -> int:
        return int(self.times.size)


@dataclass(frozen=True)
class MomentSeries:
    """Cross-realization mean and unbiased variance per time level."""

    times: np.ndarray
    mean: np.ndarray
    variance: np.ndarray

    def __post_init__(self) -> None:
        t = np.asarray(self.times, dtype=float)
        m = np.asarray(self.mean, dtype=float)
        v = np.asarray(self.variance, dtype=float)
        if not (t.shape == m.shape == v.shape) or t.ndim != 1:
            raise ValueError("times, mean, variance must be 1-D and congruent")
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(m)) and np.all(np.isfinite(v))):
            raise ValueError("moment series must be finite")
        if np.any(v < 0.0):
            raise ValueError("variance must be >= 0")
        for arr, name in ((t, "times"), (m, "mean"), (v, "variance")):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


def moment_series(ens: TrajectoryEnsemble | list[DensityField]) -> MomentSeries:
    """Per-time mean and variance of an ensemble, across realizations
    with the unbiased (ddof=1) variance, or of a density list, by
    ``density.moments`` of each field at its time stamp."""
    if not isinstance(ens, TrajectoryEnsemble):
        stats = [moments(f) for f in ens]
        return MomentSeries(
            times=np.asarray([f.time_stamp for f in ens]),
            mean=np.asarray([m.mean for m in stats]),
            variance=np.asarray([m.variance for m in stats]),
        )
    if ens.n_realizations < 2:
        raise ValueError("unbiased variance needs >= 2 realizations")
    return MomentSeries(
        times=ens.times.copy(),
        mean=ens.samples.mean(axis=0),
        variance=ens.samples.var(axis=0, ddof=1),
    )


def _fit_polynomial_derivative(
    times: np.ndarray, values: np.ndarray, fit_degree: int
) -> np.ndarray:
    """Least-squares polynomial fit, returned as its derivative's
    ascending-power coefficients in raw t.

    The fit runs in a scaled basis for conditioning; the conditioning
    check (> 1e12 rejected) applies to the design matrix actually
    solved.
    """
    lo, hi = float(times.min()), float(times.max())
    scaled = (2.0 * times - (lo + hi)) / (hi - lo)
    design = np.polynomial.polynomial.polyvander(scaled, fit_degree)
    cond = np.linalg.cond(design)
    if cond > 1e12:
        raise InfeasibleConfigError(
            f"ill-conditioned moment fit (condition number {cond:.3e})"
        )
    coef, *_ = np.linalg.lstsq(design, values, rcond=None)
    poly = np.polynomial.Polynomial(coef, domain=[lo, hi], window=[-1.0, 1.0])
    deriv = poly.deriv().convert(kind=np.polynomial.Polynomial)
    out = np.zeros(fit_degree)
    out[: deriv.coef.size] = deriv.coef
    return out


def regress_time_only_coefficients(
    series: MomentSeries,
    fit_window: tuple[float, float],
    drift_degree: int = 0,
    diff_degree: int = 0,
) -> CoefficientModel:
    """Fit mean(t) and variance(t), differentiate, build the model.

    The drift polynomial of degree d comes from a degree d+1 fit of the
    mean; the diffusion polynomial is half the derivative of the
    variance fit. The window [lo, hi] is inclusive (1e-9 relative
    tolerance) and must hold at least degree+2 points for each fit.
    """
    lo, hi = float(fit_window[0]), float(fit_window[1])
    if not lo < hi:
        raise InfeasibleConfigError(f"empty fit window ({lo}, {hi})")
    span = max(abs(lo), abs(hi), 1.0)
    sel = (series.times >= lo - 1e-9 * span) & (series.times <= hi + 1e-9 * span)
    times = series.times[sel]
    for degree, label in ((drift_degree, "drift"), (diff_degree, "diffusion")):
        if not (0 <= degree <= MAX_DEGREE):
            raise InfeasibleConfigError(f"{label} degree must be in 0..{MAX_DEGREE}")
        if times.size < degree + 2:
            raise InfeasibleConfigError(
                f"fit window holds {times.size} points; {label} degree "
                f"{degree} needs >= {degree + 2}"
            )
    drift = _fit_polynomial_derivative(times, series.mean[sel], drift_degree + 1)
    dvar = _fit_polynomial_derivative(times, series.variance[sel], diff_degree + 1)
    return CoefficientModel(drift_poly=tuple(drift), diff_poly=tuple(0.5 * dvar))
