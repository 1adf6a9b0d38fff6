"""Drift/diffusion coefficient models, polynomial in time.

The forward solver and simulators interpret everything in the Ito
sense.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["CoefficientModel"]

MAX_DEGREE = 3


def _horner(coeffs: tuple[float, ...], t: float) -> float:
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * t + c
    return acc


@dataclass(frozen=True)
class CoefficientModel:
    """Time-only coefficients: drift D1(t) and diffusion D2(t).

    Each polynomial is given by ascending-power coefficients (a0, a1,
    ...), degree at most 3 (the calibration search-space bound).
    Negative diffusion values are representable; the forward solver
    decides whether to accept them.
    """

    drift_poly: tuple[float, ...]
    diff_poly: tuple[float, ...]

    def __post_init__(self) -> None:
        for name in ("drift_poly", "diff_poly"):
            raw = getattr(self, name)
            coeffs = tuple(float(c) for c in raw)
            if len(coeffs) == 0:
                raise ValueError(f"{name} must have at least one coefficient")
            if len(coeffs) - 1 > MAX_DEGREE:
                raise ValueError(f"{name} degree {len(coeffs) - 1} exceeds {MAX_DEGREE}")
            if not all(np.isfinite(c) for c in coeffs):
                raise ValueError(f"{name} coefficients must be finite")
            object.__setattr__(self, name, coeffs)

    def drift(self, t: float) -> float:
        return _horner(self.drift_poly, t)

    def diffusion(self, t: float) -> float:
        return _horner(self.diff_poly, t)

    def eval(self, t: float) -> tuple[float, float]:
        """(drift, diffusion) at time t; Horner evaluation of both."""
        if not np.isfinite(t):
            raise ValueError("t must be finite")
        return self.drift(t), self.diffusion(t)

    def is_constant(self) -> bool:
        return all(c == 0.0 for c in self.drift_poly[1:]) and all(
            c == 0.0 for c in self.diff_poly[1:]
        )

    def diffusion_range(self, t_start: float, t_end: float, samples: int = 1001) -> tuple[float, float]:
        """(min, max) of D2 over [t_start, t_end] by dense sampling.

        Degree <= 3 polynomials vary slowly; 1001 samples plus the
        endpoints bound the range tightly enough for feasibility and
        stability checks. A constant D2 is returned without sampling,
        which gives the same value.
        """
        if len(self.diff_poly) == 1:
            return self.diff_poly[0], self.diff_poly[0]
        ts = np.linspace(t_start, t_end, samples)
        vals = np.polynomial.polynomial.polyval(ts, np.asarray(self.diff_poly))
        return float(np.min(vals)), float(np.max(vals))

    def max_abs_drift(self, t_start: float, t_end: float, samples: int = 1001) -> float:
        if len(self.drift_poly) == 1:
            return abs(self.drift_poly[0])
        ts = np.linspace(t_start, t_end, samples)
        vals = np.polynomial.polynomial.polyval(ts, np.asarray(self.drift_poly))
        return float(np.max(np.abs(vals)))

