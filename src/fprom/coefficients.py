"""Drift/diffusion coefficient models, polynomial in time.

The forward solver and simulators interpret everything in the Ito
sense. The range of a coefficient over a time span is exact: a
polynomial of degree <= 3 takes its extremes at the span's ends or at
the real roots of its derivative, so no sampling is needed and a dip
between sample points cannot hide a negative diffusion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["CoefficientModel"]

MAX_DEGREE = 3


def _horner(coeffs: tuple[float, ...], t: float) -> float:
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * t + c
    return acc


def _critical_points(poly: tuple[float, ...]) -> tuple[float, ...]:
    """Real roots of the derivative of a degree <= 3 polynomial.

    The derivative a1 + 2 a2 t + 3 a3 t^2 is solved by the quadratic
    formula in its cancellation-free form; a constant derivative, or
    one with no real root, gives none.
    """
    a1, a2, a3 = (poly + (0.0,) * MAX_DEGREE)[1 : MAX_DEGREE + 1]
    a, b, c = 3.0 * a3, 2.0 * a2, a1
    if a == 0.0:
        return (-c / b,) if b != 0.0 else ()
    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        return ()
    q = -0.5 * (b + math.copysign(math.sqrt(disc), b))
    return (q / a, c / q) if q != 0.0 else (0.0,)


def _range(poly: tuple[float, ...], t_start: float, t_end: float) -> tuple[float, float]:
    """(min, max) of a polynomial over [t_start, t_end]: the extremes
    lie at the ends or at the critical points inside, each evaluated by
    Horner's rule, so the range is exact up to rounding."""
    inside = [t for t in _critical_points(poly) if t_start < t < t_end]
    values = [_horner(poly, t) for t in (t_start, t_end, *inside)]
    return min(values), max(values)


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

    def diffusion_range(self, t_start: float, t_end: float) -> tuple[float, float]:
        """(min, max) of D2 over [t_start, t_end]."""
        return _range(self.diff_poly, t_start, t_end)

    def max_abs_drift(self, t_start: float, t_end: float) -> float:
        """max |D1| over [t_start, t_end]."""
        lo, hi = _range(self.drift_poly, t_start, t_end)
        return max(abs(lo), abs(hi))
