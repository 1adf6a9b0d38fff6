"""Invertible coordinate transforms and the exact pushforward of
tabulated densities back to original units.

Densities calibrated in transformed coordinates (log grain size, log
time) are mapped back through the CDF, which a monotone map preserves:
F_X(x) = F_Y(forward_x(x)). The result is a cell average on the target
grid, so it needs no Jacobian factor, no sampling and no seed, and its
mass is the mass of f that falls inside the target grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .density import DensityField
from .errors import InfeasibleConfigError, InputDataError
from .estimation import TRANSFORM_TAGS
from .grid import Grid

__all__ = [
    "TransformSpec",
    "pushforward_density",
]


@dataclass(frozen=True)
class TransformSpec:
    """Variable change applied to samples before estimation.

    kind "identity" leaves both axes alone, "log_x" takes the log of
    the state only, "log_x_log_t" of state and time. Log maps demand
    strictly positive inputs.
    """

    kind: str = "identity"

    def __post_init__(self) -> None:
        if self.kind not in TRANSFORM_TAGS:
            raise InfeasibleConfigError(
                f"unknown transform {self.kind!r}; known: {TRANSFORM_TAGS}"
            )

    @property
    def transforms_x(self) -> bool:
        return self.kind in ("log_x", "log_x_log_t")

    @property
    def transforms_t(self) -> bool:
        return self.kind == "log_x_log_t"

    def forward_x(self, x):
        x = np.asarray(x, dtype=float)
        if not self.transforms_x:
            return x.copy()
        if np.any(x <= 0.0):
            raise InputDataError(
                f"transform {self.kind!r} needs strictly positive state values"
            )
        return np.log(x)

    def inverse_x(self, y):
        y = np.asarray(y, dtype=float)
        return np.exp(y) if self.transforms_x else y.copy()

    def forward_t(self, t):
        t = np.asarray(t, dtype=float)
        if not self.transforms_t:
            return t.copy()
        if np.any(t <= 0.0):
            raise InputDataError(
                f"transform {self.kind!r} needs strictly positive times"
            )
        return np.log(t)

    def inverse_t(self, t):
        t = np.asarray(t, dtype=float)
        return np.exp(t) if self.transforms_t else t.copy()


def pushforward_density(
    f: DensityField, transform: TransformSpec, target_grid: Grid
) -> DensityField:
    """Map a density through the inverse state transform by CDF differencing.

    Each target node gets the mass of f between its cell faces (half
    cells at the ends, as in the solver's operator), read off the
    cumulative trapezoid of f at forward_x of the faces, divided by the
    cell width. Mass outside the target grid is dropped, not
    renormalised back, so it shows in the result's ``mass``. The time
    stamp is mapped to original units through inverse_t.
    """
    y = f.grid.nodes
    cell_mass = 0.5 * np.diff(y) * (f.values[1:] + f.values[:-1])
    cdf = np.concatenate(([0.0], np.cumsum(cell_mass)))
    x = target_grid.nodes
    faces = np.concatenate(([x[0]], 0.5 * (x[1:] + x[:-1]), [x[-1]]))
    # np.interp can round one ulp past a node's value just below it; a
    # decreasing CDF would give a negative cell, which DensityField refuses
    at_faces = np.maximum.accumulate(np.interp(transform.forward_x(faces), y, cdf))
    return DensityField(
        grid=target_grid,
        values=np.diff(at_faces) / np.diff(faces),
        time_stamp=float(transform.inverse_t(f.time_stamp)),
    )
