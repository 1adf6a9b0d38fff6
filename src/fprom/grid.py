"""Uniform 1-D grids and the one spatial operator on them.

``flux_bands`` gives the conservative flux-form first and second
differences that the solver steps with and the Tikhonov smoother
penalises.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import InfeasibleConfigError, require_integer

__all__ = ["Grid", "flux_bands"]


@dataclass(frozen=True)
class Grid:
    """Uniform grid on [x_min, x_max] with n_points nodes.

    Node i sits at x_min + i*h with h = (x_max - x_min)/(n_points - 1);
    ``nodes`` is computed once and returned read-only.
    """

    x_min: float
    x_max: float
    n_points: int

    def __post_init__(self) -> None:
        if not (np.isfinite(self.x_min) and np.isfinite(self.x_max)):
            raise InfeasibleConfigError("grid bounds must be finite")
        if self.x_min >= self.x_max:
            raise InfeasibleConfigError(
                f"degenerate domain: x_min={self.x_min} >= x_max={self.x_max}"
            )
        n_points = require_integer(self.n_points, "n_points")
        if n_points < 8:
            raise InfeasibleConfigError("n_points must be an integer >= 8")
        object.__setattr__(self, "n_points", n_points)

    @property
    def spacing(self) -> float:
        return (self.x_max - self.x_min) / (self.n_points - 1)

    @cached_property
    def nodes(self) -> np.ndarray:
        x = np.linspace(self.x_min, self.x_max, self.n_points)
        x.flags.writeable = False
        return x


@lru_cache(maxsize=32)
def flux_bands(grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """Tridiagonal E1, E2 in LAPACK band storage, entry (i, j) at [1 + i - j, j].

    Interior rows are the centred (-1, 0, 1)/(2h) and (1, -2, 1)/h^2.
    The walls are closed in flux form: node i owns the cell between its
    neighbouring faces (a half cell at a wall), the face flux is
    F = D1*(f_i + f_i+1)/2 - D2*(f_i+1 - f_i)/h, and no flux crosses a
    wall. E1's wall rows are then (1, 1)/h and (-1, -1)/h and E2's are
    (-2, 2)/h^2, so the trapezoidal mass of -D1 E1 f + D2 E2 f is
    exactly zero. Results are cached and shared between callers, so
    both bands are read-only.
    """
    n = grid.n_points
    h = grid.spacing
    b1 = np.zeros((3, n))
    b1[0, 1:] = 0.5 / h
    b1[2, :-1] = -0.5 / h
    b2 = np.zeros((3, n))
    b2[0, 1:] = b2[2, :-1] = 1.0 / h**2
    b2[1] = -2.0 / h**2
    # the slots of wall row 0, (0, 0) and (0, 1), then of row n - 1,
    # (n - 1, n - 2) and (n - 1, n - 1)
    walls = ([1, 0, 2, 1], [0, 1, n - 2, n - 1])
    b1[walls] = (1.0 / h, 1.0 / h, -1.0 / h, -1.0 / h)
    b2[walls] = (-2.0 / h**2, 2.0 / h**2, 2.0 / h**2, -2.0 / h**2)
    b1.flags.writeable = False
    b2.flags.writeable = False
    return b1, b2
