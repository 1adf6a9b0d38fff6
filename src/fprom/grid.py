"""Uniform 1-D grids."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InfeasibleConfigError, require_integer

__all__ = ["Grid"]


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
