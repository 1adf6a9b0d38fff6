"""Uniform 1-D grids and finite-difference derivative operators.

Derivative operators of arbitrary degree and (even) accuracy order are
assembled from stencil weights computed by the classical recursive
algorithm for arbitrary node sets. Interior rows get centered stencils;
boundary rows fall back to one-sided windows of the same formal order.
``derivative_bands`` builds the operator in LAPACK band storage in
O(n) memory; ``derivative_matrix`` is the dense n x n reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InfeasibleConfigError

__all__ = [
    "Grid",
    "DerivativeMatrix",
    "build_grid",
    "derivative_bands",
    "derivative_matrix",
    "fd_weights",
]


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
        if int(self.n_points) != self.n_points or self.n_points < 8:
            raise InfeasibleConfigError("n_points must be an integer >= 8")
        object.__setattr__(self, "n_points", int(self.n_points))

    @property
    def spacing(self) -> float:
        return (self.x_max - self.x_min) / (self.n_points - 1)

    @cached_property
    def nodes(self) -> np.ndarray:
        x = np.linspace(self.x_min, self.x_max, self.n_points)
        x.flags.writeable = False
        return x


def build_grid(x_min: float, x_max: float, n_points: int) -> Grid:
    """Validated Grid factory. See Grid for the invariants."""
    return Grid(float(x_min), float(x_max), n_points)


def fd_weights(z: float, nodes: np.ndarray, max_degree: int) -> np.ndarray:
    """Finite-difference weights at point z over arbitrary nodes.

    Parameters
    ----------
    z : float
        Evaluation point.
    nodes : array_like
        Stencil node coordinates, distinct.
    max_degree : int
        Highest derivative degree to compute weights for.

    Returns
    -------
    ndarray of shape (len(nodes), max_degree + 1)
        Column d holds the weights w such that sum_j w[j] * f(nodes[j])
        approximates the d-th derivative of f at z.

    Notes
    -----
    This is the standard recursion over incrementally added nodes; it is
    exact (up to rounding) for polynomials of degree < len(nodes).
    """
    x = np.asarray(nodes, dtype=float)
    n = x.size
    if n == 0:
        raise ValueError("empty stencil")
    c = np.zeros((n, max_degree + 1))
    c1 = 1.0
    c4 = x[0] - z
    c[0, 0] = 1.0
    for i in range(1, n):
        mn = min(i, max_degree)
        c2 = 1.0
        c5 = c4
        c4 = x[i] - z
        for j in range(i):
            c3 = x[i] - x[j]
            c2 *= c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    c[i, k] = c1 * (k * c[i - 1, k - 1] - c5 * c[i - 1, k]) / c2
                c[i, 0] = -c1 * c5 * c[i - 1, 0] / c2
            for k in range(mn, 0, -1):
                c[j, k] = (c4 * c[j, k] - k * c[j, k - 1]) / c3
            c[j, 0] = c4 * c[j, 0] / c3
        c1 = c2
    return c


@dataclass(frozen=True)
class DerivativeMatrix:
    """Dense n x n differentiation matrix for one derivative degree.

    ``values`` carries units of (grid units)^-degree and is read-only.
    Interior rows are centered stencils of the requested accuracy;
    boundary rows are one-sided stencils of the same formal order.
    """

    grid: Grid
    degree: int
    accuracy_order: int
    values: np.ndarray

    def __post_init__(self) -> None:
        self.values.flags.writeable = False


def _interior_half_width(degree: int, order: int) -> int:
    # centered stencil of 2m+1 nodes achieves order p for derivative d
    return (degree + 1) // 2 + order // 2 - 1


def _stencil_shape(grid: Grid, degree: int, accuracy_order: int) -> tuple[int, int]:
    """Validated (boundary window width, interior half width)."""
    if degree < 1:
        raise InfeasibleConfigError("degree must be >= 1")
    if accuracy_order < 2 or accuracy_order % 2 != 0:
        raise InfeasibleConfigError("accuracy_order must be even and >= 2")
    width = degree + accuracy_order
    n = grid.n_points
    if n <= width:
        raise InfeasibleConfigError(
            f"stencil wider than grid: need n_points > {width}, have {n}"
        )
    return width, _interior_half_width(degree, accuracy_order)


def derivative_matrix(grid: Grid, degree: int, accuracy_order: int = 2) -> DerivativeMatrix:
    """Assemble the dense differentiation matrix of the given degree and order.

    Parameters
    ----------
    grid : Grid
    degree : int
        Derivative degree, >= 1. The forward solver only uses 1 and 2;
        higher degrees are allowed here.
    accuracy_order : int
        Formal order of accuracy; even, >= 2.

    Raises
    ------
    InfeasibleConfigError
        If the one-sided boundary window (degree + accuracy_order nodes)
        does not fit on the grid.
    """
    width, half = _stencil_shape(grid, degree, accuracy_order)
    n = grid.n_points
    x = grid.nodes
    mat = np.zeros((n, n))
    for i in range(n):
        if half <= i <= n - 1 - half:
            lo, hi = i - half, i + half + 1
        elif i < half:
            lo, hi = 0, width
        else:
            lo, hi = n - width, n
        mat[i, lo:hi] = fd_weights(x[i], x[lo:hi], degree)[:, degree]
    return DerivativeMatrix(grid=grid, degree=degree, accuracy_order=accuracy_order, values=mat)


def derivative_bands(
    grid: Grid, degree: int, accuracy_order: int = 2
) -> tuple[np.ndarray, int, int]:
    """The operator of ``derivative_matrix`` in LAPACK band storage.

    Returns
    -------
    (ab, l, u)
        ``ab`` has shape (l + u + 1, n_points) and holds matrix entry
        (i, j) at ``ab[u + i - j, j]``; slots outside the matrix are
        zero. l = u = degree + accuracy_order - 1, the reach of the
        one-sided wall windows.

    Interior rows share one centered stencil, since the grid is
    uniform; only the rows near each wall call ``fd_weights`` one by
    one. Nothing n x n is built. Raises like ``derivative_matrix``.
    """
    width, half = _stencil_shape(grid, degree, accuracy_order)
    n = grid.n_points
    x = grid.nodes
    bw = width - 1
    ab = np.zeros((2 * bw + 1, n))
    interior = np.arange(half, n - half)
    stencil = fd_weights(0.0, grid.spacing * np.arange(-half, half + 1), degree)
    for offset, w in zip(range(-half, half + 1), stencil[:, degree]):
        ab[bw - offset, interior + offset] = w
    for i in (*range(half), *range(n - half, n)):
        lo = 0 if i < half else n - width
        cols = np.arange(lo, lo + width)
        ab[bw + i - cols, cols] = fd_weights(x[i], x[lo : lo + width], degree)[:, degree]
    return ab, bw, bw
