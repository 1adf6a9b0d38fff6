import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fprom import Grid
from fprom.errors import InfeasibleConfigError


def test_grid_nodes_uniform():
    grid = Grid(x_min=-1.0, x_max=1.0, n_points=11)
    assert grid.spacing == pytest.approx(0.2)
    assert np.allclose(np.diff(grid.nodes), 0.2)
    assert grid.nodes[0] == -1.0
    assert grid.nodes[-1] == 1.0


def test_grid_nodes_read_only():
    grid = Grid(0.0, 1.0, 16)
    with pytest.raises(ValueError):
        grid.nodes[0] = 5.0


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(x_min=1.0, x_max=0.0, n_points=16),
        dict(x_min=0.0, x_max=0.0, n_points=16),
        dict(x_min=0.0, x_max=1.0, n_points=7),
        dict(x_min=np.nan, x_max=1.0, n_points=16),
        dict(x_min=0.0, x_max=np.inf, n_points=16),
        dict(x_min=0.0, x_max=1.0, n_points=512.7),
        dict(x_min=0.0, x_max=1.0, n_points=True),
        dict(x_min=0.0, x_max=1.0, n_points="16"),
        dict(x_min=0.0, x_max=1.0, n_points=None),
    ],
)
def test_grid_rejects_bad_arguments(kwargs):
    with pytest.raises((InfeasibleConfigError, ValueError)):
        Grid(**kwargs)


@pytest.mark.parametrize("n_points", [16, 16.0, np.int64(16), np.float64(16.0)])
def test_grid_accepts_integral_n_points(n_points):
    grid = Grid(0.0, 1.0, n_points)
    assert type(grid.n_points) is int
    assert grid.n_points == 16
    assert grid.nodes.shape == (16,)


@pytest.mark.parametrize(
    "grid",
    [Grid(-3.0, 3.0, 65), Grid(-1.3, 2.7, 50), Grid(-6.0, 10.0, 1025), Grid(0.1, 0.7, 8)],
)
def test_grid_nodes_span_the_domain(grid):
    x = grid.nodes
    assert x.shape == (grid.n_points,)
    assert x[0] == grid.x_min
    assert x[-1] == grid.x_max
    assert np.all(np.diff(x) > 0.0)
    assert np.allclose(np.diff(x), grid.spacing, rtol=1e-12, atol=0.0)


def test_equal_grids_compare_and_hash_equal():
    # the solver caches its operator bands keyed on the grid, so grids
    # built twice from equal arguments must be one key
    a = Grid(-3.0, 3.0, 65)
    b = Grid(-3.0, 3.0, 65.0)
    assert a == b and hash(a) == hash(b)
    assert a != Grid(-3.0, 3.0, 66)
    assert a != Grid(-3.0, 3.5, 65)


def test_grid_is_frozen():
    grid = Grid(0.0, 1.0, 16)
    with pytest.raises(dataclasses.FrozenInstanceError):
        grid.n_points = 32


@settings(max_examples=50, deadline=None)
@given(
    x_min=st.floats(-1e3, 1e3),
    width=st.floats(1e-3, 1e3),
    n_points=st.integers(8, 4097),
)
def test_grid_spacing_is_uniform(x_min, width, n_points):
    grid = Grid(x_min, x_min + width, n_points)
    x = grid.nodes
    assert x[0] == grid.x_min and x[-1] == grid.x_max
    assert grid.spacing * (n_points - 1) == pytest.approx(grid.x_max - grid.x_min)
    scale = max(abs(grid.x_min), abs(grid.x_max))
    assert np.max(np.abs(np.diff(x) - grid.spacing)) <= 1e-12 * scale + 1e-12 * width
