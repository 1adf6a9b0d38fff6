import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fprom import Grid, build_grid, derivative_matrix, fd_weights
from fprom.errors import InfeasibleConfigError
from fprom.grid import derivative_bands


def test_grid_nodes_uniform():
    grid = Grid(x_min=-1.0, x_max=1.0, n_points=11)
    assert grid.spacing == pytest.approx(0.2)
    assert np.allclose(np.diff(grid.nodes), 0.2)
    assert grid.nodes[0] == -1.0
    assert grid.nodes[-1] == 1.0


def test_grid_nodes_read_only():
    grid = build_grid(0.0, 1.0, 16)
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
    ],
)
def test_grid_rejects_bad_arguments(kwargs):
    with pytest.raises((InfeasibleConfigError, ValueError)):
        Grid(**kwargs)


def test_fd_weights_match_classic_central_stencil():
    nodes = np.array([-1.0, 0.0, 1.0])
    w = fd_weights(0.0, nodes, 2)
    assert np.allclose(w[:, 1], [-0.5, 0.0, 0.5])
    assert np.allclose(w[:, 2], [1.0, -2.0, 1.0])


def test_fd_weights_one_sided_first_derivative():
    nodes = np.array([0.0, 1.0, 2.0])
    w = fd_weights(0.0, nodes, 1)
    assert np.allclose(w[:, 1], [-1.5, 2.0, -0.5])


def test_derivative_matrix_exact_on_low_degree_polynomials():
    grid = build_grid(0.0, 1.0, 32)
    x = grid.nodes
    e1 = derivative_matrix(grid, 1, 2)
    e2 = derivative_matrix(grid, 2, 2)
    # order-2 stencils are exact below degree + order: quadratics for
    # the first derivative, cubics for the second
    q = 2.0 + 3.0 * x - x**2
    assert np.allclose((e1.values @ q)[1:-1], 3.0 - 2.0 * x[1:-1], atol=1e-9)
    c = 2.0 + 3.0 * x - x**2 + 0.25 * x**3
    d2c = -2.0 + 1.5 * x
    assert np.allclose((e2.values @ c)[1:-1], d2c[1:-1], atol=1e-7)


def test_derivative_matrix_fourth_order_quartic():
    grid = build_grid(0.0, 1.0, 64)
    x = grid.nodes
    e1 = derivative_matrix(grid, 1, 4)
    approx = e1.values @ x**4
    exact = 4.0 * x**3
    interior = slice(3, -3)
    rel = np.abs(approx[interior] - exact[interior]) / np.abs(exact[interior])
    assert np.max(rel) <= 1e-8


def test_derivative_matrix_boundary_rows_consistent():
    grid = build_grid(-2.0, 2.0, 24)
    x = grid.nodes
    e1 = derivative_matrix(grid, 1, 2)
    # one-sided closures stay exact on quadratics including the walls
    f = 1.0 + x + x**2
    assert np.allclose(e1.values @ f, 1.0 + 2.0 * x, atol=1e-9)


def test_derivative_matrix_rejects_tiny_grid():
    grid = build_grid(0.0, 1.0, 8)
    with pytest.raises(InfeasibleConfigError):
        derivative_matrix(grid, 2, 8)
    with pytest.raises(InfeasibleConfigError):
        derivative_bands(grid, 2, 8)


@pytest.mark.parametrize("grid", [build_grid(-3.0, 3.0, 65), build_grid(-1.3, 2.7, 50)])
@pytest.mark.parametrize("degree", [1, 2])
@pytest.mark.parametrize("order", [2, 4, 6])
def test_derivative_bands_match_dense_diagonals(grid, degree, order):
    ab, lower, upper = derivative_bands(grid, degree, order)
    dense = derivative_matrix(grid, degree, order).values
    n = grid.n_points
    assert lower == upper == degree + order - 1
    assert ab.shape == (lower + upper + 1, n)
    # interior rows share one stencil, so they may differ from the
    # row-by-row dense weights by rounding in the node coordinates
    tol = 1e-12 * np.max(np.abs(dense))
    for offset in range(-lower, upper + 1):
        diag = np.diagonal(dense, offset)
        if offset >= 0:
            stored = ab[upper - offset, offset:]
        else:
            stored = ab[upper - offset, : n + offset]
        assert np.max(np.abs(stored - diag)) <= tol
    # the band holds the whole operator: nothing lies outside it
    outside = np.triu(dense, upper + 1) + np.tril(dense, -lower - 1)
    assert not np.any(outside)
    # slots above the first and below the last row stay empty
    for k in range(1, upper + 1):
        assert not np.any(ab[upper - k, :k])
        assert not np.any(ab[upper + k, n - k :])


def test_derivative_matrix_values_read_only():
    grid = build_grid(0.0, 1.0, 16)
    e1 = derivative_matrix(grid, 1, 2)
    with pytest.raises(ValueError):
        e1.values[0, 0] = 1.0


@settings(max_examples=25, deadline=None)
@given(data=st.data(), degree=st.sampled_from([1, 2]))
def test_interior_rows_exact_below_degree_plus_order(data, degree):
    # exactness holds for polynomials of degree < stencil degree + 2
    coeffs = data.draw(
        st.lists(
            st.floats(min_value=-3.0, max_value=3.0),
            min_size=1,
            max_size=degree + 2,
        )
    )
    grid = build_grid(-1.0, 1.0, 21)
    x = grid.nodes
    poly = np.polynomial.Polynomial(coeffs)
    mat = derivative_matrix(grid, degree, 2)
    approx = mat.values @ poly(x)
    exact = poly.deriv(degree)(x)
    assert np.allclose(approx[2:-2], exact[2:-2], atol=1e-7)
