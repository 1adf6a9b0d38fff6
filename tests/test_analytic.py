import numpy as np
import pytest

from fprom import Grid
from fprom.analytic import (
    drift_diffusion_density,
    gaussian_density,
    pure_diffusion_density,
    pure_drift_density,
)
from fprom.density import moments


def test_gaussian_density_moments():
    grid = Grid(x_min=-2.0, x_max=6.0, n_points=1025)
    f = gaussian_density(grid, 2.0, 0.25, 0.0)
    m = moments(f)
    assert f.mass == pytest.approx(1.0, abs=1e-12)
    assert m.mean == pytest.approx(2.0, abs=1e-4)
    assert m.variance == pytest.approx(0.25, abs=1e-4)


def test_gaussian_density_rejects_bad_variance():
    grid = Grid(x_min=-2.0, x_max=2.0, n_points=65)
    with pytest.raises(ValueError):
        gaussian_density(grid, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        gaussian_density(grid, 0.0, -1.0, 0.0)


def test_pure_diffusion_density_variance_grows_linearly():
    grid = Grid(x_min=-12.0, x_max=12.0, n_points=1025)
    d = 0.5
    for t in (0.5, 1.0, 2.0):
        f = pure_diffusion_density(grid, t, d)
        m = moments(f)
        assert f.time_stamp == t
        assert m.mean == pytest.approx(0.0, abs=1e-9)
        assert m.variance == pytest.approx(2.0 * d * t, rel=1e-6)


def test_pure_drift_density_translates_fixed_shape():
    grid = Grid(x_min=-6.0, x_max=10.0, n_points=1025)
    mu, sigma2 = 1.5, 0.3
    f1 = pure_drift_density(grid, 1.0, mu, sigma2)
    f2 = pure_drift_density(grid, 3.0, mu, sigma2)
    m1, m2 = moments(f1), moments(f2)
    assert m1.mean == pytest.approx(mu, abs=1e-8)
    assert m2.mean == pytest.approx(3.0 * mu, abs=1e-8)
    assert m1.variance == pytest.approx(sigma2, rel=1e-6)
    assert m2.variance == pytest.approx(sigma2, rel=1e-6)


def test_drift_diffusion_density_combines_both():
    grid = Grid(x_min=-10.0, x_max=20.0, n_points=1025)
    mu, d = 1.0, 0.5
    f = drift_diffusion_density(grid, 2.0, mu, d)
    m = moments(f)
    assert m.mean == pytest.approx(2.0, abs=1e-7)
    assert m.variance == pytest.approx(2.0, rel=1e-6)


def test_pure_diffusion_rejects_nonpositive_time():
    grid = Grid(x_min=-4.0, x_max=4.0, n_points=65)
    with pytest.raises(ValueError):
        pure_diffusion_density(grid, 0.0, 0.5)
