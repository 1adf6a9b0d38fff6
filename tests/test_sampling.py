import math

import numpy as np
import pytest

from fprom import DensityField, Grid, pushforward_density
from fprom.analytic import gaussian_density
from fprom.density import l1_distance, moments
from fprom.sampling import TransformSpec
from fprom.errors import InfeasibleConfigError, InputDataError


class TestTransformSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(InfeasibleConfigError, match="unknown transform"):
            TransformSpec(kind="sqrt_x")

    def test_identity_copies_and_preserves(self):
        tr = TransformSpec(kind="identity")
        x = np.array([1.0, -2.0, 3.0])
        y = tr.forward_x(x)
        assert np.array_equal(y, x)
        y[0] = 99.0
        assert x[0] == 1.0
        assert not tr.transforms_x
        assert not tr.transforms_t

    def test_log_x_round_trip(self):
        tr = TransformSpec(kind="log_x")
        x = np.array([0.01, 1.0, 50.0])
        assert np.array_equal(tr.forward_x(x), np.log(x))
        # time axis untouched
        assert np.array_equal(tr.forward_t([-1.0, 2.0]), [-1.0, 2.0])

    def test_log_x_log_t_round_trip(self):
        tr = TransformSpec(kind="log_x_log_t")
        t = np.array([0.5, 1.0, 8.0])
        assert np.allclose(tr.inverse_t(tr.forward_t(t)), t, rtol=1e-12)

    def test_log_rejects_nonpositive(self):
        tr = TransformSpec(kind="log_x")
        with pytest.raises(InputDataError, match="positive"):
            tr.forward_x([1.0, 0.0])
        tr2 = TransformSpec(kind="log_x_log_t")
        with pytest.raises(InputDataError, match="positive"):
            tr2.forward_t([-0.5])


# no truncation or other warning may come out of the pushforward
@pytest.mark.filterwarnings("error")
class TestPushforward:
    def test_identity_preserves_density(self):
        grid = Grid(-6.0, 6.0, 513)
        f = gaussian_density(grid, 0.0, 1.0, 0.0)
        out = pushforward_density(f, TransformSpec("identity"), grid)
        assert l1_distance(f, out) <= 1e-3

    def test_lognormal_mean_recovered(self):
        # N(0, 0.25) in log coordinates pushed through exp: the
        # lognormal mean is exp(0.125)
        log_grid = Grid(-3.0, 3.0, 513)
        f = gaussian_density(log_grid, 0.0, 0.25, 0.3)
        target = Grid(np.exp(-3.0), np.exp(3.0), 513)
        out = pushforward_density(f, TransformSpec("log_x"), target)
        assert moments(out).mean == pytest.approx(np.exp(0.125), rel=1e-3)
        # log_x leaves the time axis alone
        assert out.time_stamp == 0.3

    def test_log_time_stamp_mapped(self):
        log_grid = Grid(-3.0, 3.0, 257)
        f = gaussian_density(log_grid, 0.0, 0.25, np.log(2.0))
        target = Grid(np.exp(-3.0), np.exp(3.0), 257)
        out = pushforward_density(f, TransformSpec("log_x_log_t"), target)
        assert out.time_stamp == pytest.approx(2.0, rel=1e-12)

    def test_deterministic(self):
        grid = Grid(-6.0, 6.0, 257)
        f = gaussian_density(grid, 0.0, 1.0, 0.0)
        a = pushforward_density(f, TransformSpec("identity"), grid)
        b = pushforward_density(f, TransformSpec("identity"), grid)
        assert np.array_equal(a.values, b.values)

    @pytest.mark.parametrize("kind", ["identity", "log_x", "log_x_log_t"])
    def test_nonnegative_and_mass_kept_without_renormalising(self, kind):
        log_grid = Grid(-3.0, 3.0, 257)
        f = gaussian_density(log_grid, 0.2, 0.3, 1.0)
        tr = TransformSpec(kind)
        lo, hi = np.exp([-3.0, 3.0]) if tr.transforms_x else (-3.0, 3.0)
        out = pushforward_density(f, tr, Grid(lo, hi, 129))
        assert np.all(out.values >= 0.0)
        assert abs(out.mass - 1.0) <= 1e-12

    def test_mass_outside_the_target_grid_shows_as_lost(self):
        grid = Grid(-6.0, 6.0, 513)
        f = gaussian_density(grid, 0.0, 1.0, 0.0)
        out = pushforward_density(f, TransformSpec("identity"), Grid(-1.0, 1.0, 129))
        assert out.mass == pytest.approx(math.erf(1.0 / math.sqrt(2.0)), abs=1e-4)

    def test_cdf_matches_the_lognormal_closed_form(self):
        # a monotone map preserves the CDF: the cumulative mass of the
        # result at every target cell face is Phi(log(x) / 0.5)
        log_grid = Grid(-3.0, 3.0, 513)
        f = gaussian_density(log_grid, 0.0, 0.25, 0.0)
        x = Grid(np.exp(-3.0), np.exp(3.0), 513).nodes
        out = pushforward_density(f, TransformSpec("log_x"), Grid(x[0], x[-1], 513))
        faces = np.concatenate(([x[0]], 0.5 * (x[1:] + x[:-1]), [x[-1]]))
        cdf = np.concatenate(([0.0], np.cumsum(out.values * np.diff(faces))))
        exact = [0.5 * (1.0 + math.erf(math.log(u) / (0.5 * math.sqrt(2.0)))) for u in faces]
        assert np.max(np.abs(cdf - exact)) <= 1e-4

    def test_target_cells_beyond_the_source_grid_get_no_mass(self):
        # uniform on [0, 1] in log coordinates lands on [1, e]; a wider
        # target grid keeps all of it and leaves the outer cells empty
        grid = Grid(0.0, 1.0, 129)
        f = DensityField(grid=grid, values=np.ones(129), time_stamp=0.0)
        out = pushforward_density(f, TransformSpec("log_x"), Grid(0.5, 4.0, 129))
        x = out.grid.nodes
        h = out.grid.spacing
        assert np.all(out.values[x < 1.0 - h / 2] == 0.0)
        assert np.all(out.values[x > np.e + h / 2] == 0.0)
        assert abs(out.mass - 1.0) <= 1e-12

    def test_all_zero_density_maps_to_zero(self):
        grid = Grid(-1.0, 1.0, 65)
        f = DensityField(grid=grid, values=np.zeros(65), time_stamp=0.0)
        out = pushforward_density(f, TransformSpec("identity"), grid)
        assert np.all(out.values == 0.0)
        assert out.mass == 0.0

    def test_unnormalized_density_is_not_renormalised(self):
        grid = Grid(-6.0, 6.0, 129)
        ref = gaussian_density(grid, 0.0, 1.0, 0.0)
        f = DensityField(grid=grid, values=ref.values * 2.0, time_stamp=0.0)
        target = Grid(-4.0, 4.0, 97)
        one = pushforward_density(ref, TransformSpec("identity"), target)
        two = pushforward_density(f, TransformSpec("identity"), target)
        assert np.allclose(two.values, 2.0 * one.values, rtol=1e-14, atol=0.0)
        assert two.mass == pytest.approx(2.0 * one.mass, rel=1e-14)
