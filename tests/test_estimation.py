import tracemalloc

import numpy as np
import pytest

from fprom import Grid, TrajectoryEnsemble, regress_time_only_coefficients
from fprom.analytic import drift_diffusion_density
from fprom.density import moments
from fprom.estimation import MomentSeries, moment_series
from fprom.errors import InfeasibleConfigError


class TestTrajectoryEnsemble:
    def test_properties(self):
        ens = TrajectoryEnsemble(
            times=[0.0, 0.5, 1.0], samples=np.zeros((4, 3))
        )
        assert ens.n_realizations == 4
        assert ens.n_times == 3

    def test_needs_two_levels(self):
        with pytest.raises(ValueError, match=">= 2 levels"):
            TrajectoryEnsemble(times=[0.0], samples=np.zeros((4, 1)))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="does not match"):
            TrajectoryEnsemble(times=[0.0, 1.0], samples=np.zeros((4, 3)))

    def test_non_finite_rejected(self):
        x = np.zeros((2, 2))
        x[1, 1] = np.inf
        with pytest.raises(ValueError, match="finite"):
            TrajectoryEnsemble(times=[0.0, 1.0], samples=x)

    @pytest.mark.parametrize("bad", (np.nan, np.inf, -np.inf))
    def test_each_non_finite_value_rejected_anywhere(self, bad):
        for r, k in ((0, 0), (3, 7), (4, 9)):
            x = np.ones((5, 10))
            x[r, k] = bad
            with pytest.raises(ValueError, match="times and samples must be finite"):
                TrajectoryEnsemble(times=np.arange(10.0), samples=x)

    def test_finiteness_check_allocates_no_sample_sized_mask(self):
        # a boolean mask of the samples would take 200,000 bytes
        x = np.ones((1000, 200))
        t = np.arange(200.0)
        tracemalloc.start()
        try:
            TrajectoryEnsemble(times=t, samples=x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < x.size // 8

    def test_non_uniform_axis_rejected(self):
        with pytest.raises(ValueError, match="uniform"):
            TrajectoryEnsemble(
                times=[0.0, 1.0, 2.5], samples=np.zeros((2, 3))
            )

    def test_decreasing_axis_rejected(self):
        with pytest.raises(ValueError, match="increasing"):
            TrajectoryEnsemble(
                times=[0.0, 1.0, 0.5], samples=np.zeros((2, 3))
            )

    def test_arrays_read_only(self):
        ens = TrajectoryEnsemble(times=[0.0, 1.0], samples=np.zeros((2, 2)))
        with pytest.raises(ValueError):
            ens.samples[0, 0] = 1.0


class TestMomentSeries:
    def test_exact_small_ensemble(self):
        ens = TrajectoryEnsemble(
            times=[0.0, 1.0],
            samples=np.array([[0.0, 1.0], [2.0, 3.0], [4.0, 8.0]]),
        )
        s = moment_series(ens)
        assert np.array_equal(s.mean, [2.0, 4.0])
        assert np.allclose(s.variance, [4.0, 13.0], atol=1e-14)

    def test_density_list_gives_the_per_field_moments_bitwise(self):
        grid = Grid(-8.0, 8.0, 257)
        fields = [drift_diffusion_density(grid, t, 0.3, 0.5) for t in (1.0, 1.5, 2.5)]
        s = moment_series(fields)
        stats = [moments(f) for f in fields]
        for got, want in (
            (s.times, [f.time_stamp for f in fields]),
            (s.mean, [m.mean for m in stats]),
            (s.variance, [m.variance for m in stats]),
        ):
            assert got.tobytes() == np.asarray(want).tobytes()

    def test_single_realization_rejected(self):
        ens = TrajectoryEnsemble(times=[0.0, 1.0], samples=np.ones((1, 2)))
        with pytest.raises(ValueError, match=">= 2 realizations"):
            moment_series(ens)

    def test_negative_variance_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            MomentSeries(
                times=np.array([0.0, 1.0]),
                mean=np.zeros(2),
                variance=np.array([1.0, -0.1]),
            )


class TestMomentRegression:
    def test_linear_slopes_recovered_exactly(self):
        times = np.linspace(0.0, 1.0, 11)
        series = MomentSeries(
            times=times,
            mean=0.1 + 0.7320 * times,
            variance=1.0 - 0.05862 * times,
        )
        model = regress_time_only_coefficients(
            series, (0.0, 1.0), drift_degree=0, diff_degree=0
        )
        assert model.drift_poly[0] == pytest.approx(0.7320, abs=1e-10)
        assert model.diff_poly[0] == pytest.approx(-0.02931, abs=1e-10)

    def test_quadratic_mean_gives_linear_drift(self):
        times = np.linspace(0.0, 2.0, 21)
        series = MomentSeries(
            times=times,
            mean=times**2,
            variance=np.full(21, 0.5),
        )
        model = regress_time_only_coefficients(
            series, (0.0, 2.0), drift_degree=1, diff_degree=0
        )
        assert model.drift_poly[0] == pytest.approx(0.0, abs=1e-9)
        assert model.drift_poly[1] == pytest.approx(2.0, abs=1e-9)
        assert model.diff_poly[0] == pytest.approx(0.0, abs=1e-9)

    def test_window_restricts_the_fit(self):
        # mean has slope 1 inside [2, 5] and slope -3 outside
        times = np.linspace(0.0, 10.0, 101)
        mean = np.where(
            (times >= 2.0) & (times <= 5.0), times, -3.0 * times
        )
        series = MomentSeries(
            times=times, mean=mean, variance=np.ones(101)
        )
        model = regress_time_only_coefficients(
            series, (2.0, 5.0), drift_degree=0, diff_degree=0
        )
        assert model.drift_poly[0] == pytest.approx(1.0, abs=1e-9)

    def test_empty_window_rejected(self):
        series = MomentSeries(
            times=np.linspace(0.0, 1.0, 11),
            mean=np.zeros(11),
            variance=np.ones(11),
        )
        with pytest.raises(InfeasibleConfigError, match="empty fit window"):
            regress_time_only_coefficients(series, (1.0, 1.0))

    def test_insufficient_points_for_degree(self):
        series = MomentSeries(
            times=np.linspace(0.0, 1.0, 11),
            mean=np.zeros(11),
            variance=np.ones(11),
        )
        with pytest.raises(InfeasibleConfigError, match="needs >="):
            regress_time_only_coefficients(
                series, (0.0, 0.15), drift_degree=1, diff_degree=0
            )

    def test_degree_out_of_range(self):
        series = MomentSeries(
            times=np.linspace(0.0, 1.0, 11),
            mean=np.zeros(11),
            variance=np.ones(11),
        )
        with pytest.raises(InfeasibleConfigError, match="0..3"):
            regress_time_only_coefficients(
                series, (0.0, 1.0), drift_degree=4, diff_degree=0
            )

    def test_near_duplicate_times_rejected_as_ill_conditioned(self):
        series = MomentSeries(
            times=np.array([0.0, 1e-14, 1.0]),
            mean=np.zeros(3),
            variance=np.ones(3),
        )
        with pytest.raises(InfeasibleConfigError, match="ill-conditioned"):
            regress_time_only_coefficients(
                series, (0.0, 1.0), drift_degree=1, diff_degree=1
            )

    def test_negative_degree_rejected(self):
        series = MomentSeries(
            times=np.linspace(0.0, 1.0, 11),
            mean=np.zeros(11),
            variance=np.ones(11),
        )
        with pytest.raises(InfeasibleConfigError, match="drift degree must be in 0..3"):
            regress_time_only_coefficients(
                series, (0.0, 1.0), drift_degree=-1, diff_degree=0
            )

    def test_diffusion_degree_checked_on_its_own(self):
        series = MomentSeries(
            times=np.linspace(0.0, 1.0, 11),
            mean=np.zeros(11),
            variance=np.ones(11),
        )
        with pytest.raises(
            InfeasibleConfigError, match="diffusion degree must be in 0..3"
        ):
            regress_time_only_coefficients(
                series, (0.0, 1.0), drift_degree=0, diff_degree=4
            )
        # 3 points in [0, 0.2] fit a drift of degree 1 but not a
        # diffusion of degree 2
        with pytest.raises(InfeasibleConfigError, match="diffusion degree 2"):
            regress_time_only_coefficients(
                series, (0.0, 0.2), drift_degree=1, diff_degree=2
            )

    def test_window_bounds_inclusive_to_relative_tolerance(self):
        # the window ends a few ulps inside the first and last levels,
        # which must still count: 2 points are enough for degree 0
        times = np.array([0.0, 0.1, 0.2])
        series = MomentSeries(
            times=times, mean=3.0 * times, variance=np.ones(3)
        )
        model = regress_time_only_coefficients(
            series, (0.1 * (1 + 1e-12), 0.2 * (1 - 1e-12))
        )
        assert model.drift_poly[0] == pytest.approx(3.0, rel=1e-12)

    @pytest.mark.parametrize("degree", [0, 1, 2, 3])
    def test_polynomial_lengths_follow_the_requested_degrees(self, degree):
        times = np.linspace(0.0, 1.0, 11)
        series = MomentSeries(
            times=times, mean=np.sin(times), variance=1.0 + times**2
        )
        model = regress_time_only_coefficients(
            series, (0.0, 1.0), drift_degree=degree, diff_degree=3 - degree
        )
        assert len(model.drift_poly) == degree + 1
        assert len(model.diff_poly) == 4 - degree


def _philox(seed):
    return np.random.Generator(np.random.Philox(key=[seed, 0]))


def _wiener_ensemble(n_real, n_times, dt, drift, diffusion, seed):
    rng = _philox(seed)
    inc = drift * dt + rng.standard_normal((n_real, n_times - 1)) * np.sqrt(
        2.0 * diffusion * dt
    )
    x = np.concatenate([np.zeros((n_real, 1)), np.cumsum(inc, axis=1)], axis=1)
    return TrajectoryEnsemble(times=np.arange(n_times) * dt, samples=x)


class TestRegressionOnEnsembles:
    """moment_series followed by regress_time_only_coefficients, as the
    pipeline's estimate step runs them."""

    def test_deterministic_increments_give_exact_drift(self):
        # every realization advances by c per step from its own start:
        # the mean moves by c / dt per unit time, the variance not at all
        dt, c, n_real, n_times = 0.05, 0.02, 30, 6
        times = np.arange(n_times) * dt
        starts = np.linspace(-1.0, 1.0, n_real)[:, None]
        ens = TrajectoryEnsemble(
            times=times, samples=starts + c * np.arange(n_times)
        )
        model = regress_time_only_coefficients(
            moment_series(ens), (times[0], times[-1])
        )
        assert model.drift_poly[0] == pytest.approx(c / dt, rel=1e-12)
        assert model.diff_poly[0] == pytest.approx(0.0, abs=1e-12)

    def test_identical_realizations_give_zero_diffusion(self):
        times = np.linspace(0.0, 1.0, 11)
        ens = TrajectoryEnsemble(
            times=times, samples=np.tile(np.exp(-times), (40, 1))
        )
        series = moment_series(ens)
        # the mean of 40 equal values can round one ulp off them
        assert np.all(series.variance <= 1e-30)
        model = regress_time_only_coefficients(
            series, (0.0, 1.0), drift_degree=2, diff_degree=2
        )
        assert np.allclose(model.diff_poly, 0.0, rtol=0, atol=1e-12)

    def test_wiener_drift_and_diffusion(self):
        ens = _wiener_ensemble(20_000, 11, 0.1, 0.3, 0.5, seed=21)
        model = regress_time_only_coefficients(moment_series(ens), (0.0, 1.0))
        assert model.drift_poly[0] == pytest.approx(0.3, abs=0.02)
        assert model.diff_poly[0] == pytest.approx(0.5, rel=0.03)

    def test_shift_leaves_coefficients_unchanged(self):
        ens = _wiener_ensemble(500, 11, 0.1, -0.2, 0.4, seed=5)
        shifted = TrajectoryEnsemble(times=ens.times, samples=ens.samples + 7.5)
        base = regress_time_only_coefficients(moment_series(ens), (0.0, 1.0), 1, 1)
        moved = regress_time_only_coefficients(
            moment_series(shifted), (0.0, 1.0), 1, 1
        )
        assert np.allclose(moved.drift_poly, base.drift_poly, rtol=0, atol=1e-12)
        assert np.allclose(moved.diff_poly, base.diff_poly, rtol=0, atol=1e-12)

    def test_two_realizations_are_enough(self):
        ens = TrajectoryEnsemble(
            times=[0.0, 0.5, 1.0],
            samples=np.array([[0.0, 1.0, 2.0], [0.0, 2.0, 4.0]]),
        )
        # mean 0, 1.5, 3 and variance 0, 0.5, 2 (ddof=1)
        model = regress_time_only_coefficients(
            moment_series(ens), (0.0, 1.0), drift_degree=0, diff_degree=1
        )
        assert model.drift_poly[0] == pytest.approx(3.0, rel=1e-12)
        assert model.diff_poly[0] == pytest.approx(0.0, abs=1e-12)
        assert model.diff_poly[1] == pytest.approx(2.0, rel=1e-12)
