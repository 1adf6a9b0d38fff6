import itertools
import re
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import get_lapack_funcs, solve_banded

from fprom import CoefficientModel, DensityField, Grid, SolverConfig, solve
from fprom.analytic import drift_diffusion_density, gaussian_density
from fprom.density import l1_distance, moments
from fprom.errors import InfeasibleConfigError
from fprom.grid import flux_bands
from fprom.solver import (
    MASS_TOL,
    RK4_IMAG_REACH,
    STABILITY_SAFETY,
    SolutionTrace,
    _band_matvec,
    _record_steps,
)


def wiener_model(diffusion=0.5, drift=0.0):
    return CoefficientModel(drift_poly=(drift,), diff_poly=(diffusion,))


# initial masses a solve accepts: exactly 1, and 1 + 5e-4, inside the
# 1e-3 tolerance, which nothing rescales towards 1
INITIAL_MASSES = pytest.mark.parametrize(
    "initial_mass", (1.0, 1.0 + 5e-4), ids=("unit_mass", "off_unit_mass")
)


def with_mass(f0, initial_mass):
    """f0 with its values scaled by initial_mass."""
    if initial_mass == 1.0:
        return f0
    return DensityField(
        grid=f0.grid, values=f0.values * initial_mass, time_stamp=f0.time_stamp
    )


class TestSolverConfig:
    def test_unknown_integrator(self):
        with pytest.raises(InfeasibleConfigError, match="integrator"):
            SolverConfig(integrator="euler", dt=0.1, record_times=(1.0,))

    def test_bad_dt(self):
        with pytest.raises(InfeasibleConfigError, match="dt"):
            SolverConfig(integrator="crank_nicolson", dt=0.0, record_times=(1.0,))

    def test_infinite_dt(self):
        # 0 * inf is NaN, so every record time would pass as step 0
        with pytest.raises(InfeasibleConfigError, match="dt must be finite"):
            SolverConfig(dt=float("inf"), record_times=(1.0,))

    def test_defaults(self):
        config = SolverConfig(dt=0.1)
        assert config.integrator == "crank_nicolson"
        assert config.record_times == ()
        assert config.allow_negative_diffusion is False

    def test_record_times_must_increase(self):
        with pytest.raises(InfeasibleConfigError, match="increasing"):
            SolverConfig(
                integrator="crank_nicolson", dt=0.1, record_times=(1.0, 1.0)
            )


class TestSolveValidation:
    def test_empty_record_times(self):
        grid = Grid(-8.0, 8.0, 129)
        f0 = gaussian_density(grid, 0.0, 1.0, 0.0)
        with pytest.raises(InfeasibleConfigError, match="record_times must be nonempty"):
            solve(f0, wiener_model(), SolverConfig(dt=0.1))

    def test_record_time_off_lattice(self):
        grid = Grid(-8.0, 8.0, 129)
        f0 = gaussian_density(grid, 0.0, 1.0, 0.0)
        config = SolverConfig(
            integrator="crank_nicolson", dt=0.1, record_times=(0.15,)
        )
        with pytest.raises(InfeasibleConfigError, match="integer multiple"):
            solve(f0, wiener_model(), config)

    @pytest.mark.parametrize("tau", [float("inf"), 1e308, float("nan")])
    def test_record_time_without_a_finite_step_count(self, tau):
        # 1e308 / 0.05 overflows to inf
        grid = Grid(-8.0, 8.0, 129)
        f0 = gaussian_density(grid, 0.0, 1.0, 0.0)
        config = SolverConfig(dt=0.05, record_times=(tau,))
        with pytest.raises(InfeasibleConfigError, match=re.escape(f"record time {tau} is not")):
            solve(f0, wiener_model(), config)

    @pytest.mark.parametrize(
        "tau, steps, cause",
        [
            (1e20, 2 * 10**21, "Maximum allowed dimension exceeded"),
            (5e13, 10**15, "Unable to allocate 7.11 PiB"),
        ],
    )
    def test_record_time_too_many_steps_to_allocate(self, tau, steps, cause):
        grid = Grid(-8.0, 8.0, 129)
        f0 = gaussian_density(grid, 0.0, 1.0, 0.0)
        config = SolverConfig(dt=0.05, record_times=(tau,))
        with pytest.raises(InfeasibleConfigError) as got:
            solve(f0, wiener_model(), config)
        assert str(got.value).startswith(
            f"record time {tau} is {steps} steps of dt=0.05 past t0=0.0, "
            f"more than can be allocated: {cause}"
        )

    @pytest.mark.parametrize(
        "model",
        [wiener_model(), CoefficientModel(drift_poly=(0.0, 1e-300), diff_poly=(0.5,))],
        ids=("constant", "time_varying"),
    )
    def test_step_times_that_overflow(self, model):
        # two steps reach the largest float, but the end of step 2,
        # (t0 + dt) + dt, rounds past it to inf
        tau, t0 = sys.float_info.max, 1e308
        dt = (tau - t0) / 2 * (1 + 1e-10)
        f0 = gaussian_density(Grid(-8.0, 8.0, 129), 0.0, 1.0, t0)
        config = SolverConfig(dt=dt, record_times=(tau,))
        with pytest.raises(InfeasibleConfigError) as got:
            solve(f0, model, config)
        assert str(got.value) == (
            f"record time {tau} is 2 steps of dt={dt} past t0={t0}, "
            "and the step times overflow before it"
        )

    def test_record_time_before_start(self):
        grid = Grid(-8.0, 8.0, 129)
        f0 = gaussian_density(grid, 0.0, 1.0, 1.0)
        config = SolverConfig(
            integrator="crank_nicolson", dt=0.1, record_times=(0.5,)
        )
        with pytest.raises(InfeasibleConfigError, match="precedes"):
            solve(f0, wiener_model(), config)

    def test_unnormalized_initial_density(self):
        grid = Grid(-8.0, 8.0, 129)
        ref = gaussian_density(grid, 0.0, 1.0, 0.0)
        from fprom import DensityField

        bad = DensityField(grid=grid, values=ref.values * 1.5, time_stamp=0.0)
        config = SolverConfig(
            integrator="crank_nicolson", dt=0.1, record_times=(0.5,)
        )
        with pytest.raises(InfeasibleConfigError, match="not normalized"):
            solve(bad, wiener_model(), config)

    def test_rk4_stability_check_refuses_large_dt(self):
        grid = Grid(-8.0, 8.0, 257)
        f0 = gaussian_density(grid, 0.0, 1.0, 0.0)
        h = grid.spacing
        bad_dt = 2.0 * STABILITY_SAFETY * h * h / 0.5
        config = SolverConfig(
            integrator="explicit_rk4", dt=bad_dt, record_times=(bad_dt * 4,)
        )
        with pytest.raises(InfeasibleConfigError, match="unstable"):
            solve(f0, wiener_model(0.5), config)

    def test_rk4_advection_bound_refuses_cfl_above_reach(self):
        # central differences put pure-drift eigenvalues on the imaginary
        # axis, which RK4 covers only up to 2*sqrt(2); CFL 6.4 is refused
        grid = Grid(-6.0, 10.0, 1025)
        f0 = gaussian_density(grid, 0.0, 0.1, 0.0)
        model = CoefficientModel(drift_poly=(1.0,), diff_poly=(0.0,))
        config = SolverConfig(integrator="explicit_rk4", dt=0.1, record_times=(1.0,))
        with pytest.raises(InfeasibleConfigError, match="unstable"):
            solve(f0, model, config)
        bound = STABILITY_SAFETY * RK4_IMAG_REACH * grid.spacing
        dt = 1.0 / np.ceil(1.0 / bound)
        assert 0.99 * bound < dt <= bound
        config = SolverConfig(integrator="explicit_rk4", dt=dt, record_times=(1.0,))
        trace = solve(f0, model, config)
        assert not trace.diverged
        assert moments(trace.snapshots[0]).mean == pytest.approx(1.0, abs=1e-3)

    def test_rk4_advection_bound_uses_drift_maximum_over_horizon(self):
        grid = Grid(-6.0, 10.0, 257)
        f0 = gaussian_density(grid, 0.0, 0.5, 0.0)
        bound = STABILITY_SAFETY * RK4_IMAG_REACH * grid.spacing
        # D1(t) = 2t is 0 at the start and reaches 2 only at t = 1, where
        # it halves the bound
        model = CoefficientModel(drift_poly=(0.0, 2.0), diff_poly=(0.0,))
        dt = 1.0 / np.ceil(1.0 / (0.75 * bound))
        config = SolverConfig(integrator="explicit_rk4", dt=dt, record_times=(1.0,))
        with pytest.raises(InfeasibleConfigError, match=r"max\|D1\|"):
            solve(f0, model, config)

    def test_negative_diffusion_refused_without_override(self):
        grid = Grid(-8.0, 8.0, 129)
        f0 = gaussian_density(grid, 0.0, 1.0, 0.0)
        model = CoefficientModel(drift_poly=(0.0,), diff_poly=(-0.1,))
        config = SolverConfig(
            integrator="crank_nicolson", dt=0.01, record_times=(0.02,)
        )
        with pytest.raises(InfeasibleConfigError, match="refused"):
            solve(f0, model, config)

    def test_negative_dip_between_sample_points_refused(self):
        # (t - 0.0005)^2 - 1e-8 dips below zero only on (0.0004, 0.0006),
        # between the points of a 1001-point sampling of [0, 1]
        grid = Grid(-8.0, 8.0, 129)
        f0 = gaussian_density(grid, 0.0, 1.0, 0.0)
        model = CoefficientModel(drift_poly=(0.0,), diff_poly=(0.0005**2 - 1e-8, -0.001, 1.0))
        config = SolverConfig(integrator="crank_nicolson", dt=0.01, record_times=(1.0,))
        with pytest.raises(InfeasibleConfigError, match=r"reaches -1(\.\d+)?e-08 .*refused"):
            solve(f0, model, config)

    def test_negative_diffusion_override_runs(self):
        grid = Grid(-8.0, 8.0, 129)
        f0 = gaussian_density(grid, 0.0, 1.0, 0.0)
        model = CoefficientModel(drift_poly=(0.0,), diff_poly=(-0.1,))
        config = SolverConfig(
            integrator="crank_nicolson",
            dt=0.01,
            record_times=(0.02,),
            allow_negative_diffusion=True,
        )
        trace = solve(f0, model, config)
        assert isinstance(trace, SolutionTrace)


class TestSolveAccuracy:
    def test_pure_diffusion_matches_oracle(self):
        grid = Grid(-10.0, 10.0, 513)
        f0 = drift_diffusion_density(grid, 1.0, 0.0, 0.5)
        config = SolverConfig(
            integrator="crank_nicolson", dt=0.01, record_times=(1.5, 2.0)
        )
        trace = solve(f0, wiener_model(0.5), config)
        assert not trace.diverged
        assert [s.time_stamp for s in trace.snapshots] == [1.5, 2.0]
        for snap in trace.snapshots:
            oracle = drift_diffusion_density(grid, snap.time_stamp, 0.0, 0.5)
            assert l1_distance(snap, oracle) < 5e-4

    def test_rk4_and_cn_agree(self):
        grid = Grid(-8.0, 8.0, 257)
        f0 = gaussian_density(grid, 0.0, 0.5, 0.0)
        h = grid.spacing
        dt = 0.5 * STABILITY_SAFETY * h * h / 0.5
        n = int(np.ceil(0.5 / dt))
        dt = 0.5 / n
        times = (0.5,)
        rk = solve(
            f0,
            wiener_model(0.5),
            SolverConfig(integrator="explicit_rk4", dt=dt, record_times=times),
        )
        cn = solve(
            f0,
            wiener_model(0.5),
            SolverConfig(integrator="crank_nicolson", dt=dt, record_times=times),
        )
        assert l1_distance(rk.snapshots[0], cn.snapshots[0]) < 1e-5

    def test_time_varying_drift_moves_mean_quadratically(self):
        # drift D1(t) = t, so mean(T) = T^2 / 2; exercises the uncached
        # Crank-Nicolson path for non-constant coefficients
        grid = Grid(-6.0, 6.0, 513)
        f0 = gaussian_density(grid, 0.0, 0.04, 0.0)
        model = CoefficientModel(drift_poly=(0.0, 1.0), diff_poly=(0.05,))
        config = SolverConfig(
            integrator="crank_nicolson", dt=0.01, record_times=(1.0,)
        )
        trace = solve(f0, model, config)
        m = moments(trace.snapshots[0])
        assert m.mean == pytest.approx(0.5, abs=2e-3)
        assert m.variance == pytest.approx(0.04 + 2 * 0.05 * 1.0, rel=0.02)

    def test_record_at_initial_time(self):
        grid = Grid(-8.0, 8.0, 257)
        f0 = gaussian_density(grid, 0.0, 1.0, 2.0)
        config = SolverConfig(
            integrator="crank_nicolson", dt=0.1, record_times=(2.0, 2.5)
        )
        trace = solve(f0, wiener_model(0.5), config)
        assert len(trace.snapshots) == 2
        assert trace.snapshots[0].time_stamp == 2.0
        assert np.allclose(trace.snapshots[0].values, f0.values, atol=1e-14)


class TestConservationAndBoundaries:
    def test_zero_flux_conserves_mass(self):
        grid = Grid(-10.0, 10.0, 257)
        f0 = gaussian_density(grid, 0.0, 1.0, 0.0)
        config = SolverConfig(integrator="crank_nicolson", dt=0.01, record_times=(1.0,))
        trace = solve(f0, wiener_model(0.5), config)
        assert not trace.diverged
        assert trace.mass_log.shape == (100,)
        assert np.max(np.abs(trace.mass_log - 1.0)) < 1e-6

    def test_drift_into_a_wall_conserves_mass(self):
        # the drift piles the density against the right wall, where the
        # flux-form closure must stop every bit of it
        grid = Grid(-3.0, 3.0, 257)
        f0 = gaussian_density(grid, 0.0, 0.1, 0.0)
        model = CoefficientModel(drift_poly=(1.0,), diff_poly=(0.05,))
        config = SolverConfig(integrator="crank_nicolson", dt=0.01, record_times=(4.0,))
        trace = solve(f0, model, config)
        assert not trace.diverged
        assert trace.mass_log.shape == (400,)
        assert np.max(np.abs(trace.mass_log - 1.0)) <= 1e-12
        assert moments(trace.snapshots[0]).mean > 2.9

    @settings(max_examples=100, deadline=None)
    @given(
        integrator=st.sampled_from(("explicit_rk4", "crank_nicolson")),
        n_points=st.sampled_from((33, 65, 129)),
        drift=st.floats(-2.0, 2.0),
        drift_slope=st.just(0.0) | st.floats(-2.0, 2.0),
        diffusion=st.floats(0.01, 1.0),
        diffusion_slope=st.just(0.0) | st.floats(0.0, 1.0),
        floor=st.floats(0.01, 1.0),
        mean=st.floats(-2.5, 2.5),
        variance=st.floats(0.05, 1.0),
        dt_fraction=st.floats(0.05, 0.99),
        n_steps=st.integers(1, 40),
    )
    def test_zero_flux_conserves_mass_without_renormalizing(
        self,
        integrator,
        n_points,
        drift,
        drift_slope,
        diffusion,
        diffusion_slope,
        floor,
        mean,
        variance,
        dt_fraction,
        n_steps,
    ):
        # f0 is strictly positive and nonzero at both walls; coefficients
        # are linear in t over [0, 1], where the step count keeps the solve
        grid = Grid(-3.0, 3.0, n_points)
        h = grid.spacing
        d1_max = max(abs(drift), abs(drift + drift_slope))
        # cell Peclet number d1 * h / d2 <= 2 keeps A's off-diagonals >= 0
        d2_min = max(diffusion, 0.5 * d1_max * h)
        d2_max = d2_min + diffusion_slope
        model = CoefficientModel(
            drift_poly=(drift, drift_slope), diff_poly=(d2_min, diffusion_slope)
        )
        # the wall rows' diagonal bounds the step that keeps f >= 0
        dt_max = 2.0 / (d1_max / h + 2.0 * d2_max / h**2)
        if integrator == "explicit_rk4":
            dt_max = min(dt_max, STABILITY_SAFETY * h**2 / d2_max)
            if d1_max > 0.0:
                dt_max = min(dt_max, STABILITY_SAFETY * RK4_IMAG_REACH * h / d1_max)
        dt = dt_fraction * dt_max
        n_steps = max(1, min(n_steps, int(1.0 / dt)))
        values = floor + np.exp(-((grid.nodes - mean) ** 2) / (2.0 * variance))
        f0 = DensityField.normalized(grid, values, 0.0)
        config = SolverConfig(
            integrator=integrator, dt=dt, record_times=(n_steps * dt,)
        )
        trace = solve(f0, model, config)
        assert not trace.diverged
        assert trace.mass_log.shape == (n_steps,)
        assert np.max(np.abs(trace.mass_log - 1.0)) <= 1e-12
        # the record-row clip had nothing to clip
        assert np.min(trace.snapshots[0].values) > 0.0

    @pytest.mark.parametrize("integrator", ("explicit_rk4", "crank_nicolson"))
    def test_rows_keep_an_unnormalized_initial_mass(self, integrator):
        # a mass of 1 + 5e-4 is within the 1e-3 the solve accepts, and
        # nothing rescales the state towards 1
        grid = Grid(-8.0, 8.0, 129)
        ref = gaussian_density(grid, 0.0, 1.0, 0.0)
        f0 = DensityField(grid=grid, values=ref.values * (1.0 + 5e-4), time_stamp=0.0)
        model = CoefficientModel(drift_poly=(0.3, 0.2), diff_poly=(0.5,))
        dt = 0.05 if integrator == "crank_nicolson" else 0.4 * grid.spacing**2 / 0.5
        config = SolverConfig(
            integrator=integrator, dt=dt, record_times=(0.0, 20 * dt, 40 * dt)
        )
        trace = solve(f0, model, config)
        assert not trace.diverged
        assert abs(f0.mass - (1.0 + 5e-4)) <= 1e-12
        assert len(trace.snapshots) == 3
        for snap in trace.snapshots:
            assert abs(snap.mass - f0.mass) <= 1e-12
        assert np.max(np.abs(trace.mass_log - f0.mass)) <= 1e-12

    def test_snapshots_are_normalized(self):
        grid = Grid(-10.0, 10.0, 257)
        f0 = gaussian_density(grid, 0.0, 1.0, 0.0)
        config = SolverConfig(
            integrator="crank_nicolson", dt=0.05, record_times=(0.5, 1.0)
        )
        trace = solve(f0, wiener_model(0.5), config)
        for snap in trace.snapshots:
            assert snap.mass == pytest.approx(1.0, abs=1e-12)


class TestDivergenceHandling:
    def test_overflow_sets_flag_and_returns_partial_trace(self):
        # a pure-drift dt that would overflow RK4 now fails the advection
        # bound up front; the Crank-Nicolson cases below reach the flag
        grid = Grid(-8.0, 8.0, 257)
        f0 = gaussian_density(grid, 0.0, 1.0, 0.0)
        model = CoefficientModel(drift_poly=(1.0,), diff_poly=(0.0,))
        config = SolverConfig(
            integrator="explicit_rk4", dt=1e80, record_times=(2e80,)
        )
        with pytest.raises(InfeasibleConfigError, match="unstable"):
            solve(f0, model, config)

    def test_crank_nicolson_overflow_sets_flag_instead_of_raising(self):
        # the banded solve refuses a non-finite system; solve must turn that
        # into a diverged trace, since loss scores diverged traces
        grid = Grid(-8.0, 8.0, 257)
        f0 = gaussian_density(grid, 0.0, 1.0, 0.0)
        model = CoefficientModel(drift_poly=(1e308,), diff_poly=(0.0,))
        config = SolverConfig(integrator="crank_nicolson", dt=1.0, record_times=(2.0,))
        with np.errstate(over="ignore", invalid="ignore"):
            trace = solve(f0, model, config)
        assert trace.diverged
        assert trace.diagnostic == "non-finite Crank-Nicolson system at step 1 (t=1.0)"
        assert trace.snapshots == ()

    def test_singular_crank_nicolson_system_is_named_singular(self):
        # D2 = -1 with h = 1 and dt = 1 zeroes the whole diagonal of
        # I - dt/2 A, wall rows included; a tridiagonal matrix of odd
        # order with a zero diagonal is exactly singular, with every
        # entry finite
        grid = Grid(0.0, 8.0, 9)
        f0 = gaussian_density(grid, 4.0, 1.0, 0.0)
        model = CoefficientModel(drift_poly=(0.0,), diff_poly=(-1.0,))
        config = SolverConfig(
            integrator="crank_nicolson",
            dt=1.0,
            record_times=(1.0,),
            allow_negative_diffusion=True,
        )
        trace = solve(f0, model, config)
        assert trace.diverged
        assert trace.diagnostic == "singular Crank-Nicolson system at step 1 (t=1.0)"
        assert trace.snapshots == ()


def flux_form_matrices(grid):
    """Dense E1, E2 from the face-flux definition: node i owns the cell
    between faces i - 1/2 and i + 1/2 (a half cell at a wall), the face
    flux is F = D1 * avg f - D2 * grad f, and df/dt = -div F, so that
    -div F = (-D1 * E1 + D2 * E2) f. No flux crosses a wall."""
    n, h = grid.n_points, grid.spacing
    avg = 0.5 * (np.eye(n - 1, n) + np.eye(n - 1, n, k=1))
    grad = (np.eye(n - 1, n, k=1) - np.eye(n - 1, n)) / h
    # net outflow of each cell: its right face minus its left face
    div = np.eye(n, n - 1) - np.eye(n, n - 1, k=-1)
    width = np.full(n, h)
    width[[0, -1]] = h / 2
    e1 = div @ avg / width[:, None]
    e2 = div @ grad / width[:, None]
    return e1, e2


def dense_reference_solve(f0, model, config):
    """Dense re-implementation of solve: flux-form operators built as
    full matrices, numpy.linalg.solve for Crank-Nicolson and dense
    matrix products for RK4; the state is never clipped or rescaled,
    and only the recorded rows are clipped at zero."""
    grid = f0.grid
    x = grid.nodes
    e1, e2 = flux_form_matrices(grid)
    eye = np.eye(grid.n_points)

    def a(t):
        d1, d2 = model.eval(t)
        return -d1 * e1 + d2 * e2

    f = f0.values.copy()
    t0, dt = f0.time_stamp, config.dt
    record = {round((tau - t0) / dt) for tau in config.record_times}
    snapshots, masses = [], []
    for k in range(1, max(record) + 1):
        t = t0 + (k - 1) * dt
        if config.integrator == "explicit_rk4":
            k1 = a(t) @ f
            k2 = a(t + 0.5 * dt) @ (f + 0.5 * dt * k1)
            k3 = a(t + 0.5 * dt) @ (f + 0.5 * dt * k2)
            k4 = a(t + dt) @ (f + dt * k3)
            f = f + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        else:
            f = np.linalg.solve(eye - 0.5 * dt * a(t + dt), (eye + 0.5 * dt * a(t)) @ f)
        masses.append(np.trapezoid(f, x))
        if k in record:
            snapshots.append(np.clip(f, 0.0, None))
    return snapshots, np.asarray(masses)


def band_to_dense(ab):
    """The tridiagonal matrix held in LAPACK band storage ab (3, n)."""
    return np.diag(ab[1]) + np.diag(ab[0, 1:], 1) + np.diag(ab[2, :-1], -1)


# an even and an odd node count, and a spacing that is not a power of two
GRIDS = (Grid(-3.0, 3.0, 65), Grid(-1.3, 2.7, 50), Grid(0.0, 7.0, 31))


class TestFluxFormOperator:
    @pytest.mark.parametrize("grid", GRIDS)
    def test_bands_match_face_flux_definition(self, grid):
        b1, b2 = flux_bands(grid)
        assert b1.shape == b2.shape == (3, grid.n_points)
        # slots above the first row and below the last stay empty
        assert b1[0, 0] == b1[2, -1] == b2[0, 0] == b2[2, -1] == 0.0
        e1, e2 = flux_form_matrices(grid)
        for band, dense in ((b1, e1), (b2, e2)):
            scale = np.max(np.abs(dense))
            assert np.max(np.abs(band_to_dense(band) - dense)) <= 1e-14 * scale

    def test_interior_rows_are_exact_on_low_degree_polynomials(self):
        grid = Grid(-1.0, 1.0, 21)
        x = grid.nodes
        b1, b2 = flux_bands(grid)
        # centred order-2 stencils: quadratics for E1, cubics for E2
        q = 2.0 + 3.0 * x - x**2
        assert np.allclose(_band_matvec(b1, q)[1:-1], (3.0 - 2.0 * x)[1:-1], atol=1e-9)
        c = q + 0.25 * x**3
        assert np.allclose(_band_matvec(b2, c)[1:-1], (-2.0 + 1.5 * x)[1:-1], atol=1e-7)

    def test_zero_flux_operator_has_zero_trapezoidal_mass(self):
        grid = Grid(-1.3, 2.7, 50)
        weights = np.full(grid.n_points, grid.spacing)
        weights[[0, -1]] = grid.spacing / 2
        b1, b2 = flux_bands(grid)
        for band in (b1, b2):
            column_mass = weights @ band_to_dense(band)
            assert np.max(np.abs(column_mass)) <= 1e-12 * np.max(np.abs(band))

    @pytest.mark.parametrize("grid", GRIDS)
    def test_interior_stencils_are_classic_central_weights(self, grid):
        b1, b2 = flux_bands(grid)
        h = grid.spacing
        # row i in 1..n-2 holds (i, i-1) at [2, i-1], (i, i) at [1, i]
        # and (i, i+1) at [0, i+1]
        assert np.all(b1[2, :-2] == -0.5 / h)
        assert np.all(b1[1, 1:-1] == 0.0)
        assert np.all(b1[0, 2:] == 0.5 / h)
        assert np.all(b2[2, :-2] == 1.0 / h**2)
        assert np.all(b2[1, 1:-1] == -2.0 / h**2)
        assert np.all(b2[0, 2:] == 1.0 / h**2)

    @pytest.mark.parametrize("grid", GRIDS)
    def test_wall_rows(self, grid):
        h = grid.spacing
        e1, e2 = (band_to_dense(b) for b in flux_bands(grid))
        want1 = ((1.0 / h, 1.0 / h), (-1.0 / h, -1.0 / h))
        want2 = ((-2.0 / h**2, 2.0 / h**2), (2.0 / h**2, -2.0 / h**2))
        for dense, (row0, row_last) in ((e1, want1), (e2, want2)):
            assert np.array_equal(dense[0, :2], row0)
            assert np.array_equal(dense[-1, -2:], row_last)
            # tridiagonal: nothing further in from either wall
            assert not np.any(dense[0, 2:]) and not np.any(dense[-1, :-2])

    @settings(max_examples=25, deadline=None)
    @given(data=st.data(), degree=st.sampled_from([1, 2]))
    def test_interior_rows_exact_below_degree_plus_order(self, data, degree):
        # centred order-2 stencils are exact for polynomials of degree
        # below the derivative's degree + 2
        coeffs = data.draw(
            st.lists(
                st.floats(min_value=-3.0, max_value=3.0),
                min_size=1,
                max_size=degree + 2,
            )
        )
        grid = Grid(-1.0, 1.0, 21)
        x = grid.nodes
        poly = np.polynomial.Polynomial(coeffs)
        band = flux_bands(grid)[degree - 1]
        approx = _band_matvec(band, poly(x))
        exact = poly.deriv(degree)(x)
        assert np.allclose(approx[1:-1], exact[1:-1], atol=1e-7)

    @pytest.mark.parametrize("degree", (1, 2))
    def test_interior_rows_converge_at_second_order(self, degree):
        errors = []
        for n_points in (65, 129, 257):
            grid = Grid(-1.0, 1.0, n_points)
            x = grid.nodes
            band = flux_bands(grid)[degree - 1]
            exact = 3.0 * np.cos(3.0 * x) if degree == 1 else -9.0 * np.sin(3.0 * x)
            approx = _band_matvec(band, np.sin(3.0 * x))
            errors.append(np.max(np.abs(approx - exact)[1:-1]))
        ratios = np.array(errors[:-1]) / np.array(errors[1:])
        assert np.all((ratios > 3.8) & (ratios < 4.2))

    @settings(max_examples=50, deadline=None)
    @given(
        n_points=st.integers(8, 300),
        x_min=st.floats(-10.0, 10.0),
        width=st.floats(0.1, 20.0),
        d1=st.floats(-5.0, 5.0),
        d2=st.floats(0.0, 5.0),
        seed=st.integers(0, 2**31),
    )
    # a subnormal drift: each product rounds to the nearest subnormal,
    # far above 1e-13 of terms that are themselves a few subnormals
    @example(n_points=8, x_min=0.0, width=1.0, d1=5e-324, d2=0.0, seed=0)
    def test_zero_flux_generator_keeps_mass_of_any_vector(
        self, n_points, x_min, width, d1, d2, seed
    ):
        grid = Grid(x_min, x_min + width, n_points)
        b1, b2 = flux_bands(grid)
        g = np.random.Generator(np.random.Philox(key=[seed, 0])).random(n_points)
        dg = -d1 * _band_matvec(b1, g) + d2 * _band_matvec(b2, g)
        weights = np.full(n_points, grid.spacing)
        weights[[0, -1]] = grid.spacing / 2
        # rounding is relative to the size of the terms that cancel, with
        # an absolute floor of a few subnormals per node below which
        # products cannot be rounded relatively
        terms = abs(d1) * _band_matvec(np.abs(b1), g) + d2 * _band_matvec(np.abs(b2), g)
        floor = 4 * n_points * np.finfo(float).smallest_subnormal
        assert abs(weights @ dg) <= 1e-13 * (weights @ terms) + floor

    def test_each_grid_caches_its_own_read_only_bands(self):
        bands = flux_bands(Grid(-5.0, 5.0, 129))
        other = flux_bands(Grid(-5.0, 5.0, 65))
        assert bands[0] is not other[0] and bands[1] is not other[1]
        for band in (*bands, *other):
            assert not band.flags.writeable
        # an equal grid built again hits the same cache entry
        again = flux_bands(Grid(-5.0, 5.0, 129.0))
        assert again[0] is bands[0] and again[1] is bands[1]


class TestBandedOperatorMatchesDense:
    @pytest.mark.parametrize(
        "integrator, time_varying",
        list(itertools.product(("explicit_rk4", "crank_nicolson"), (False, True))),
    )
    @INITIAL_MASSES
    def test_solve_matches_dense_reference(self, integrator, time_varying, initial_mass):
        # a spacing that is not a power of two, so node rounding differs row to row
        grid = Grid(-5.0, 5.0, 61)
        # wide enough that the wall rows act on non-negligible values
        f0 = with_mass(gaussian_density(grid, 0.3, 4.0, 0.0), initial_mass)
        if time_varying:
            model = CoefficientModel(drift_poly=(0.4, 0.5), diff_poly=(0.2, 0.1))
        else:
            model = CoefficientModel(drift_poly=(0.4,), diff_poly=(0.2,))
        dt = 0.5 * grid.spacing**2
        config = SolverConfig(
            integrator=integrator, dt=dt, record_times=(10 * dt, 30 * dt)
        )
        trace = solve(f0, model, config)
        snapshots, masses = dense_reference_solve(f0, model, config)
        assert not trace.diverged
        assert len(trace.snapshots) == len(snapshots) == 2
        for got, want in zip(trace.snapshots, snapshots):
            assert np.max(np.abs(got.values - want)) <= 1e-12
        assert np.max(np.abs(trace.mass_log - masses)) <= 1e-12
        assert np.max(np.abs(masses - initial_mass)) <= 1e-12

    @pytest.mark.parametrize("integrator", ("explicit_rk4", "crank_nicolson"))
    @pytest.mark.parametrize("sign", (-1.0, 1.0))
    @INITIAL_MASSES
    def test_drift_toward_each_wall_matches_dense_reference(
        self, integrator, sign, initial_mass
    ):
        # the drift piles mass against one wall, so E1's wall rows carry
        # most of the flux balance there
        grid = Grid(-5.0, 5.0, 61)
        f0 = with_mass(gaussian_density(grid, sign * 3.5, 1.0, 0.0), initial_mass)
        model = CoefficientModel(drift_poly=(sign * 0.8,), diff_poly=(0.2,))
        dt = 0.5 * grid.spacing**2
        config = SolverConfig(integrator=integrator, dt=dt, record_times=(40 * dt,))
        trace = solve(f0, model, config)
        snapshots, masses = dense_reference_solve(f0, model, config)
        assert not trace.diverged
        assert np.max(np.abs(trace.snapshots[0].values - snapshots[0])) <= 1e-12
        assert np.max(np.abs(trace.mass_log - masses)) <= 1e-12
        assert np.max(np.abs(masses - initial_mass)) <= 1e-12


class TestMemory:
    def test_cn_solve_memory_is_linear_in_grid_size(self):
        # one dense 4097 x 4097 operator alone would take 134 MB
        grid = Grid(-8.0, 8.0, 4097)
        f0 = gaussian_density(grid, 0.0, 1.0, 0.0)
        model = CoefficientModel(drift_poly=(0.0, 1.0), diff_poly=(0.05,))
        config = SolverConfig(
            integrator="crank_nicolson", dt=1e-3, record_times=(0.005, 0.01)
        )
        tracemalloc.start()
        try:
            trace = solve(f0, model, config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert not trace.diverged
        assert peak < 16 * 2**20


def banded_reference_solve(f0, model, config):
    """The Crank-Nicolson and RK4 step as written against
    scipy.linalg.solve_banded and np.trapezoid, on freshly assembled
    (uncached) bands; as in solve, only the recorded rows are clipped."""
    b1, b2 = flux_bands.__wrapped__(f0.grid)
    x = f0.grid.nodes
    dt = config.dt

    def a(t):
        d1, d2 = model.eval(t)
        return -d1 * b1 + d2 * b2

    def apply_a(t, g):
        d1, d2 = model.eval(t)
        return -d1 * _band_matvec(b1, g) + d2 * _band_matvec(b2, g)

    def identity_plus(m, c):
        m = c * m
        m[1] += 1.0
        return m

    f = f0.values.copy()
    t0 = f0.time_stamp
    record = {round((tau - t0) / dt) for tau in config.record_times}
    snapshots, masses = [], []
    for k in range(1, max(record) + 1):
        t = t0 + (k - 1) * dt
        if config.integrator == "explicit_rk4":
            k1 = apply_a(t, f)
            k2 = apply_a(t + 0.5 * dt, f + 0.5 * dt * k1)
            k3 = apply_a(t + 0.5 * dt, f + 0.5 * dt * k2)
            k4 = apply_a(t + dt, f + dt * k3)
            f = f + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        else:
            rhs = _band_matvec(identity_plus(a(t), 0.5 * dt), f)
            f = solve_banded((1, 1), identity_plus(a(t + dt), -0.5 * dt), rhs)
        masses.append(float(np.trapezoid(f, x)))
        if k in record:
            snapshots.append(np.clip(f, 0.0, None))
    return snapshots, np.asarray(masses)


def matrix_config(integrator, time_varying, n_points):
    grid = Grid(-5.0, 5.0, n_points)
    f0 = gaussian_density(grid, 0.3, 2.0, 0.0)
    if time_varying:
        model = CoefficientModel(drift_poly=(0.4, 0.5), diff_poly=(0.2, 0.1))
    else:
        model = CoefficientModel(drift_poly=(0.4,), diff_poly=(0.2,))
    dt = 0.5 * grid.spacing**2
    config = SolverConfig(
        integrator=integrator, dt=dt, record_times=(10 * dt, 25 * dt)
    )
    return f0, model, config


class TestLapackStepMatchesSolveBanded:
    @pytest.mark.parametrize(
        "integrator, time_varying, n_points",
        list(
            itertools.product(("explicit_rk4", "crank_nicolson"), (False, True), (129, 301))
        ),
    )
    @INITIAL_MASSES
    def test_bitwise_equal(self, integrator, time_varying, n_points, initial_mass):
        f0, model, config = matrix_config(integrator, time_varying, n_points)
        f0 = with_mass(f0, initial_mass)
        trace = solve(f0, model, config)
        snapshots, masses = banded_reference_solve(f0, model, config)
        assert not trace.diverged
        assert len(trace.snapshots) == len(snapshots) == 2
        for got, want in zip(trace.snapshots, snapshots):
            assert np.array_equal(got.values, want)
        assert np.array_equal(trace.mass_log, masses)

    @pytest.mark.parametrize(
        "integrator, sign",
        list(itertools.product(("explicit_rk4", "crank_nicolson"), (-1.0, 1.0))),
    )
    @INITIAL_MASSES
    def test_bitwise_equal_with_drift_toward_each_wall(self, integrator, sign, initial_mass):
        grid = Grid(-5.0, 5.0, 129)
        f0 = with_mass(gaussian_density(grid, sign * 3.0, 1.0, 0.0), initial_mass)
        model = CoefficientModel(drift_poly=(sign * 0.8, 0.3), diff_poly=(0.2,))
        dt = 0.5 * grid.spacing**2
        config = SolverConfig(
            integrator=integrator, dt=dt, record_times=(10 * dt, 25 * dt)
        )
        trace = solve(f0, model, config)
        snapshots, masses = banded_reference_solve(f0, model, config)
        assert not trace.diverged
        for got, want in zip(trace.snapshots, snapshots, strict=True):
            assert np.array_equal(got.values, want)
        assert np.array_equal(trace.mass_log, masses)

    @pytest.mark.parametrize("time_varying", (False, True))
    def test_repeated_solves_are_bitwise_equal(self, time_varying):
        f0, model, config = matrix_config("crank_nicolson", time_varying, 129)
        first = solve(f0, model, config)
        second = solve(f0, model, config)
        for a, b in zip(first.snapshots, second.snapshots, strict=True):
            assert np.array_equal(a.values, b.values)
        assert np.array_equal(first.mass_log, second.mass_log)

    def test_cached_bands_are_read_only_and_survive_a_solve(self):
        f0, model, config = matrix_config("crank_nicolson", False, 129)
        b1, b2 = flux_bands(f0.grid)
        assert not b1.flags.writeable and not b2.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            b2[1, 0] = 0.0
        solve(f0, model, config)
        again = flux_bands(f0.grid)
        assert again[0] is b1 and again[1] is b2
        fresh = flux_bands.__wrapped__(f0.grid)
        assert np.array_equal(b1, fresh[0]) and np.array_equal(b2, fresh[1])


def reference_solve(f0, model, config):
    """solve's step loop as it was before the recording array: model.eval
    per step, ?gtsv on freshly built bands for constant and time-varying
    coefficients alike, and one DensityField per recorded state, clipped
    at zero; the state itself is never clipped or rescaled. Takes
    validated inputs only; returns (snapshots, mass_log, diverged,
    diagnostic)."""
    grid = f0.grid
    t0 = f0.time_stamp
    rec_steps = _record_steps(t0, config.record_times, config.dt)
    b1, b2 = flux_bands(grid)
    dx = np.diff(grid.nodes)
    dt = config.dt

    def identity_plus(a, c):
        m = c * a
        m[1] += 1.0
        return m

    def band_matvec(ab, g):
        y = ab[1] * g
        y[:-1] += ab[0, 1:] * g[1:]
        y[1:] += ab[2, :-1] * g[:-1]
        return y

    def mass_of(g):
        return float((dx * (g[1:] + g[:-1]) / 2.0).sum())

    f = np.asarray(f0.values, dtype=float).copy()
    m0 = mass_of(f)

    def apply_a(t, g):
        d1, d2 = model.eval(t)
        return -d1 * band_matvec(b1, g) + d2 * band_matvec(b2, g)

    (gtsv,) = get_lapack_funcs(("gtsv",), dtype=np.float64)
    cn_cached = None
    if config.integrator == "crank_nicolson" and model.is_constant():
        a = -model.drift(0.0) * b1 + model.diffusion(0.0) * b2
        cn_cached = (identity_plus(a, -0.5 * dt), identity_plus(a, 0.5 * dt))

    snapshots, mass_log = [], []
    record_lookup = {}
    for k, tau in zip(rec_steps, config.record_times):
        record_lookup.setdefault(k, []).append(tau)

    def record(step, state):
        for tau in record_lookup.get(step, ()):
            snapshots.append(
                DensityField(grid=grid, values=np.clip(state, 0.0, None), time_stamp=tau)
            )

    def diverged(what, step):
        return (
            tuple(snapshots),
            np.asarray(mass_log, dtype=float),
            True,
            f"{what} at step {step} (t={t0 + step * dt})",
        )

    record(0, f)
    for k in range(1, max(rec_steps) + 1):
        t = t0 + (k - 1) * dt
        if config.integrator == "explicit_rk4":
            k1 = apply_a(t, f)
            k2 = apply_a(t + 0.5 * dt, f + 0.5 * dt * k1)
            k3 = apply_a(t + 0.5 * dt, f + 0.5 * dt * k2)
            k4 = apply_a(t + dt, f + dt * k3)
            f_new = f + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        else:
            if cn_cached is not None:
                m_minus, m_plus = cn_cached
            else:
                d1n, d2n = model.eval(t + dt)
                d1c, d2c = model.eval(t)
                m_minus = identity_plus(-d1n * b1 + d2n * b2, -0.5 * dt)
                m_plus = identity_plus(-d1c * b1 + d2c * b2, 0.5 * dt)
            rhs = band_matvec(m_plus, f)
            if not (np.isfinite(m_minus).all() and np.isfinite(rhs).all()):
                return diverged("non-finite Crank-Nicolson system", k)
            *_, f_new, info = gtsv(
                m_minus[2, :-1], m_minus[1], m_minus[0, 1:], rhs, overwrite_b=True
            )
            if info > 0:
                return diverged("singular Crank-Nicolson system", k)
        if not np.isfinite(f_new).all():
            return diverged("non-finite state", k)
        mass = mass_of(f_new)
        mass_log.append(mass)
        if abs(mass - m0) > MASS_TOL * m0:
            return diverged("mass not conserved", k)
        f = f_new
        record(k, f)
    return tuple(snapshots), np.asarray(mass_log, dtype=float), False, ""


def bits(a):
    """The bytes of a float array: equal bits, signed zeros and NaNs included."""
    return np.ascontiguousarray(a, dtype=float).tobytes()


def coefficient_bits(model, t):
    """The bits of D1 and D2 at t, which tell -0.0 from +0.0."""
    return bits([model.drift(t), model.diffusion(t)])


def assert_matches_reference(f0, model, config):
    """solve and reference_solve agree bit for bit; returns the trace."""
    with np.errstate(all="ignore"):
        trace = solve(f0, model, config)
        snapshots, mass_log, diverged, diagnostic = reference_solve(f0, model, config)
    assert (trace.diverged, trace.diagnostic) == (diverged, diagnostic)
    assert bits(trace.mass_log) == bits(mass_log)
    assert trace.states.shape == (len(snapshots), f0.grid.n_points)
    assert not trace.states.flags.writeable
    assert trace.times == tuple(s.time_stamp for s in snapshots)
    for row, got, want in zip(trace.states, trace.snapshots, snapshots, strict=True):
        assert bits(row) == bits(want.values)
        assert bits(got.values) == bits(want.values)
        assert (got.grid, got.time_stamp) == (want.grid, want.time_stamp)
    return trace


# name -> (drift_poly, diff_poly); the drift-dominated pair makes ?gttrf
# and ?gtsv swap rows at Crank-Nicolson's dt
REFERENCE_MODELS = {
    "constant": ((0.4,), (0.2,)),
    "time_varying": ((0.4, 0.5, -0.2), (0.2, 0.1)),
    "drift_dominated": ((6.0,), (0.01,)),
    "drift_dominated_time_varying": ((-6.0, 2.0), (0.01, 0.005)),
}


def reference_case(integrator, name, duplicates, initial_mass=1.0):
    grid = Grid(-5.0, 5.0, 129)
    f0 = with_mass(gaussian_density(grid, 0.3, 0.8, 0.0), initial_mass)
    drift, diff = REFERENCE_MODELS[name]
    model = CoefficientModel(drift_poly=drift, diff_poly=diff)
    dt = 0.2 if integrator == "crank_nicolson" else 0.5 * grid.spacing**2
    times = (10 * dt, 25 * dt)
    if duplicates:
        # t0 itself, and two record times on one step
        times = (0.0, 10 * dt, 10 * dt + 1e-12, 25 * dt)
    config = SolverConfig(integrator=integrator, dt=dt, record_times=times)
    return f0, model, config


class TestSolveMatchesReference:
    @pytest.mark.parametrize("duplicates", (False, True), ids=("plain", "t0_and_duplicates"))
    @pytest.mark.parametrize("name", tuple(REFERENCE_MODELS))
    @pytest.mark.parametrize("integrator", ("explicit_rk4", "crank_nicolson"))
    @INITIAL_MASSES
    def test_bitwise_equal(self, integrator, name, duplicates, initial_mass):
        f0, model, config = reference_case(integrator, name, duplicates, initial_mass)
        trace = assert_matches_reference(f0, model, config)
        assert not trace.diverged
        assert len(trace.states) == len(config.record_times)
        if duplicates:
            assert bits(trace.states[1]) == bits(trace.states[2])

    @pytest.mark.parametrize("name", ("drift_dominated", "drift_dominated_time_varying"))
    def test_drift_dominated_case_pivots(self, name):
        f0, model, config = reference_case("crank_nicolson", name, False)
        b1, b2 = flux_bands(f0.grid)
        lhs = -0.5 * config.dt * (-model.drift(0.0) * b1 + model.diffusion(0.0) * b2)
        lhs[1] += 1.0
        (gttrf,) = get_lapack_funcs(("gttrf",), dtype=np.float64)
        *_, ipiv, info = gttrf(lhs[2, :-1], lhs[1], lhs[0, 1:])
        assert info == 0
        assert (ipiv != np.arange(1, f0.grid.n_points + 1)).any()

    def test_signed_zero_coefficients_are_told_apart(self):
        # from t0 = -3 * 0.1, step 3 ends at (t0 + 0.2) + 0.1 = -2.8e-17
        # and step 4 starts at t0 + 0.3 = 0.0, where D1 and D2 are -0.0
        # and +0.0: equal as floats, so only their bits can tell that
        # the operator band must be rebuilt
        grid = Grid(-5.0, 5.0, 65)
        f0 = DensityField(
            grid=grid, values=gaussian_density(grid, 0.0, 1.0, 0.0).values, time_stamp=-3 * 0.1
        )
        model = CoefficientModel(drift_poly=(-0.0, 5e-324), diff_poly=(-0.0, 5e-324))
        config = SolverConfig(
            integrator="crank_nicolson", dt=0.1, record_times=(f0.time_stamp + 0.5,)
        )
        t0, dt = f0.time_stamp, 0.1
        end_of_3, start_of_4 = (t0 + 2 * dt) + dt, t0 + 3 * dt
        for t in (end_of_3, start_of_4):
            assert (model.drift(t), model.diffusion(t)) == (0.0, 0.0)
        assert coefficient_bits(model, end_of_3) != coefficient_bits(model, start_of_4)
        assert assert_matches_reference(f0, model, config).mass_log.size == 5

    def test_signed_zero_coefficients_reach_the_left_bands(self, monkeypatch):
        # a signed zero in S only signs zero band entries, and the states
        # are recorded through np.maximum(f, 0.0), which turns -0.0 into
        # +0.0, so the case above cannot see it; each left band handed to
        # ?gtsv must hold the bits of I + (-dt/2) A(t + dt) formed afresh
        import scipy.linalg

        grid = Grid(-5.0, 5.0, 65)
        f0 = DensityField(
            grid=grid, values=gaussian_density(grid, 0.0, 1.0, 0.0).values, time_stamp=-3 * 0.1
        )
        model = CoefficientModel(drift_poly=(-0.0, 5e-324), diff_poly=(-0.0, 5e-324))
        dt = 0.1
        config = SolverConfig(
            integrator="crank_nicolson", dt=dt, record_times=(f0.time_stamp + 5 * dt,)
        )
        seen = []
        real = scipy.linalg.get_lapack_funcs

        def spying(names, *args, **kwargs):
            funcs = real(names, *args, **kwargs)
            if names != ("gtsv",):
                return funcs

            def gtsv(dl, d, du, *rest):
                seen.append(bits(dl) + bits(d) + bits(du))
                return funcs[0](dl, d, du, *rest)

            return (gtsv,)

        monkeypatch.setattr(scipy.linalg, "get_lapack_funcs", spying)
        assert not solve(f0, model, config).diverged
        b1, b2 = flux_bands(grid)
        expected = []
        for k in range(1, 6):
            t_end = (f0.time_stamp + (k - 1) * dt) + dt
            lhs = (-0.5 * dt) * (b1 * -model.drift(t_end) + b2 * model.diffusion(t_end))
            lhs[1] += 1.0
            expected.append(bits(lhs[2, :-1]) + bits(lhs[1]) + bits(lhs[0, 1:]))
        assert len({band[: 8 * 64] for band in expected}) == 2
        assert seen == expected

    def test_step_ends_and_starts_that_differ_in_bits(self):
        # calibrate_tv's model from t0 = 1: on 7 of the 39 step joins
        # (t0 + (k - 1) dt) + dt is not t0 + k dt, so the next step
        # cannot take this step's left-band operator as its right one
        grid = Grid(-6.0, 10.0, 129)
        f0 = DensityField(
            grid=grid, values=gaussian_density(grid, 0.5, 0.6, 0.0).values, time_stamp=1.0
        )
        model = CoefficientModel(drift_poly=(0.8, 0.6), diff_poly=(0.25,))
        dt = 0.025
        joins = [((1.0 + (k - 1) * dt) + dt, 1.0 + k * dt) for k in range(1, 40)]
        assert sum(
            coefficient_bits(model, end) != coefficient_bits(model, start)
            for end, start in joins
        ) == 7
        config = SolverConfig(
            integrator="crank_nicolson", dt=dt, record_times=(1.0 + 20 * dt, 1.0 + 40 * dt)
        )
        assert_matches_reference(f0, model, config)

    @pytest.mark.parametrize(
        "drift, diff",
        (((0.4, 0.5, -0.2), (0.2,)), ((0.4,), (0.2, 0.1))),
        ids=("varying_drift", "varying_diffusion"),
    )
    def test_one_coefficient_varies(self, drift, diff):
        # the constant coefficient's operator term is formed once
        f0, _, config = reference_case("crank_nicolson", "time_varying", False)
        model = CoefficientModel(drift_poly=drift, diff_poly=diff)
        assert not model.is_constant()
        assert_matches_reference(f0, model, config)

    def test_a_step_with_the_same_coefficients_at_both_ends(self):
        # D1 = 0.5 t (t - 1) is 0 at t = 0 and 1: step 1 takes both
        # bands from one operator, which step 2 must not reuse
        f0, _, _ = reference_case("crank_nicolson", "time_varying", False)
        model = CoefficientModel(drift_poly=(0.0, -0.5, 0.5), diff_poly=(0.2,))
        config = SolverConfig(integrator="crank_nicolson", dt=1.0, record_times=(1.0, 3.0))
        # step 1 ends and step 2 starts at 1.0
        assert coefficient_bits(model, 0.0) == coefficient_bits(model, 1.0)
        assert not assert_matches_reference(f0, model, config).diverged

    def test_long_solve_spans_several_coefficient_chunks(self):
        grid = Grid(-5.0, 5.0, 65)
        f0 = gaussian_density(grid, 0.0, 1.0, 0.0)
        model = CoefficientModel(drift_poly=(0.1, -0.3, 0.2), diff_poly=(0.1, 0.05))
        dt = 0.001
        config = SolverConfig(
            integrator="crank_nicolson", dt=dt, record_times=(1.1, 1.3)
        )
        assert round(1.3 / dt) > 1000
        assert_matches_reference(f0, model, config)


def diverging_cases():
    """(id, f0, model, config, diagnostic, rows recorded before it) for
    every divergence path."""
    nine = Grid(0.0, 8.0, 9)
    f0_nine = gaussian_density(nine, 4.0, 1.0, 0.0)
    # a spacing whose square underflows: E2 holds inf, and 0 * inf is NaN
    tiny = Grid(0.0, 1e-159, 9)
    f0_tiny = DensityField.normalized(tiny, np.ones(9), 0.0)
    zero = CoefficientModel(drift_poly=(0.0,), diff_poly=(0.0,))

    def cn(times, dt=1.0):
        return SolverConfig(
            integrator="crank_nicolson",
            dt=dt,
            record_times=times,
            allow_negative_diffusion=True,
        )

    return [
        # D1 = 1e308 t (t - 1) is 0 at t = 0 and 1 and overflows at t = 2
        (
            "non_finite_system_at_step_2",
            f0_nine,
            CoefficientModel(drift_poly=(0.0, -1e308, 1e308), diff_poly=(0.1,)),
            cn((1.0, 2.0, 3.0)),
            "non-finite Crank-Nicolson system at step 2 (t=2.0)",
            1,
        ),
        (
            "non_finite_system_constant",
            gaussian_density(Grid(-8.0, 8.0, 257), 0.0, 1.0, 0.0),
            CoefficientModel(drift_poly=(1e308,), diff_poly=(0.0,)),
            cn((2.0,)),
            "non-finite Crank-Nicolson system at step 1 (t=1.0)",
            0,
        ),
        (
            "non_finite_system_constant_after_t0",
            f0_tiny,
            zero,
            cn((0.0, 1.0)),
            "non-finite Crank-Nicolson system at step 1 (t=1.0)",
            1,
        ),
        # D2 = 0.5 - 0.5 t is -0.5 at t = 2; E2 scales the alternating
        # vector (-1)^i by -4/h^2, walls included, so I - dt/2 A maps it
        # to zero
        (
            "singular_at_step_2",
            f0_nine,
            CoefficientModel(drift_poly=(0.0,), diff_poly=(0.5, -0.5)),
            cn((1.0, 2.0, 3.0, 4.0)),
            "singular Crank-Nicolson system at step 2 (t=2.0)",
            1,
        ),
        # D1 = 1e300 t (t - 1) is 0 at t = 0 and 1, so step 1 shares one
        # band between both sides, and 2e300 at t = 2, where the
        # advection band of odd order 9 is singular; its entries are
        # finite, but its product with the state (about 1e5 on a grid
        # of width 8e-6) would overflow, so the check must read the
        # right band, at t = 1
        (
            "singular_after_a_shared_band",
            gaussian_density(Grid(0.0, 8e-6, 9), 4e-6, 1e-6, 0.0),
            CoefficientModel(drift_poly=(0.0, -1e300, 1e300), diff_poly=(0.0,)),
            cn((0.0, 1.0, 2.0, 3.0)),
            "singular Crank-Nicolson system at step 2 (t=2.0)",
            2,
        ),
        # D2 = -1 zeroes the whole diagonal of I - dt/2 A, of odd order 9
        (
            "singular_constant",
            f0_nine,
            CoefficientModel(drift_poly=(0.0,), diff_poly=(-1.0,)),
            cn((1.0,)),
            "singular Crank-Nicolson system at step 1 (t=1.0)",
            0,
        ),
        (
            "non_finite_state_after_t0",
            f0_tiny,
            zero,
            SolverConfig(integrator="explicit_rk4", dt=1.0, record_times=(0.0, 1.0)),
            "non-finite state at step 1 (t=1.0)",
            1,
        ),
        # D1 = 1e308 t, D2 = 0.5e308 t: the right band at t = 0 is I, but
        # at t = 1 the wall rows of the left band overflow, the first on
        # its diagonal and the last below it, while the other entries of
        # those rows cancel to 0; ?gtsv divides the first row by inf and
        # pivots on the last, so its solution is finite and only the
        # band check names the step
        (
            "inf_left_diagonal_with_finite_solution",
            f0_nine,
            CoefficientModel(drift_poly=(0.0, 1e308), diff_poly=(0.0, 0.5e308)),
            cn((0.0, 1.0)),
            "non-finite Crank-Nicolson system at step 1 (t=1.0)",
            1,
        ),
        # every band entry is finite (at most 1e306), but on a grid of
        # width 8e-6 the density is near 1e5 and the right band's product
        # with it overflows
        (
            "right_hand_side_overflows",
            gaussian_density(Grid(0.0, 8e-6, 9), 4e-6, 1e-6, 0.0),
            CoefficientModel(drift_poly=(1e300,), diff_poly=(0.0,)),
            cn((0.0, 1.0)),
            "non-finite Crank-Nicolson system at step 1 (t=1.0)",
            1,
        ),
        # D1 = d (1 - t) vanishes at t = 1, so the left band is I and the
        # state is the right band's finite product, about 1e308 at
        # nodes 1 and 2; their sum overflows, so the trapezoidal mass is
        # inf although the state is finite
        (
            "finite_state_mass_overflows",
            DensityField.normalized(
                Grid(0.0, 1.0, 9), np.array([0, 0, 1, 1, 0.75, 0.5, 0.25, 0, 0]), 0.0
            ),
            CoefficientModel(drift_poly=(-2.1e307, 2.1e307), diff_poly=(0.0,)),
            cn((0.0, 1.0)),
            "mass not conserved at step 1 (t=1.0)",
            1,
        ),
        # criterion 7's negative diffusion: I - dt/2 A is nearly singular,
        # the state grows by tens of orders of magnitude in one step, and
        # the rounding of its conserved sum leaves the mass far from f0's
        (
            "mass_not_conserved_at_step_1",
            gaussian_density(Grid(-6.0, 6.0, 257), 0.0, 0.5, 0.0),
            CoefficientModel(drift_poly=(0.7320,), diff_poly=(-0.02931,)),
            cn((0.0, 0.1), dt=0.05),
            "mass not conserved at step 1 (t=0.05)",
            1,
        ),
    ]


class TestDivergenceMatchesReference:
    @pytest.mark.parametrize(
        "f0, model, config, diagnostic, rows",
        [case[1:] for case in diverging_cases()],
        ids=[case[0] for case in diverging_cases()],
    )
    def test_same_diagnostic_and_partial_trace(self, f0, model, config, diagnostic, rows):
        trace = assert_matches_reference(f0, model, config)
        assert trace.diverged
        assert trace.diagnostic == diagnostic
        assert len(trace.states) == rows

    def test_overflowing_mass_is_logged_for_a_finite_state(self):
        (case,) = [c for c in diverging_cases() if c[0] == "finite_state_mass_overflows"]
        with np.errstate(all="ignore"):
            trace = solve(*case[1:4])
        assert trace.mass_log.tolist() == [np.inf]

    def test_cases_cover_every_diagnostic_with_rows_recorded(self):
        kinds = {
            case[4].split(" at step ")[0] for case in diverging_cases() if case[5] > 0
        }
        assert kinds == {
            "non-finite Crank-Nicolson system",
            "singular Crank-Nicolson system",
            "non-finite state",
            "mass not conserved",
        }

