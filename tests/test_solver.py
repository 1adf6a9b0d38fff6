import itertools
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import solve_banded

from fprom import (
    CoefficientModel,
    Grid,
    SolutionTrace,
    SolverConfig,
    drift_diffusion_density,
    gaussian_density,
    l1_distance,
    moments,
    solve,
)
from fprom.errors import InfeasibleConfigError
from fprom.grid import derivative_matrix
from fprom.solver import STABILITY_SAFETY, _band_matvec, _closed_bands


def wiener_model(diffusion=0.5, drift=0.0):
    return CoefficientModel(drift_poly=(drift,), diff_poly=(diffusion,))


class TestSolverConfig:
    def test_unknown_integrator(self):
        with pytest.raises(InfeasibleConfigError, match="integrator"):
            SolverConfig(integrator="euler", dt=0.1, record_times=(1.0,))

    def test_unknown_boundary(self):
        with pytest.raises(InfeasibleConfigError, match="boundary"):
            SolverConfig(
                integrator="crank_nicolson",
                dt=0.1,
                record_times=(1.0,),
                boundary="periodic",
            )

    def test_bad_dt(self):
        with pytest.raises(InfeasibleConfigError, match="dt"):
            SolverConfig(integrator="crank_nicolson", dt=0.0, record_times=(1.0,))

    def test_empty_record_times(self):
        with pytest.raises(InfeasibleConfigError, match="nonempty"):
            SolverConfig(integrator="crank_nicolson", dt=0.1, record_times=())

    def test_record_times_must_increase(self):
        with pytest.raises(InfeasibleConfigError, match="increasing"):
            SolverConfig(
                integrator="crank_nicolson", dt=0.1, record_times=(1.0, 1.0)
            )

    def test_odd_accuracy_order(self):
        with pytest.raises(InfeasibleConfigError, match="even"):
            SolverConfig(
                integrator="crank_nicolson",
                dt=0.1,
                record_times=(1.0,),
                accuracy_order=3,
            )


class TestSolveValidation:
    def test_record_time_off_lattice(self):
        grid = Grid(-8.0, 8.0, 129)
        f0 = gaussian_density(grid, 0.0, 1.0, 0.0)
        config = SolverConfig(
            integrator="crank_nicolson", dt=0.1, record_times=(0.15,)
        )
        with pytest.raises(InfeasibleConfigError, match="integer multiple"):
            solve(f0, wiener_model(), config)

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

    def test_negative_diffusion_refused_without_override(self):
        grid = Grid(-8.0, 8.0, 129)
        f0 = gaussian_density(grid, 0.0, 1.0, 0.0)
        model = CoefficientModel(drift_poly=(0.0,), diff_poly=(-0.1,))
        config = SolverConfig(
            integrator="crank_nicolson", dt=0.01, record_times=(0.02,)
        )
        with pytest.raises(InfeasibleConfigError, match="refused"):
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
        config = SolverConfig(
            integrator="crank_nicolson",
            dt=0.01,
            record_times=(1.0,),
            boundary="zero_flux",
        )
        trace = solve(f0, wiener_model(0.5), config)
        assert not trace.diverged
        assert trace.mass_log.shape == (100,)
        assert np.max(np.abs(trace.mass_log - 1.0)) < 1e-6

    def test_zero_dirichlet_pins_edges(self):
        grid = Grid(-6.0, 6.0, 257)
        f0 = gaussian_density(grid, 0.0, 1.0, 0.0)
        config = SolverConfig(
            integrator="crank_nicolson",
            dt=0.01,
            record_times=(0.5,),
            boundary="zero_dirichlet",
        )
        trace = solve(f0, wiener_model(0.5), config)
        snap = trace.snapshots[0]
        # pinned up to direct-solve rounding; interior neighbor is ~1e-6
        assert snap.values[0] < 1e-15
        assert snap.values[-1] < 1e-15
        assert snap.values[1] > 1e-8

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
        # pure drift skips the diffusion stability check, so a huge dt
        # reaches the integrator and overflows instead of erroring
        grid = Grid(-8.0, 8.0, 257)
        f0 = gaussian_density(grid, 0.0, 1.0, 0.0)
        model = CoefficientModel(drift_poly=(1.0,), diff_poly=(0.0,))
        config = SolverConfig(
            integrator="explicit_rk4", dt=1e80, record_times=(2e80,)
        )
        with np.errstate(over="ignore", invalid="ignore"):
            trace = solve(f0, model, config)
        assert trace.diverged
        assert "non-finite" in trace.diagnostic or "collapsed" in trace.diagnostic
        assert trace.snapshots == ()

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
        # negative diffusion with h = 1 and dt = 1 zeroes the diagonal of
        # I - dt/2 A on the 7 interior rows; an odd zero-diagonal
        # tridiagonal block is exactly singular, with every entry finite
        grid = Grid(0.0, 8.0, 9)
        f0 = gaussian_density(grid, 4.0, 1.0, 0.0)
        model = CoefficientModel(drift_poly=(0.0,), diff_poly=(-1.0,))
        config = SolverConfig(
            integrator="crank_nicolson",
            dt=1.0,
            record_times=(1.0,),
            boundary="zero_dirichlet",
            allow_negative_diffusion=True,
        )
        trace = solve(f0, model, config)
        assert trace.diverged
        assert trace.diagnostic == "singular Crank-Nicolson system at step 1 (t=1.0)"
        assert trace.snapshots == ()


def dense_reference_solve(f0, model, config):
    """Dense re-implementation of solve: derivative_matrix operators with
    the wall rows overwritten, numpy.linalg.solve for Crank-Nicolson and
    dense matrix products for RK4; same clip-and-renormalize step."""
    grid = f0.grid
    h = grid.spacing
    x = grid.nodes
    e1 = derivative_matrix(grid, 1, config.accuracy_order).values.copy()
    e2 = derivative_matrix(grid, 2, config.accuracy_order).values.copy()
    e1[[0, -1], :] = 0.0
    e2[[0, -1], :] = 0.0
    if config.boundary == "zero_flux":
        e2[0, :2] = (-2.0 / h**2, 2.0 / h**2)
        e2[-1, -2:] = (2.0 / h**2, -2.0 / h**2)
    eye = np.eye(grid.n_points)

    def a(t):
        d1, d2 = model.eval(t)
        return -d1 * e1 + d2 * e2

    f = f0.values.copy()
    if config.boundary == "zero_dirichlet":
        f[[0, -1]] = 0.0
        f /= np.trapezoid(f, x)
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
        f = np.clip(f, 0.0, None)
        masses.append(np.trapezoid(f, x))
        f = f / masses[-1]
        if k in record:
            snapshots.append(f)
    return snapshots, np.asarray(masses)


class TestBandedOperatorMatchesDense:
    @pytest.mark.parametrize(
        "integrator, boundary, accuracy_order, time_varying",
        list(
            itertools.product(
                ("explicit_rk4", "crank_nicolson"),
                ("zero_flux", "zero_dirichlet"),
                (2, 4),
                (False, True),
            )
        ),
    )
    def test_solve_matches_dense_reference(
        self, integrator, boundary, accuracy_order, time_varying
    ):
        # a spacing that is not a power of two, so node rounding differs row to row
        grid = Grid(-5.0, 5.0, 61)
        # wide enough that the wall rows act on non-negligible values
        f0 = gaussian_density(grid, 0.3, 4.0, 0.0)
        if time_varying:
            model = CoefficientModel(drift_poly=(0.4, 0.5), diff_poly=(0.2, 0.1))
        else:
            model = CoefficientModel(drift_poly=(0.4,), diff_poly=(0.2,))
        dt = 0.5 * grid.spacing**2
        config = SolverConfig(
            integrator=integrator,
            dt=dt,
            record_times=(10 * dt, 30 * dt),
            boundary=boundary,
            accuracy_order=accuracy_order,
        )
        trace = solve(f0, model, config)
        snapshots, masses = dense_reference_solve(f0, model, config)
        assert not trace.diverged
        assert len(trace.snapshots) == len(snapshots) == 2
        for got, want in zip(trace.snapshots, snapshots):
            assert np.max(np.abs(got.values - want)) <= 1e-12
        assert np.max(np.abs(trace.mass_log - masses)) <= 1e-12


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
    (uncached) bands; same clip-and-renormalize step as solve."""
    b1, b2, w = _closed_bands.__wrapped__(f0.grid, config.accuracy_order, config.boundary)
    x = f0.grid.nodes
    dt = config.dt

    def a(t):
        d1, d2 = model.eval(t)
        return -d1 * b1 + d2 * b2

    def apply_a(t, g):
        d1, d2 = model.eval(t)
        return -d1 * _band_matvec(b1, w, g) + d2 * _band_matvec(b2, w, g)

    def identity_plus(m, c):
        m = c * m
        m[w] += 1.0
        return m

    f = f0.values.copy()
    if config.boundary == "zero_dirichlet":
        f[[0, -1]] = 0.0
        f = f / np.trapezoid(f, x)
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
            rhs = _band_matvec(identity_plus(a(t), 0.5 * dt), w, f)
            f = solve_banded((w, w), identity_plus(a(t + dt), -0.5 * dt), rhs)
        f = np.clip(f, 0.0, None)
        masses.append(float(np.trapezoid(f, x)))
        f = f / masses[-1]
        if k in record:
            snapshots.append(f)
    return snapshots, np.asarray(masses)


def matrix_config(integrator, boundary, accuracy_order, time_varying, n_points):
    grid = Grid(-5.0, 5.0, n_points)
    f0 = gaussian_density(grid, 0.3, 2.0, 0.0)
    if time_varying:
        model = CoefficientModel(drift_poly=(0.4, 0.5), diff_poly=(0.2, 0.1))
    else:
        model = CoefficientModel(drift_poly=(0.4,), diff_poly=(0.2,))
    dt = 0.5 * grid.spacing**2
    config = SolverConfig(
        integrator=integrator,
        dt=dt,
        record_times=(10 * dt, 25 * dt),
        boundary=boundary,
        accuracy_order=accuracy_order,
    )
    return f0, model, config


class TestLapackStepMatchesSolveBanded:
    @pytest.mark.parametrize(
        "integrator, boundary, accuracy_order, time_varying, n_points",
        list(
            itertools.product(
                ("explicit_rk4", "crank_nicolson"),
                ("zero_flux", "zero_dirichlet"),
                (2, 4),
                (False, True),
                (129, 301),
            )
        ),
    )
    def test_bitwise_equal(self, integrator, boundary, accuracy_order, time_varying, n_points):
        f0, model, config = matrix_config(
            integrator, boundary, accuracy_order, time_varying, n_points
        )
        trace = solve(f0, model, config)
        snapshots, masses = banded_reference_solve(f0, model, config)
        assert not trace.diverged
        assert len(trace.snapshots) == len(snapshots) == 2
        for got, want in zip(trace.snapshots, snapshots):
            assert np.array_equal(got.values, want)
        assert np.array_equal(trace.mass_log, masses)

    @pytest.mark.parametrize("time_varying", (False, True))
    def test_repeated_solves_are_bitwise_equal(self, time_varying):
        f0, model, config = matrix_config("crank_nicolson", "zero_flux", 2, time_varying, 129)
        first = solve(f0, model, config)
        second = solve(f0, model, config)
        for a, b in zip(first.snapshots, second.snapshots, strict=True):
            assert np.array_equal(a.values, b.values)
        assert np.array_equal(first.mass_log, second.mass_log)

    @pytest.mark.parametrize("accuracy_order", (2, 4))
    def test_cached_bands_are_read_only_and_survive_a_solve(self, accuracy_order):
        f0, model, config = matrix_config(
            "crank_nicolson", "zero_flux", accuracy_order, False, 129
        )
        b1, b2, w = _closed_bands(f0.grid, accuracy_order, "zero_flux")
        assert not b1.flags.writeable and not b2.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            b2[w, 0] = 0.0
        solve(f0, model, config)
        again = _closed_bands(f0.grid, accuracy_order, "zero_flux")
        assert again[0] is b1 and again[1] is b2
        fresh = _closed_bands.__wrapped__(f0.grid, accuracy_order, "zero_flux")
        assert np.array_equal(b1, fresh[0]) and np.array_equal(b2, fresh[1])
