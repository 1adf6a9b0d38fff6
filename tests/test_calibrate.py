import importlib
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import minimize

from fprom import CalibrationProblem, DensityField, Grid, SolverConfig, calibrate
from fprom.analytic import drift_diffusion_density, gaussian_density
from fprom.calibrate import (
    _SIMPLEX_TOL,
    _VALUE_TOL,
    PENALTY_FLOOR,
    _first_simplex,
    _nelder_mead,
    loss,
)
from fprom.density import tikhonov_smooth
from fprom.errors import InfeasibleConfigError
from fprom.langevin import SdeSpec, SimPlan, ensemble_to_densities, simulate
from fprom.pipeline import split
from test_density import reference_kl_row
from test_solver import reference_solve


def diffusion_problem(distance="kl", weights=None):
    """Pure diffusion D = 0.5 observed at t in {1.5, 2.0} from t0 = 1."""
    grid = Grid(-8.0, 8.0, 257)
    f0 = gaussian_density(grid, 0.0, 1.0, 1.0)
    targets = tuple(
        (t, gaussian_density(grid, 0.0, 2.0 * 0.5 * t, t)) for t in (1.5, 2.0)
    )
    solver = SolverConfig(dt=0.05)
    return CalibrationProblem(
        initial_density=f0,
        targets=targets,
        drift_degree=0,
        diff_degree=0,
        bounds=((-1.0, 1.0), (0.05, 1.5)),
        solver=solver,
        weights=weights,
        distance=distance,
    )


class TestProblemValidation:
    def test_needs_targets(self):
        grid = Grid(-6.0, 6.0, 129)
        f0 = gaussian_density(grid, 0.0, 1.0, 0.0)
        solver = SolverConfig(dt=0.1)
        with pytest.raises(InfeasibleConfigError, match="at least one"):
            CalibrationProblem(
                initial_density=f0,
                targets=(),
                drift_degree=0,
                diff_degree=0,
                bounds=((-1.0, 1.0), (0.0, 1.0)),
                solver=solver,
            )

    def test_target_must_follow_initial_time(self):
        grid = Grid(-6.0, 6.0, 129)
        f0 = gaussian_density(grid, 0.0, 1.0, 1.0)
        tgt = gaussian_density(grid, 0.0, 1.0, 0.5)
        solver = SolverConfig(dt=0.1)
        with pytest.raises(InfeasibleConfigError, match="strictly increasing"):
            CalibrationProblem(
                initial_density=f0,
                targets=((0.5, tgt),),
                drift_degree=0,
                diff_degree=0,
                bounds=((-1.0, 1.0), (0.0, 1.0)),
                solver=solver,
            )

    def test_target_grid_must_match(self):
        grid = Grid(-6.0, 6.0, 129)
        other = Grid(-6.0, 6.0, 257)
        f0 = gaussian_density(grid, 0.0, 1.0, 0.0)
        tgt = gaussian_density(other, 0.0, 1.0, 1.0)
        solver = SolverConfig(dt=0.1)
        with pytest.raises(InfeasibleConfigError, match="different grid"):
            CalibrationProblem(
                initial_density=f0,
                targets=((1.0, tgt),),
                drift_degree=0,
                diff_degree=0,
                bounds=((-1.0, 1.0), (0.0, 1.0)),
                solver=solver,
            )

    def test_bound_count_must_match_degrees(self):
        grid = Grid(-6.0, 6.0, 129)
        f0 = gaussian_density(grid, 0.0, 1.0, 0.0)
        tgt = gaussian_density(grid, 0.0, 1.0, 1.0)
        solver = SolverConfig(dt=0.1)
        with pytest.raises(InfeasibleConfigError, match="bound pairs"):
            CalibrationProblem(
                initial_density=f0,
                targets=((1.0, tgt),),
                drift_degree=1,
                diff_degree=0,
                bounds=((-1.0, 1.0), (0.0, 1.0)),
                solver=solver,
            )

    def test_zero_measure_bound_rejected(self):
        grid = Grid(-6.0, 6.0, 129)
        f0 = gaussian_density(grid, 0.0, 1.0, 0.0)
        tgt = gaussian_density(grid, 0.0, 1.0, 1.0)
        solver = SolverConfig(dt=0.1)
        with pytest.raises(InfeasibleConfigError, match="measure"):
            CalibrationProblem(
                initial_density=f0,
                targets=((1.0, tgt),),
                drift_degree=0,
                diff_degree=0,
                bounds=((0.5, 0.5), (0.0, 1.0)),
                solver=solver,
            )

    def test_weights_validated(self):
        grid = Grid(-6.0, 6.0, 129)
        f0 = gaussian_density(grid, 0.0, 1.0, 0.0)
        tgt = gaussian_density(grid, 0.0, 1.0, 1.0)
        solver = SolverConfig(dt=0.1)

        def build(weights):
            return CalibrationProblem(
                initial_density=f0,
                targets=((1.0, tgt),),
                drift_degree=0,
                diff_degree=0,
                bounds=((-1.0, 1.0), (0.0, 1.0)),
                solver=solver,
                weights=weights,
            )

        with pytest.raises(InfeasibleConfigError, match="one weight per target"):
            build((1.0, 2.0))
        with pytest.raises(InfeasibleConfigError, match=">= 0"):
            build((-1.0,))
        with pytest.raises(InfeasibleConfigError, match="vanish"):
            build((0.0,))

    def test_record_times_come_from_the_targets(self):
        grid = Grid(-6.0, 6.0, 129)
        f0 = gaussian_density(grid, 0.0, 1.0, 0.0)
        targets = tuple((t, gaussian_density(grid, 0.0, 1.0, t)) for t in (0.5, 1.0))

        def build(solver):
            return CalibrationProblem(
                initial_density=f0,
                targets=targets,
                drift_degree=0,
                diff_degree=0,
                bounds=((-1.0, 1.0), (0.0, 1.0)),
                solver=solver,
            )

        problem = build(SolverConfig(dt=0.1, integrator="explicit_rk4"))
        assert problem.solver == SolverConfig(dt=0.1, integrator="explicit_rk4")
        assert problem._solver == SolverConfig(
            dt=0.1, integrator="explicit_rk4", record_times=(0.5, 1.0)
        )
        # even times equal to the targets' are refused: the targets own them
        for preset in ((0.5, 1.0), (1.0,)):
            with pytest.raises(InfeasibleConfigError, match="leave them unset"):
                build(SolverConfig(dt=0.1, record_times=preset))

    def test_built_problem_copies(self):
        # the copy is built from the solver as given, so it is accepted
        copied = replace(diffusion_problem(), distance="l2")
        assert copied.solver == SolverConfig(dt=0.05)
        assert loss(copied, [0.0, 0.7]) == loss(diffusion_problem("l2"), [0.0, 0.7])

    def test_unknown_distance(self):
        grid = Grid(-6.0, 6.0, 129)
        f0 = gaussian_density(grid, 0.0, 1.0, 0.0)
        tgt = gaussian_density(grid, 0.0, 1.0, 1.0)
        solver = SolverConfig(dt=0.1)
        with pytest.raises(InfeasibleConfigError, match="distance"):
            CalibrationProblem(
                initial_density=f0,
                targets=((1.0, tgt),),
                drift_degree=0,
                diff_degree=0,
                bounds=((-1.0, 1.0), (0.0, 1.0)),
                solver=solver,
                distance="hellinger",
            )

    def test_model_from_params_split(self):
        grid = Grid(-6.0, 6.0, 129)
        f0 = gaussian_density(grid, 0.0, 1.0, 0.0)
        tgt = gaussian_density(grid, 0.0, 1.0, 1.0)
        solver = SolverConfig(dt=0.1)
        problem = CalibrationProblem(
            initial_density=f0,
            targets=((1.0, tgt),),
            drift_degree=1,
            diff_degree=0,
            bounds=((-1.0, 1.0), (-1.0, 1.0), (0.0, 1.0)),
            solver=solver,
        )
        assert problem.n_params == 3
        model = problem.model_from_params([0.1, 0.2, 0.3])
        assert model.drift_poly == (0.1, 0.2)
        assert model.diff_poly == (0.3,)


class TestLoss:
    def test_true_parameters_score_near_zero(self):
        problem = diffusion_problem()
        assert loss(problem, [0.0, 0.5]) <= 1e-3

    def test_zero_model_on_identical_target_is_zero(self):
        grid = Grid(-6.0, 6.0, 257)
        f0 = gaussian_density(grid, 0.0, 1.0, 0.0)
        tgt = DensityField(grid=grid, values=f0.values, time_stamp=1.0)
        solver = SolverConfig(dt=0.1)
        problem = CalibrationProblem(
            initial_density=f0,
            targets=((1.0, tgt),),
            drift_degree=0,
            diff_degree=0,
            bounds=((-1.0, 1.0), (0.0, 1.0)),
            solver=solver,
        )
        assert loss(problem, [0.0, 0.0]) <= 1e-10

    def test_off_unit_initial_mass_keeps_the_ranking(self):
        # an f0 with 5e-4 extra mass lowers every KL row by about that
        # excess; unclamped, the shift is one constant across parameters,
        # so the truth still scores lowest (clamped rows scored it 0, tied
        # with (0.8, 0.65, 0.25))
        truth = (0.8, 0.6, 0.25)
        others = ((0.85, 0.6, 0.25), (0.8, 0.65, 0.25), (0.8, 0.6, 0.27))
        unit = drift_problem(n_points=513)
        off = drift_problem(n_points=513, initial_mass=1.0 + 5e-4)
        shift = loss(off, truth) - loss(unit, truth)
        assert shift < -4e-4
        assert loss(off, truth) < min(loss(off, q) for q in others)
        for q in others:
            assert abs(loss(off, q) - loss(unit, q) - shift) <= 1e-5

    def test_negative_diffusion_scores_floor_plus_violation(self):
        problem = diffusion_problem()
        assert loss(problem, [0.0, -0.3]) == 1e6 + 0.3

    def test_diverged_solve_scores_floor(self):
        grid = Grid(-8.0, 8.0, 129)
        f0 = gaussian_density(grid, 0.0, 1.0, 0.0)
        tgt = gaussian_density(grid, 0.0, 1.0, 2.0)
        # a drift of 1e80 makes the Crank-Nicolson system singular
        solver = SolverConfig(dt=1.0)
        problem = CalibrationProblem(
            initial_density=f0,
            targets=((2.0, tgt),),
            drift_degree=0,
            diff_degree=0,
            bounds=((-1e90, 1e90), (0.0, 1.0)),
            solver=solver,
        )
        with np.errstate(over="ignore", invalid="ignore"):
            assert loss(problem, [1e80, 0.0]) == 1e6

    def test_weights_scale_linearly(self):
        base = diffusion_problem(weights=(1.0, 1.0))
        doubled = diffusion_problem(weights=(2.0, 2.0))
        params = [0.1, 0.4]
        assert loss(doubled, params) == 2.0 * loss(base, params)

    def test_l2_distance_formula(self):
        problem = diffusion_problem(distance="l2", weights=(1.0, 0.0))
        params = [0.0, 0.7]
        value = loss(problem, params)
        # recompute through the solver and the explicit integral
        from fprom import CoefficientModel, solve

        trace = solve(
            problem.initial_density,
            CoefficientModel(drift_poly=(0.0,), diff_poly=(0.7,)),
            problem._solver,
        )
        target = problem.targets[0][1]
        diff = target.values - trace.snapshots[0].values
        expected = float(
            np.sqrt(np.trapezoid(diff * diff, target.grid.nodes))
        )
        assert value == pytest.approx(expected, rel=1e-12)


def reference_loss(problem, params):
    """loss as it was before the one-pass scoring: reference_solve's
    snapshots, then one KL or L2 per target with nonzero weight."""
    model = problem.model_from_params(params)
    t0, t_end = problem.horizon()
    d2_min, _ = model.diffusion_range(t0, t_end)
    if d2_min < 0.0:
        return PENALTY_FLOOR + abs(d2_min)
    snapshots, _, diverged, _ = reference_solve(problem.initial_density, model, problem._solver)
    if diverged:
        return PENALTY_FLOOR
    total = 0.0
    for w, (_, target), predicted in zip(problem.weights, problem.targets, snapshots):
        if w == 0.0:
            continue
        if problem.distance == "kl":
            total += w * reference_kl_row(target, predicted)
        else:
            diff = target.values - predicted.values
            total += w * float(np.sqrt(np.trapezoid(diff * diff, target.grid.nodes)))
    return total


def drift_problem(
    integrator="crank_nicolson", distance="kl", weights=None, n_points=129, initial_mass=1.0
):
    """Drift a + b t, diffusion D observed 10 times on [-6, 10], as the
    benchmark's time-varying calibration; the initial density is at t0 = 0,
    with its values scaled by initial_mass."""
    grid = Grid(-6.0, 10.0, n_points)
    x = grid.nodes

    def density(t):
        mean = 0.8 * t + 0.3 * t * t
        var = 0.25 + 0.5 * t
        values = np.exp(-0.5 * (x - mean) ** 2 / var)
        return DensityField.normalized(grid, values, t)

    times = tuple(round(0.1 * k, 10) for k in range(1, 11))
    dt = 0.025 if integrator == "crank_nicolson" else 0.4 * grid.spacing**2
    f0 = density(0.0)
    return CalibrationProblem(
        initial_density=DensityField(grid=grid, values=f0.values * initial_mass, time_stamp=0.0),
        targets=tuple((t, density(t)) for t in times),
        drift_degree=1,
        diff_degree=0,
        bounds=((-1.0, 2.0), (-1.0, 2.0), (0.01, 1.0)),
        solver=SolverConfig(dt=dt, integrator=integrator),
        weights=weights,
        distance=distance,
    )


# one weight per target of drift_problem; zeros first, inside and last
SOME_ZERO = (0.0, 1.0, 2.5, 0.0, 1.0, 1.0, 0.5, 0.0, 1.0, 0.0)


class TestLossMatchesReference:
    @pytest.mark.parametrize("weights", (None, SOME_ZERO), ids=("unit", "some_zero"))
    @pytest.mark.parametrize("distance", ("kl", "l2"))
    @pytest.mark.parametrize(
        "params", ((0.8, 0.6, 0.25), (0.5, 0.0, 0.3)), ids=("time_varying", "constant")
    )
    @pytest.mark.parametrize("integrator", ("explicit_rk4", "crank_nicolson"))
    @pytest.mark.parametrize(
        "initial_mass", (1.0, 1.0 + 5e-4), ids=("unit_mass", "off_unit_mass")
    )
    def test_bitwise_equal(self, integrator, params, distance, weights, initial_mass):
        problem = drift_problem(integrator, distance, weights, initial_mass=initial_mass)
        assert loss(problem, params) == reference_loss(problem, params)

    @pytest.mark.parametrize("distance", ("kl", "l2"))
    def test_penalties_match(self, distance):
        problem = drift_problem(distance=distance)
        # negative diffusion, then a drift that overflows the system
        for params in ((0.8, 0.6, -0.2), (1e308, 1e308, 0.25)):
            with np.errstate(all="ignore"):
                assert loss(problem, params) == reference_loss(problem, params)

    def test_scores_every_weighted_target_in_one_pass(self, monkeypatch):
        calibrate_module = importlib.import_module("fprom.calibrate")
        passes = []
        original = calibrate_module.kl_divergence_rows

        def counted(p, q, x, **kwargs):
            passes.append(p.shape)
            return original(p, q, x, **kwargs)

        monkeypatch.setattr(calibrate_module, "kl_divergence_rows", counted)
        problem = drift_problem(weights=SOME_ZERO)
        loss(problem, (0.8, 0.6, 0.25))
        assert passes == [(sum(w != 0.0 for w in SOME_ZERO), 129)]

    def test_reads_a_time_varying_diffusion_range_without_sampling(self, monkeypatch):
        # the feasibility check and the solve take D2's exact range
        def no_sampling(*args, **kwargs):
            raise AssertionError("a coefficient range was sampled")

        problem = replace(
            drift_problem(), diff_degree=1, bounds=((-1.0, 2.0),) * 2 + ((0.01, 1.0),) * 2
        )
        monkeypatch.setattr(np, "linspace", no_sampling)
        monkeypatch.setattr(np.polynomial.polynomial, "polyval", no_sampling)
        assert loss(problem, (0.8, 0.6, 0.25, 0.1)) < PENALTY_FLOOR

    def test_negative_dip_between_sample_points_is_penalised(self):
        # D2 = (t - 0.0005)^2 - 1e-8 dips below zero only on
        # (0.0004, 0.0006), between the points of a 1001-point sampling
        problem = replace(
            drift_problem(), diff_degree=2, bounds=((-1.0, 2.0),) * 2 + ((-1.0, 1.0),) * 3
        )
        value = loss(problem, (0.8, 0.6, 0.0005**2 - 1e-8, -0.001, 1.0))
        assert value == pytest.approx(PENALTY_FLOOR + 1e-8, rel=0.0, abs=1e-9)


class TestLossMemory:
    def test_peak_is_the_records_plus_linear_scratch(self):
        # one dense 513 x 513 matrix would take 2.1 MB
        n = 513
        problem = drift_problem(n_points=n)
        params = (0.8, 0.6, 0.25)
        loss(problem, params)  # the cached bands and target stack
        record_bytes = len(problem.targets) * n * 8
        tracemalloc.start()
        try:
            loss(problem, params)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the recorded states and the scoring pass's (m, n) temporaries,
        # plus the solver's bands, vectors and coefficient chunk
        assert peak < 10 * record_bytes + 40 * n * 8
        assert peak < n * n * 8 / 4


class TestCalibrate:
    def test_recovers_drift_and_diffusion(self):
        grid = Grid(-6.0, 10.0, 513)
        f0 = drift_diffusion_density(grid, 1.0, 1.0, 0.5)
        targets = tuple(
            (t, drift_diffusion_density(grid, t, 1.0, 0.5)) for t in (1.5, 2.0)
        )
        solver = SolverConfig(dt=0.1)
        problem = CalibrationProblem(
            initial_density=f0,
            targets=targets,
            drift_degree=0,
            diff_degree=0,
            bounds=((0.2, 1.6), (0.05, 1.45)),
            solver=solver,
        )
        result = calibrate(problem, optimizer="nelder_mead", budget=200, seed=0)
        mu_hat = result.model.drift_poly[0]
        d_hat = result.model.diff_poly[0]
        assert abs(mu_hat - 1.0) / 1.0 <= 0.02
        assert abs(d_hat - 0.5) / 0.5 <= 0.02

    def test_bookkeeping(self):
        problem = diffusion_problem()
        result = calibrate(
            problem,
            optimizer="random_multistart_nelder_mead",
            budget=56,
            seed=1,
        )
        assert result.n_evaluations <= 56
        params = list(result.model.drift_poly) + list(result.model.diff_poly)
        assert result.final_loss == loss(problem, params)

    def test_final_loss_reuses_the_searched_value(self, monkeypatch):
        module = importlib.import_module("fprom.calibrate")
        problem = diffusion_problem()
        solved = []

        def counted(problem, params):
            solved.append(np.array(params, copy=True))
            return loss(problem, params)

        monkeypatch.setattr(module, "loss", counted)
        result = calibrate(problem, optimizer="nelder_mead", budget=60)
        assert len(solved) == result.n_evaluations

        # a vertex that the search never evaluated is solved once more
        def unevaluated(func, sim, maxfev):
            return sim[1], func(sim[0]) - 1.0, False

        monkeypatch.setattr(module, "_nelder_mead", unevaluated)
        solved.clear()
        result = calibrate(problem, optimizer="nelder_mead", budget=60)
        assert result.n_evaluations == 1 and len(solved) == 2
        params = list(result.model.drift_poly) + list(result.model.diff_poly)
        assert params == solved[1].tolist() != solved[0].tolist()
        assert result.final_loss == loss(problem, params)

    def test_search_begins_at_the_given_start(self, monkeypatch):
        module = importlib.import_module("fprom.calibrate")
        problem = diffusion_problem()
        starts = []

        def first_vertex(func, sim, maxfev):
            starts.append(sim[0].tolist())
            return sim[0], func(sim[0]), True

        monkeypatch.setattr(module, "_nelder_mead", first_vertex)
        calibrate(problem, optimizer="nelder_mead", budget=60, start=(0.9, 0.4))
        calibrate(problem, optimizer="nelder_mead", budget=60)
        (lo_mu, hi_mu), (lo_d, hi_d) = problem.bounds
        assert starts == [[0.9, 0.4], [0.5 * (lo_mu + hi_mu), 0.5 * (lo_d + hi_d)]]

    @pytest.mark.parametrize(
        "optimizer, start, match",
        (
            ("nelder_mead", (0.9,), "start must be 2 parameters inside the bounds"),
            ("nelder_mead", (0.9, 99.0), "start must be 2 parameters inside the bounds"),
            ("random_multistart_nelder_mead", (0.9, 0.4), "draws its own starts"),
        ),
        ids=("short", "outside", "multistart"),
    )
    def test_refuses_a_start_it_cannot_use(self, optimizer, start, match):
        with pytest.raises(InfeasibleConfigError, match=match):
            calibrate(diffusion_problem(), optimizer=optimizer, budget=60, start=start)

    def test_result_respects_bounds(self):
        problem = diffusion_problem()
        result = calibrate(problem, budget=80, seed=3)
        (mu_lo, mu_hi), (d_lo, d_hi) = problem.bounds
        assert mu_lo <= result.model.drift_poly[0] <= mu_hi
        assert d_lo <= result.model.diff_poly[0] <= d_hi

    def test_deterministic_per_seed(self):
        problem = diffusion_problem()
        a = calibrate(problem, budget=64, seed=11)
        b = calibrate(problem, budget=64, seed=11)
        assert a.model.drift_poly == b.model.drift_poly
        assert a.model.diff_poly == b.model.diff_poly
        assert a.n_evaluations == b.n_evaluations
        assert a.final_loss == b.final_loss

    def test_budget_floor(self):
        problem = diffusion_problem()
        with pytest.raises(InfeasibleConfigError, match="budget"):
            calibrate(problem, budget=49)

    def test_unknown_optimizer(self):
        problem = diffusion_problem()
        with pytest.raises(InfeasibleConfigError, match="optimizer"):
            calibrate(problem, optimizer="bfgs")


def _recording(func):
    points = []

    def wrapped(x):
        points.append(np.array(x, copy=True))
        return func(x)

    return wrapped, points


def _scipy_nelder_mead(func, sim, maxfev, default_simplex=False):
    """scipy's search from the first simplex sim, or from the simplex
    scipy builds around sim[0] itself when default_simplex is set."""
    options = dict(xatol=_SIMPLEX_TOL, fatol=_VALUE_TOL, maxfev=maxfev)
    if not default_simplex:
        options["initial_simplex"] = sim
    res = minimize(func, sim[0], method="Nelder-Mead", options=options)
    return res.x, res.fun, res.success


def _scipy_default_simplex(x0):
    """scipy's default first simplex: vertex k + 1 moves coordinate k to
    1.05 x0[k], or to 0.00025 where x0[k] is zero."""
    x0 = np.asarray(x0, dtype=float)
    sim = np.tile(x0, (x0.size + 1, 1))
    for k in range(x0.size):
        sim[k + 1, k] = 1.05 * x0[k] if x0[k] != 0 else 0.00025
    return sim


def _assert_matches_scipy(func, x0, maxfev, width=None):
    """Both searches evaluate the same points in the same order and
    return the same point, value and flag, bit for bit; returns the
    points. Without width both start from scipy's default simplex,
    which scipy builds itself; with it ours starts from
    _first_simplex(x0, width) and scipy is given that simplex."""
    if width is None:
        sim = _scipy_default_simplex(x0)
    else:
        sim = _first_simplex(x0, width)
    ours, our_points = _recording(func)
    theirs, their_points = _recording(func)
    x, fun, ok = _nelder_mead(ours, sim, maxfev)
    x_ref, fun_ref, ok_ref = _scipy_nelder_mead(
        theirs, sim, maxfev, default_simplex=width is None
    )
    assert len(our_points) == len(their_points) <= maxfev
    for a, b in zip(our_points, their_points):
        assert a.tobytes() == b.tobytes()
    assert x.tobytes() == x_ref.tobytes()
    assert np.float64(fun).tobytes() == np.float64(fun_ref).tobytes()
    assert ok is ok_ref
    return our_points


def _objective(kind, n, seed):
    rng = np.random.default_rng(seed)
    c = rng.normal(size=n)
    w = np.arange(1.0, n + 1.0)
    if kind == "smooth":
        return lambda x: float(np.sum(w * (x - c) ** 2) + 0.3 * x[0] * x[-1])
    if kind == "rosenbrock":
        return lambda x: float(
            np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2)
            + (x[0] - c[0]) ** 2
        )
    if kind == "non_smooth":
        return lambda x: float(np.sum(w * np.abs(x - c)))
    if kind == "tied":
        return lambda x: float(np.round(np.sum((x - c) ** 2), 1))
    return lambda x: 1.0


class TestNelderMeadMatchesScipy:
    """The in-module search is scipy's non-adaptive Nelder-Mead."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize(
        "kind", ["smooth", "rosenbrock", "non_smooth", "tied", "constant"]
    )
    def test_every_budget(self, kind, n):
        x0 = np.random.default_rng(100 + n).normal(size=n)
        if n > 1:
            x0[1] = 0.0
        func = _objective(kind, n, seed=n)
        for maxfev in [*range(1, 41), 60, 90, 120]:
            _assert_matches_scipy(func, x0, maxfev)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize(
        "kind", ["smooth", "rosenbrock", "non_smooth", "tied", "constant"]
    )
    def test_every_budget_from_a_box_scaled_simplex(self, kind, n):
        """Starts with zero coordinates, as at the middle of a symmetric
        box, whose first steps are 5 % of the box widths."""
        rng = np.random.default_rng(200 + n)
        x0 = rng.normal(size=n)
        x0[::2] = 0.0
        width = rng.uniform(0.5, 4.0, size=n)
        func = _objective(kind, n, seed=n)
        for maxfev in [*range(1, 41), 60, 90, 120]:
            _assert_matches_scipy(func, x0, maxfev, width)

    @pytest.mark.parametrize(
        "func, cut_step",
        [
            (lambda x: float(x[0] ** 2), lambda xbar, w: 3 * xbar - 2 * w),
            (lambda x: float((x[0] - 0.99) ** 2), lambda xbar, w: 1.5 * xbar - 0.5 * w),
            (lambda x: float((x[0] - 1.02) ** 2), lambda xbar, w: 0.5 * xbar + 0.5 * w),
        ],
        ids=["expansion", "outside_contraction", "inside_contraction"],
    )
    def test_budget_ends_inside_a_step(self, func, cut_step):
        """From x0 = 1 the simplex is {1, 1.05}; the third evaluation is
        the reflection 0.95 and the fourth the step that a budget of 3
        cuts off, which stores nothing."""
        points = _assert_matches_scipy(func, np.array([1.0]), 10)
        assert points[2][0] == 2 * 1.0 - 1.05
        assert points[3][0] == cut_step(1.0, 1.05)
        x, fun, ok = _nelder_mead(func, np.array([[1.0], [1.05]]), 3)
        assert (x[0], fun, ok) == (1.0, func(np.array([1.0])), False)
        _assert_matches_scipy(func, np.array([1.0]), 3)

    @pytest.mark.parametrize("maxfev", [6, 7])
    def test_budget_ends_inside_a_shrink(self, maxfev):
        """A constant objective ties every value, so each step is a
        reflection, an inside contraction and a shrink of both other
        vertices; budgets 6 and 7 end the first shrink after one vertex
        and exactly at its end."""
        x0 = np.array([1.0, 2.0])
        points = _assert_matches_scipy(lambda x: 1.0, x0, 20)
        first = np.array([[1.0, 2.0], [1.05, 2.0], [1.0, 2.1]])
        assert [p.tolist() for p in points[:3]] == first.tolist()
        for k in (1, 2):
            shrunk = first[0] + 0.5 * (first[k] - first[0])
            assert points[4 + k].tobytes() == shrunk.tobytes()
        _assert_matches_scipy(lambda x: 1.0, x0, maxfev)

    def test_converged_only_below_the_budget(self):
        """A budget equal to the evaluations a converging search uses
        ends it before the tolerance test, so it reports no convergence."""
        func = _objective("smooth", 2, seed=0)
        x0 = np.array([0.5, -0.5])
        used = len(_assert_matches_scipy(func, x0, 10_000))
        sim = _scipy_default_simplex(x0)
        x, _, ok = _nelder_mead(func, sim, used + 1)
        x_cut, _, ok_cut = _nelder_mead(func, sim, used)
        assert ok and not ok_cut
        assert x.tobytes() == x_cut.tobytes()


class TestFirstSimplex:
    def test_zero_coordinate_moves_by_five_percent_of_its_box(self):
        x0 = np.array([0.0, 2.0, -1.0, 0.0])
        width = np.array([4.0, 1.0, 3.0, 0.5])
        sim = _first_simplex(x0, width)
        expected = np.tile(x0, (5, 1))
        expected[1, 0] = 0.05 * 4.0
        expected[2, 1] = 1.05 * 2.0
        expected[3, 2] = 1.05 * -1.0
        expected[4, 3] = 0.05 * 0.5
        assert sim.tobytes() == expected.tobytes()
        assert x0.tolist() == [0.0, 2.0, -1.0, 0.0]

    def test_nonzero_start_keeps_scipys_default(self):
        x0 = np.random.default_rng(3).normal(size=4)
        sim = _first_simplex(x0, np.full(4, 100.0))
        assert sim.tobytes() == _scipy_default_simplex(x0).tobytes()


def _workflow_sde_problem(seed):
    """The workflow benchmark's training problem at its toy size: 2,000
    trajectories of dx = dt + dW from 0, KDE densities on 129 nodes
    over t in [0.5, 1] and a drift box [-2, 2] whose middle is 0."""
    ensemble = simulate(
        SdeSpec("constant", (1.0,), "constant", (1.0,)),
        SimPlan(n_trajectories=2_000, dt=0.01, horizon=2.0, stride=10, seed=seed),
    )
    training, _ = split(ensemble, 1.0, 0.5)
    fields = ensemble_to_densities(training, Grid(-6.0, 10.0, 129))
    return CalibrationProblem(
        initial_density=tikhonov_smooth(fields[0], lam=1e-6),
        targets=tuple((f.time_stamp, f) for f in fields[1:]),
        drift_degree=0,
        diff_degree=0,
        bounds=((-2.0, 2.0), (1e-4, 2.0)),
        solver=SolverConfig(dt=0.05),
    )


@pytest.mark.parametrize("seed", [0, 3])
def test_zero_start_converges_within_the_budget(seed):
    """With a first drift step of 0.00025 this search spent all 100
    evaluations without converging at seeds 0-7; a step of 5 % of the
    box width converges in 94-99."""
    result = calibrate(
        _workflow_sde_problem(seed), optimizer="nelder_mead", budget=100, seed=seed
    )
    assert result.converged
    assert result.n_evaluations < 100
    assert abs(result.model.drift_poly[0] - 1.0) < 0.1
    assert abs(result.model.diff_poly[0] - 0.5) < 0.1


def _cubic_problem():
    """Cubic drift and cubic diffusion: 8 parameters, so a multistart
    budget of 50 gives each start 6 evaluations, fewer than the 9 of a
    first simplex."""
    grid = Grid(-6.0, 8.0, 65)
    f0 = drift_diffusion_density(grid, 1.0, 0.5, 0.4)
    targets = tuple(
        (t, drift_diffusion_density(grid, t, 0.5, 0.4)) for t in (1.5, 2.0)
    )
    solver = SolverConfig(dt=0.1)
    return CalibrationProblem(
        initial_density=f0,
        targets=targets,
        drift_degree=3,
        diff_degree=3,
        bounds=((-1.0, 1.0),) * 4 + ((0.05, 1.0),) + ((-0.2, 0.2),) * 3,
        solver=solver,
    )


@pytest.mark.parametrize(
    "optimizer, budget, used",
    [("random_multistart_nelder_mead", 50, 48), ("nelder_mead", 60, 60)],
)
def test_calibrate_matches_the_scipy_search(monkeypatch, optimizer, budget, used):
    problem = _cubic_problem()
    ours = calibrate(problem, optimizer=optimizer, budget=budget, seed=5)
    module = importlib.import_module("fprom.calibrate")
    monkeypatch.setattr(module, "_nelder_mead", _scipy_nelder_mead)
    theirs = calibrate(problem, optimizer=optimizer, budget=budget, seed=5)
    assert ours == theirs
    assert ours.n_evaluations == used
