"""Acceptance gates for the full toolkit.

Each test is one criterion, marked with ``@pytest.mark.criterion``;
the terminal summary prints one PASS/FAIL line per criterion. All
reference values come from closed-form densities, fixed-seed
simulations, or frozen regression fixtures.
"""

import json
import time

import numpy as np
import pytest

from fprom import (
    CalibrationProblem,
    CoefficientModel,
    DensityField,
    Grid,
    SdeSpec,
    SimPlan,
    SolverConfig,
    calibrate,
    kde_estimate,
    kl_divergence,
    regress_time_only_coefficients,
    pushforward_density,
    simulate,
    solve,
    tikhonov_smooth,
)
from fprom.analytic import (
    drift_diffusion_density,
    gaussian_density,
    pure_diffusion_density,
    pure_drift_density,
)
from fprom.density import l1_distance, moments
from fprom.estimation import MomentSeries, moment_series
from fprom.sampling import TransformSpec
from fprom.cli import main
from fprom.errors import InfeasibleConfigError
from fprom.pipeline import ENV_OUTPUT_DIR, load_artifact


@pytest.fixture(autouse=True)
def isolated_env(monkeypatch, tmp_path):
    monkeypatch.delenv(ENV_OUTPUT_DIR, raising=False)
    monkeypatch.chdir(tmp_path)


def second_difference_matrix(grid):
    """Dense order-2 second difference: (1, -2, 1)/h^2 inside and the
    one-sided (2, -5, 4, -1)/h^2 at the walls."""
    n, h2 = grid.n_points, grid.spacing**2
    e = (np.eye(n, k=-1) - 2.0 * np.eye(n) + np.eye(n, k=1)) / h2
    e[[0, -1]] = 0.0
    e[0, :4] = np.array([2.0, -5.0, 4.0, -1.0]) / h2
    e[-1, -4:] = np.array([-1.0, 4.0, -5.0, 2.0]) / h2
    return e


def _cn(record_times, dt):
    return SolverConfig(integrator="crank_nicolson", dt=dt, record_times=record_times)


@pytest.mark.criterion(1, "constant-coefficient solve matches the closed form")
def test_constant_drift_diffusion_solve_accuracy():
    grid = Grid(-10.0, 20.0, 1025)
    model = CoefficientModel(drift_poly=(1.0,), diff_poly=(0.5,))
    f0 = drift_diffusion_density(grid, 1.0, 1.0, 0.5)
    truth = drift_diffusion_density(grid, 2.0, 1.0, 0.5)

    start = time.perf_counter()
    cn = solve(f0, model, _cn((2.0,), dt=0.05))
    cn_seconds = time.perf_counter() - start
    assert not cn.diverged
    assert l1_distance(cn.snapshots[0], truth) <= 5e-3
    assert cn_seconds <= 10.0

    rk4 = SolverConfig(integrator="explicit_rk4", dt=5e-4, record_times=(2.0,))
    start = time.perf_counter()
    rk = solve(f0, model, rk4)
    rk_seconds = time.perf_counter() - start
    assert not rk.diverged
    assert l1_distance(rk.snapshots[0], truth) <= 5e-3
    assert rk_seconds <= 10.0


@pytest.mark.criterion(2, "pure drift advances the mean without spreading")
def test_pure_drift_mean_advance():
    grid = Grid(-6.0, 10.0, 1025)
    mu, sigma2 = 1.0, 0.5
    model = CoefficientModel(drift_poly=(mu,), diff_poly=(0.0,))
    f0 = pure_drift_density(grid, 1.0, mu, sigma2)
    trace = solve(f0, model, _cn((2.0,), dt=0.002))
    assert not trace.diverged
    m0 = moments(f0)
    m1 = moments(trace.snapshots[0])
    assert abs((m1.mean - m0.mean) - mu * 1.0) <= 1e-3
    assert abs(m1.variance - m0.variance) <= 1e-3


@pytest.mark.criterion(3, "pure diffusion grows variance linearly")
def test_pure_diffusion_variance_growth():
    grid = Grid(-10.0, 10.0, 1025)
    diffusion = 0.5
    model = CoefficientModel(drift_poly=(0.0,), diff_poly=(diffusion,))
    f0 = pure_diffusion_density(grid, 1.0, diffusion)
    trace = solve(f0, model, _cn((2.0,), dt=0.01))
    assert not trace.diverged
    growth = moments(trace.snapshots[0]).variance - moments(f0).variance
    assert abs(growth - 2.0 * diffusion * 1.0) <= 0.01 * (2.0 * diffusion * 1.0)


@pytest.mark.criterion(4, "snapshot moment rates track the coefficients")
def test_moment_rates_match_coefficients():
    grid = Grid(-10.0, 20.0, 1025)
    mu, diffusion = 1.0, 0.5
    model = CoefficientModel(drift_poly=(mu,), diff_poly=(diffusion,))
    f0 = drift_diffusion_density(grid, 1.0, mu, diffusion)
    record = tuple(np.round(np.linspace(1.1, 2.0, 10), 10))
    trace = solve(f0, model, _cn(record, dt=0.01))
    snaps = [f0, *trace.snapshots]
    times = np.array([f.time_stamp for f in snaps])
    means = np.array([moments(f).mean for f in snaps])
    variances = np.array([moments(f).variance for f in snaps])
    dmean = (means[2:] - means[:-2]) / (times[2:] - times[:-2])
    dvar = (variances[2:] - variances[:-2]) / (times[2:] - times[:-2])
    assert np.all(np.abs(dmean - mu) <= 0.02 * abs(mu))
    assert np.all(np.abs(dvar - 2.0 * diffusion) <= 0.02 * (2.0 * diffusion))


@pytest.mark.criterion(5, "moment regression recovers simulator constants")
def test_regression_recovers_simulator_constants():
    start = time.perf_counter()
    spec = SdeSpec(
        drift_kind="constant",
        drift_params=(1.0,),
        noise_kind="constant",
        noise_params=(1.0,),
    )
    plan = SimPlan(
        n_trajectories=10_000,
        dt=1e-3,
        horizon=1.0,
        stride=10,
        x0_kind="point",
        x0_params=(0.0,),
        seed=2024,
    )
    ens = simulate(spec, plan)
    series = moment_series(ens)
    model = regress_time_only_coefficients(
        series, fit_window=(0.0, 1.0), drift_degree=0, diff_degree=0
    )
    elapsed = time.perf_counter() - start

    mu_hat = model.drift_poly[0]
    deltas = ens.samples[:, -1] - ens.samples[:, 0]
    se = np.std(deltas, ddof=1) / (1.0 * np.sqrt(ens.n_realizations))
    assert abs(mu_hat - 1.0) <= 3.0 * se
    # dx = mu dt + sigma dW with sigma = 1 implies diffusion 0.5
    assert abs(model.diff_poly[0] - 0.5) <= 0.10 * 0.5
    assert elapsed <= 60.0


@pytest.mark.criterion(6, "loss minimization recovers small generator constants")
def test_loss_minimization_recovers_generator_constants():
    true_drift, true_diff = 0.001328, 0.001928
    grid = Grid(-3.0, 4.0, 257)
    f0 = gaussian_density(grid, 0.0, 0.04, 0.0)
    truth = CoefficientModel(drift_poly=(true_drift,), diff_poly=(true_diff,))
    config = _cn((50.0, 100.0), dt=1.0)
    trace = solve(f0, truth, config)
    assert not trace.diverged
    problem = CalibrationProblem(
        initial_density=f0,
        targets=tuple((f.time_stamp, f) for f in trace.snapshots),
        drift_degree=0,
        diff_degree=0,
        bounds=((-0.01, 0.01), (1e-5, 0.01)),
        solver=SolverConfig(dt=1.0),
    )
    result = calibrate(
        problem, optimizer="random_multistart_nelder_mead", budget=500, seed=123
    )
    assert result.n_evaluations <= 500
    assert abs(result.model.drift_poly[0] - true_drift) <= 0.05 * true_drift
    assert abs(result.model.diff_poly[0] - true_diff) <= 0.05 * true_diff


@pytest.mark.criterion(7, "regression fixture is exact; negative diffusion refused")
def test_regression_fixture_and_negative_diffusion_refusal():
    times = np.linspace(0.0, 1.0, 11)
    series = MomentSeries(
        times=times,
        mean=0.1 + 0.7320 * times,
        variance=0.5 - 0.05862 * times,
    )
    model = regress_time_only_coefficients(
        series, fit_window=(0.0, 1.0), drift_degree=0, diff_degree=0
    )
    assert abs(model.drift_poly[0] - 0.7320) <= 1e-10
    assert abs(model.diff_poly[0] - (-0.02931)) <= 1e-10

    grid = Grid(-6.0, 6.0, 257)
    f0 = gaussian_density(grid, 0.0, 0.5, 0.0)
    with pytest.raises(InfeasibleConfigError, match="refused"):
        solve(f0, model, _cn((0.1,), dt=0.05))
    override = SolverConfig(
        integrator="crank_nicolson",
        dt=0.05,
        record_times=(0.1,),
        allow_negative_diffusion=True,
    )
    # the override runs the ill-posed solve; it blows up in its first
    # step, and the mass check reports that instead of hiding it
    trace = solve(f0, model, override)
    assert trace.diverged
    assert trace.diagnostic == "mass not conserved at step 1 (t=0.05)"


@pytest.mark.criterion(8, "density toolbox invariants hold")
def test_density_toolbox_invariants():
    grid = Grid(-12.0, 12.0, 2049)
    p = gaussian_density(grid, 0.0, 1.0, 0.0)
    q = gaussian_density(grid, 0.5, 1.5, 0.0)
    assert kl_divergence(p, p) == 0.0
    assert kl_divergence(p, q) > 0.0

    # KL between Gaussians has the closed form
    # 0.5 [ln(v2/v1) + (v1 + (m1-m2)^2)/v2 - 1]
    expected = 0.5 * (np.log(1.5 / 1.0) + (1.0 + 0.25) / 1.5 - 1.0)
    assert abs(kl_divergence(p, q) - expected) <= 1e-3

    # smoothing tends to the identity as lam shrinks
    errs = [
        float(np.max(np.abs(tikhonov_smooth(p, lam=lam).values - p.values)))
        for lam in (1e-6, 1e-9, 1e-12)
    ]
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] <= 1e-9

    rng = np.random.Generator(np.random.Philox(key=[8, 0]))
    noisy = kde_estimate(
        rng.normal(size=200), Grid(-8.0, 8.0, 513), bandwidth=0.05, time_stamp=0.0
    )
    smoothed = tikhonov_smooth(noisy, lam=1e-4)
    rough = second_difference_matrix(noisy.grid)
    assert np.sum((rough @ smoothed.values) ** 2) < np.sum((rough @ noisy.values) ** 2)


@pytest.mark.criterion(9, "halving the grid spacing cuts the solve error")
def test_spatial_convergence_order():
    model = CoefficientModel(drift_poly=(1.0,), diff_poly=(0.5,))
    errors = []
    for n_points in (513, 1025):
        grid = Grid(-10.0, 20.0, n_points)
        f0 = drift_diffusion_density(grid, 1.0, 1.0, 0.5)
        truth = drift_diffusion_density(grid, 2.0, 1.0, 0.5)
        trace = solve(f0, model, _cn((2.0,), dt=0.005))
        assert not trace.diverged
        errors.append(l1_distance(trace.snapshots[0], truth))
    assert errors[0] / errors[1] >= 3.0


@pytest.mark.criterion(12, "reflecting walls reach the exact stationary density")
def test_reflecting_stationary_density_second_order():
    # zero-flux walls on [-3, 3] with D1 = 1, D2 = 0.05: the stationary
    # density is proportional to exp(D1 x / D2) (Risken 1989). At t = 40
    # the solve has relaxed onto it; at t = 4 it has not.
    d1, d2 = 1.0, 0.05
    model = CoefficientModel(drift_poly=(d1,), diff_poly=(d2,))
    errors = []
    for n_points in (129, 257, 513):
        grid = Grid(-3.0, 3.0, n_points)
        f0 = gaussian_density(grid, 0.0, 0.1, 0.0)
        trace = solve(f0, model, _cn((40.0,), dt=0.01))
        assert not trace.diverged
        assert np.max(np.abs(trace.mass_log - 1.0)) <= 1e-12
        exact = DensityField.normalized(grid, np.exp(d1 * (grid.nodes - 3.0) / d2), 40.0)
        errors.append(l1_distance(trace.snapshots[0], exact))
    assert errors[-1] <= 5e-3
    assert errors[0] / errors[1] >= 3.5
    assert errors[1] / errors[2] >= 3.5


@pytest.mark.criterion(13, "log-coordinate predictions map back to original units exactly")
def test_log_coordinates_map_back_exactly():
    # log X ~ N(0.44, 0.33) on [-4, 4], mapped onto [e^-4, e^4] and
    # compared with the closed-form log-normal density
    mean, var = 0.44, 0.33
    errors = []
    for n_points in (257, 513, 1025):
        f = gaussian_density(Grid(-4.0, 4.0, n_points), mean, var, 2.0)
        target = Grid(float(np.exp(-4.0)), float(np.exp(4.0)), n_points)
        out = pushforward_density(f, TransformSpec("log_x"), target)
        assert abs(out.mass - 1.0) <= 1e-12
        x = target.nodes
        exact = np.exp(-((np.log(x) - mean) ** 2) / (2.0 * var)) / (x * np.sqrt(2.0 * np.pi * var))
        errors.append(l1_distance(out, DensityField(target, exact, 2.0)))
    assert errors[1] <= 5e-3
    assert errors[0] / errors[1] >= 3.0
    assert errors[1] / errors[2] >= 3.0


def _write_small_workflow_inputs(root):
    sim = {
        "drift": {"kind": "constant", "params": [1.0]},
        "noise": {"kind": "constant", "params": [1.0]},
        "n_trajectories": 1000,
        "dt": 0.01,
        "horizon": 1.0,
        "stride": 25,
        "x0": {"kind": "normal", "params": [0.0, 0.3]},
        "seed": 11,
    }
    (root / "sim.json").write_text(json.dumps(sim))
    assert main(
        [
            "simulate",
            "--config",
            str(root / "sim.json"),
            "--output",
            str(root / "ensemble.csv"),
        ]
    ) == 0
    run = {
        "input": {"mode": "ensemble", "path": "ensemble.csv"},
        "grid": {"x_min": -5.0, "x_max": 6.0, "n_points": 129},
        "split": {"train_end": 0.5},
        "solver": {"dt": 0.05},
        "method": "loss_minimization",
        "optimizer": "nelder_mead",
        "budget": 60,
        "seed": 3,
    }
    (root / "run.json").write_text(json.dumps(run))
    return root / "run.json"


@pytest.mark.criterion(10, "identical config and seed reproduce bytes")
def test_repeat_runs_are_byte_identical(tmp_path):
    config = _write_small_workflow_inputs(tmp_path)
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["train", "--config", str(config), "--output-dir", str(out)]) == 0
        assert (
            main(
                [
                    "validate",
                    "--artifact",
                    str(out / "artifact.json"),
                    "--config",
                    str(config),
                    "--output-dir",
                    str(out),
                ]
            )
            == 0
        )
        outs.append(out)
    a, b = outs
    for name in ("artifact.json", "run_report.txt", "metrics.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


@pytest.mark.criterion(11, "simulate, train, predict, validate meets the KL budget")
def test_end_to_end_workflow(tmp_path):
    start = time.perf_counter()
    sim = {
        "drift": {"kind": "constant", "params": [1.0]},
        "noise": {"kind": "constant", "params": [1.0]},
        "n_trajectories": 20_000,
        "dt": 1e-3,
        "horizon": 2.0,
        "stride": 100,
        "x0": {"kind": "point", "params": [0.0]},
        "seed": 5,
    }
    (tmp_path / "sim.json").write_text(json.dumps(sim))
    assert main(
        [
            "simulate",
            "--config",
            str(tmp_path / "sim.json"),
            "--output",
            str(tmp_path / "ensemble.csv"),
        ]
    ) == 0

    base = {
        "input": {"mode": "ensemble", "path": "ensemble.csv"},
        "grid": {"x_min": -6.0, "x_max": 10.0, "n_points": 513},
        "split": {"train_end": 1.0, "truncate_start": 0.5},
        "solver": {"dt": 0.05},
        "optimizer": "nelder_mead",
        "budget": 200,
        "bounds": [[-2.0, 2.0], [1e-4, 2.0]],
        "seed": 5,
    }
    for method in ("loss_minimization", "moment_regression"):
        raw = dict(base, method=method)
        (tmp_path / f"run_{method}.json").write_text(json.dumps(raw))

    final_kl = {}
    for method in ("loss_minimization", "moment_regression"):
        out = tmp_path / method
        assert (
            main(
                [
                    "train",
                    "--config",
                    str(tmp_path / f"run_{method}.json"),
                    "--output-dir",
                    str(out),
                ]
            )
            == 0
        )
        artifact = load_artifact(out / "artifact.json")
        assert abs(artifact.model.drift_poly[0] - 1.0) < 0.3
        assert abs(artifact.model.diff_poly[0] - 0.5) < 0.2

        assert (
            main(
                [
                    "predict",
                    "--artifact",
                    str(out / "artifact.json"),
                    "--horizon",
                    "2.0",
                    "--times",
                    "1.5,2.0",
                    "--dt",
                    "0.05",
                    "--output-dir",
                    str(out),
                ]
            )
            == 0
        )
        assert (out / "predicted_manifest.csv").exists()

        assert (
            main(
                [
                    "validate",
                    "--artifact",
                    str(out / "artifact.json"),
                    "--config",
                    str(tmp_path / f"run_{method}.json"),
                    "--output-dir",
                    str(out),
                ]
            )
            == 0
        )
        lines = (out / "metrics.csv").read_text().splitlines()
        assert lines[-1].startswith("final,")
        final_kl[method] = float(lines[-1].split(",")[1])

    for method, kl in final_kl.items():
        assert kl <= 0.05, (method, kl)
    assert time.perf_counter() - start <= 300.0
