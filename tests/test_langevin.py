import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from numpy.random import Generator, Philox

from fprom import (
    Grid,
    SdeSpec,
    SimPlan,
    TrajectoryEnsemble,
    ensemble_to_densities,
    simulate,
)
from fprom.langevin import write_ensemble_csv
from fprom.errors import (
    InfeasibleConfigError,
    InputDataError,
    SolverDivergenceError,
)
from fprom.langevin import (
    NOISE_KINDS,
    _any_negative,
    _read_ensemble_arrays,
)


def constant_spec(mu=1.0, sigma=1.0):
    return SdeSpec(
        drift_kind="constant",
        drift_params=(mu,),
        noise_kind="constant",
        noise_params=(sigma,),
    )


class TestSpecValidation:
    def test_unknown_drift_kind(self):
        with pytest.raises(InfeasibleConfigError, match="drift kind"):
            SdeSpec(
                drift_kind="cubic",
                drift_params=(1.0,),
                noise_kind="constant",
                noise_params=(1.0,),
            )

    def test_wrong_parameter_count(self):
        with pytest.raises(InfeasibleConfigError, match="takes 2 parameters"):
            SdeSpec(
                drift_kind="linear_in_x",
                drift_params=(1.0,),
                noise_kind="constant",
                noise_params=(1.0,),
            )

    def test_non_finite_parameters(self):
        with pytest.raises(InfeasibleConfigError, match="finite"):
            SdeSpec(
                drift_kind="constant",
                drift_params=(np.inf,),
                noise_kind="constant",
                noise_params=(1.0,),
            )


class TestPlanValidation:
    def test_horizon_off_lattice(self):
        with pytest.raises(InfeasibleConfigError, match="integer multiple"):
            SimPlan(n_trajectories=1, dt=0.3, horizon=1.0)

    def test_steps_not_divisible_by_stride(self):
        with pytest.raises(InfeasibleConfigError, match="stride"):
            SimPlan(n_trajectories=1, dt=0.1, horizon=1.0, stride=3)

    def test_bad_x0(self):
        with pytest.raises(InfeasibleConfigError, match="x0"):
            SimPlan(n_trajectories=1, dt=0.1, horizon=1.0, x0_kind="uniform")
        with pytest.raises(InfeasibleConfigError, match="parameter"):
            SimPlan(
                n_trajectories=1,
                dt=0.1,
                horizon=1.0,
                x0_kind="normal",
                x0_params=(0.0,),
            )

    def test_counts(self):
        with pytest.raises(InfeasibleConfigError, match="n_trajectories"):
            SimPlan(n_trajectories=0, dt=0.1, horizon=1.0)
        with pytest.raises(InfeasibleConfigError, match="dt"):
            SimPlan(n_trajectories=1, dt=0.0, horizon=1.0)

    def test_n_steps(self):
        plan = SimPlan(n_trajectories=1, dt=0.1, horizon=2.0, stride=4)
        assert plan.n_steps == 20

    @pytest.mark.parametrize("seed", [-1, 2**63, 2**64 - 1, 2**64])
    def test_seed_outside_philox_key_range_refused(self, seed):
        # 2**64 - 1 would be read as key 0 and 2**64 would overflow
        with pytest.raises(InfeasibleConfigError) as info:
            SimPlan(n_trajectories=1, dt=0.1, horizon=1.0, seed=seed)
        assert str(info.value) == "seed must be in [0, 2**63)"

    def test_largest_seed_accepted(self):
        plan = SimPlan(n_trajectories=2, dt=0.1, horizon=0.2, seed=2**63 - 1)
        assert plan.seed == 2**63 - 1
        ens = simulate(constant_spec(), plan)
        assert np.array_equal(ens.samples, reference_simulate(constant_spec(), plan).samples)


class TestSimulate:
    def test_pure_drift_reaches_mu_t(self):
        spec = constant_spec(mu=1.0, sigma=0.0)
        plan = SimPlan(n_trajectories=1, dt=1e-4, horizon=1.0, stride=10_000)
        ens = simulate(spec, plan)
        assert np.array_equal(ens.times, [0.0, 1.0])
        assert abs(ens.samples[0, -1] - 1.0) <= 1e-9

    def test_linear_in_t_drift_matches_left_riemann_sum(self):
        # zero noise: x(T) is exactly the left-endpoint sum of a + b*t
        a, b, dt, n = 0.5, 2.0, 0.01, 100
        spec = SdeSpec(
            drift_kind="linear_in_t",
            drift_params=(a, b),
            noise_kind="constant",
            noise_params=(0.0,),
        )
        plan = SimPlan(n_trajectories=1, dt=dt, horizon=1.0, stride=100)
        ens = simulate(spec, plan)
        expected = a * 1.0 + b * dt * dt * (n * (n - 1) / 2)
        assert ens.samples[0, -1] == pytest.approx(expected, rel=1e-12)

    def test_wiener_variance_grows_linearly(self):
        spec = constant_spec(mu=0.0, sigma=1.0)
        plan = SimPlan(
            n_trajectories=20_000, dt=0.05, horizon=1.0, stride=20, seed=13
        )
        ens = simulate(spec, plan)
        var = ens.samples[:, -1].var(ddof=1)
        # 3 standard errors of a variance estimate from 20k samples
        assert abs(var - 1.0) <= 3.0 * np.sqrt(2.0 / (20_000 - 1))

    def test_ou_preserves_stationary_variance(self):
        spec = SdeSpec(
            drift_kind="ornstein_uhlenbeck",
            drift_params=(1.0, 0.0),
            noise_kind="constant",
            noise_params=(np.sqrt(2.0),),
        )
        plan = SimPlan(
            n_trajectories=20_000,
            dt=0.01,
            horizon=1.0,
            stride=100,
            x0_kind="normal",
            x0_params=(0.0, 1.0),
            seed=17,
        )
        ens = simulate(spec, plan)
        assert ens.samples[:, -1].var(ddof=1) == pytest.approx(1.0, abs=0.05)

    def test_euler_mean_error_halves_with_dt(self):
        # zero noise turns the scheme into explicit Euler on x' = -x;
        # the t=1 error against e^-1 must shrink first order in dt
        def final(dt):
            spec = SdeSpec(
                drift_kind="ornstein_uhlenbeck",
                drift_params=(1.0, 0.0),
                noise_kind="constant",
                noise_params=(0.0,),
            )
            plan = SimPlan(
                n_trajectories=1,
                dt=dt,
                horizon=1.0,
                stride=int(round(1.0 / dt)),
                x0_params=(1.0,),
            )
            return simulate(spec, plan).samples[0, -1]

        exact = np.exp(-1.0)
        err_coarse = abs(final(0.05) - exact)
        err_fine = abs(final(0.025) - exact)
        assert 1.5 <= err_coarse / err_fine <= 2.7

    def test_normal_x0_distribution(self):
        spec = constant_spec(mu=0.0, sigma=0.0)
        plan = SimPlan(
            n_trajectories=20_000,
            dt=0.1,
            horizon=0.1,
            x0_kind="normal",
            x0_params=(2.0, 0.5),
            seed=3,
        )
        ens = simulate(spec, plan)
        x0 = ens.samples[:, 0]
        assert x0.mean() == pytest.approx(2.0, abs=0.02)
        assert x0.std(ddof=1) == pytest.approx(0.5, abs=0.02)

    def test_bit_identical_reruns(self):
        spec = constant_spec()
        plan = SimPlan(n_trajectories=50, dt=0.1, horizon=1.0, seed=7)
        a = simulate(spec, plan)
        b = simulate(spec, plan)
        assert np.array_equal(a.samples, b.samples)

    def test_stride_subsamples_without_changing_the_path(self):
        # the march draws once per step whatever the stride; additive
        # noise is sampled once per interval instead (TestIntervalPath)
        spec = SdeSpec("ornstein_uhlenbeck", (1.0, 0.5), "constant", (0.7,))
        dense = simulate(spec, SimPlan(n_trajectories=5, dt=0.1, horizon=1.0, seed=7))
        strided = simulate(
            spec, SimPlan(n_trajectories=5, dt=0.1, horizon=1.0, stride=5, seed=7)
        )
        assert np.array_equal(strided.samples, dense.samples[:, ::5])
        assert np.array_equal(strided.times, dense.times[::5])

    def test_negative_noise_amplitude_refused(self):
        spec = SdeSpec(
            drift_kind="constant",
            drift_params=(0.0,),
            noise_kind="linear_in_x",
            noise_params=(0.1, 1.0),
        )
        plan = SimPlan(
            n_trajectories=32,
            dt=0.1,
            horizon=1.0,
            x0_kind="normal",
            x0_params=(0.0, 1.0),
            seed=1,
        )
        with pytest.raises(InfeasibleConfigError, match="negative"):
            simulate(spec, plan)

    def test_explosion_raises_divergence_error(self):
        spec = SdeSpec(
            drift_kind="linear_in_x",
            drift_params=(0.0, 1e20),
            noise_kind="constant",
            noise_params=(0.0,),
        )
        plan = SimPlan(
            n_trajectories=2, dt=0.1, horizon=4.0, x0_params=(1.0,)
        )
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(SolverDivergenceError, match="non-finite at step"):
                simulate(spec, plan)

    @pytest.mark.parametrize(
        "noise",
        [("constant", (1.0,)), ("linear_in_x", (1.0, -1.0))],
        ids=["constant", "linear_in_x"],
    )
    def test_non_finite_initial_state_is_refused_at_step_0(self, noise):
        # trajectory 2's x0 draw overflows to inf; constant noise used to
        # report it at step 1 and linear_in_x noise as a negative amplitude
        spec = SdeSpec("constant", (0.0,), *noise)
        plan = SimPlan(
            n_trajectories=4, dt=0.1, horizon=0.2, x0_kind="normal", x0_params=(1e308, 1e308)
        )
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(SolverDivergenceError) as got:
                simulate(spec, plan)
        assert str(got.value) == "trajectory 2 non-finite at step 0 (t=0.0)"


# the coefficient formulas as first written, each returning a fresh array
_REFERENCE_DRIFTS = {
    "constant": lambda p, x, t: np.full_like(x, p[0]),
    "linear_in_t": lambda p, x, t: np.full_like(x, p[0] + p[1] * t),
    "linear_in_x": lambda p, x, t: p[0] + p[1] * x,
    "ornstein_uhlenbeck": lambda p, x, t: -p[0] * (x - p[1]),
}
_REFERENCE_NOISES = {
    "constant": lambda p, x, t: np.full_like(x, p[0]),
    "linear_in_x": lambda p, x, t: p[0] + p[1] * x,
}


def reference_simulate(spec, plan):
    """The Euler-Maruyama loop written plainly: one Generator keyed
    [seed, 0] gives the starting values, then one draw per step for
    every trajectory; fresh arrays and out-of-place updates."""
    n_steps = plan.n_steps
    m = plan.n_trajectories
    out = np.empty((m, n_steps // plan.stride + 1))
    times = np.arange(0, n_steps + 1, plan.stride) * plan.dt
    sqrt_dt = np.sqrt(plan.dt)
    h_of = _REFERENCE_DRIFTS[spec.drift_kind]
    g_of = _REFERENCE_NOISES[spec.noise_kind]
    gen = Generator(Philox(key=[plan.seed, 0]))
    if plan.x0_kind == "normal":
        mu0, sigma0 = plan.x0_params
        x = mu0 + sigma0 * gen.standard_normal(m)
    else:
        x = np.full(m, plan.x0_params[0])

    def require_finite(x, step):
        if not np.all(np.isfinite(x)):
            bad = int(np.argmax(~np.isfinite(x)))
            raise SolverDivergenceError(
                f"trajectory {bad} non-finite at step {step} (t={step * plan.dt})"
            )

    out[:, 0] = x
    require_finite(x, 0)
    for k in range(n_steps):
        t = k * plan.dt
        g = g_of(spec.noise_params, x, t)
        if np.any(g < 0.0):
            bad = int(np.argmax(g < 0.0))
            raise InfeasibleConfigError(
                f"noise amplitude negative ({g[bad]}) at t={t}, x={x[bad]}"
            )
        h = h_of(spec.drift_params, x, t)
        x = x + h * plan.dt + g * sqrt_dt * gen.standard_normal(m)
        require_finite(x, k + 1)
        if (k + 1) % plan.stride == 0:
            out[:, (k + 1) // plan.stride] = x
    return TrajectoryEnsemble(times=times, samples=out)


_REFERENCE_X_FREE_DRIFTS = {
    "constant": lambda p, t: p[0],
    "linear_in_t": lambda p, t: p[0] + p[1] * t,
}


def reference_interval_simulate(spec, plan):
    """The additive-noise sampler written plainly: the same starting
    values, then per record interval the left Riemann sum of h dt over
    its stride steps, correctly rounded, plus one draw of sigma
    sqrt(stride dt) xi for every trajectory; fresh arrays and
    out-of-place updates."""
    n_records = plan.n_steps // plan.stride
    m = plan.n_trajectories
    out = np.empty((m, n_records + 1))
    times = np.arange(0, plan.n_steps + 1, plan.stride) * plan.dt
    h_of = _REFERENCE_X_FREE_DRIFTS[spec.drift_kind]
    (sigma,) = spec.noise_params
    gen = Generator(Philox(key=[plan.seed, 0]))
    if plan.x0_kind == "normal":
        mu0, sigma0 = plan.x0_params
        x = mu0 + sigma0 * gen.standard_normal(m)
    else:
        x = np.full(m, plan.x0_params[0])
    out[:, 0] = x
    for j in range(1, n_records + 1):
        steps = range((j - 1) * plan.stride, j * plan.stride)
        drift = math.fsum([h_of(spec.drift_params, k * plan.dt) * plan.dt for k in steps])
        x = x + drift + sigma * np.sqrt(plan.stride * plan.dt) * gen.standard_normal(m)
        if not np.all(np.isfinite(x)):
            step = j * plan.stride
            bad = int(np.argmax(~np.isfinite(x)))
            raise SolverDivergenceError(
                f"trajectory {bad} non-finite at step {step} (t={step * plan.dt})"
            )
        out[:, j] = x
    return TrajectoryEnsemble(times=times, samples=out)


def takes_interval_path(spec):
    return spec.drift_kind in _REFERENCE_X_FREE_DRIFTS and spec.noise_kind == "constant"


_DRIFTS = [
    ("constant", (0.3,)),
    ("linear_in_t", (0.5, -0.8)),
    ("linear_in_x", (0.3, -0.7)),
    ("ornstein_uhlenbeck", (1.2, 0.4)),
]
_NOISES = [("constant", (0.7,)), ("linear_in_x", (0.5, 0.05))]
_X0S = [("point", (0.25,)), ("normal", (0.2, 0.3))]
# (trajectories, steps, stride): 2,500 steps run one draw buffer through
# many reuses and record 26 columns, and 8,195 trajectories are recorded
# at several strides as well as at the end alone
_SHAPES = [
    (m, n, s) for m in (1, 9) for n, strides in ((1, (1,)), (5, (1, 5)), (40, (1, 8)))
    for s in strides
] + [(9, 2500, 100), (8195, 1, 1), (8195, 5, 5), (8195, 40, 8)]


def _plan(shape, x0, seed=23, dt=0.01):
    m, n_steps, stride = shape
    return SimPlan(
        n_trajectories=m,
        dt=dt,
        horizon=n_steps * dt,
        stride=stride,
        x0_kind=x0[0],
        x0_params=x0[1],
        seed=seed,
    )


def _raised(fn, *args):
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises((InfeasibleConfigError, SolverDivergenceError)) as info:
            fn(*args)
    return type(info.value), str(info.value)


class TestSimulateMatchesReference:
    @pytest.mark.parametrize("shape", _SHAPES, ids=lambda s: "m%d-n%d-s%d" % s)
    @pytest.mark.parametrize("x0", _X0S, ids=lambda x: x[0])
    @pytest.mark.parametrize("noise", _NOISES, ids=lambda n: n[0])
    @pytest.mark.parametrize("drift", _DRIFTS, ids=lambda d: d[0])
    def test_bitwise_equal(self, drift, noise, x0, shape):
        spec = SdeSpec(drift[0], drift[1], noise[0], noise[1])
        # a horizon of at most 1 keeps every linear_in_x amplitude positive
        plan = _plan(shape, x0, dt=min(0.01, 1.0 / shape[1]))
        ens = simulate(spec, plan)
        if takes_interval_path(spec):
            # additive noise is sampled once per record interval when
            # stride > 1; at stride 1 the march runs, and one interval
            # is one step of it
            ref = reference_interval_simulate(spec, plan)
            if plan.stride == 1:
                assert np.array_equal(ens.samples, reference_simulate(spec, plan).samples)
        else:
            ref = reference_simulate(spec, plan)
        assert np.array_equal(ens.times, ref.times)
        assert np.array_equal(ens.samples, ref.samples)

    def test_finite_states_whose_sum_overflows(self):
        # 1e308 + 1e308 is inf, but every state is finite
        spec = SdeSpec("constant", (0.0,), "constant", (0.0,))
        plan = _plan((2, 5, 1), ("point", (1e308,)))
        ens = simulate(spec, plan)
        assert np.array_equal(ens.samples, reference_simulate(spec, plan).samples)
        assert np.all(ens.samples == 1e308)

    @pytest.mark.parametrize(
        "spec,plan",
        [
            # negative at the first step, and only after the drift moves x
            (
                SdeSpec("constant", (0.0,), "linear_in_x", (0.1, 1.0)),
                _plan((32, 100, 1), ("normal", (0.0, 1.0)), seed=1),
            ),
            (
                SdeSpec("constant", (-1.0,), "linear_in_x", (0.05, 1.0)),
                _plan((9, 100, 1), ("point", (0.5,)), seed=4),
            ),
            # zero noise explodes every path at once; with noise several
            # paths overflow at one step and the lowest (trajectory 2
            # here) is named
            (
                SdeSpec("linear_in_x", (0.0, 1e20), "constant", (0.0,)),
                _plan((2, 40, 1), ("point", (1.0,)), dt=0.1),
            ),
            (
                SdeSpec("linear_in_x", (0.0, 10.0), "constant", (1.0,)),
                _plan((9, 1100, 1), ("normal", (0.0, 1.0)), dt=0.1, seed=2),
            ),
        ],
        ids=["noise_negative_at_start", "noise_negative_later", "blowup", "blowup_noisy"],
    )
    def test_refusals_match_exactly(self, spec, plan):
        assert _raised(simulate, spec, plan) == _raised(reference_simulate, spec, plan)


_X_FREE_DRIFTS = [("constant", (0.3,)), ("linear_in_t", (0.5, -0.8))]


class TestIntervalPath:
    @pytest.mark.parametrize("seed", [41, 42])
    @pytest.mark.parametrize("drift", _X_FREE_DRIFTS, ids=lambda d: d[0])
    def test_recorded_states_follow_the_euler_maruyama_law(self, drift, seed):
        # EM with x-free h and constant g: x(K dt) is normal with mean
        # mu0 + sum_{k<K} h(k dt) dt and variance sigma0^2 + g^2 K dt
        spec = SdeSpec(drift[0], drift[1], "constant", (0.7,))
        plan = SimPlan(
            n_trajectories=20_000, dt=0.01, horizon=1.0, stride=25,
            x0_kind="normal", x0_params=(0.2, 0.3), seed=seed,
        )
        ens = simulate(spec, plan)
        h_of = _REFERENCE_X_FREE_DRIFTS[drift[0]]
        n = plan.n_trajectories
        for j in range(ens.n_times):
            steps = j * plan.stride
            mean = 0.2 + math.fsum(h_of(drift[1], k * plan.dt) * plan.dt for k in range(steps))
            var = 0.3**2 + 0.7**2 * steps * plan.dt
            x = ens.samples[:, j]
            assert abs(x.mean() - mean) <= 4.0 * np.sqrt(var / n)
            assert abs(x.var(ddof=1) - var) <= 4.0 * var * np.sqrt(2.0 / (n - 1))
        # the march on an independent stream draws the same final law
        from scipy.stats import ks_2samp

        march = reference_simulate(spec, replace(plan, seed=seed + 1000))
        assert ks_2samp(ens.samples[:, -1], march.samples[:, -1]).pvalue > 1e-3

    @pytest.mark.parametrize("x0", _X0S, ids=lambda x: x[0])
    @pytest.mark.parametrize("drift", _X_FREE_DRIFTS, ids=lambda d: d[0])
    def test_negative_sigma_refused_with_the_march_message(self, drift, x0):
        spec = SdeSpec(drift[0], drift[1], "constant", (-0.7,))
        plan = _plan((9, 40, 8), x0, seed=5)
        x00 = reference_simulate(constant_spec(0.0, 0.0), plan).samples[0, 0]
        raised = _raised(simulate, spec, plan)
        assert raised == (
            InfeasibleConfigError, f"noise amplitude negative (-0.7) at t=0.0, x={x00}"
        )
        assert raised == _raised(reference_simulate, spec, plan)

    def test_drift_sum_beyond_the_float_range_is_named_at_the_recorded_step(self):
        # the march overflows at step 2; math.fsum refuses the interval's
        # sum, and its plain sum is inf
        spec = SdeSpec("constant", (1e308,), "constant", (1.0,))
        plan = _plan((3, 10, 5), ("point", (0.0,)), dt=1.0)
        assert _raised(simulate, spec, plan) == (
            SolverDivergenceError, "trajectory 0 non-finite at step 5 (t=5.0)"
        )

    def test_noise_overflow_names_the_trajectory_at_the_recorded_step(self):
        # the march overflows at step 1; trajectory 2 is the first of
        # this seed whose draw carries it past the largest float
        spec = SdeSpec("constant", (0.0,), "constant", (1e307,))
        plan = _plan((9, 10, 5), ("point", (1.7e308,)), dt=1.0, seed=0)
        raised = _raised(simulate, spec, plan)
        assert raised == (SolverDivergenceError, "trajectory 2 non-finite at step 5 (t=5.0)")
        assert raised == _raised(reference_interval_simulate, spec, plan)


    def test_stride_1_keeps_the_sign_of_a_zero_state(self):
        # -0.0 + -0.0 * dt stays -0.0 in the march, where math.fsum of
        # the interval's drift terms would give +0.0
        spec = SdeSpec("constant", (-0.0,), "constant", (0.0,))
        plan = SimPlan(4, dt=0.1, horizon=0.3, x0_params=(-0.0,), seed=3)
        got = simulate(spec, plan).samples
        want = reference_simulate(spec, plan).samples
        assert np.signbit(want).any() and not np.signbit(want).all()
        assert np.array_equal(np.signbit(got), np.signbit(want))


_AMPLITUDE_STATES = np.array(
    [-np.inf, -1e308, -1.0, -5e-324, -0.0, 0.0, 5e-324, 1.0, 1e308, np.inf, np.nan]
)


class TestNegativeAmplitudeCheck:
    @pytest.mark.parametrize("params", [(0.1, 1.0), (-1.0, 0.0), (0.0, -1.0), (0.0, 0.0)])
    def test_matches_the_comparison_on_every_registry_amplitude(self, params):
        # linear_in_x is the only x-dependent noise kind; b = 0 turns an
        # infinite state into a NaN amplitude
        g_of = NOISE_KINDS["linear_in_x"][1]
        with np.errstate(invalid="ignore", over="ignore"):
            g = g_of(params, _AMPLITUDE_STATES, 0.0, np.empty(_AMPLITUDE_STATES.size))
        for lo in range(g.size):
            for hi in range(lo + 1, g.size + 1):
                assert _any_negative(g[lo:hi]) == bool((g[lo:hi] < 0.0).any())


def _peak_beside_the_output(spec):
    """tracemalloc peak of a 2000 x 2000-step simulation recorded at 21
    times, less its 2000 x 21 output."""
    plan = _plan((2000, 2000, 100), ("normal", (0.0, 1.0)), dt=1e-3)
    tracemalloc.start()
    try:
        ens = simulate(spec, plan)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ens.samples.shape == (2000, 21)
    return peak - ens.samples.nbytes


class TestSimulateMemory:
    def test_peak_is_the_output(self):
        # the march holds four arrays of 2000 floats (64 KB) besides the
        # output; an array proportional to the 2000 steps would not fit
        spec = SdeSpec("ornstein_uhlenbeck", (1.0, 0.5), "constant", (0.7,))
        assert _peak_beside_the_output(spec) < 2**20

    def test_interval_path_peak_is_the_output(self):
        # two arrays of 2000 floats besides the output
        spec = SdeSpec("linear_in_t", (0.5, -0.8), "constant", (0.7,))
        assert _peak_beside_the_output(spec) < 2**20


class TestEnsembleToDensities:
    def test_one_density_per_level(self):
        spec = constant_spec(mu=1.0, sigma=1.0)
        plan = SimPlan(
            n_trajectories=4000,
            dt=0.01,
            horizon=1.0,
            stride=50,
            x0_kind="normal",
            x0_params=(0.0, 0.2),
            seed=11,
        )
        ens = simulate(spec, plan)
        grid = Grid(-6.0, 8.0, 257)
        fields = ensemble_to_densities(ens, grid)
        assert [f.time_stamp for f in fields] == [0.0, 0.5, 1.0]
        for f, t in zip(fields, (0.0, 0.5, 1.0)):
            assert f.mass == pytest.approx(1.0, abs=1e-12)
            from fprom.density import moments

            assert moments(f).mean == pytest.approx(t, abs=0.1)

    def test_kde_failure_names_the_time(self):
        # point start: zero spread at t=0 breaks the auto bandwidth
        ens = simulate(
            constant_spec(), SimPlan(n_trajectories=40, dt=0.1, horizon=1.0)
        )
        grid = Grid(-6.0, 6.0, 129)
        with pytest.raises(ValueError, match="KDE failed at t=0.0"):
            ensemble_to_densities(ens, grid)


class TestEnsembleCsv:
    def test_round_trip_bitwise(self, tmp_path):
        ens = simulate(
            constant_spec(), SimPlan(n_trajectories=7, dt=0.1, horizon=0.5, seed=5)
        )
        path = tmp_path / "ens.csv"
        write_ensemble_csv(ens, path)
        times, samples = _read_ensemble_arrays(path)
        assert np.array_equal(times, ens.times)
        assert np.array_equal(samples, ens.samples)

    def test_row_order_does_not_matter(self, tmp_path):
        ens = simulate(
            constant_spec(), SimPlan(n_trajectories=3, dt=0.1, horizon=0.3, seed=5)
        )
        path = tmp_path / "ens.csv"
        write_ensemble_csv(ens, path)
        lines = path.read_text().splitlines()
        shuffled = [lines[0]] + lines[:0:-1]
        path.write_text("\n".join(shuffled) + "\n")
        _, samples = _read_ensemble_arrays(path)
        assert np.array_equal(samples, ens.samples)

    def test_header_required(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,time,value\n0,0.0,1.0\n")
        with pytest.raises(InputDataError, match="traj_id,t,x"):
            _read_ensemble_arrays(path)

    def test_field_count_checked(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("traj_id,t,x\n0,0.0\n")
        with pytest.raises(InputDataError, match=":2: expected 3 fields"):
            _read_ensemble_arrays(path)

    def test_mismatched_axes_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "traj_id,t,x\n0,0.0,1.0\n0,0.1,1.0\n1,0.0,2.0\n1,0.2,2.0\n"
        )
        with pytest.raises(InputDataError, match="common time axis"):
            _read_ensemble_arrays(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("traj_id,t,x\n")
        with pytest.raises(InputDataError, match="no data rows"):
            _read_ensemble_arrays(path)


def reference_write_ensemble_csv(ens, path):
    """The ensemble writer as first written: one f-string and one write
    per row."""
    with open(path, "w", newline="") as fh:
        fh.write("traj_id,t,x\n")
        times = [float(t) for t in ens.times]
        for r in range(ens.n_realizations):
            row = ens.samples[r]
            for k in range(ens.n_times):
                fh.write(f"{r},{times[k]!r},{float(row[k])!r}\n")


class TestEnsembleCsvBytes:
    def test_awkward_values_match_the_row_writer(self, tmp_path):
        times = np.array([0.0, 0.1, 0.2, 3 * 0.1, 0.4])
        samples = np.array(
            [
                [-0.0, 5e-324, 1e300, -1.5e-7, 0.1 + 0.2],
                [1.0, -5e-324, -1e300, 2.0**-1074 * 3, 123456789.125],
            ]
        )
        ens = TrajectoryEnsemble(times=times, samples=samples)
        write_ensemble_csv(ens, tmp_path / "fast.csv")
        reference_write_ensemble_csv(ens, tmp_path / "ref.csv")
        text = (tmp_path / "fast.csv").read_bytes()
        assert text == (tmp_path / "ref.csv").read_bytes()
        assert b"\n0,0.30000000000000004,-1.5e-07\n" in text
        assert b"\n0,0.0,-0.0\n" in text

    def test_simulated_ensemble_matches_the_row_writer(self, tmp_path):
        ens = simulate(
            SdeSpec("linear_in_x", (0.3, -0.7), "linear_in_x", (0.5, 0.05)),
            _plan((300, 40, 8), ("normal", (0.2, 0.3)), dt=0.1),
        )
        write_ensemble_csv(ens, tmp_path / "fast.csv")
        reference_write_ensemble_csv(ens, tmp_path / "ref.csv")
        assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


_ENSEMBLE_ACCEPTED = [
    ("blank_line", "traj_id,t,x\n0,0.0,1.0\n\n0,0.5,2.0\n", [0.0, 0.5], [[1.0, 2.0]]),
    ("crlf", "traj_id,t,x\r\n0,0.0,1.0\r\n0,0.5,2.0\r\n", [0.0, 0.5], [[1.0, 2.0]]),
    (
        "spaces_around_fields",
        " traj_id , t , x \n 0 , 0.0 , 1.0 \n0, 0.5 ,2.0\n",
        [0.0, 0.5],
        [[1.0, 2.0]],
    ),
    (
        "quoted_numbers",
        '"traj_id","t","x"\n"0","0.0","1.0"\n0,0.5,"2.0"\n',
        [0.0, 0.5],
        [[1.0, 2.0]],
    ),
    (
        "negative_id",
        "traj_id,t,x\n2,0.0,3.0\n-1,0.0,1.0\n2,0.5,4.0\n-1,0.5,2.0\n",
        [0.0, 0.5],
        [[1.0, 2.0], [3.0, 4.0]],
    ),
    (
        "ids_beyond_2_53_stay_distinct",
        "traj_id,t,x\n9007199254740993,0.0,1.0\n9007199254740992,0.0,2.0\n"
        "9007199254740993,0.5,3.0\n9007199254740992,0.5,4.0\n",
        [0.0, 0.5],
        [[2.0, 4.0], [1.0, 3.0]],
    ),
    (
        "ids_beyond_int64",
        f"traj_id,t,x\n{2**70},0.0,3.0\n{-(2**70)},0.0,1.0\n"
        f"{2**70},0.5,4.0\n{-(2**70)},0.5,2.0\n",
        [0.0, 0.5],
        [[1.0, 2.0], [3.0, 4.0]],
    ),
]

_ENSEMBLE_REJECTED = [
    ("comment_line", "traj_id,t,x\n# note\n0,0.0,1.0\n", ":2: expected 3 fields"),
    (
        "fractional_id",
        "traj_id,t,x\n0.5,0.0,1.0\n",
        ":2: invalid literal for int() with base 10: '0.5'",
    ),
    (
        "integral_float_id",
        "traj_id,t,x\n3.0,0.0,1.0\n3.0,0.5,2.0\n",
        ":2: invalid literal for int() with base 10: '3.0'",
    ),
    ("nan", "traj_id,t,x\n0,nan,1.0\n0,0.5,2.0\n", ":2: non-finite value"),
    ("overflow_to_inf", "traj_id,t,x\n0,0.0,1.0\n0,0.5,1e400\n", ":3: non-finite value"),
    ("four_fields", "traj_id,t,x\n0,0.0,1.0,2.0\n", ":2: expected 3 fields"),
    ("whitespace_line", "traj_id,t,x\n0,0.0,1.0\n   \n0,0.5,2.0\n", ":3: expected 3 fields"),
    (
        "non_numeric",
        "traj_id,t,x\n0,0.0,1.0\n0,0.5,abc\n",
        ":3: could not convert string to float: 'abc'",
    ),
    (
        "off_axis_trajectory_named",
        "traj_id,t,x\n0,0.0,1.0\n0,0.5,1.0\n7,0.0,2.0\n7,0.7,2.0\n",
        ": trajectory 7 does not share the common time axis",
    ),
    (
        "ragged_trajectory_named",
        "traj_id,t,x\n0,0.0,1.0\n0,0.5,1.0\n5,0.0,2.0\n",
        ": trajectory 5 does not share the common time axis",
    ),
    (
        "off_axis_before_ragged",
        "traj_id,t,x\n0,0.0,1.0\n0,0.5,1.0\n3,0.0,2.0\n3,0.7,2.0\n5,0.0,3.0\n",
        ": trajectory 3 does not share the common time axis",
    ),
    (
        "repeated_time_named",
        "traj_id,t,x\n0,0.0,1.0\n0,0.5,1.0\n0,0.5,1.0\n1,0.0,2.0\n1,0.5,2.0\n1,0.5,2.0\n",
        ": trajectory 0 repeats time 0.5",
    ),
    (
        "repeat_found_before_the_axis_check",
        "traj_id,t,x\n0,0.0,1.0\n0,0.5,1.0\n0,0.5,1.0\n1,0.0,2.0\n1,0.5,2.0\n1,1.0,2.0\n",
        ": trajectory 0 repeats time 0.5",
    ),
    (
        "repeat_in_a_later_trajectory",
        "traj_id,t,x\n0,0.0,1.0\n0,0.5,1.0\n4,0.0,2.0\n4,0.0,3.0\n",
        ": trajectory 4 repeats time 0.0",
    ),
    (
        "shortest_trajectory_first",
        "traj_id,t,x\n0,0.0,1.0\n1,0.0,2.0\n1,0.5,3.0\n",
        ": trajectory 1 does not share the common time axis",
    ),
]


class TestEnsembleCsvEdgeCases:
    @pytest.mark.parametrize(
        "text,times,samples",
        [case[1:] for case in _ENSEMBLE_ACCEPTED],
        ids=[case[0] for case in _ENSEMBLE_ACCEPTED],
    )
    def test_accepted(self, tmp_path, text, times, samples):
        path = tmp_path / "ens.csv"
        path.write_bytes(text.encode())
        got_times, got_samples = _read_ensemble_arrays(path)
        assert np.array_equal(got_times, times)
        assert np.array_equal(got_samples, samples)

    @pytest.mark.parametrize(
        "text,suffix",
        [case[1:] for case in _ENSEMBLE_REJECTED],
        ids=[case[0] for case in _ENSEMBLE_REJECTED],
    )
    def test_rejected_with_exact_message(self, tmp_path, text, suffix):
        path = tmp_path / "ens.csv"
        path.write_bytes(text.encode())
        with pytest.raises(InputDataError) as info:
            _read_ensemble_arrays(path)
        assert str(info.value) == f"{path}{suffix}"

    def test_shuffled_round_trip_bitwise(self, tmp_path):
        ens = simulate(
            SdeSpec("ornstein_uhlenbeck", (1.0, 0.5), "constant", (0.7,)),
            SimPlan(n_trajectories=5000, dt=0.05, horizon=1.0, x0_kind="normal",
                    x0_params=(0.0, 1.0), seed=11),
        )
        path = tmp_path / "ens.csv"
        write_ensemble_csv(ens, path)
        lines = path.read_text().splitlines()
        body = lines[1:]
        order = np.random.default_rng(3).permutation(len(body))
        path.write_text("\n".join([lines[0]] + [body[i] for i in order]) + "\n")
        times, samples = _read_ensemble_arrays(path)
        assert samples.shape == (5000, 21)
        assert np.array_equal(times, ens.times)
        assert np.array_equal(samples, ens.samples)
