import tracemalloc

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
    write_ensemble_csv,
)
from fprom.errors import (
    InfeasibleConfigError,
    InputDataError,
    SolverDivergenceError,
)
from fprom.langevin import _CHUNK, _DRAW_DOUBLES, _read_ensemble_arrays


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

    def test_trajectory_streams_do_not_depend_on_ensemble_size(self):
        spec = constant_spec()
        small = simulate(spec, SimPlan(n_trajectories=3, dt=0.1, horizon=1.0, seed=7))
        large = simulate(spec, SimPlan(n_trajectories=9, dt=0.1, horizon=1.0, seed=7))
        assert np.array_equal(small.samples, large.samples[:3])

    def test_stride_subsamples_without_changing_the_path(self):
        spec = constant_spec()
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


def reference_simulate(spec, plan):
    """The Euler-Maruyama loop as first written: a fresh Generator per
    trajectory, trajectory-major noise and out-of-place updates."""
    n_steps = plan.n_steps
    n_rec = n_steps // plan.stride + 1
    out = np.empty((plan.n_trajectories, n_rec))
    times = np.arange(0, n_steps + 1, plan.stride) * plan.dt
    sqrt_dt = np.sqrt(plan.dt)
    normal_x0 = plan.x0_kind == "normal"
    for lo in range(0, plan.n_trajectories, _CHUNK):
        hi = min(lo + _CHUNK, plan.n_trajectories)
        m = hi - lo
        noise = np.empty((m, n_steps))
        x = np.empty(m)
        for r in range(lo, hi):
            gen = Generator(Philox(key=[plan.seed, r]))
            if normal_x0:
                mu0, sigma0 = plan.x0_params
                x[r - lo] = mu0 + sigma0 * gen.standard_normal()
            else:
                x[r - lo] = plan.x0_params[0]
            noise[r - lo, :] = gen.standard_normal(n_steps)
        out[lo:hi, 0] = x
        col = 1
        for k in range(n_steps):
            t = k * plan.dt
            g = spec.noise(x, t)
            if np.any(g < 0.0):
                bad = int(np.argmax(g < 0.0))
                raise InfeasibleConfigError(
                    f"noise amplitude negative ({g[bad]}) at t={t}, x={x[bad]}"
                )
            x = x + spec.drift(x, t) * plan.dt + g * sqrt_dt * noise[:, k]
            if not np.all(np.isfinite(x)):
                bad = int(np.argmax(~np.isfinite(x)))
                raise SolverDivergenceError(
                    f"trajectory {lo + bad} non-finite at step {k + 1} "
                    f"(t={(k + 1) * plan.dt})"
                )
            if (k + 1) % plan.stride == 0:
                out[lo:hi, col] = x
                col += 1
    return TrajectoryEnsemble(times=times, samples=out, transform="identity")


_DRIFTS = [
    ("constant", (0.3,)),
    ("linear_in_t", (0.5, -0.8)),
    ("linear_in_x", (0.3, -0.7)),
    ("ornstein_uhlenbeck", (1.2, 0.4)),
]
_NOISES = [("constant", (0.7,)), ("linear_in_x", (0.5, 0.05))]
_X0S = [("point", (0.25,)), ("normal", (0.2, 0.3))]
# (trajectories, steps, stride): 9 is not a multiple of the 8-row draw
# block and _CHUNK + 3 spills into a second chunk
_SHAPES = [
    (m, n, s) for m in (1, 9) for n, strides in ((1, (1,)), (5, (1, 5)), (40, (1, 8)))
    for s in strides
] + [(_CHUNK + 3, 1, 1), (_CHUNK + 3, 5, 5)]


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
        plan = _plan(shape, x0)
        ens = simulate(spec, plan)
        ref = reference_simulate(spec, plan)
        assert np.array_equal(ens.times, ref.times)
        assert np.array_equal(ens.samples, ref.samples)

    @pytest.mark.parametrize("x0", _X0S, ids=lambda x: x[0])
    def test_paths_longer_than_one_draw_are_bitwise_equal(self, x0):
        # more steps than one buffer row holds: each trajectory's draw
        # runs over several segments
        spec = SdeSpec("ornstein_uhlenbeck", (1.2, 0.4), "linear_in_x", (0.5, 0.05))
        plan = _plan((3, _DRAW_DOUBLES + 5, 1), x0, dt=1e-4)
        assert np.array_equal(simulate(spec, plan).samples, reference_simulate(spec, plan).samples)

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
            # zero noise explodes every path at once; with noise the
            # largest start (trajectory 4 here) overflows first
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


class TestSimulateMemory:
    def test_peak_is_the_noise_and_the_output(self):
        spec = SdeSpec("ornstein_uhlenbeck", (1.0, 0.5), "constant", (0.7,))
        plan = _plan((2000, 2000, 100), ("normal", (0.0, 1.0)), dt=1e-3)
        noise_bytes = 2000 * 2000 * 8
        out_bytes = 2000 * 21 * 8
        tracemalloc.start()
        try:
            ens = simulate(spec, plan)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert ens.samples.shape == (2000, 21)
        assert peak < noise_bytes + out_bytes + 2**20


class TestEnsembleToDensities:
    def test_densities_at_requested_times(self):
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
        fields = ensemble_to_densities(ens, grid, [0.5, 1.0])
        assert [f.time_stamp for f in fields] == [0.5, 1.0]
        for f, t in zip(fields, (0.5, 1.0)):
            assert f.mass == pytest.approx(1.0, abs=1e-12)
            from fprom import moments

            assert moments(f).mean == pytest.approx(t, abs=0.1)

    def test_off_axis_time_rejected(self):
        ens = simulate(
            constant_spec(), SimPlan(n_trajectories=40, dt=0.1, horizon=1.0)
        )
        grid = Grid(-6.0, 6.0, 129)
        with pytest.raises(InfeasibleConfigError, match="not on the ensemble axis"):
            ensemble_to_densities(ens, grid, [0.55])

    def test_kde_failure_names_the_time(self):
        # point start: zero spread at t=0 breaks the auto bandwidth
        ens = simulate(
            constant_spec(), SimPlan(n_trajectories=40, dt=0.1, horizon=1.0)
        )
        grid = Grid(-6.0, 6.0, 129)
        with pytest.raises(ValueError, match="KDE failed at t=0.0"):
            ensemble_to_densities(ens, grid, [0.0])


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
