import numpy as np
import pytest

from fprom import (
    Grid,
    SdeSpec,
    SimPlan,
    ensemble_to_densities,
    read_ensemble_csv,
    simulate,
    write_ensemble_csv,
)
from fprom.errors import (
    InfeasibleConfigError,
    InputDataError,
    SolverDivergenceError,
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
        back = read_ensemble_csv(path)
        assert np.array_equal(back.times, ens.times)
        assert np.array_equal(back.samples, ens.samples)
        assert back.transform == "identity"

    def test_row_order_does_not_matter(self, tmp_path):
        ens = simulate(
            constant_spec(), SimPlan(n_trajectories=3, dt=0.1, horizon=0.3, seed=5)
        )
        path = tmp_path / "ens.csv"
        write_ensemble_csv(ens, path)
        lines = path.read_text().splitlines()
        shuffled = [lines[0]] + lines[:0:-1]
        path.write_text("\n".join(shuffled) + "\n")
        back = read_ensemble_csv(path)
        assert np.array_equal(back.samples, ens.samples)

    def test_header_required(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,time,value\n0,0.0,1.0\n")
        with pytest.raises(InputDataError, match="traj_id,t,x"):
            read_ensemble_csv(path)

    def test_field_count_checked(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("traj_id,t,x\n0,0.0\n")
        with pytest.raises(InputDataError, match=":2: expected 3 fields"):
            read_ensemble_csv(path)

    def test_mismatched_axes_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "traj_id,t,x\n0,0.0,1.0\n0,0.1,1.0\n1,0.0,2.0\n1,0.2,2.0\n"
        )
        with pytest.raises(InputDataError, match="common time axis"):
            read_ensemble_csv(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("traj_id,t,x\n")
        with pytest.raises(InputDataError, match="no data rows"):
            read_ensemble_csv(path)


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
        ens = read_ensemble_csv(path)
        assert np.array_equal(ens.times, times)
        assert np.array_equal(ens.samples, samples)

    @pytest.mark.parametrize(
        "text,suffix",
        [case[1:] for case in _ENSEMBLE_REJECTED],
        ids=[case[0] for case in _ENSEMBLE_REJECTED],
    )
    def test_rejected_with_exact_message(self, tmp_path, text, suffix):
        path = tmp_path / "ens.csv"
        path.write_bytes(text.encode())
        with pytest.raises(InputDataError) as info:
            read_ensemble_csv(path)
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
        back = read_ensemble_csv(path)
        assert back.samples.shape == (5000, 21)
        assert np.array_equal(back.times, ens.times)
        assert np.array_equal(back.samples, ens.samples)
