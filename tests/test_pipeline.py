import hashlib
import json
import logging
from dataclasses import replace

import numpy as np
import pytest

from fprom import (
    CoefficientModel,
    DensityField,
    Grid,
    RomArtifact,
    RunConfig,
    SdeSpec,
    SimPlan,
    SolverConfig,
    TrajectoryEnsemble,
    regress_time_only_coefficients,
    run_predict,
    run_train,
    run_validate,
    simulate,
    solve,
)
from fprom.analytic import drift_diffusion_density, gaussian_density
from fprom.density import (
    kl_divergence,
    kl_divergence_rows,
    l1_distance,
    read_density_csv,
    write_density_csv,
)
from fprom.estimation import moment_series
from fprom.sampling import TransformSpec
import fprom.pipeline
from fprom.cli import main
from fprom.errors import InfeasibleConfigError, InputDataError
from fprom.langevin import _read_ensemble_arrays, read_ensemble, write_ensemble_csv
from fprom.pipeline import (
    ENV_OUTPUT_DIR,
    ingest,
    load_artifact,
    moment_regression,
    resolve_output_dir,
    save_artifact,
    split,
)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Shared input files: one simulated ensemble, one density list."""
    root = tmp_path_factory.mktemp("pipeline_inputs")
    spec = SdeSpec(
        drift_kind="constant",
        drift_params=(1.0,),
        noise_kind="constant",
        noise_params=(1.0,),
    )
    plan = SimPlan(
        n_trajectories=3000,
        dt=0.01,
        horizon=1.0,
        stride=25,
        x0_kind="normal",
        x0_params=(0.0, 0.3),
        seed=42,
    )
    write_ensemble_csv(simulate(spec, plan), root / "ensemble.csv")

    grid = Grid(-8.0, 8.0, 257)
    lines = ["time,path"]
    for i, t in enumerate((1.0, 1.5, 2.0, 2.5)):
        name = f"dens_{i}.csv"
        write_density_csv(drift_diffusion_density(grid, t, 0.0, 0.5), root / name)
        lines.append(f"{t!r},{name}")
    (root / "manifest.csv").write_text("\n".join(lines) + "\n")
    return root


def ensemble_config(workspace, **overrides):
    raw = {
        "input": {"mode": "ensemble", "path": str(workspace / "ensemble.csv")},
        "grid": {"x_min": -5.0, "x_max": 6.0, "n_points": 257},
        "split": {"train_end": 0.5},
        "solver": {"dt": 0.05},
        "optimizer": "nelder_mead",
        "budget": 100,
        "seed": 7,
    }
    raw.update(overrides)
    return RunConfig.from_dict(raw)


def densities_config(workspace, **overrides):
    raw = {
        "input": {"mode": "densities", "path": str(workspace / "manifest.csv")},
        "grid": {"x_min": -8.0, "x_max": 8.0, "n_points": 257},
        "split": {"train_end": 2.0},
        "solver": {"dt": 0.05},
        "optimizer": "nelder_mead",
        "budget": 100,
    }
    raw.update(overrides)
    return RunConfig.from_dict(raw)


class TestRunConfig:
    def test_defaults_are_recorded(self, workspace):
        config = ensemble_config(workspace)
        assert config.method == "loss_minimization"
        assert config.transform.kind == "identity"
        assert "method" in config.defaulted
        assert "split.truncate_start" in config.defaulted
        assert "solver.integrator" in config.defaulted
        assert "budget" not in config.defaulted

    def test_defaulted_follows_field_order(self, workspace):
        raw = {
            "input": {"mode": "ensemble", "path": "x.csv"},
            "grid": {"x_min": -5.0, "x_max": 5.0, "n_points": 129},
            "split": {"train_end": 0.5},
            "solver": {"dt": 0.05},
        }
        config = RunConfig.from_dict(raw)
        assert config.defaulted == (
            "solver.integrator",
            "split.truncate_start",
            "transform",
            "method",
            "drift_degree",
            "diff_degree",
            "smoothing_lambda",
            "bounds",
            "weights",
            "distance",
            "optimizer",
            "budget",
            "fit_window",
            "output_dir",
            "seed",
        )
        assert config == RunConfig(
            input_mode="ensemble",
            input_path="x.csv",
            grid=Grid(-5.0, 5.0, 129),
            train_end=0.5,
            solver=SolverConfig(dt=0.05),
            defaulted=config.defaulted,
        )

    @pytest.mark.parametrize(
        "section, value, message",
        [
            ("input", {"mode": "ensemble"}, "input section needs path"),
            ("input", {}, "input section needs mode and path"),
            ("split", {}, "split section needs train_end"),
            ("grid", [1.0], "grid must be a JSON object"),
            ("split", None, "config is missing the 'split' section"),
        ],
    )
    def test_section_key_errors(self, workspace, section, value, message):
        raw = {
            "input": {"mode": "ensemble", "path": "x.csv"},
            "grid": {"x_min": -5.0, "x_max": 5.0, "n_points": 129},
            "split": {"train_end": 0.5},
            "solver": {"dt": 0.05},
        }
        raw[section] = value
        with pytest.raises(InputDataError) as info:
            RunConfig.from_dict(raw)
        assert str(info.value) == message

    def test_unknown_top_level_key(self, workspace):
        with pytest.raises(InputDataError, match="unknown config key"):
            ensemble_config(workspace, typo_key=1)

    def test_unknown_solver_key(self, workspace):
        with pytest.raises(InputDataError, match="unknown solver key"):
            ensemble_config(workspace, solver={"dt": 0.05, "step": 1})

    def test_missing_section(self, workspace):
        raw = {
            "input": {"mode": "ensemble", "path": "x.csv"},
            "split": {"train_end": 1.0},
            "solver": {"dt": 0.1},
        }
        with pytest.raises(InputDataError, match="missing the 'grid' section"):
            RunConfig.from_dict(raw)

    def test_solver_needs_dt(self, workspace):
        with pytest.raises(InputDataError, match="solver section needs dt"):
            ensemble_config(workspace, solver={"integrator": "crank_nicolson"})

    @pytest.mark.parametrize("seed", [-1, 2**63, 2**64])
    def test_seed_outside_key_range(self, workspace, seed):
        with pytest.raises(InfeasibleConfigError) as info:
            ensemble_config(workspace, seed=seed)
        assert str(info.value) == "seed must be in [0, 2**63)"

    def test_budget_floor(self, workspace):
        with pytest.raises(InfeasibleConfigError, match="budget"):
            ensemble_config(workspace, budget=10)

    def test_truncate_start_must_precede_train_end(self, workspace):
        with pytest.raises(InfeasibleConfigError, match="precede"):
            ensemble_config(
                workspace, split={"train_end": 0.5, "truncate_start": 0.5}
            )

    def test_densities_mode_requires_identity_transform(self, workspace):
        with pytest.raises(InfeasibleConfigError, match="identity"):
            densities_config(workspace, transform="log_x")

    def test_from_file_resolves_relative_paths(self, tmp_path, workspace):
        cfg_dir = tmp_path / "cfg"
        cfg_dir.mkdir()
        raw = {
            "input": {"mode": "ensemble", "path": "../data/ens.csv"},
            "grid": {"x_min": -5.0, "x_max": 5.0, "n_points": 129},
            "split": {"train_end": 0.5},
            "solver": {"dt": 0.05},
        }
        path = cfg_dir / "run.json"
        path.write_text(json.dumps(raw))
        config = RunConfig.from_file(path)
        assert config.input_path == str(cfg_dir / "../data/ens.csv")

    def test_from_file_rejects_bad_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(InputDataError, match="invalid JSON"):
            RunConfig.from_file(path)

    def test_from_file_names_the_file_in_refusals(self, tmp_path):
        raw = {
            "input": {"mode": "ensemble", "path": "ens.csv"},
            "grid": {"x_min": -5.0, "x_max": 5.0, "n_points": 129},
            "split": {"train_end": 0.5},
            "solver": {"dt": 0.05},
            "method": 3,
        }
        path = tmp_path / "r.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(InputDataError) as info:
            RunConfig.from_file(path)
        assert str(info.value) == f"{path}: method must be a string, got 3"

    def test_report_items_cover_every_setting(self, workspace):
        config = ensemble_config(workspace)
        items = dict(config.report_items())
        assert items["method"] == "loss_minimization"
        assert items["solver_dt"] == "0.05"
        assert items["split_truncate_start"] == "None"
        assert "defaulted" in items


    def test_report_items_are_the_config_keys_in_order(self, workspace):
        raw = {
            "input": {"mode": "ensemble", "path": "x.csv"},
            "grid": {"x_min": -5.0, "x_max": 5.0, "n_points": 129},
            "transform": "log_x",
            "method": "moment_regression",
            "drift_degree": 1,
            "diff_degree": 2,
            "solver": {"integrator": "explicit_rk4", "dt": 0.01},
            "smoothing_lambda": 0.001,
            "split": {"train_end": 0.5, "truncate_start": 0.25},
            "bounds": [[-1, 1], [-1, 1], [0, 1], [0, 1], [0, 1]],
            "weights": [1, 2],
            "distance": "l2",
            "optimizer": "nelder_mead",
            "budget": 50,
            "fit_window": [0.25, 0.5],
            "output_dir": "out",
            "seed": 3,
        }
        config = RunConfig.from_dict(raw)
        assert config.defaulted == ()
        assert config.report_items() == [
            ("input_mode", "ensemble"),
            ("input_path", "x.csv"),
            ("grid_x_min", "-5.0"),
            ("grid_x_max", "5.0"),
            ("grid_n_points", "129"),
            ("transform", "log_x"),
            ("method", "moment_regression"),
            ("drift_degree", "1"),
            ("diff_degree", "2"),
            ("solver_integrator", "explicit_rk4"),
            ("solver_dt", "0.01"),
            ("smoothing_lambda", "0.001"),
            ("split_train_end", "0.5"),
            ("split_truncate_start", "0.25"),
            ("bounds", "[[-1.0, 1.0], [-1.0, 1.0], [0.0, 1.0], [0.0, 1.0], [0.0, 1.0]]"),
            ("weights", "[1.0, 2.0]"),
            ("distance", "l2"),
            ("optimizer", "nelder_mead"),
            ("budget", "50"),
            ("fit_window", "[0.25, 0.5]"),
            ("seed", "3"),
            ("defaulted", "none"),
        ]
        # each report key is its config key with "." turned into "_";
        # output_dir, where the report goes, is the one key not reported
        dotted = [
            f"{key}.{name}" if isinstance(value, dict) else key
            for key, value in raw.items()
            for name in (value if isinstance(value, dict) else (None,))
        ]
        reported = [key for key, _ in config.report_items()][:-1]
        assert sorted(reported) == sorted(
            key.replace(".", "_") for key in dotted if key != "output_dir"
        )


class TestResolveOutputDir:
    def test_precedence(self, tmp_path, monkeypatch):
        monkeypatch.setenv(ENV_OUTPUT_DIR, str(tmp_path / "env"))
        # explicit beats config beats environment
        assert str(resolve_output_dir("exp", "cfg")) == "exp"
        assert str(resolve_output_dir(None, "cfg")) == "cfg"
        assert str(resolve_output_dir(None, None)) == str(tmp_path / "env")
        monkeypatch.delenv(ENV_OUTPUT_DIR)
        assert str(resolve_output_dir(None, None)) == "."


class TestArtifact:
    def make(self, transform="identity"):
        grid = Grid(-6.0, 6.0, 129)
        return RomArtifact(
            model=CoefficientModel(drift_poly=(1.0,), diff_poly=(0.5,)),
            transform=TransformSpec(transform),
            initial_density=gaussian_density(grid, 0.0, 1.0, 0.5),
            train_window=(0.0, 0.5),
            method="loss_minimization",
            loss=0.00123,
            seed=9,
        )

    def test_round_trip(self, tmp_path):
        art = self.make()
        path = tmp_path / "artifact.json"
        save_artifact(art, path)
        back = load_artifact(path)
        assert back.grid == art.grid
        assert back.model.drift_poly == art.model.drift_poly
        assert back.model.diff_poly == art.model.diff_poly
        assert back.transform.kind == "identity"
        assert np.array_equal(back.initial_density.values, art.initial_density.values)
        assert back.initial_density.time_stamp == 0.5
        assert back.train_window == (0.0, 0.5)
        assert back.method == art.method
        assert back.loss == art.loss
        assert back.seed == 9
        assert back.tool_version == art.tool_version

    def test_grid_is_the_initial_density_grid(self, tmp_path):
        art = self.make()
        assert art.grid is art.initial_density.grid
        save_artifact(art, tmp_path / "artifact.json")
        back = load_artifact(tmp_path / "artifact.json")
        assert back.grid is back.initial_density.grid

    def test_save_is_byte_stable(self, tmp_path):
        art = self.make()
        save_artifact(art, tmp_path / "a.json")
        save_artifact(art, tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_load_rejects_wrong_format(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(InputDataError, match="not a fprom-artifact-v1"):
            load_artifact(path)

    def test_load_rejects_unknown_keys(self, tmp_path):
        art = self.make()
        path = tmp_path / "artifact.json"
        save_artifact(art, path)
        payload = json.loads(path.read_text())
        payload["extra"] = 1
        path.write_text(json.dumps(payload))
        with pytest.raises(InputDataError) as info:
            load_artifact(path)
        assert str(info.value) == (
            f"{path}: malformed artifact (unknown artifact key(s): extra)"
        )

    @pytest.mark.parametrize("section", ["grid", "model", "initial_density", "metadata"])
    @pytest.mark.parametrize("absent", ["null", "deleted"])
    def test_load_names_the_artifact_for_a_missing_section(self, tmp_path, section, absent):
        path = tmp_path / "artifact.json"
        save_artifact(self.make(), path)
        payload = json.loads(path.read_text())
        if absent == "null":
            payload[section] = None
        else:
            del payload[section]
        path.write_text(json.dumps(payload))
        with pytest.raises(InputDataError) as info:
            load_artifact(path)
        assert str(info.value) == (
            f"{path}: malformed artifact (artifact is missing the {section!r} section)"
        )

    def test_load_reports_malformed_content(self, tmp_path):
        art = self.make()
        path = tmp_path / "artifact.json"
        save_artifact(art, path)
        payload = json.loads(path.read_text())
        del payload["model"]["diff_poly"]
        path.write_text(json.dumps(payload))
        with pytest.raises(InputDataError, match="malformed artifact"):
            load_artifact(path)

    @pytest.mark.parametrize("seed", [-1, 2**63, 2**64])
    def test_seed_outside_key_range(self, tmp_path, seed):
        path = tmp_path / "artifact.json"
        save_artifact(self.make(), path)
        payload = json.loads(path.read_text())
        payload["metadata"]["seed"] = seed
        path.write_text(json.dumps(payload))
        with pytest.raises(InputDataError) as info:
            load_artifact(path)
        assert str(info.value) == f"{path}: malformed artifact (seed must be in [0, 2**63))"

    def test_window_must_be_ordered(self):
        grid = Grid(-6.0, 6.0, 129)
        with pytest.raises(InfeasibleConfigError, match="window"):
            RomArtifact(
                model=CoefficientModel(drift_poly=(0.0,), diff_poly=(0.5,)),
                transform=TransformSpec("identity"),
                initial_density=gaussian_density(grid, 0.0, 1.0, 1.0),
                train_window=(1.0, 0.5),
                method="loss_minimization",
                loss=0.0,
                seed=0,
            )


class TestIngest:
    def test_densities_sorted_and_on_grid(self, workspace):
        config = densities_config(workspace)
        fields = ingest(config)
        assert [f.time_stamp for f in fields] == [1.0, 1.5, 2.0, 2.5]
        assert all(f.grid == config.grid for f in fields)

    def test_density_grid_mismatch_is_explicit(self, workspace):
        config = densities_config(
            workspace, grid={"x_min": -8.0, "x_max": 8.0, "n_points": 129}
        )
        with pytest.raises(InfeasibleConfigError, match="not re-gridded"):
            ingest(config)

    def test_manifest_duplicate_times(self, tmp_path, workspace):
        manifest = tmp_path / "dup.csv"
        src = workspace / "dens_0.csv"
        manifest.write_text(f"1.0,{src}\n1.0,{src}\n")
        config = RunConfig.from_dict(
            {
                "input": {"mode": "densities", "path": str(manifest)},
                "grid": {"x_min": -8.0, "x_max": 8.0, "n_points": 257},
                "split": {"train_end": 2.0},
                "solver": {"dt": 0.05},
            }
        )
        with pytest.raises(InputDataError, match="duplicate times"):
            ingest(config)

    @pytest.mark.parametrize("header", ["time, path", " time ,path"])
    def test_manifest_header_with_spaces(self, tmp_path, workspace, header):
        manifest = tmp_path / "spaced.csv"
        rows = [f"{t}, {workspace / f'dens_{i}.csv'}" for i, t in enumerate((1.0, 1.5))]
        manifest.write_text("\n".join([header, *rows]) + "\n")
        config = densities_config(workspace, input={"mode": "densities", "path": str(manifest)})
        assert [f.time_stamp for f in ingest(config)] == [1.0, 1.5]

    def test_empty_manifest(self, tmp_path):
        manifest = tmp_path / "empty.csv"
        manifest.write_text("time,path\n")
        config = RunConfig.from_dict(
            {
                "input": {"mode": "densities", "path": str(manifest)},
                "grid": {"x_min": -8.0, "x_max": 8.0, "n_points": 257},
                "split": {"train_end": 2.0},
                "solver": {"dt": 0.05},
            }
        )
        with pytest.raises(InputDataError, match="empty manifest"):
            ingest(config)

    def test_ensemble_identity(self, workspace):
        config = ensemble_config(workspace)
        ens = ingest(config)
        assert isinstance(ens, TrajectoryEnsemble)
        assert ens.n_realizations == 3000
        assert np.allclose(ens.times, [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_ensemble_log_x(self, tmp_path):
        times = np.array([0.0, 0.5, 1.0])
        raw = np.exp(np.array([[0.0, 0.1, 0.2], [1.0, 1.1, 0.9]]))
        ens = TrajectoryEnsemble(times=times, samples=raw)
        path = tmp_path / "pos.csv"
        write_ensemble_csv(ens, path)
        config = RunConfig.from_dict(
            {
                "input": {"mode": "ensemble", "path": str(path)},
                "grid": {"x_min": -2.0, "x_max": 2.0, "n_points": 129},
                "split": {"train_end": 0.5},
                "solver": {"dt": 0.05},
                "transform": "log_x",
            }
        )
        loaded = ingest(config)
        assert np.allclose(loaded.samples, np.log(raw), atol=1e-12)
        assert np.allclose(loaded.times, times)

    def test_ensemble_log_x_rejects_nonpositive(self, tmp_path):
        ens = TrajectoryEnsemble(
            times=[0.0, 1.0], samples=np.array([[0.0, 1.0], [2.0, 3.0]])
        )
        path = tmp_path / "zero.csv"
        write_ensemble_csv(ens, path)
        config = RunConfig.from_dict(
            {
                "input": {"mode": "ensemble", "path": str(path)},
                "grid": {"x_min": -2.0, "x_max": 2.0, "n_points": 129},
                "split": {"train_end": 0.5},
                "solver": {"dt": 0.05},
                "transform": "log_x",
            }
        )
        with pytest.raises(InputDataError, match="positive"):
            ingest(config)

    def test_ensemble_log_t_needs_geometric_times(self, tmp_path):
        # geometric raw times become uniform in log time
        lines = ["traj_id,t,x"]
        for traj in range(2):
            for t in (0.25, 0.5, 1.0, 2.0):
                lines.append(f"{traj},{t!r},{1.0 + traj!r}")
        path = tmp_path / "geom.csv"
        path.write_text("\n".join(lines) + "\n")
        config = RunConfig.from_dict(
            {
                "input": {"mode": "ensemble", "path": str(path)},
                "grid": {"x_min": -2.0, "x_max": 2.0, "n_points": 129},
                "split": {"train_end": float(np.log(0.5))},
                "solver": {"dt": 0.05},
                "transform": "log_x_log_t",
            }
        )
        ens = ingest(config)
        assert np.allclose(np.diff(ens.times), np.log(2.0), atol=1e-12)

    def test_ensemble_log_t_rejects_uniform_raw_times(self, tmp_path):
        lines = ["traj_id,t,x"]
        for traj in range(2):
            for t in (0.5, 1.0, 1.5, 2.0):
                lines.append(f"{traj},{t!r},1.0")
        path = tmp_path / "uni.csv"
        path.write_text("\n".join(lines) + "\n")
        config = RunConfig.from_dict(
            {
                "input": {"mode": "ensemble", "path": str(path)},
                "grid": {"x_min": -2.0, "x_max": 2.0, "n_points": 129},
                "split": {"train_end": 0.0},
                "solver": {"dt": 0.05},
                "transform": "log_x_log_t",
            }
        )
        with pytest.raises(InputDataError, match="uniform"):
            ingest(config)


class TestSplit:
    def test_ensemble_split_counts(self):
        times = np.arange(11.0)
        ens = TrajectoryEnsemble(times=times, samples=np.zeros((3, 11)))
        train, test = split(ens, train_end=7.0)
        assert train.n_times == 8
        assert test.n_times == 3
        assert train.times[-1] == 7.0
        assert test.times[0] == 8.0

    def test_truncate_start_drops_early_levels(self):
        times = np.arange(11.0)
        ens = TrajectoryEnsemble(times=times, samples=np.zeros((3, 11)))
        train, _ = split(ens, train_end=7.0, truncate_start=5.0)
        assert np.array_equal(train.times, [5.0, 6.0, 7.0])

    def test_train_end_at_last_level_fails(self):
        times = np.arange(11.0)
        ens = TrajectoryEnsemble(times=times, samples=np.zeros((3, 11)))
        with pytest.raises(InfeasibleConfigError, match="empty testing side"):
            split(ens, train_end=10.0)

    def test_train_end_off_axis(self):
        times = np.arange(11.0)
        ens = TrajectoryEnsemble(times=times, samples=np.zeros((3, 11)))
        with pytest.raises(InfeasibleConfigError, match="not on the time axis"):
            split(ens, train_end=7.5)

    def test_single_level_sides_rejected_for_ensembles(self):
        times = np.arange(4.0)
        ens = TrajectoryEnsemble(times=times, samples=np.zeros((3, 4)))
        with pytest.raises(InfeasibleConfigError, match="two time levels per side"):
            split(ens, train_end=0.0)

    def test_density_list_split(self):
        grid = Grid(-6.0, 6.0, 129)
        fields = [gaussian_density(grid, 0.0, 1.0, t) for t in (1.0, 2.0, 3.0)]
        train, test = split(fields, train_end=2.0)
        assert [f.time_stamp for f in train] == [1.0, 2.0]
        assert [f.time_stamp for f in test] == [3.0]

    def test_density_list_must_be_ordered(self):
        grid = Grid(-6.0, 6.0, 129)
        fields = [gaussian_density(grid, 0.0, 1.0, t) for t in (2.0, 1.0)]
        with pytest.raises(InfeasibleConfigError, match="time order"):
            split(fields, train_end=1.0)


class TestRunTrain:
    def test_loss_minimization_recovers_and_persists(self, workspace, tmp_path):
        config = ensemble_config(workspace)
        out = tmp_path / "out"
        artifact, report = run_train(config, output_dir=out)
        assert (out / "artifact.json").exists()
        assert (out / "run_report.txt").read_text() == report
        assert abs(artifact.model.drift_poly[0] - 1.0) < 0.2
        assert abs(artifact.model.diff_poly[0] - 0.5) < 0.2
        assert artifact.train_window == (0.0, 0.5)
        assert "n_evaluations=" in report
        assert "converged=" in report
        assert "tool_version=" in report
        loaded = load_artifact(out / "artifact.json")
        assert loaded.model.drift_poly == artifact.model.drift_poly

    def test_workflow_train_converges_below_its_budget(self, tmp_path):
        # the loss at 513 nodes carries ~1e-13 of rounding noise, which a
        # value tolerance below it never lets the search stop on
        ens = simulate(
            SdeSpec("constant", (1.0,), "constant", (1.0,)),
            SimPlan(n_trajectories=2000, dt=0.01, horizon=2.0, stride=10, seed=31),
        )
        write_ensemble_csv(ens, tmp_path / "ensemble.csv")
        config = RunConfig.from_dict({
            "input": {"mode": "ensemble", "path": str(tmp_path / "ensemble.csv")},
            "grid": {"x_min": -6.0, "x_max": 10.0, "n_points": 513},
            "split": {"train_end": 1.0, "truncate_start": 0.5},
            "solver": {"dt": 0.05},
            "optimizer": "nelder_mead",
            "budget": 200,
            "bounds": [[-2.0, 2.0], [1e-4, 2.0]],
        })
        artifact, report = run_train(config, output_dir=tmp_path / "out")
        items = dict(line.split("=", 1) for line in report.splitlines() if "=" in line)
        assert items["converged"] == "True"
        assert int(items["n_evaluations"]) < 200
        assert abs(artifact.model.drift_poly[0] - 1.0) < 0.1
        assert abs(artifact.model.diff_poly[0] - 0.5) < 0.1

    def test_search_starts_from_the_clipped_moment_estimate(
        self, workspace, tmp_path, monkeypatch
    ):
        config = ensemble_config(workspace, bounds=[[-2.0, 0.9], [1e-4, 2.0]])
        estimate = moment_regression(config, split(ingest(config), config.train_end)[0])
        assert estimate.drift_poly[0] > 0.9
        starts = []
        search = fprom.pipeline.calibrate

        def recording(problem, **kwargs):
            starts.append(kwargs["start"].tolist())
            return search(problem, **kwargs)

        monkeypatch.setattr(fprom.pipeline, "calibrate", recording)
        _, report = run_train(config, output_dir=tmp_path / "out")
        assert starts == [[0.9, estimate.diff_poly[0]]]
        assert "start=moment_regression" in report.splitlines()

    def test_a_training_set_moment_regression_refuses_starts_at_the_midpoint(
        self, workspace, tmp_path
    ):
        # two training levels are too few for a degree-1 drift fit
        config = densities_config(workspace, split={"train_end": 1.5}, drift_degree=1)
        training, _ = split(ingest(config), config.train_end)
        with pytest.raises(InfeasibleConfigError, match="fit window holds 2 points"):
            moment_regression(config, training)
        artifact, report = run_train(config, output_dir=tmp_path / "out")
        assert "start=midpoint" in report.splitlines()
        assert load_artifact(tmp_path / "out" / "artifact.json").model == artifact.model

    def test_multistart_reports_no_start(self, workspace, tmp_path):
        config = densities_config(workspace, optimizer="random_multistart_nelder_mead")
        _, report = run_train(config, output_dir=tmp_path / "out")
        assert "converged=" in report
        assert not [line for line in report.splitlines() if line.startswith("start=")]

    def test_moment_regression_branch(self, workspace, tmp_path):
        config = ensemble_config(workspace, method="moment_regression")
        artifact, report = run_train(config, output_dir=tmp_path / "mr")
        assert abs(artifact.model.drift_poly[0] - 1.0) < 0.15
        assert abs(artifact.model.diff_poly[0] - 0.5) < 0.15
        assert "n_evaluations=" not in report
        assert "loss=" in report

    def test_fit_window_from_the_config(self, workspace, tmp_path):
        # the training levels are t = 0, 0.25 and 0.5; the window drops t = 0
        config = ensemble_config(
            workspace, method="moment_regression", fit_window=[0.25, 0.5]
        )
        assert "fit_window" not in config.defaulted
        artifact, report = run_train(config, output_dir=tmp_path / "fw")
        assert "fit_window=[0.25, 0.5]" in report.splitlines()
        series = moment_series(split(ingest(config), config.train_end)[0])
        assert artifact.model == regress_time_only_coefficients(series, (0.25, 0.5))
        assert artifact.model != regress_time_only_coefficients(series, (0.0, 0.5))

    def test_density_list_moment_regression(self, tmp_path):
        # the benchmark's calibrate_tv Gaussians: mean 0.8 t + 0.3 t^2 and
        # variance 0.25 + 0.5 t, so drift 0.8 + 0.6 t and diffusion 0.25
        grid = Grid(-6.0, 10.0, 513)
        lines = ["time,path"]
        for k in range(21):
            t = round(0.1 * k, 10)
            var = 0.25 + 0.5 * t
            values = np.exp(-0.5 * (grid.nodes - 0.8 * t - 0.3 * t * t) ** 2 / var)
            write_density_csv(
                DensityField.normalized(grid, values, t), tmp_path / f"d{k:02d}.csv"
            )
            lines.append(f"{t!r},d{k:02d}.csv")
        (tmp_path / "densities.csv").write_text("\n".join(lines) + "\n")
        config = RunConfig.from_dict({
            "input": {"mode": "densities", "path": str(tmp_path / "densities.csv")},
            "grid": {"x_min": -6.0, "x_max": 10.0, "n_points": 513},
            "split": {"train_end": 1.0},
            "solver": {"dt": 0.025},
            "method": "moment_regression",
            "drift_degree": 1,
        })
        artifact, _ = run_train(config, output_dir=tmp_path / "out")
        assert np.allclose(artifact.model.drift_poly, (0.8, 0.6), rtol=0.0, atol=1e-12)
        assert np.allclose(artifact.model.diff_poly, (0.25,), rtol=0.0, atol=1e-12)

    def test_density_inputs_train(self, workspace, tmp_path):
        config = densities_config(workspace)
        artifact, _ = run_train(config, output_dir=tmp_path / "dens")
        assert abs(artifact.model.drift_poly[0]) < 0.1
        assert abs(artifact.model.diff_poly[0] - 0.5) < 0.1

    def test_repeated_runs_are_byte_identical(self, workspace, tmp_path):
        config = ensemble_config(workspace)
        a, b = tmp_path / "a", tmp_path / "b"
        run_train(config, output_dir=a)
        run_train(config, output_dir=b)
        assert (a / "artifact.json").read_bytes() == (b / "artifact.json").read_bytes()
        assert (a / "run_report.txt").read_bytes() == (b / "run_report.txt").read_bytes()


class TestRunPredict:
    def make_artifact(self):
        grid = Grid(-6.0, 10.0, 513)
        return RomArtifact(
            model=CoefficientModel(drift_poly=(1.0,), diff_poly=(0.5,)),
            transform=TransformSpec("identity"),
            initial_density=drift_diffusion_density(grid, 1.0, 1.0, 0.5),
            train_window=(0.5, 1.0),
            method="loss_minimization",
            loss=0.0,
            seed=0,
        )

    def test_matches_oracle_beyond_training(self, tmp_path):
        artifact = self.make_artifact()
        solver = SolverConfig(dt=0.05)
        densities, reconstructed = run_predict(
            artifact, horizon=2.0, record_times=(1.5, 2.0), solver=solver,
            output_dir=tmp_path,
        )
        assert reconstructed == []
        for f in densities:
            oracle = drift_diffusion_density(artifact.grid, f.time_stamp, 1.0, 0.5)
            assert l1_distance(f, oracle) < 5e-3
        manifest = (tmp_path / "predicted_manifest.csv").read_text().splitlines()
        assert manifest[0] == "time,path"
        assert len(manifest) == 3
        on_disk = read_density_csv(tmp_path / "predicted_0000.csv", time_stamp=1.5)
        assert np.array_equal(on_disk.values, densities[0].values)

    def test_horizon_must_extend_training(self):
        artifact = self.make_artifact()
        with pytest.raises(InfeasibleConfigError, match="beyond"):
            run_predict(
                artifact, horizon=1.0, record_times=(1.0,),
                solver=SolverConfig(dt=0.05),
            )

    def test_record_times_capped_by_horizon(self):
        artifact = self.make_artifact()
        with pytest.raises(InfeasibleConfigError, match="exceed the horizon"):
            run_predict(
                artifact, horizon=1.5, record_times=(1.2, 2.0),
                solver=SolverConfig(dt=0.05),
            )

    def test_no_files_without_output_dir(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv(ENV_OUTPUT_DIR, raising=False)
        artifact = self.make_artifact()
        run_predict(
            artifact, horizon=1.5, record_times=(1.5,),
            solver=SolverConfig(dt=0.05),
        )
        assert not (tmp_path / "predicted_manifest.csv").exists()

    def test_env_var_directs_output(self, tmp_path, monkeypatch):
        target = tmp_path / "from_env"
        monkeypatch.setenv(ENV_OUTPUT_DIR, str(target))
        artifact = self.make_artifact()
        run_predict(
            artifact, horizon=1.5, record_times=(1.5,),
            solver=SolverConfig(dt=0.05),
        )
        assert (target / "predicted_manifest.csv").exists()

    def test_log_transform_reconstructs_original_units(self, tmp_path):
        grid = Grid(-3.0, 3.0, 257)
        artifact = RomArtifact(
            model=CoefficientModel(drift_poly=(0.0,), diff_poly=(0.05,)),
            transform=TransformSpec("log_x"),
            initial_density=gaussian_density(grid, 0.0, 0.25, 1.0),
            train_window=(0.5, 1.0),
            method="loss_minimization",
            loss=0.0,
            seed=1,
        )
        densities, reconstructed = run_predict(
            artifact, horizon=1.5, record_times=(1.5,),
            solver=SolverConfig(dt=0.05), output_dir=tmp_path,
        )
        assert len(reconstructed) == 1
        rec = reconstructed[0]
        assert rec.grid.x_min == pytest.approx(np.exp(-3.0))
        assert rec.grid.x_max == pytest.approx(np.exp(3.0))
        assert rec.mass == pytest.approx(1.0, abs=1e-12)
        assert (tmp_path / "reconstructed_manifest.csv").exists()
        assert (tmp_path / "reconstructed_0000.csv").exists()


class TestRunValidate:
    def make_artifact(self):
        grid = Grid(-6.0, 10.0, 513)
        return RomArtifact(
            model=CoefficientModel(drift_poly=(1.0,), diff_poly=(0.5,)),
            transform=TransformSpec("identity"),
            initial_density=drift_diffusion_density(grid, 1.0, 1.0, 0.5),
            train_window=(0.5, 1.0),
            method="loss_minimization",
            loss=0.0,
            seed=0,
        )

    def test_oracle_testing_scores_near_zero(self, tmp_path):
        artifact = self.make_artifact()
        testing = [
            drift_diffusion_density(artifact.grid, t, 1.0, 0.5) for t in (1.5, 2.0)
        ]
        rows = run_validate(
            artifact, testing, SolverConfig(dt=0.05), output_dir=tmp_path
        )
        assert [t for t, _, _ in rows] == [1.5, 2.0]
        assert all(kl < 1e-4 for _, kl, _ in rows)
        assert all(l1 < 5e-3 for _, _, l1 in rows)
        lines = (tmp_path / "metrics.csv").read_text().splitlines()
        assert lines[0] == "time,kl,l1"
        assert len(lines) == 4
        t, kl, l1 = rows[-1]
        assert lines[-1] == f"final,{kl!r},{l1!r}"

    def test_off_grid_fields_are_regridded_with_notice(self, caplog):
        artifact = self.make_artifact()
        fine = Grid(-6.0, 10.0, 1025)
        testing = [drift_diffusion_density(fine, 1.5, 1.0, 0.5)]
        with caplog.at_level(logging.INFO, logger="fprom.pipeline"):
            rows = run_validate(artifact, testing, SolverConfig(dt=0.05))
        assert "re-gridding" in caplog.text
        assert rows[0][1] < 1e-4

    def test_ensemble_testing_uses_kde(self):
        artifact = self.make_artifact()
        rng = np.random.Generator(np.random.Philox(key=[33, 0]))
        times = np.array([1.5, 2.0])
        cols = [
            rng.normal(loc=t, scale=np.sqrt(2.0 * 0.5 * t), size=4000)
            for t in times
        ]
        testing = TrajectoryEnsemble(
            times=times, samples=np.column_stack(cols)
        )
        rows = run_validate(artifact, testing, SolverConfig(dt=0.05))
        assert all(kl < 0.05 for _, kl, _ in rows)

    def test_rows_equal_the_per_pair_scores_bitwise(self):
        # an initial mass 5e-4 above 1 stays in every predicted row, so a
        # prediction renormalised as the test level scores a raw KL < 0
        artifact = self.make_artifact()
        f0 = artifact.initial_density
        heavy = DensityField(grid=f0.grid, values=f0.values * (1 + 5e-4), time_stamp=1.0)
        artifact = replace(artifact, initial_density=heavy)
        solver = SolverConfig(dt=0.05)
        times = (1.5, 2.0, 2.5)
        predicted = solve(heavy, artifact.model, replace(solver, record_times=times)).snapshots
        testing = [
            DensityField.normalized(q.grid, q.values, q.time_stamp) for q in predicted[:2]
        ] + [drift_diffusion_density(Grid(-6.0, 10.0, 1025), 2.5, 1.0, 0.5)]
        prepared = testing[:2] + [fprom.pipeline._regrid(testing[2], artifact.grid)]
        x = artifact.grid.nodes
        assert kl_divergence_rows(testing[0].values[None], predicted[0].values[None], x)[0] < 0
        expected = [
            (p.time_stamp, kl_divergence(p, q), l1_distance(p, q))
            for p, q in zip(prepared, predicted)
        ]
        rows = run_validate(artifact, testing, solver)
        assert expected[0][1] == 0.0
        assert np.array(rows).tobytes() == np.array(expected).tobytes()

    def test_empty_testing_rejected(self):
        artifact = self.make_artifact()
        with pytest.raises(InfeasibleConfigError, match="empty"):
            run_validate(artifact, [], SolverConfig(dt=0.05))

    def test_unordered_testing_rejected(self):
        artifact = self.make_artifact()
        testing = [
            drift_diffusion_density(artifact.grid, t, 1.0, 0.5) for t in (2.0, 1.5)
        ]
        with pytest.raises(InfeasibleConfigError, match="time order"):
            run_validate(artifact, testing, SolverConfig(dt=0.05))


_SIDECAR_CASES = {
    # workflow: point start, constant coefficients, identity coordinates
    "workflow": (
        {
            "drift": {"kind": "constant", "params": [1.0]},
            "noise": {"kind": "constant", "params": [1.0]},
            "x0": {"kind": "point", "params": [0.0]},
        },
        {"transform": "identity", "grid": {"x_min": -6.0, "x_max": 10.0, "n_points": 129}},
    ),
    # lognormal: normal start, linear_in_x coefficients, log coordinates
    "lognormal": (
        {
            "drift": {"kind": "linear_in_x", "params": [0.0, 0.3]},
            "noise": {"kind": "linear_in_x", "params": [0.0, 0.4]},
            "x0": {"kind": "normal", "params": [1.0, 0.1]},
        },
        {"transform": "log_x", "grid": {"x_min": -4.0, "x_max": 4.0, "n_points": 129}},
    ),
}


@pytest.fixture(params=sorted(_SIDECAR_CASES))
def simulated(request, tmp_path):
    """`fprom simulate` output (CSV and sidecar) plus a run config for it."""
    sim, run = _SIDECAR_CASES[request.param]
    sim = dict(sim, n_trajectories=300, dt=0.01, horizon=2.0, stride=25, seed=31)
    (tmp_path / "sim.json").write_text(json.dumps(sim))
    csv_path = tmp_path / "ensemble.csv"
    assert main(["simulate", "--config", str(tmp_path / "sim.json"),
                 "--output", str(csv_path)]) == 0
    run = dict(
        run,
        input={"mode": "ensemble", "path": "ensemble.csv"},
        split={"train_end": 1.0, "truncate_start": 0.5},
        solver={"dt": 0.05},
        method="moment_regression",
        seed=31,
    )
    (tmp_path / "run.json").write_text(json.dumps(run))
    return tmp_path


def _npz(path):
    with np.load(path, allow_pickle=False) as npz:
        return {name: npz[name] for name in npz.files}


def _parsed(root):
    """What ingest returns when it parses the CSV itself."""
    config = RunConfig.from_file(root / "run.json")
    times, samples = _read_ensemble_arrays(root / "ensemble.csv")
    tf = config.transform
    return tf.forward_t(times), tf.forward_x(samples)


def _assert_bitwise(ens, times, samples):
    assert ens.times.dtype == times.dtype and ens.samples.dtype == samples.dtype
    assert ens.times.tobytes() == times.tobytes()
    assert ens.samples.tobytes() == samples.tobytes()


class TestEnsembleSidecar:
    def test_sidecar_equals_the_csv_parse_bitwise(self, simulated):
        csv_path = simulated / "ensemble.csv"
        cached = _npz(simulated / "ensemble.csv.npz")
        assert sorted(cached) == ["samples", "sha256", "times"]
        assert str(cached["sha256"]) == hashlib.sha256(csv_path.read_bytes()).hexdigest()
        times, samples = _read_ensemble_arrays(csv_path)
        assert cached["times"].tobytes() == times.tobytes()
        assert cached["samples"].tobytes() == samples.tobytes()
        assert cached["samples"].shape == (300, 9)
        _assert_bitwise(ingest(RunConfig.from_file(simulated / "run.json")),
                        *_parsed(simulated))

    def test_matching_sidecar_is_loaded_instead_of_parsing(self, simulated, monkeypatch):
        expected = _parsed(simulated)

        def no_parse(path):
            raise AssertionError("the CSV was parsed")

        monkeypatch.setattr(fprom.langevin, "_read_ensemble_arrays", no_parse)
        _assert_bitwise(ingest(RunConfig.from_file(simulated / "run.json")), *expected)

    def test_edited_csv_is_parsed(self, simulated):
        csv_path = simulated / "ensemble.csv"
        sidecar = (simulated / "ensemble.csv.npz").read_bytes()
        lines = csv_path.read_text().splitlines()
        traj, t, _ = lines[5].split(",")
        lines[5] = f"{traj},{t},2.5"
        csv_path.write_text("\n".join(lines) + "\n")
        assert _read_ensemble_arrays(csv_path)[1][0, 4] == 2.5
        _assert_bitwise(ingest(RunConfig.from_file(simulated / "run.json")),
                        *_parsed(simulated))
        # ingest reads the sidecar but never rewrites it
        assert (simulated / "ensemble.csv.npz").read_bytes() == sidecar

    @pytest.mark.parametrize(
        "damage",
        ["missing", "empty", "truncated_header", "truncated_half", "truncated_tail",
         "not_a_zip", "samples_transposed", "samples_flat", "times_2d",
         "integer_samples", "pickled_samples", "no_digest", "no_samples"],
    )
    def test_broken_sidecar_gives_the_csv_parse(self, simulated, damage):
        path = simulated / "ensemble.csv.npz"
        raw = path.read_bytes()
        arrays = _npz(path)
        if damage == "missing":
            path.unlink()
        elif damage == "empty":
            path.write_bytes(b"")
        elif damage.startswith("truncated"):
            cut = {"truncated_header": 20, "truncated_half": len(raw) // 2,
                   "truncated_tail": len(raw) - 10}[damage]
            path.write_bytes(raw[:cut])
        elif damage == "not_a_zip":
            path.write_bytes(b"traj_id,t,x\n" + raw)
        else:
            samples, times = arrays["samples"], arrays["times"]
            changed = {
                "samples_transposed": {"samples": np.ascontiguousarray(samples.T)},
                "samples_flat": {"samples": samples.ravel()},
                "times_2d": {"times": times[None, :]},
                "integer_samples": {"samples": samples.astype(np.int64)},
                "pickled_samples": {"samples": samples.astype(object)},
                "no_digest": {"sha256": None},
                "no_samples": {"samples": None},
            }[damage]
            arrays.update(changed)
            with open(path, "wb") as fh:
                np.savez(fh, **{k: v for k, v in arrays.items() if v is not None})
        _assert_bitwise(ingest(RunConfig.from_file(simulated / "run.json")),
                        *_parsed(simulated))
        csv_path = simulated / "ensemble.csv"
        for got, parsed in zip(read_ensemble(csv_path), _read_ensemble_arrays(csv_path)):
            assert got.dtype == parsed.dtype and got.shape == parsed.shape
            assert got.tobytes() == parsed.tobytes()

    def test_ingest_never_writes_a_sidecar(self, simulated):
        (simulated / "ensemble.csv.npz").unlink()
        ingest(RunConfig.from_file(simulated / "run.json"))
        assert not (simulated / "ensemble.csv.npz").exists()

    def test_outputs_are_byte_identical_without_the_sidecar(self, simulated):
        run = str(simulated / "run.json")
        for out in ("cached", "parsed"):
            if out == "parsed":
                (simulated / "ensemble.csv.npz").unlink()
            artifact = str(simulated / out / "artifact.json")
            for argv in (
                ["train", "--config", run],
                ["predict", "--artifact", artifact, "--horizon", "2.0",
                 "--times", "1.5,2.0", "--dt", "0.05"],
                ["validate", "--artifact", artifact, "--config", run],
            ):
                assert main([*argv, "--output-dir", str(simulated / out)]) == 0
        names = sorted(p.name for p in (simulated / "cached").iterdir())
        assert {"artifact.json", "run_report.txt", "metrics.csv"} <= set(names)
        assert names == sorted(p.name for p in (simulated / "parsed").iterdir())
        for name in names:
            cached = (simulated / "cached" / name).read_bytes()
            assert cached == (simulated / "parsed" / name).read_bytes()
