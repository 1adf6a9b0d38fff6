import ast
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fprom import CoefficientModel, Grid, RomArtifact, RunConfig, SimPlan
from fprom.analytic import drift_diffusion_density, gaussian_density
from fprom.density import read_density_csv, write_density_csv
from fprom.sampling import TransformSpec
from fprom._version import __version__
from fprom.cli import COMMANDS, _simulate_inputs, build_parser, main
import fprom.pipeline
from fprom.pipeline import ENV_OUTPUT_DIR, load_artifact, save_artifact


@pytest.fixture(autouse=True)
def isolated_env(monkeypatch, tmp_path):
    """Keep default outputs away from the repository checkout."""
    monkeypatch.delenv(ENV_OUTPUT_DIR, raising=False)
    monkeypatch.chdir(tmp_path)


@pytest.fixture(scope="module")
def cli_workspace(tmp_path_factory):
    """Simulation config, simulated ensemble, and run configs on disk."""
    root = tmp_path_factory.mktemp("cli_inputs")
    sim = {
        "drift": {"kind": "constant", "params": [1.0]},
        "noise": {"kind": "constant", "params": [1.0]},
        "n_trajectories": 400,
        "dt": 0.01,
        "horizon": 1.0,
        "stride": 25,
        "x0": {"kind": "normal", "params": [0.0, 0.3]},
        "seed": 11,
    }
    (root / "sim.json").write_text(json.dumps(sim))
    code = main(
        [
            "simulate",
            "--config",
            str(root / "sim.json"),
            "--output",
            str(root / "ensemble.csv"),
        ]
    )
    assert code == 0
    run = {
        "input": {"mode": "ensemble", "path": "ensemble.csv"},
        "grid": {"x_min": -5.0, "x_max": 6.0, "n_points": 129},
        "split": {"train_end": 0.5},
        "solver": {"dt": 0.05},
        "method": "moment_regression",
        "optimizer": "nelder_mead",
        "budget": 60,
        "seed": 3,
    }
    (root / "run.json").write_text(json.dumps(run))
    return root


class TestVersionAndParser:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.strip() == f"fprom {__version__}"

    def test_subcommand_required(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "args",
        (["--help"], [], ["--config"], ["--config", "c.json", "--bogus"], ["--seed", "x"]),
        ids=("help", "missing_flags", "flag_without_value", "unknown_flag", "bad_value"),
    )
    @pytest.mark.parametrize("command", COMMANDS)
    def test_one_command_parser_answers_as_the_full_one(self, command, args, capsys):
        # main builds only the named command's subparser
        outcomes = []
        for parse in (build_parser().parse_args, main):
            with pytest.raises(SystemExit) as exc:
                parse([command, *args])
            outcomes.append((exc.value.code, *capsys.readouterr()))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0] == (0 if args == ["--help"] else 2)


class TestSimulate:
    def test_writes_default_name_in_output_dir(self, cli_workspace, tmp_path, capsys):
        out = tmp_path / "sims"
        code = main(
            [
                "simulate",
                "--config",
                str(cli_workspace / "sim.json"),
                "--output-dir",
                str(out),
            ]
        )
        assert code == 0
        assert (out / "ensemble.csv").exists()
        assert "wrote" in capsys.readouterr().out

    def test_seed_override_changes_samples(self, cli_workspace, tmp_path):
        base = cli_workspace / "ensemble.csv"
        args = ["simulate", "--config", str(cli_workspace / "sim.json")]
        assert main(args + ["--output", str(tmp_path / "same.csv")]) == 0
        assert main(args + ["--output", str(tmp_path / "other.csv"), "--seed", "99"]) == 0
        same = (tmp_path / "same.csv").read_bytes()
        assert same == base.read_bytes()
        assert same != (tmp_path / "other.csv").read_bytes()

    @pytest.mark.parametrize("seed", [-1, 2**63, 2**64])
    def test_seed_outside_key_range_exits_4(self, cli_workspace, tmp_path, capsys, seed):
        raw = json.loads((cli_workspace / "sim.json").read_text())
        raw["seed"] = seed
        (tmp_path / "sim.json").write_text(json.dumps(raw))
        out = tmp_path / "ens.csv"
        # the flag is not read from the file, so only the file's seed names it
        for args, where in (
            (["--config", str(cli_workspace / "sim.json"), "--seed", str(seed)], ""),
            (["--config", str(tmp_path / "sim.json")], f"{tmp_path / 'sim.json'}: "),
        ):
            assert main(["simulate", *args, "--output", str(out)]) == 4
            assert capsys.readouterr().err == f"error: {where}seed must be in [0, 2**63)\n"
        assert not out.exists()

    def test_output_too_large_to_allocate_exits_4(self, cli_workspace, tmp_path, capsys):
        # 1,000 trajectories by 1e12 + 1 record times: 7.1 PiB
        raw = json.loads((cli_workspace / "sim.json").read_text())
        raw.update(n_trajectories=1000, dt=0.001, horizon=1e12, stride=1000)
        (tmp_path / "sim.json").write_text(json.dumps(raw))
        out = tmp_path / "ens.csv"
        assert main(["simulate", "--config", str(tmp_path / "sim.json"), "--output", str(out)]) == 4
        assert capsys.readouterr().err.startswith(
            f"error: {tmp_path / 'sim.json'}: n_trajectories 1000 by horizon 1000000000000.0 / "
            "dt 0.001 / stride 1000 + 1 record times cannot be allocated: Unable to allocate 7.11 PiB"
        )
        assert not out.exists()

    def test_negative_noise_amplitude_exits_4(self, cli_workspace, tmp_path, capsys):
        # simulate itself finds the amplitude negative, after the config is read
        raw = json.loads((cli_workspace / "sim.json").read_text())
        raw["noise"] = {"kind": "constant", "params": [-0.7]}
        raw["x0"] = {"kind": "point", "params": [0.5]}
        (tmp_path / "sim.json").write_text(json.dumps(raw))
        out = tmp_path / "ens.csv"
        assert main(["simulate", "--config", str(tmp_path / "sim.json"), "--output", str(out)]) == 4
        assert capsys.readouterr().err == (
            f"error: {tmp_path / 'sim.json'}: noise amplitude negative (-0.7) at t=0.0, x=0.5\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "key, value",
        [("n_trajectories", 2.9), ("stride", 2.5), ("seed", True), ("seed", 1.7)],
    )
    def test_non_integral_count_exits_4(self, cli_workspace, tmp_path, capsys, key, value):
        raw = json.loads((cli_workspace / "sim.json").read_text())
        raw[key] = value
        (tmp_path / "sim.json").write_text(json.dumps(raw))
        out = tmp_path / "ens.csv"
        assert main(["simulate", "--config", str(tmp_path / "sim.json"), "--output", str(out)]) == 4
        assert capsys.readouterr().err == (
            f"error: {tmp_path / 'sim.json'}: {key} must be an integer, got {value!r}\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("dt", [0.01], "dt must be a number, got [0.01]"),
            ("horizon", None, "horizon must be a number, got None"),
            (
                "drift",
                {"kind": "constant", "params": [[1.0]]},
                "drift.params[0] must be a number, got [1.0]",
            ),
            (
                "noise",
                {"kind": "constant", "params": 1.0},
                "noise.params must be a list of numbers, got 1.0",
            ),
            (
                "x0",
                {"kind": "normal", "params": [0.0, "wide"]},
                "x0.params[1] must be a number, got 'wide'",
            ),
        ],
    )
    def test_non_numeric_field_exits_2(
        self, cli_workspace, tmp_path, capsys, key, value, message
    ):
        raw = json.loads((cli_workspace / "sim.json").read_text())
        raw[key] = value
        path = tmp_path / "sim.json"
        path.write_text(json.dumps(raw))
        out = tmp_path / "ens.csv"
        assert main(["simulate", "--config", str(path), "--output", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {path}: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("horizon", None, "config section needs horizon"),
            ("drift", None, "config is missing the 'drift' section"),
            ("volatility", 2.0, "unknown config key(s): volatility"),
            ("drift", {"kind": "constant"}, "drift section needs params"),
            ("noise", {"kind": "constant", "params": [1.0], "scale": 2}, "unknown noise key(s): scale"),
            ("x0", [0.0, 1.0], "x0 must be a JSON object"),
        ],
    )
    def test_key_errors_name_the_file(
        self, cli_workspace, tmp_path, capsys, key, value, message
    ):
        raw = json.loads((cli_workspace / "sim.json").read_text())
        if value is None:
            del raw[key]
        else:
            raw[key] = value
        path = tmp_path / "sim.json"
        path.write_text(json.dumps(raw))
        out = tmp_path / "ens.csv"
        assert main(["simulate", "--config", str(path), "--output", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {path}: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("kind", (["constant"], {}, 3, None), ids=("list", "object", "number", "null"))
    @pytest.mark.parametrize("section", ("drift", "noise", "x0"))
    def test_non_string_kind_exits_2(self, cli_workspace, tmp_path, capsys, section, kind):
        raw = json.loads((cli_workspace / "sim.json").read_text())
        raw[section]["kind"] = kind
        path = tmp_path / "sim.json"
        path.write_text(json.dumps(raw))
        out = tmp_path / "ens.csv"
        assert main(["simulate", "--config", str(path), "--output", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: {section}.kind must be a string, got {kind!r}\n"
        )
        assert not out.exists()

    def test_left_out_keys_take_simplan_defaults(self, cli_workspace):
        raw = json.loads((cli_workspace / "sim.json").read_text())
        for key in ("stride", "seed", "x0"):
            del raw[key]
        _, plan = _simulate_inputs(raw, "sim.json")
        assert plan == SimPlan(
            n_trajectories=raw["n_trajectories"], dt=raw["dt"], horizon=raw["horizon"]
        )
        defaults = {f.name: f.default for f in dataclasses.fields(SimPlan)}
        assert (plan.stride, plan.seed, plan.x0_kind, plan.x0_params) == (
            defaults["stride"], defaults["seed"], defaults["x0_kind"], defaults["x0_params"]
        )

    def test_unknown_key_exits_2(self, tmp_path, capsys):
        path = tmp_path / "sim.json"
        path.write_text('{"drift": 1, "volatility": 2}')
        assert main(["simulate", "--config", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_config_exits_2(self, tmp_path, capsys):
        assert main(["simulate", "--config", str(tmp_path / "nope.json")]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("horizon", [float("inf"), float("nan")])
    def test_horizon_without_a_finite_step_count_exits_4(
        self, cli_workspace, tmp_path, capsys, horizon
    ):
        raw = json.loads((cli_workspace / "sim.json").read_text())
        raw["horizon"] = horizon  # written as the JSON extension Infinity or NaN
        path = tmp_path / "sim.json"
        path.write_text(json.dumps(raw))
        out = tmp_path / "ens.csv"
        assert main(["simulate", "--config", str(path), "--output", str(out)]) == 4
        assert capsys.readouterr().err == (
            f"error: {path}: horizon / dt must be finite, got horizon {horizon} and dt 0.01\n"
        )
        assert not out.exists()


class TestEstimate:
    def test_writes_report(self, cli_workspace, tmp_path, capsys):
        out = tmp_path / "est"
        code = main(
            [
                "estimate",
                "--config",
                str(cli_workspace / "run.json"),
                "--output-dir",
                str(out),
            ]
        )
        assert code == 0
        report = (out / "estimate_report.txt").read_text()
        assert "drift_poly=" in report
        assert "n_training_times=3" in report
        assert "drift_poly=" in capsys.readouterr().out

    def test_matches_moment_regression_train(self, cli_workspace, tmp_path, capsys):
        """estimate and train with method moment_regression run one fit."""
        config = str(cli_workspace / "run.json")
        printed = {}
        for command, report in (
            ("estimate", "estimate_report.txt"),
            ("train", "run_report.txt"),
        ):
            out = tmp_path / command
            assert main([command, "--config", config, "--output-dir", str(out)]) == 0
            lines = capsys.readouterr().out.splitlines()
            lines += (out / report).read_text().splitlines()
            printed[command] = [
                line
                for line in lines
                if line.startswith(("drift_poly=", "diff_poly=", "n_training_times="))
            ]
        assert len(printed["estimate"]) == 5
        assert printed["estimate"] == printed["train"]

    def test_rejects_density_inputs(self, tmp_path, capsys):
        grid = Grid(-8.0, 8.0, 129)
        write_density_csv(gaussian_density(grid, 0.0, 1.0, 1.0), tmp_path / "d0.csv")
        write_density_csv(gaussian_density(grid, 0.0, 2.0, 2.0), tmp_path / "d1.csv")
        (tmp_path / "manifest.csv").write_text("1.0,d0.csv\n2.0,d1.csv\n")
        raw = {
            "input": {"mode": "densities", "path": "manifest.csv"},
            "grid": {"x_min": -8.0, "x_max": 8.0, "n_points": 129},
            "split": {"train_end": 1.0},
            "solver": {"dt": 0.05},
        }
        (tmp_path / "run.json").write_text(json.dumps(raw))
        assert main(["estimate", "--config", str(tmp_path / "run.json")]) == 4
        assert "ensemble" in capsys.readouterr().err


class TestTrainAndCalibrate:
    def test_train_writes_artifact(self, cli_workspace, tmp_path, capsys):
        out = tmp_path / "trained"
        code = main(
            [
                "train",
                "--config",
                str(cli_workspace / "run.json"),
                "--output-dir",
                str(out),
            ]
        )
        assert code == 0
        artifact = load_artifact(out / "artifact.json")
        assert artifact.method == "moment_regression"
        assert (out / "run_report.txt").exists()
        stdout = capsys.readouterr().out
        assert "artifact written to" in stdout
        assert "loss=" in stdout

    def test_calibrate_alias_forces_loss_minimization(
        self, cli_workspace, tmp_path
    ):
        out = tmp_path / "calibrated"
        code = main(
            [
                "calibrate",
                "--config",
                str(cli_workspace / "run.json"),
                "--output-dir",
                str(out),
            ]
        )
        assert code == 0
        artifact = load_artifact(out / "artifact.json")
        assert artifact.method == "loss_minimization"
        assert "n_evaluations=" in (out / "run_report.txt").read_text()

    def test_unknown_config_key_exits_2(self, cli_workspace, tmp_path, capsys):
        raw = json.loads((cli_workspace / "run.json").read_text())
        raw["mystery"] = 1
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw))
        assert main(["train", "--config", str(path)]) == 2
        assert "unknown config key" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", [-1, 2**63, 2**64])
    def test_seed_outside_key_range_exits_4(self, cli_workspace, tmp_path, capsys, seed):
        raw = json.loads((cli_workspace / "run.json").read_text())
        raw["input"]["path"] = str(cli_workspace / "ensemble.csv")
        (tmp_path / "run.json").write_text(json.dumps(raw))
        raw["seed"] = seed
        (tmp_path / "bad.json").write_text(json.dumps(raw))
        out = tmp_path / "out"
        for args, where in (
            (["--config", str(tmp_path / "run.json"), "--seed", str(seed)], ""),
            (["--config", str(tmp_path / "bad.json")], f"{tmp_path / 'bad.json'}: "),
        ):
            assert main(["train", *args, "--output-dir", str(out)]) == 4
            assert capsys.readouterr().err == f"error: {where}seed must be in [0, 2**63)\n"
        assert not (out / "artifact.json").exists()

    @pytest.mark.parametrize(
        "path, value, message",
        [
            (("grid", "n_points"), 512.7, "n_points must be an integer, got 512.7"),
            (("budget",), 200.9, "budget must be an integer, got 200.9"),
            (("seed",), True, "seed must be an integer, got True"),
            (("seed",), 1.7, "seed must be an integer, got 1.7"),
        ],
    )
    def test_non_integral_count_exits_4(
        self, cli_workspace, tmp_path, capsys, path, value, message
    ):
        raw = json.loads((cli_workspace / "run.json").read_text())
        raw["input"]["path"] = str(cli_workspace / "ensemble.csv")
        section = raw
        for key in path[:-1]:
            section = section[key]
        section[path[-1]] = value
        (tmp_path / "bad.json").write_text(json.dumps(raw))
        out = tmp_path / "out"
        assert main(["train", "--config", str(tmp_path / "bad.json"), "--output-dir", str(out)]) == 4
        assert capsys.readouterr().err == f"error: {tmp_path / 'bad.json'}: {message}\n"
        assert not (out / "artifact.json").exists()

    @pytest.mark.parametrize("command", ["train", "estimate"])
    @pytest.mark.parametrize(
        "key, value, message",
        [
            # tikhonov_smooth refuses 0, but only after ingest and the KDE
            ("smoothing_lambda", 0.0, "smoothing_lambda must be finite and > 0"),
            (
                "optimizer",
                "nelder_meed",
                "optimizer must be one of ('nelder_mead', "
                "'random_multistart_nelder_mead'), got 'nelder_meed'",
            ),
            ("distance", "kll", "distance must be one of ('kl', 'l2'), got 'kll'"),
        ],
        ids=["smoothing_lambda", "optimizer", "distance"],
    )
    def test_setting_outside_its_domain_exits_4(
        self, cli_workspace, tmp_path, capsys, command, key, value, message
    ):
        # moment regression uses neither optimizer nor distance, yet a
        # typo in them is refused rather than echoed into the report
        raw = json.loads((cli_workspace / "run.json").read_text())
        raw["input"]["path"] = str(cli_workspace / "ensemble.csv")
        raw[key] = value
        (tmp_path / "bad.json").write_text(json.dumps(raw))
        out = tmp_path / "out"
        assert main([command, "--config", str(tmp_path / "bad.json"), "--output-dir", str(out)]) == 4
        assert capsys.readouterr().err == f"error: {tmp_path / 'bad.json'}: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "path, value, message",
        [
            (("split", "train_end"), [0.5], "split.train_end must be a number, got [0.5]"),
            (("split", "truncate_start"), {}, "split.truncate_start must be a number, got {}"),
            (("solver", "dt"), "fast", "solver.dt must be a number, got 'fast'"),
            (("grid", "x_min"), None, "grid.x_min must be a number, got None"),
            (("smoothing_lambda",), [1e-6], "smoothing_lambda must be a number, got [1e-06]"),
            (("weights",), [[1.0]], "weights[0] must be a number, got [1.0]"),
            (("weights",), 1.0, "weights must be a list of numbers, got 1.0"),
            (("fit_window",), [0.0, [0.5]], "fit_window[1] must be a number, got [0.5]"),
        ],
    )
    def test_non_numeric_field_exits_2(
        self, cli_workspace, tmp_path, capsys, path, value, message
    ):
        raw = json.loads((cli_workspace / "run.json").read_text())
        raw["input"]["path"] = str(cli_workspace / "ensemble.csv")
        section = raw
        for key in path[:-1]:
            section = section[key]
        section[path[-1]] = value
        (tmp_path / "bad.json").write_text(json.dumps(raw))
        out = tmp_path / "out"
        assert main(["train", "--config", str(tmp_path / "bad.json"), "--output-dir", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {tmp_path / 'bad.json'}: {message}\n"
        assert not (out / "artifact.json").exists()

    @pytest.mark.parametrize("command", ["train", "estimate"])
    @pytest.mark.parametrize(
        "path, value",
        [
            # once a TypeError traceback with exit code 1
            (("output_dir",), 5),
            (("output_dir",), True),
            # once read as files named "None" and "['e.csv']"
            (("input", "path"), None),
            (("input", "path"), ["e.csv"]),
            # once exit code 4, as a name outside the known ones
            (("input", "mode"), ["ensemble"]),
            (("transform",), None),
            (("method",), 1),
            (("distance",), ["kl"]),
            (("optimizer",), {}),
            (("solver", "integrator"), 4),
        ],
        ids=lambda v: ".".join(v) if isinstance(v, tuple) else type(v).__name__,
    )
    def test_non_string_field_exits_2(
        self, cli_workspace, tmp_path, capsys, command, path, value
    ):
        raw = json.loads((cli_workspace / "run.json").read_text())
        raw["input"]["path"] = str(cli_workspace / "ensemble.csv")
        section = raw
        for key in path[:-1]:
            section = section[key]
        section[path[-1]] = value
        (tmp_path / "bad.json").write_text(json.dumps(raw))
        assert main([command, "--config", str(tmp_path / "bad.json")]) == 2
        assert capsys.readouterr().err == (
            f"error: {tmp_path / 'bad.json'}: {'.'.join(path)} must be a string, got {value!r}\n"
        )
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.json"]

    @pytest.mark.parametrize("key", ["x_min", "x_max", "n_points"])
    def test_missing_grid_key_exits_2(self, cli_workspace, tmp_path, capsys, key):
        raw = json.loads((cli_workspace / "run.json").read_text())
        raw["input"]["path"] = str(cli_workspace / "ensemble.csv")
        del raw["grid"][key]
        (tmp_path / "bad.json").write_text(json.dumps(raw))
        out = tmp_path / "out"
        assert main(["train", "--config", str(tmp_path / "bad.json"), "--output-dir", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: {tmp_path / 'bad.json'}: grid section needs {key}\n"
        )
        assert not out.exists()

    def test_integrator_from_the_config(self, cli_workspace, tmp_path, capsys):
        raw = json.loads((cli_workspace / "run.json").read_text())
        raw["input"]["path"] = str(cli_workspace / "ensemble.csv")
        # dt 0.0025 is inside explicit RK4's diffusion bound, 0.4 h^2 / D2,
        # about 0.006 on this grid; 0.05 is far past it
        raw["solver"] = {"dt": 0.0025, "integrator": "explicit_rk4"}
        (tmp_path / "rk4.json").write_text(json.dumps(raw))
        out = tmp_path / "out"
        assert main(["train", "--config", str(tmp_path / "rk4.json"), "--output-dir", str(out)]) == 0
        report = (out / "run_report.txt").read_text().splitlines()
        assert "solver_integrator=explicit_rk4" in report
        defaulted = next(line for line in report if line.startswith("defaulted="))
        assert "solver.integrator" not in defaulted.split("=")[1].split(",")
        assert "split.truncate_start" in defaulted.split("=")[1].split(",")

        raw["solver"]["dt"] = 0.05
        (tmp_path / "fast.json").write_text(json.dumps(raw))
        capsys.readouterr()
        assert main(["train", "--config", str(tmp_path / "fast.json"), "--output-dir", str(tmp_path / "fast")]) == 4
        assert capsys.readouterr().err.startswith("error: explicit_rk4 unstable: dt=0.05 exceeds")
        assert not (tmp_path / "fast" / "artifact.json").exists()

    @pytest.mark.parametrize(
        "window, code, message",
        [
            # malformed (exit 2) and infeasible (exit 4) alike name the file
            ([0.5], 2, "bad.json: fit_window must be a [lo, hi] pair"),
            ([0.5, 0.25], 4, "bad.json: fit_window must be a finite (lo, hi)"),
            ([0.5, 0.5], 4, "bad.json: fit_window must be a finite (lo, hi)"),
        ],
        ids=["one_element", "reversed", "empty"],
    )
    def test_bad_fit_window(self, cli_workspace, tmp_path, capsys, window, code, message):
        raw = json.loads((cli_workspace / "run.json").read_text())
        raw["input"]["path"] = str(cli_workspace / "ensemble.csv")
        raw["fit_window"] = window
        (tmp_path / "bad.json").write_text(json.dumps(raw))
        out = tmp_path / "out"
        assert main(["train", "--config", "bad.json", "--output-dir", str(out)]) == code
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "bounds, message",
        [
            # strings and object keys were once unpacked digit by digit,
            # ["12", "34"] into ((1.0, 2.0), (3.0, 4.0))
            (["12", "34"], "bounds[0] must be a [lo, hi] pair"),
            (
                {"12": [0.0, 1.0], "34": [0.0, 1.0]},
                "bounds must be a list of [lo, hi] pairs, got {'12': [0.0, 1.0], '34': [0.0, 1.0]}",
            ),
            ("1234", "bounds must be a list of [lo, hi] pairs, got '1234'"),
            ([[-1.0, 1.0], [0.5]], "bounds[1] must be a [lo, hi] pair"),
            ([[-1.0, "x"]], "bounds[0][1] must be a number, got 'x'"),
        ],
        ids=["strings", "object", "string", "one_element", "non_numeric"],
    )
    def test_malformed_bounds_exit_2(self, cli_workspace, tmp_path, capsys, bounds, message):
        raw = json.loads((cli_workspace / "run.json").read_text())
        raw["input"]["path"] = str(cli_workspace / "ensemble.csv")
        raw["bounds"] = bounds
        (tmp_path / "bad.json").write_text(json.dumps(raw))
        out = tmp_path / "out"
        assert main(["train", "--config", str(tmp_path / "bad.json"), "--output-dir", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {tmp_path / 'bad.json'}: {message}\n"
        assert not out.exists()

    def test_accuracy_order_is_an_unknown_solver_key(self, cli_workspace, tmp_path, capsys):
        raw = json.loads((cli_workspace / "run.json").read_text())
        raw["solver"]["accuracy_order"] = 2
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw))
        assert main(["train", "--config", str(path)]) == 2
        assert "unknown solver key(s): accuracy_order" in capsys.readouterr().err

    def test_boundary_is_an_unknown_solver_key(self, cli_workspace, tmp_path, capsys):
        # zero_flux walls are the only closure; the key that chose one is gone
        raw = json.loads((cli_workspace / "run.json").read_text())
        raw["solver"]["boundary"] = "zero_flux"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw))
        assert main(["train", "--config", str(path)]) == 2
        assert "unknown solver key(s): boundary" in capsys.readouterr().err

    def test_off_axis_train_end_exits_4(self, cli_workspace, tmp_path, capsys):
        raw = json.loads((cli_workspace / "run.json").read_text())
        raw["split"] = {"train_end": 0.4}
        raw["input"]["path"] = str(cli_workspace / "ensemble.csv")
        path = tmp_path / "off.json"
        path.write_text(json.dumps(raw))
        assert main(["train", "--config", str(path)]) == 4
        assert "time axis" in capsys.readouterr().err


@pytest.fixture(scope="module")
def trained(cli_workspace, tmp_path_factory):
    out = tmp_path_factory.mktemp("trained_cli")
    code = main(
        ["train", "--config", str(cli_workspace / "run.json"), "--output-dir", str(out)]
    )
    assert code == 0
    return out / "artifact.json"


class TestPredictAndValidate:
    def test_predict_writes_densities(self, trained, tmp_path, capsys):
        out = tmp_path / "pred"
        code = main(
            [
                "predict",
                "--artifact",
                str(trained),
                "--horizon",
                "1.0",
                "--times",
                "0.75,1.0",
                "--dt",
                "0.05",
                "--output-dir",
                str(out),
            ]
        )
        assert code == 0
        assert (out / "predicted_manifest.csv").exists()
        assert (out / "predicted_0001.csv").exists()
        field = read_density_csv(out / "predicted_0000.csv", time_stamp=0.75)
        assert field.mass == pytest.approx(1.0, abs=1e-9)
        assert "wrote 2 densities" in capsys.readouterr().out

    def test_predict_horizon_inside_training_exits_4(self, trained, capsys):
        code = main(
            [
                "predict",
                "--artifact",
                str(trained),
                "--horizon",
                "0.5",
                "--times",
                "0.5",
                "--dt",
                "0.05",
            ]
        )
        assert code == 4
        assert "beyond" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "horizon, times, dt, message",
        [
            ("1.0", "0.75,1.0", "inf", "dt must be finite, got inf"),
            ("inf", "inf", "0.05", "record time inf is not a finite number"),
            ("inf", "1e308", "0.05", "record time 1e+308 is not a finite number"),
            ("inf", "nan", "0.05", "record time nan is not a finite number"),
        ],
    )
    def test_predict_without_a_finite_step_count_exits_4(
        self, trained, tmp_path, capsys, horizon, times, dt, message
    ):
        args = ["predict", "--artifact", str(trained), "--horizon", horizon, "--times", times,
                "--dt", dt, "--output-dir", str(tmp_path / "pred")]
        assert main(args) == 4
        assert message in capsys.readouterr().err
        assert not (tmp_path / "pred").exists()

    @pytest.mark.parametrize(
        "horizon, steps, cause",
        [
            ("1e20", 2 * 10**21, "Maximum allowed dimension exceeded"),
            ("5e13", 10**15, "Unable to allocate 7.11 PiB"),
        ],
    )
    def test_predict_with_too_many_steps_to_allocate_exits_4(
        self, trained, tmp_path, capsys, horizon, steps, cause
    ):
        args = ["predict", "--artifact", str(trained), "--horizon", horizon, "--times", horizon,
                "--dt", "0.05", "--output-dir", str(tmp_path / "pred")]
        assert main(args) == 4
        assert capsys.readouterr().err.startswith(
            f"error: record time {float(horizon)} is {steps} steps of dt=0.05 past t0=0.0, "
            f"more than can be allocated: {cause}"
        )
        assert not (tmp_path / "pred").exists()

    @pytest.mark.parametrize("times", ["abc", "1.5,,2.0"])
    def test_predict_times_refused_as_dt_is(self, trained, capsys, times):
        base = ["predict", "--artifact", str(trained), "--horizon", "2.0"]
        errors = []
        for flags in (["--times", "2.0", "--dt", "abc"], ["--times", times, "--dt", "0.05"]):
            with pytest.raises(SystemExit) as exc:
                main(base + flags)
            assert exc.value.code == 2
            errors.append(capsys.readouterr().err)
        dt_error = "fprom predict: error: argument --dt: invalid float value: 'abc'\n"
        assert errors[0].endswith(dt_error)
        assert errors[1] == errors[0].replace(
            dt_error, f"fprom predict: error: argument --times: invalid float value: {times!r}\n"
        )

    def test_predict_boundary_flag_exits_2(self, trained, tmp_path, capsys):
        args = ["predict", "--artifact", str(trained), "--horizon", "1.0", "--times", "1.0",
                "--dt", "0.05", "--output-dir", str(tmp_path / "pred")]
        with pytest.raises(SystemExit) as exc:
            main(args + ["--boundary", "zero_flux"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --boundary zero_flux" in capsys.readouterr().err
        assert not (tmp_path / "pred").exists()

    @pytest.mark.parametrize("section", ["grid", "model", "initial_density", "metadata"])
    def test_predict_refuses_unknown_section_key(self, trained, tmp_path, capsys, section):
        payload = json.loads(trained.read_text())
        payload[section]["typo"] = 1
        path = tmp_path / "artifact.json"
        path.write_text(json.dumps(payload))
        args = ["predict", "--artifact", str(path), "--horizon", "1.0", "--times", "1.0",
                "--dt", "0.05", "--output-dir", str(tmp_path / "pred")]
        assert main(args) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: malformed artifact (unknown {section} key(s): typo)\n"
        )
        assert not (tmp_path / "pred").exists()

    def test_predict_missing_artifact_exits_2(self, tmp_path, capsys):
        code = main(
            [
                "predict",
                "--artifact",
                str(tmp_path / "nope.json"),
                "--horizon",
                "1.0",
                "--times",
                "1.0",
                "--dt",
                "0.05",
            ]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_predict_divergence_exits_3(self, tmp_path, capsys):
        grid = Grid(-6.0, 6.0, 129)
        artifact = RomArtifact(
            model=CoefficientModel(drift_poly=(1.0,), diff_poly=(0.0,)),
            transform=TransformSpec("identity"),
            initial_density=gaussian_density(grid, 0.0, 1.0, 1.0),
            train_window=(0.5, 1.0),
            method="loss_minimization",
            loss=0.0,
            seed=0,
        )
        save_artifact(artifact, tmp_path / "artifact.json")
        with np.errstate(over="ignore", invalid="ignore"):
            code = main(
                [
                    "predict",
                    "--artifact",
                    str(tmp_path / "artifact.json"),
                    "--horizon",
                    "1e80",
                    "--times",
                    "1e80",
                    "--dt",
                    "1e80",
                ]
            )
        assert code == 3
        assert "diverged" in capsys.readouterr().err

    def test_pushforward_samples_flag_is_accepted_and_ignored(self, tmp_path):
        grid = Grid(-3.0, 3.0, 129)
        artifact = RomArtifact(
            model=CoefficientModel(drift_poly=(0.1,), diff_poly=(0.05,)),
            transform=TransformSpec("log_x"),
            initial_density=gaussian_density(grid, 0.0, 0.25, 1.0),
            train_window=(0.5, 1.0),
            method="loss_minimization",
            loss=0.0,
            seed=0,
        )
        save_artifact(artifact, tmp_path / "artifact.json")
        predict = ["predict", "--artifact", str(tmp_path / "artifact.json"),
                   "--horizon", "2.0", "--times", "1.5,2.0", "--dt", "0.05"]
        assert main([*predict, "--output-dir", str(tmp_path / "plain")]) == 0
        assert main([*predict, "--pushforward-samples", "7",
                     "--output-dir", str(tmp_path / "flag")]) == 0
        names = sorted(p.name for p in (tmp_path / "plain").iterdir())
        assert "reconstructed_0001.csv" in names and "predicted_0001.csv" in names
        assert names == sorted(p.name for p in (tmp_path / "flag").iterdir())
        for name in names:
            plain = (tmp_path / "plain" / name).read_bytes()
            assert plain == (tmp_path / "flag" / name).read_bytes()

    def test_validate_writes_metrics(self, trained, cli_workspace, tmp_path, capsys):
        out = tmp_path / "metrics"
        code = main(
            [
                "validate",
                "--artifact",
                str(trained),
                "--config",
                str(cli_workspace / "run.json"),
                "--output-dir",
                str(out),
            ]
        )
        assert code == 0
        lines = (out / "metrics.csv").read_text().splitlines()
        assert lines[0] == "time,kl,l1"
        assert lines[-1].startswith("final,")
        stdout = capsys.readouterr().out
        assert "metrics written to" in stdout
        assert "final t=" in stdout


TV_TIMES = tuple(round(0.1 * k, 10) for k in range(21))


def _write_manifest(path, names) -> Path:
    path.write_text("time,path\n" + "".join(f"{t!r},{n}\n" for t, n in zip(TV_TIMES, names)))
    return path


def _tv_config(root, manifest, **split) -> Path:
    """A calibrate_tv-shaped run config: 21 densities, training up to t = 1."""
    path = root / f"run_{manifest.stem}.json"
    path.write_text(json.dumps({
        "input": {"mode": "densities", "path": str(manifest)},
        "grid": {"x_min": -6.0, "x_max": 10.0, "n_points": 129},
        "split": split or {"train_end": 1.0},
        "solver": {"dt": 0.05},
        "drift_degree": 1,
        "optimizer": "nelder_mead",
        "budget": 50,
        "bounds": [[-1.0, 2.0], [-1.0, 2.0], [0.01, 1.0]],
    }))
    return path


@pytest.fixture(scope="module")
def tv_workspace(tmp_path_factory):
    """The densities of drift 0.8 + 0.6 t and diffusion 0.25 at 21 times,
    their manifest and run config, and the artifact calibrate makes."""
    root = tmp_path_factory.mktemp("tv_inputs")
    grid = Grid(-6.0, 10.0, 129)
    for k, t in enumerate(TV_TIMES):
        density = gaussian_density(grid, 0.8 * t + 0.3 * t * t, 0.25 + 0.5 * t, t)
        write_density_csv(density, root / f"density_{k:02d}.csv")
    names = [f"density_{k:02d}.csv" for k in range(21)]
    run = _tv_config(root, _write_manifest(root / "densities.csv", names))
    assert main(["calibrate", "--config", str(run), "--output-dir", str(root / "out")]) == 0
    return root


class TestDensitySides:
    """In density mode calibrate reads only the training side's files and
    validate only the testing side's, after the manifest's times are split."""

    def test_each_command_reads_only_its_side(self, tv_workspace, monkeypatch, tmp_path):
        read_times = []
        real = fprom.pipeline.read_density_csv

        def counting(path, time_stamp=0.0):
            read_times.append(time_stamp)
            return real(path, time_stamp)

        monkeypatch.setattr(fprom.pipeline, "read_density_csv", counting)
        run = str(tv_workspace / "run_densities.json")
        assert main(["calibrate", "--config", run, "--output-dir", str(tmp_path)]) == 0
        assert read_times == list(TV_TIMES[:11])
        read_times.clear()
        artifact = str(tmp_path / "artifact.json")
        assert main(["validate", "--artifact", artifact, "--config", run,
                     "--output-dir", str(tmp_path)]) == 0
        assert read_times == list(TV_TIMES[11:])

    @pytest.mark.parametrize(
        "split, message",
        [
            ({"train_end": 1.05}, "split.train_end 1.05 is not on the time axis"),
            ({"train_end": 2.0}, "train_end 2.0 leaves an empty testing side"),
            ({"train_end": 1.0, "truncate_start": 0.55},
             "split.truncate_start 0.55 is not on the time axis"),
            ({"train_end": 1.0, "truncate_start": 1.5},
             "{config}: split.truncate_start must precede split.train_end"),
        ],
        ids=["train_end_off_axis", "empty_testing_side", "truncate_start_off_axis",
             "truncate_start_after_train_end"],
    )
    @pytest.mark.parametrize("command", ["calibrate", "validate"])
    def test_split_refusals_come_before_any_file(
        self, tv_workspace, tmp_path, capsys, split, message, command
    ):
        absent = _write_manifest(tmp_path / "absent.csv", [f"no_{k}.csv" for k in range(21)])
        config = _tv_config(tmp_path, absent, **split)
        args = [command, "--config", str(config), "--output-dir", str(tmp_path / "out")]
        if command == "validate":
            args += ["--artifact", str(tv_workspace / "out" / "artifact.json")]
        assert main(args) == 4
        assert capsys.readouterr().err == f"error: {message.format(config=config)}\n"
        assert not (tmp_path / "out").exists()

    def test_a_broken_testing_file_fails_only_validate(self, tv_workspace, tmp_path, capsys):
        names = [str(tv_workspace / f"density_{k:02d}.csv") for k in range(21)]
        broken = tmp_path / "broken.csv"
        broken.write_text("x,f\n0,1\n")
        names[15] = str(broken)
        run = str(_tv_config(tmp_path, _write_manifest(tmp_path / "densities.csv", names)))
        assert main(["calibrate", "--config", run, "--output-dir", str(tmp_path)]) == 0
        assert main(["validate", "--artifact", str(tmp_path / "artifact.json"),
                     "--config", run, "--output-dir", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"error: {broken}: fewer than 8 rows\n"
        names[5], names[15] = str(broken), str(tv_workspace / "density_15.csv")
        run = str(_tv_config(tmp_path, _write_manifest(tmp_path / "early.csv", names)))
        assert main(["calibrate", "--config", run, "--output-dir", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"error: {broken}: fewer than 8 rows\n"

    def test_validate_names_an_unnormalized_testing_density(
        self, tv_workspace, tmp_path, capsys
    ):
        names = [str(tv_workspace / f"density_{k:02d}.csv") for k in range(21)]
        source = read_density_csv(names[15], time_stamp=1.5)
        light = dataclasses.replace(source, values=source.values * 0.95)
        write_density_csv(light, tmp_path / "light.csv")
        names[15] = str(tmp_path / "light.csv")
        manifest = _write_manifest(tmp_path / "densities.csv", names)
        mass = read_density_csv(names[15], time_stamp=1.5).mass
        assert main(["validate", "--artifact", str(tv_workspace / "out" / "artifact.json"),
                     "--config", str(_tv_config(tmp_path, manifest)),
                     "--output-dir", str(tmp_path)]) == 2
        assert capsys.readouterr().err == (
            f"error: {manifest}: testing density at t=1.5 not normalized: mass {mass!r}\n"
        )
        assert not (tmp_path / "metrics.csv").exists()


class TestOracle:
    def test_f3_matches_direct_evaluation(self, tmp_path):
        out = tmp_path / "f3.csv"
        code = main(
            [
                "oracle",
                "--kind",
                "f3",
                "--time",
                "2.0",
                "--mu",
                "1.0",
                "--diffusion",
                "0.5",
                "--x-min",
                "-10.0",
                "--x-max",
                "20.0",
                "--n-points",
                "129",
                "--output",
                str(out),
            ]
        )
        assert code == 0
        direct = tmp_path / "direct.csv"
        write_density_csv(
            drift_diffusion_density(Grid(-10.0, 20.0, 129), 2.0, 1.0, 0.5), direct
        )
        assert out.read_bytes() == direct.read_bytes()

    def test_f1_default_name(self, tmp_path, capsys):
        code = main(
            [
                "oracle",
                "--kind",
                "f1",
                "--time",
                "1.0",
                "--diffusion",
                "0.5",
                "--x-min",
                "-8.0",
                "--x-max",
                "8.0",
                "--n-points",
                "65",
                "--output-dir",
                str(tmp_path / "oracles"),
            ]
        )
        assert code == 0
        assert (tmp_path / "oracles" / "oracle_f1.csv").exists()
        assert "wrote" in capsys.readouterr().out

    def test_f2_missing_parameter_exits_4(self, capsys):
        code = main(
            [
                "oracle",
                "--kind",
                "f2",
                "--time",
                "1.0",
                "--mu",
                "0.5",
                "--x-min",
                "-8.0",
                "--x-max",
                "8.0",
                "--n-points",
                "65",
            ]
        )
        assert code == 4
        assert "sigma2" in capsys.readouterr().err


class TestJsonInputs:
    """The simulation config, the run config and the artifact are read
    by one loader, which names the file it refuses."""

    @pytest.mark.parametrize(
        "content, message",
        [
            (b"{not json", "invalid JSON"),
            (b"\xff\xfe{}", "invalid JSON"),
            (b"[1, 2]", "not a JSON object"),
        ],
    )
    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--config", "{path}", "--output", "ens.csv"],
            ["train", "--config", "{path}", "--output-dir", "out"],
            ["predict", "--artifact", "{path}", "--horizon", "1.0", "--times", "1.0",
             "--dt", "0.05", "--output-dir", "out"],
        ],
        ids=["simulate", "train", "predict"],
    )
    def test_bad_json_exits_2_naming_the_file(
        self, tmp_path, capsys, argv, content, message
    ):
        path = tmp_path / "input.json"
        path.write_bytes(content)
        assert main([arg.format(path=path) for arg in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: {message}")
        assert err.count("\n") == 1
        assert not (tmp_path / "ens.csv").exists()
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command, source, name, key, value, message",
        [
            ("train", "run.json", "r.json", "smoothing_lambda", -1,
             "smoothing_lambda must be finite and > 0"),
            ("simulate", "sim.json", "sim.json", "n_trajectories", 2.5,
             "n_trajectories must be an integer, got 2.5"),
        ],
        ids=["run_config", "simulation_config"],
    )
    def test_infeasible_value_exits_4_naming_the_file(
        self, cli_workspace, tmp_path, capsys, command, source, name, key, value, message
    ):
        raw = json.loads((cli_workspace / source).read_text())
        raw[key] = value
        (tmp_path / name).write_text(json.dumps(raw))
        assert main([command, "--config", name]) == 4
        assert capsys.readouterr().err == f"error: {name}: {message}\n"
        assert [p.name for p in tmp_path.iterdir()] == [name]


README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_json(heading):
    """The first ```json block in the README section under heading."""
    section = README.read_text().split(f"\n{heading}\n", 1)[1].split("\n#", 1)[0]
    return json.loads(section.split("```json\n", 1)[1].split("```", 1)[0])


class TestReadmeConfigs:
    """The README's example configs are read by the readers the CLI uses."""

    def test_simulation_config(self):
        raw = _readme_json("### Simulation config (JSON)")
        spec, plan = _simulate_inputs(raw, "README.md")
        assert (spec.drift_kind, spec.noise_kind, plan.x0_kind) == (
            raw["drift"]["kind"], raw["noise"]["kind"], raw["x0"]["kind"]
        )
        assert (plan.n_trajectories, plan.stride, plan.seed) == (
            raw["n_trajectories"], raw["stride"], raw["seed"]
        )

    def test_run_config(self):
        raw = _readme_json("### Run config (JSON)")
        config = RunConfig.from_dict(raw)
        assert (config.input_path, config.grid.n_points, config.budget) == (
            raw["input"]["path"], raw["grid"]["n_points"], raw["budget"]
        )
        # section keys first, then top-level keys, each in the report's order
        assert config.defaulted == (
            "solver.integrator", "transform", "drift_degree", "diff_degree",
            "smoothing_lambda", "weights", "distance", "fit_window", "output_dir",
        )


SRC = Path(__file__).resolve().parents[1] / "src"

_FRESH_PROCESS = """
import json, sys
import fprom.cli
def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
after_import = scipy_modules()
code = fprom.cli.main(sys.argv[1:])
print(json.dumps([after_import, code, scipy_modules()]))
"""


# runs the commands of the JSON list in sys.argv[1] one after another;
# prints whether the module named by sys.argv[2] is loaded after the
# import, then each command's exit code and whether it is loaded then
_FRESH_SEQUENCE = """
import json, sys
import fprom.cli
module = sys.argv[2]
loaded = [module in sys.modules]
for argv in json.loads(sys.argv[1]):
    loaded.append([fprom.cli.main(argv), module in sys.modules])
print(json.dumps(loaded))
"""


def _fresh_cli(argv, cwd, script=_FRESH_PROCESS):
    """Run script, by default ``fprom <argv>``, in a new interpreter and
    return what its last line prints: by default the scipy modules
    loaded after ``import fprom.cli``, the exit code and the scipy
    modules loaded when the command has run."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, *map(str, argv)],
        env=env,
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def _imported_names(nodes):
    for node in nodes:
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module
            yield from (f"{node.module}.{alias.name}" for alias in node.names)


def _import_time_nodes(nodes):
    """The nodes that run when their module is imported: everything but
    function bodies."""
    for node in nodes:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node
            yield from _import_time_nodes(ast.iter_child_nodes(node))


class TestImportCost:
    """Importing scipy.linalg costs more than numpy and fprom together,
    and scipy.optimize about a fifth of a second more; fprom needs no
    scipy.optimize, and scipy.linalg only where LAPACK runs: the
    Crank-Nicolson solve and Tikhonov smoothing. orjson costs a few
    milliseconds and is loaded only where the ensemble CSV is written."""

    @pytest.mark.parametrize(
        "argv,written",
        [
            (["simulate", "--config", "{ws}/sim.json", "--output", "ens.csv"],
             ["ens.csv", "ens.csv.npz"]),
            (["estimate", "--config", "{ws}/run.json", "--output-dir", "est"],
             ["est/estimate_report.txt"]),
            (["oracle", "--kind", "f3", "--time", "2.0", "--mu", "1.0", "--diffusion",
              "0.5", "--x-min", "-10.0", "--x-max", "20.0", "--n-points", "129",
              "--output", "f3.csv"], ["f3.csv"]),
        ],
        ids=["simulate", "estimate", "oracle"],
    )
    def test_command_never_loads_scipy(self, cli_workspace, tmp_path, argv, written):
        argv = [arg.format(ws=cli_workspace) for arg in argv]
        assert _fresh_cli(argv, tmp_path) == [[], 0, []]
        assert all((tmp_path / name).stat().st_size > 0 for name in written)

    def test_train_loads_scipy_linalg_at_its_first_solve(self, cli_workspace, tmp_path):
        argv = ["train", "--config", cli_workspace / "run.json", "--output-dir", "out"]
        after_import, code, loaded = _fresh_cli(argv, tmp_path)
        assert (after_import, code) == ([], 0)
        assert "scipy.linalg" in loaded
        assert not any(m.startswith("scipy.optimize") for m in loaded)
        assert (tmp_path / "out" / "artifact.json").exists()

    def test_no_module_imports_scipy_at_import_time(self):
        imported = []
        for path in sorted((SRC / "fprom").glob("*.py")):
            nodes = _import_time_nodes(ast.parse(path.read_text()).body)
            names = [n for n in _imported_names(nodes) if n.split(".")[0] == "scipy"]
            imported += [(path.name, n) for n in names]
        assert imported == []

    def test_sidecar_modules_are_imported_where_they_run(self):
        # numpy loads zipfile, and numpy.random (which simulate loads)
        # hashlib, through secrets, but fprom itself must not add them
        # at import time; orjson, which writes the ensemble CSV, loads
        # uuid and zoneinfo besides itself
        imported = []
        for path in sorted((SRC / "fprom").glob("*.py")):
            nodes = _import_time_nodes(ast.parse(path.read_text()).body)
            names = [
                n for n in _imported_names(nodes) if n in ("hashlib", "zipfile", "orjson")
            ]
            imported += [(path.name, n) for n in names]
        assert imported == []

    def test_only_simulate_loads_orjson(self, cli_workspace, tmp_path):
        run = str(cli_workspace / "run.json")
        commands = [
            ["train", "--config", run, "--output-dir", "out"],
            ["predict", "--artifact", "out/artifact.json", "--horizon", "1.0",
             "--times", "0.75,1.0", "--dt", "0.05", "--output-dir", "out"],
            ["validate", "--artifact", "out/artifact.json", "--config", run,
             "--output-dir", "out"],
            ["simulate", "--config", str(cli_workspace / "sim.json"), "--output", "ens.csv"],
        ]
        loaded = _fresh_cli([json.dumps(commands), "orjson"], tmp_path, _FRESH_SEQUENCE)
        # whether orjson is loaded after the import, then each command's
        # exit code and whether it is loaded after it
        assert loaded == [False, [0, False], [0, False], [0, False], [0, True]]
        assert (tmp_path / "out" / "metrics.csv").exists()

    def test_numpy_random_is_imported_only_to_draw(self, cli_workspace, tmp_path):
        # numpy.random loads secrets, hmac and hashlib; fprom imports it
        # only where numbers are drawn, in simulate and the multistart
        # search. scipy.linalg loads it too (through its array API copy
        # of numpy), so each command that solves loads it at its first
        # solve, but estimate and oracle never do
        imported = []
        for path in sorted((SRC / "fprom").glob("*.py")):
            nodes = _import_time_nodes(ast.parse(path.read_text()).body)
            imported += [(path.name, n) for n in _imported_names(nodes) if n == "numpy.random"]
        assert imported == []
        commands = [
            ["estimate", "--config", str(cli_workspace / "run.json"), "--output-dir", "est"],
            ["oracle", "--kind", "f1", "--time", "1.0", "--diffusion", "0.5", "--x-min",
             "-5.0", "--x-max", "5.0", "--n-points", "65", "--output", "f1.csv"],
            ["simulate", "--config", str(cli_workspace / "sim.json"), "--output", "ens.csv"],
        ]
        loaded = _fresh_cli([json.dumps(commands), "numpy.random"], tmp_path, _FRESH_SEQUENCE)
        assert loaded == [False, [0, False], [0, False], [0, True]]

    def test_no_module_imports_scipy_optimize(self):
        imported = []
        for path in sorted((SRC / "fprom").glob("*.py")):
            names = _imported_names(ast.walk(ast.parse(path.read_text())))
            imported += [(path.name, n) for n in names if n.startswith("scipy.optimize")]
        assert imported == []


class TestPublicApi:
    """The top-level package exports what the README's Python API section
    names, the three error classes every public function raises, and
    the version; everything else is imported from its submodule."""

    DOCUMENTED = {
        "__version__",
        "CalibrationProblem",
        "CoefficientModel",
        "DensityField",
        "Grid",
        "InfeasibleConfigError",
        "InputDataError",
        "RomArtifact",
        "RunConfig",
        "SdeSpec",
        "SimPlan",
        "SolverConfig",
        "SolverDivergenceError",
        "TrajectoryEnsemble",
        "calibrate",
        "ensemble_to_densities",
        "kde_estimate",
        "kl_divergence",
        "pushforward_density",
        "regress_time_only_coefficients",
        "run_predict",
        "run_train",
        "run_validate",
        "simulate",
        "solve",
        "tikhonov_smooth",
    }

    def test_no_module_imports_another_modules_private_name(self):
        imported = []
        for path in sorted((SRC / "fprom").glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").split(".")[0] == "fprom"
                ):
                    imported += [
                        (path.name, node.module, alias.name)
                        for alias in node.names
                        if alias.name.startswith("_") and not alias.name.startswith("__")
                    ]
        assert imported == []

    def test_all_holds_exactly_the_documented_names(self):
        import fprom

        assert sorted(fprom.__all__) == sorted(self.DOCUMENTED)
        for name in fprom.__all__:
            assert getattr(fprom, name) is not None
