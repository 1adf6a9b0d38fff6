"""The three fixed fprom command sequences the benchmark runs.

Each workload writes its inputs into an iteration directory (configs,
and for ``calibrate_tv`` closed-form density CSVs made with numpy),
then lists the ``fprom`` commands to run there, the files each must
leave behind, and the generator coefficients the trained artifacts
should recover. The program only ever sees these files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# criterion-11 tolerances on recovered coefficients and the final KL
DRIFT_TOL = 0.3
DIFF_TOL = 0.2
KL_BUDGET = 0.05

WHY = {
    "workflow": "the criterion-11 CLI sequence at 5,000 trajectories: simulate, "
    "then train, predict and validate with both methods; every layer runs and "
    "the data path is about half the time",
    "calibrate_tv": "density-list calibration of a time-varying drift: the "
    "solver and the loss loop do nearly all the work, with no simulate, "
    "ensemble parsing or KDE",
    "lognormal": "the paper's positive process in log coordinates: the only "
    "run of estimate and pushforward sampling, with no loss loop",
}


# Smaller than the full criterion-11 run (20,000 trajectories, 100,000
# pushforward samples, calibrate_tv budget 300) so that one iteration
# takes a few seconds and a run takes the median of several: on a
# shared host single iterations of the full sizes spread by a third.
# calibrate_tv spends its whole budget of 50 on every seed, so its work
# does not depend on the seed; over seeds 0-39 its worst final KL was
# 0.025 and its worst coefficient error 0.19.
@dataclass(frozen=True)
class Sizes:
    n_trajectories: int = 5_000
    sim_dt: float = 1e-3
    stride: int = 100
    n_points: int = 513
    workflow_budget: int = 200
    tv_budget: int = 50
    tv_dt: float = 0.025
    pushforward_samples: int = 25_000


FULL = Sizes()
# small enough for a smoke test of the harness; accuracy checks still hold
TOY = Sizes(
    n_trajectories=2_000,
    sim_dt=1e-2,
    stride=10,
    n_points=129,
    workflow_budget=100,
    tv_budget=50,
    tv_dt=0.05,
    pushforward_samples=5_000,
)
SIZES = {"full": FULL, "toy": TOY}


@dataclass
class Command:
    argv: list[str]
    expect: list[str]


@dataclass
class Workload:
    name: str
    commands: list[Command]
    # output directory -> (drift_poly, diff_poly) its artifact should
    # recover; each directory also holds run_report.txt and metrics.csv
    truth: dict[str, tuple[tuple[float, ...], tuple[float, ...]]]


def _dump(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2) + "\n")


def _sim_config(seed: int, sizes: Sizes, drift, noise, x0) -> dict:
    return {
        "drift": drift,
        "noise": noise,
        "n_trajectories": sizes.n_trajectories,
        "dt": sizes.sim_dt,
        "horizon": 2.0,
        "stride": sizes.stride,
        "x0": x0,
        "seed": seed,
    }


def _train_steps(run: str, out: str, predict: list[str]) -> list[Command]:
    artifact = f"{out}/artifact.json"
    return [
        Command(["train", "--config", run, "--output-dir", out],
                [artifact, f"{out}/run_report.txt"]),
        Command(["predict", "--artifact", artifact, *predict, "--output-dir", out],
                [f"{out}/predicted_manifest.csv"]),
        Command(["validate", "--artifact", artifact, "--config", run,
                 "--output-dir", out],
                [f"{out}/metrics.csv"]),
    ]


def workflow(root: Path, seed: int, sizes: Sizes) -> Workload:
    _dump(root / "sim.json", _sim_config(
        seed, sizes,
        drift={"kind": "constant", "params": [1.0]},
        noise={"kind": "constant", "params": [1.0]},
        x0={"kind": "point", "params": [0.0]},
    ))
    commands = [Command(["simulate", "--config", "sim.json", "--output",
                         "ensemble.csv"], ["ensemble.csv"])]
    truth = {}
    for method in ("loss_minimization", "moment_regression"):
        _dump(root / f"run_{method}.json", {
            "input": {"mode": "ensemble", "path": "ensemble.csv"},
            "grid": {"x_min": -6.0, "x_max": 10.0, "n_points": sizes.n_points},
            "split": {"train_end": 1.0, "truncate_start": 0.5},
            "solver": {"dt": 0.05},
            "method": method,
            "optimizer": "nelder_mead",
            "budget": sizes.workflow_budget,
            "bounds": [[-2.0, 2.0], [1e-4, 2.0]],
            "seed": seed,
        })
        commands += _train_steps(
            f"run_{method}.json", method,
            ["--horizon", "2.0", "--times", "1.5,2.0", "--dt", "0.05"],
        )
        truth[method] = ((1.0,), (0.5,))
    return Workload("workflow", commands, truth)


def tv_coefficients(seed: int) -> tuple[float, float, float]:
    """(a, b, D): drift a + b t, diffusion D; seed 0 gives (0.8, 0.6, 0.25)."""
    if seed == 0:
        return 0.8, 0.6, 0.25
    jitter = np.random.default_rng(seed).uniform(-0.05, 0.05, size=3)
    return tuple(float(v) for v in np.array([0.8, 0.6, 0.25]) * (1.0 + jitter))


def calibrate_tv(root: Path, seed: int, sizes: Sizes) -> Workload:
    a, b, diff = tv_coefficients(seed)
    x = np.linspace(-6.0, 10.0, sizes.n_points)
    lines = ["time,path"]
    for k in range(21):
        t = round(0.1 * k, 10)
        mean = a * t + 0.5 * b * t * t
        var = 0.25 + 2.0 * diff * t
        f = np.exp(-0.5 * (x - mean) ** 2 / var) / np.sqrt(2.0 * np.pi * var)
        name = f"density_{k:02d}.csv"
        np.savetxt(root / name, np.column_stack([x, f]), fmt="%.17g",
                   delimiter=",", header="x,f", comments="")
        lines.append(f"{t!r},{name}")
    (root / "densities.csv").write_text("\n".join(lines) + "\n")
    _dump(root / "run.json", {
        "input": {"mode": "densities", "path": "densities.csv"},
        "grid": {"x_min": -6.0, "x_max": 10.0, "n_points": sizes.n_points},
        "split": {"train_end": 1.0},
        "solver": {"dt": sizes.tv_dt},
        "method": "loss_minimization",
        "drift_degree": 1,
        "diff_degree": 0,
        "optimizer": "nelder_mead",
        "budget": sizes.tv_budget,
        "bounds": [[-1.0, 2.0], [-1.0, 2.0], [0.01, 1.0]],
        "seed": seed,
    })
    steps = _train_steps("run.json", "out",
                         ["--horizon", "2.0", "--times", "1.5,2.0",
                          "--dt", repr(sizes.tv_dt)])
    steps[0].argv[0] = "calibrate"
    return Workload("calibrate_tv", steps, {"out": ((a, b), (diff,))})


def lognormal(root: Path, seed: int, sizes: Sizes) -> Workload:
    _dump(root / "sim.json", _sim_config(
        seed, sizes,
        drift={"kind": "linear_in_x", "params": [0.0, 0.3]},
        noise={"kind": "linear_in_x", "params": [0.0, 0.4]},
        x0={"kind": "normal", "params": [1.0, 0.1]},
    ))
    _dump(root / "run.json", {
        "input": {"mode": "ensemble", "path": "ensemble.csv"},
        "transform": "log_x",
        "grid": {"x_min": -4.0, "x_max": 4.0, "n_points": sizes.n_points},
        "split": {"train_end": 1.0, "truncate_start": 0.5},
        "solver": {"dt": 0.05},
        "method": "moment_regression",
        "seed": seed,
    })
    commands = [
        Command(["simulate", "--config", "sim.json", "--output", "ensemble.csv"],
                ["ensemble.csv"]),
        Command(["estimate", "--config", "run.json", "--output-dir", "out"],
                ["out/estimate_report.txt"]),
        *_train_steps("run.json", "out",
                      ["--horizon", "2.0", "--times", "1.25,1.5,1.75,2.0",
                       "--dt", "0.05", "--pushforward-samples",
                       str(sizes.pushforward_samples)]),
    ]
    commands[3].expect.append("out/reconstructed_manifest.csv")
    # log of geometric Brownian motion: drift mu - sigma^2/2, diffusion sigma^2/2
    return Workload("lognormal", commands, {"out": ((0.22,), (0.08,))})


BUILDERS = {"workflow": workflow, "calibrate_tv": calibrate_tv, "lognormal": lognormal}
