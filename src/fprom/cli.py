"""Command-line interface.

Subcommands cover the full workflow: simulate synthetic ensembles,
estimate coefficients by moment regression, train (or calibrate) a
model, predict forward, validate against held-out data, and emit
closed-form oracle densities.

Exit codes: 0 success, 2 input/data error, 3 numerical divergence,
4 infeasible configuration.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from ._version import __version__
from .analytic import (
    drift_diffusion_density,
    pure_diffusion_density,
    pure_drift_density,
)
from .density import write_density_csv
from .errors import (
    InfeasibleConfigError,
    InputDataError,
    SolverDivergenceError,
    require_float,
    require_floats,
    require_keys,
)
from .grid import Grid
from .langevin import SdeSpec, SimPlan, simulate, write_ensemble_csv, write_ensemble_sidecar
from .pipeline import (
    RunConfig,
    SolverSettings,
    ingest,
    load_artifact,
    load_json_object,
    moment_regression,
    resolve_output_dir,
    run_predict,
    run_train,
    run_validate,
    split,
)

__all__ = ["main", "build_parser"]


def _simulate_inputs(raw: dict, path) -> tuple[SdeSpec, SimPlan]:
    try:
        require_keys(
            raw,
            "config",
            ("drift", "noise", "n_trajectories", "dt", "horizon"),
            allowed=("stride", "x0", "seed"),
        )
        drift = require_keys(raw["drift"], "drift", ("kind", "params"))
        noise = require_keys(raw["noise"], "noise", ("kind", "params"))
        if "x0" in raw:
            require_keys(raw["x0"], "x0", ("kind", "params"))
        spec = SdeSpec(
            drift_kind=drift["kind"],
            drift_params=require_floats(drift["params"], "drift.params"),
            noise_kind=noise["kind"],
            noise_params=require_floats(noise["params"], "noise.params"),
        )
        dt = require_float(raw["dt"], "dt")
        horizon = require_float(raw["horizon"], "horizon")
        # keys the config leaves out take SimPlan's defaults
        optional = {key: raw[key] for key in ("stride", "seed") if key in raw}
        if "x0" in raw:
            optional["x0_kind"] = raw["x0"]["kind"]
            optional["x0_params"] = require_floats(raw["x0"]["params"], "x0.params")
        plan = SimPlan(
            n_trajectories=raw["n_trajectories"], dt=dt, horizon=horizon, **optional
        )
    except InputDataError as exc:
        raise InputDataError(f"{path}: {exc}") from None
    return spec, plan


def _cmd_simulate(args) -> int:
    spec, plan = _simulate_inputs(load_json_object(args.config), args.config)
    if args.seed is not None:
        plan = dataclasses.replace(plan, seed=args.seed)
    ens = simulate(spec, plan)
    out = Path(args.output) if args.output else (
        resolve_output_dir(args.output_dir) / "ensemble.csv"
    )
    out.parent.mkdir(parents=True, exist_ok=True)
    write_ensemble_csv(ens, out)
    write_ensemble_sidecar(ens, out)
    print(f"wrote {out} ({ens.n_realizations} trajectories, {ens.n_times} times)")
    return 0


def _cmd_estimate(args) -> int:
    config = RunConfig.from_file(args.config)
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    if config.input_mode != "ensemble":
        raise InfeasibleConfigError("estimate requires ensemble input")
    training, _ = split(ingest(config), config.train_end, config.truncate_start)
    model = moment_regression(config, training)
    lines = [f"{k}={v}" for k, v in config.report_items()]
    lines.append(f"n_training_times={training.times.size}")
    lines.append(f"drift_poly={list(model.drift_poly)!r}")
    lines.append(f"diff_poly={list(model.diff_poly)!r}")
    out = resolve_output_dir(args.output_dir, config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "estimate_report.txt").write_text("\n".join(lines) + "\n")
    print(f"drift_poly={list(model.drift_poly)!r}")
    print(f"diff_poly={list(model.diff_poly)!r}")
    print(f"report written to {out / 'estimate_report.txt'}")
    return 0


def _run_train_command(args, forced_method=None) -> int:
    config = RunConfig.from_file(args.config)
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    if forced_method is not None and config.method != forced_method:
        config = dataclasses.replace(config, method=forced_method)
    artifact, _ = run_train(config, args.output_dir)
    out = resolve_output_dir(args.output_dir, config.output_dir)
    print(f"artifact written to {out / 'artifact.json'}")
    print(f"report written to {out / 'run_report.txt'}")
    print(f"drift_poly={list(artifact.model.drift_poly)!r}")
    print(f"diff_poly={list(artifact.model.diff_poly)!r}")
    print(f"loss={artifact.loss!r}")
    return 0


def _cmd_train(args) -> int:
    return _run_train_command(args)


def _cmd_calibrate(args) -> int:
    return _run_train_command(args, forced_method="loss_minimization")


def _solver_settings(args, fallback: SolverSettings | None = None) -> SolverSettings:
    """Flags over fallback; predict has no fallback but requires --dt."""
    base = fallback or SolverSettings(dt=args.dt)
    return SolverSettings(
        dt=base.dt if args.dt is None else args.dt,
        integrator=args.integrator or base.integrator,
        boundary=args.boundary or base.boundary,
    )


def _cmd_predict(args) -> int:
    artifact = load_artifact(args.artifact)
    times = tuple(float(v) for v in args.times.split(","))
    solver = _solver_settings(args)
    out = resolve_output_dir(args.output_dir)
    densities, reconstructed = run_predict(
        artifact,
        horizon=args.horizon,
        record_times=times,
        solver=solver,
        output_dir=out,
    )
    print(f"wrote {len(densities)} densities to {out / 'predicted_manifest.csv'}")
    if reconstructed:
        print(
            f"wrote {len(reconstructed)} reconstructed densities to "
            f"{out / 'reconstructed_manifest.csv'}"
        )
    return 0


def _cmd_validate(args) -> int:
    artifact = load_artifact(args.artifact)
    config = RunConfig.from_file(args.config)
    _, testing = split(ingest(config), config.train_end, config.truncate_start)
    solver = _solver_settings(args, fallback=config.solver)
    out = resolve_output_dir(args.output_dir, config.output_dir)
    rows = run_validate(artifact, testing, solver, output_dir=out)
    t, kl, l1 = rows[-1]
    print(f"metrics written to {out / 'metrics.csv'}")
    print(f"final t={t!r} kl={kl!r} l1={l1!r}")
    return 0


def _cmd_oracle(args) -> int:
    grid = Grid(x_min=args.x_min, x_max=args.x_max, n_points=args.n_points)
    if args.kind == "f1":
        if args.diffusion is None:
            raise InfeasibleConfigError("f1 needs --diffusion")
        field = pure_diffusion_density(grid, args.time, args.diffusion)
    elif args.kind == "f2":
        if args.mu is None or args.sigma2 is None:
            raise InfeasibleConfigError("f2 needs --mu and --sigma2")
        field = pure_drift_density(grid, args.time, args.mu, args.sigma2)
    else:
        if args.mu is None or args.diffusion is None:
            raise InfeasibleConfigError("f3 needs --mu and --diffusion")
        field = drift_diffusion_density(grid, args.time, args.mu, args.diffusion)
    out = Path(args.output) if args.output else (
        resolve_output_dir(args.output_dir) / f"oracle_{args.kind}.csv"
    )
    out.parent.mkdir(parents=True, exist_ok=True)
    write_density_csv(field, out)
    print(f"wrote {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fprom",
        description=(
            "Calibrate a drift/diffusion density model from ensemble "
            "time-series and propagate it forward"
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic ensemble CSV")
    p.add_argument("--config", required=True, help="simulation config JSON")
    p.add_argument("--output", help="ensemble CSV path (default ensemble.csv)")
    p.add_argument("--output-dir", help="directory for default output names")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser(
        "estimate", help="moment-regression coefficient estimate, no artifact"
    )
    p.add_argument("--config", required=True, help="run config JSON")
    p.add_argument("--output-dir", help="where to write estimate_report.txt")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.set_defaults(handler=_cmd_estimate)

    for name, handler in (("train", _cmd_train), ("calibrate", _cmd_calibrate)):
        p = sub.add_parser(
            name,
            help=(
                "calibrate per the config method"
                if name == "train"
                else "train with method forced to loss_minimization"
            ),
        )
        p.add_argument("--config", required=True, help="run config JSON")
        p.add_argument("--output-dir", help="where to write artifact and report")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.set_defaults(handler=handler)

    p = sub.add_parser("predict", help="propagate an artifact forward")
    p.add_argument("--artifact", required=True, help="artifact.json path")
    p.add_argument("--horizon", type=float, required=True)
    p.add_argument("--times", required=True, help="comma-separated record times")
    p.add_argument("--dt", type=float, required=True)
    p.add_argument("--integrator", choices=("explicit_rk4", "crank_nicolson"))
    p.add_argument("--boundary", choices=("zero_flux", "zero_dirichlet"))
    # accepted and ignored: the reconstruction no longer samples, but the
    # benchmark's lognormal workload still passes this flag; it goes when
    # ROADMAP item 6 drops it from the benchmark
    p.add_argument("--pushforward-samples", help=argparse.SUPPRESS)
    p.add_argument("--output-dir", help="where to write density CSVs")
    p.set_defaults(handler=_cmd_predict)

    p = sub.add_parser("validate", help="score an artifact on the testing side")
    p.add_argument("--artifact", required=True, help="artifact.json path")
    p.add_argument("--config", required=True, help="run config JSON")
    p.add_argument("--dt", type=float, help="solver dt (default: config value)")
    p.add_argument("--integrator", choices=("explicit_rk4", "crank_nicolson"))
    p.add_argument("--boundary", choices=("zero_flux", "zero_dirichlet"))
    p.add_argument("--output-dir", help="where to write metrics.csv")
    p.set_defaults(handler=_cmd_validate)

    p = sub.add_parser("oracle", help="emit a closed-form density CSV")
    p.add_argument("--kind", required=True, choices=("f1", "f2", "f3"))
    p.add_argument("--time", type=float, required=True)
    p.add_argument("--mu", type=float, help="drift constant (f2, f3)")
    p.add_argument("--diffusion", type=float, help="diffusion constant (f1, f3)")
    p.add_argument("--sigma2", type=float, help="initial variance (f2)")
    p.add_argument("--x-min", type=float, required=True)
    p.add_argument("--x-max", type=float, required=True)
    p.add_argument("--n-points", type=int, required=True)
    p.add_argument("--output", help="density CSV path")
    p.add_argument("--output-dir", help="directory for the default name")
    p.set_defaults(handler=_cmd_oracle)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except InputDataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SolverDivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except InfeasibleConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
