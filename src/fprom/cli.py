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
    read_table,
    require_float,
    require_floats,
    require_keys,
    require_string,
)
from .grid import Grid
from .langevin import SdeSpec, SimPlan, simulate, write_ensemble
from .pipeline import (
    RunConfig,
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
from .solver import INTEGRATORS, SolverConfig

__all__ = ["main", "build_parser"]


def _read_x0(value, what: str) -> dict:
    x0 = require_keys(value, what, ("kind", "params"))
    params = require_floats(x0["params"], f"{what}.params")
    return {"x0_kind": x0["kind"], "x0_params": params}


# One row per simulation-config key: (dotted key, reader, required); with
# "." turned into "_" each key names an SdeSpec or SimPlan argument, and
# x0 reads into two.
_SIM_KEYS = (
    ("drift.kind", require_string, True),
    ("drift.params", require_floats, True),
    ("noise.kind", require_string, True),
    ("noise.params", require_floats, True),
    ("n_trajectories", None, True),
    ("dt", require_float, True),
    ("horizon", require_float, True),
    ("stride", None, False),
    ("x0", _read_x0, False),
    ("seed", None, False),
)


def _simulate_inputs(raw: dict, path) -> tuple[SdeSpec, SimPlan]:
    try:
        values, _ = read_table(raw, "config", _SIM_KEYS)
        # keys the config leaves out take SimPlan's defaults
        kwargs = {key.replace(".", "_"): value for key, value in values.items()}
        kwargs.update(kwargs.pop("x0", {}))
        spec = SdeSpec(**{f.name: kwargs.pop(f.name) for f in dataclasses.fields(SdeSpec)})
        plan = SimPlan(**kwargs)
    except (InputDataError, InfeasibleConfigError) as exc:
        raise type(exc)(f"{path}: {exc}") from None
    return spec, plan


def _cmd_simulate(args) -> int:
    spec, plan = _simulate_inputs(load_json_object(args.config), args.config)
    if args.seed is not None:
        plan = dataclasses.replace(plan, seed=args.seed)
    try:
        ens = simulate(spec, plan)
    except InfeasibleConfigError as exc:
        raise InfeasibleConfigError(f"{args.config}: {exc}") from None
    out = Path(args.output) if args.output else (
        resolve_output_dir(args.output_dir) / "ensemble.csv"
    )
    out.parent.mkdir(parents=True, exist_ok=True)
    write_ensemble(ens, out)
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


def _solver_settings(args, fallback: SolverConfig | None = None) -> SolverConfig:
    """Flags over fallback; predict has no fallback but requires --dt."""
    base = fallback or SolverConfig(dt=args.dt)
    return SolverConfig(
        dt=base.dt if args.dt is None else args.dt,
        integrator=args.integrator or base.integrator,
    )


def _float_list(text: str) -> tuple[float, ...]:
    """--times: comma-separated floats, refused as argparse refuses one."""
    try:
        return tuple(float(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None


def _cmd_predict(args) -> int:
    artifact = load_artifact(args.artifact)
    solver = _solver_settings(args)
    out = resolve_output_dir(args.output_dir)
    densities, reconstructed = run_predict(
        artifact,
        horizon=args.horizon,
        record_times=args.times,
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


COMMANDS = ("simulate", "estimate", "train", "calibrate", "predict", "validate", "oracle")


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The fprom argument parser; given a command, only that command's
    subparser is built. Its help, usage and errors are the full
    parser's, and so are the top-level usage and errors as long as the
    command comes first."""
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
    # a parser for one command still shows every command in its usage
    choices = None if command is None else "{" + ",".join(COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=choices)

    def add(name: str, handler, summary: str) -> argparse.ArgumentParser | None:
        if command not in (None, name):
            return None
        p = sub.add_parser(name, help=summary)
        p.set_defaults(handler=handler)
        return p

    if p := add("simulate", _cmd_simulate, "generate a synthetic ensemble CSV"):
        p.add_argument("--config", required=True, help="simulation config JSON")
        p.add_argument("--output", help="ensemble CSV path (default ensemble.csv)")
        p.add_argument("--output-dir", help="directory for default output names")
        p.add_argument("--seed", type=int, help="override the config seed")

    if p := add(
        "estimate", _cmd_estimate, "moment-regression coefficient estimate, no artifact"
    ):
        p.add_argument("--config", required=True, help="run config JSON")
        p.add_argument("--output-dir", help="where to write estimate_report.txt")
        p.add_argument("--seed", type=int, help="override the config seed")

    for name, handler, summary in (
        ("train", _cmd_train, "calibrate per the config method"),
        ("calibrate", _cmd_calibrate, "train with method forced to loss_minimization"),
    ):
        if p := add(name, handler, summary):
            p.add_argument("--config", required=True, help="run config JSON")
            p.add_argument("--output-dir", help="where to write artifact and report")
            p.add_argument("--seed", type=int, help="override the config seed")

    if p := add("predict", _cmd_predict, "propagate an artifact forward"):
        p.add_argument("--artifact", required=True, help="artifact.json path")
        p.add_argument("--horizon", type=float, required=True)
        p.add_argument(
            "--times", type=_float_list, required=True, help="comma-separated record times"
        )
        p.add_argument("--dt", type=float, required=True)
        p.add_argument("--integrator", choices=INTEGRATORS)
        # accepted and ignored: the reconstruction no longer samples, but
        # the benchmark's lognormal workload still passes this flag; it
        # goes when ROADMAP item 6 drops it from the benchmark
        p.add_argument("--pushforward-samples", help=argparse.SUPPRESS)
        p.add_argument("--output-dir", help="where to write density CSVs")

    if p := add("validate", _cmd_validate, "score an artifact on the testing side"):
        p.add_argument("--artifact", required=True, help="artifact.json path")
        p.add_argument("--config", required=True, help="run config JSON")
        p.add_argument("--dt", type=float, help="solver dt (default: config value)")
        p.add_argument("--integrator", choices=INTEGRATORS)
        p.add_argument("--output-dir", help="where to write metrics.csv")

    if p := add("oracle", _cmd_oracle, "emit a closed-form density CSV"):
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

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # the full parser only where argv does not open with a command:
    # --help, --version or a misspelt command
    command = argv[0] if argv and argv[0] in COMMANDS else None
    args = build_parser(command).parse_args(argv)
    try:
        return args.handler(args)
    except SolverDivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except InfeasibleConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
