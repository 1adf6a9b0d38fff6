"""Run configuration, orchestration, and artifact persistence.

The workflow mirrors a train/test split: ingest an ensemble or a
density list, split it at a configured time, calibrate coefficients on
the training part (moment regression or loss minimization), persist
the calibrated bundle, then propagate and score against the held-out
part.

Everything written to disk is deterministic: floats are serialized
with their shortest round-trip representation, key order is fixed,
and no timestamps or host details leak into outputs. Identical
config + inputs + seed reproduce byte-identical files.
"""

from __future__ import annotations

import json
import logging
import os
from dataclasses import dataclass, replace
from operator import attrgetter
from pathlib import Path

import numpy as np

from ._version import __version__
from .calibrate import DISTANCES, OPTIMIZERS, CalibrationProblem, calibrate, loss
from .coefficients import MAX_DEGREE, CoefficientModel
from .density import (
    KL_FLOOR,
    DensityField,
    kl_divergence_rows,
    read_density_csv,
    tikhonov_smooth,
    write_density_csv,
)
from .errors import (
    InfeasibleConfigError,
    InputDataError,
    SolverDivergenceError,
    read_table,
    require_float,
    require_floats,
    require_integer,
    require_keys,
    require_seed,
    require_string,
)
from .estimation import TrajectoryEnsemble, moment_series, regress_time_only_coefficients
from .grid import Grid
from .langevin import ensemble_to_densities, read_ensemble
from .sampling import TransformSpec, pushforward_density
from .solver import SolverConfig, solve

__all__ = [
    "ENV_OUTPUT_DIR",
    "RunConfig",
    "RomArtifact",
    "save_artifact",
    "load_artifact",
    "ingest",
    "split",
    "run_train",
    "run_predict",
    "run_validate",
    "resolve_output_dir",
]

ENV_OUTPUT_DIR = "FPROM_OUTPUT_DIR"

INPUT_MODES = ("ensemble", "densities")
METHODS = ("moment_regression", "loss_minimization")

_ARTIFACT_FORMAT = "fprom-artifact-v1"

# search box used when the config gives no bounds: one pair per drift
# coefficient, then one per diffusion coefficient
_DEFAULT_DRIFT_BOUND = (-2.0, 2.0)
_DEFAULT_DIFF_BOUND = (1e-5, 2.0)

_TIME_TOL = 1e-9

logger = logging.getLogger("fprom.pipeline")


def _fmt(value) -> str:
    """Deterministic text for report values (shortest float form)."""
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (tuple, list)):
        return "[" + ", ".join(_fmt(v) for v in value) + "]"
    return str(value)


def resolve_output_dir(explicit=None, configured=None) -> Path:
    """Explicit argument, then config, then the environment default,
    then the working directory."""
    for candidate in (explicit, configured, os.environ.get(ENV_OUTPUT_DIR)):
        if candidate:
            return Path(candidate)
    return Path(".")


def load_json_object(path) -> dict:
    """The JSON object held in the file at path; invalid JSON (bytes
    that are not UTF-8 too) or any other JSON value is refused with an
    InputDataError naming path."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise InputDataError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(raw, dict):
        raise InputDataError(f"{path}: not a JSON object")
    return raw


def _or_null(read):
    """read, except that a JSON null stays None."""
    return lambda value, what: None if value is None else read(value, what)


def _read_bounds(value, what: str) -> tuple[tuple[float, float], ...]:
    if not isinstance(value, list):
        raise InputDataError(f"{what} must be a list of [lo, hi] pairs, got {value!r}")
    return tuple(_read_pair(pair, f"{what}[{i}]") for i, pair in enumerate(value))


def _read_pair(value, what: str) -> tuple[float, ...]:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise InputDataError(f"{what} must be a [lo, hi] pair")
    return require_floats(value, what)


# One row per run-config key, in report order: (dotted key, reader,
# required, RunConfig attribute). Integers are read by the dataclasses'
# require_integer, so they pass through with no reader.
_RUN_KEYS = (
    ("input.mode", require_string, True, "input_mode"),
    ("input.path", require_string, True, "input_path"),
    ("grid.x_min", require_float, True, "grid.x_min"),
    ("grid.x_max", require_float, True, "grid.x_max"),
    ("grid.n_points", None, True, "grid.n_points"),
    ("transform", require_string, False, "transform.kind"),
    ("method", require_string, False, "method"),
    ("drift_degree", None, False, "drift_degree"),
    ("diff_degree", None, False, "diff_degree"),
    ("solver.integrator", require_string, False, "solver.integrator"),
    ("solver.dt", require_float, True, "solver.dt"),
    ("smoothing_lambda", require_float, False, "smoothing_lambda"),
    ("split.train_end", require_float, True, "train_end"),
    ("split.truncate_start", _or_null(require_float), False, "truncate_start"),
    ("bounds", _or_null(_read_bounds), False, "bounds"),
    ("weights", _or_null(require_floats), False, "weights"),
    ("distance", require_string, False, "distance"),
    ("optimizer", require_string, False, "optimizer"),
    ("budget", None, False, "budget"),
    ("fit_window", _or_null(_read_pair), False, "fit_window"),
    ("output_dir", _or_null(require_string), False, "output_dir"),
    ("seed", None, False, "seed"),
)
_PARTS = {"grid": Grid, "transform": TransformSpec, "solver": SolverConfig}


@dataclass(frozen=True)
class RunConfig:
    """Validated run description.

    defaulted lists the dotted config keys that were absent from the
    source file and filled from defaults; run reports echo it so every
    effective setting is on the record. solver leaves record_times
    unset: training takes them from its targets, prediction and
    validation from their own times.
    """

    input_mode: str
    input_path: str
    grid: Grid
    train_end: float
    solver: SolverConfig
    transform: TransformSpec = TransformSpec()
    method: str = "loss_minimization"
    drift_degree: int = 0
    diff_degree: int = 0
    smoothing_lambda: float = 1e-6
    truncate_start: float | None = None
    bounds: tuple[tuple[float, float], ...] | None = None
    weights: tuple[float, ...] | None = None
    distance: str = "kl"
    optimizer: str = "random_multistart_nelder_mead"
    budget: int = 500
    fit_window: tuple[float, float] | None = None
    output_dir: str | None = None
    seed: int = 0
    defaulted: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        for name in ("drift_degree", "diff_degree", "budget"):
            object.__setattr__(self, name, require_integer(getattr(self, name), name))
        if self.input_mode not in INPUT_MODES:
            raise InfeasibleConfigError(
                f"input mode must be one of {INPUT_MODES}, got {self.input_mode!r}"
            )
        for name, known in (
            ("method", METHODS),
            ("optimizer", OPTIMIZERS),
            ("distance", DISTANCES),
        ):
            if getattr(self, name) not in known:
                raise InfeasibleConfigError(
                    f"{name} must be one of {known}, got {getattr(self, name)!r}"
                )
        for label, degree in (
            ("drift_degree", self.drift_degree),
            ("diff_degree", self.diff_degree),
        ):
            if not (0 <= degree <= MAX_DEGREE):
                raise InfeasibleConfigError(f"{label} must be in 0..{MAX_DEGREE}")
        if not np.isfinite(self.train_end):
            raise InfeasibleConfigError("split.train_end must be finite")
        if self.truncate_start is not None:
            if not np.isfinite(self.truncate_start):
                raise InfeasibleConfigError("split.truncate_start must be finite")
            if self.truncate_start >= self.train_end:
                raise InfeasibleConfigError(
                    "split.truncate_start must precede split.train_end"
                )
        if not (np.isfinite(self.smoothing_lambda) and self.smoothing_lambda > 0.0):
            raise InfeasibleConfigError("smoothing_lambda must be finite and > 0")
        if self.budget < 50:
            raise InfeasibleConfigError("budget must be >= 50")
        if self.fit_window is not None:
            lo, hi = self.fit_window
            if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
                raise InfeasibleConfigError("fit_window must be a finite (lo, hi)")
            object.__setattr__(self, "fit_window", (float(lo), float(hi)))
        if self.input_mode == "densities" and self.transform.kind != "identity":
            raise InfeasibleConfigError(
                "density-list inputs are taken as already being in model "
                "coordinates; transform must be identity"
            )
        object.__setattr__(self, "seed", require_seed(self.seed))

    @classmethod
    def from_dict(cls, raw: dict, base_dir: Path | None = None) -> "RunConfig":
        values, absent = read_table(raw, "config", _RUN_KEYS)
        # an attribute "part.name" is an argument of the _PARTS dataclass in
        # field part; keys the config leaves out keep the dataclass defaults
        parts: dict[str, dict] = {}
        for key, _, _, attr in _RUN_KEYS:
            if key in values:
                owner, _, name = attr.rpartition(".")
                parts.setdefault(owner, {})[name] = values[key]
        kwargs = parts.pop("")
        kwargs.update({owner: _PARTS[owner](**args) for owner, args in parts.items()})
        if base_dir is not None and not os.path.isabs(kwargs["input_path"]):
            kwargs["input_path"] = str(Path(base_dir) / kwargs["input_path"])
        return cls(**kwargs, defaulted=tuple(absent))

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        """Load a JSON run config; relative input paths resolve against
        the config file's directory, and refusals of its content, exit 2
        or 4, name the file."""
        raw = load_json_object(path)
        try:
            return cls.from_dict(raw, base_dir=Path(path).parent)
        except (InputDataError, InfeasibleConfigError) as exc:
            raise type(exc)(f"{path}: {exc}") from None

    def report_items(self) -> list[tuple[str, str]]:
        """Effective settings as ordered key=value material: every config
        key in table order, with "." turned into "_", then defaulted.
        The output directory is where the report goes, not a setting."""
        items = [
            (key.replace(".", "_"), _fmt(attrgetter(attr)(self)))
            for key, _, _, attr in _RUN_KEYS
            if attr != "output_dir"
        ]
        items.append(("defaulted", ",".join(self.defaulted) or "none"))
        return items


@dataclass(frozen=True)
class RomArtifact:
    """Calibrated model bundle: everything needed to propagate.

    ``grid`` is the initial density's grid; no second copy is kept.
    """

    model: CoefficientModel
    transform: TransformSpec
    initial_density: DensityField
    train_window: tuple[float, float]
    method: str
    loss: float
    seed: int
    tool_version: str = __version__

    def __post_init__(self) -> None:
        first, last = (float(t) for t in self.train_window)
        if not (np.isfinite(first) and np.isfinite(last) and first <= last):
            raise InfeasibleConfigError(
                f"training window [{first}, {last}] is empty or not finite"
            )
        if self.method not in METHODS:
            raise InfeasibleConfigError(f"unknown calibration method {self.method!r}")
        object.__setattr__(self, "train_window", (first, last))
        object.__setattr__(self, "loss", float(self.loss))
        object.__setattr__(self, "seed", require_seed(self.seed))

    @property
    def grid(self) -> Grid:
        return self.initial_density.grid


def save_artifact(artifact: RomArtifact, path) -> None:
    """Canonical JSON with fixed key order and exact float round-trip."""
    payload = {
        "format": _ARTIFACT_FORMAT,
        "tool_version": artifact.tool_version,
        "grid": {
            "x_min": artifact.grid.x_min,
            "x_max": artifact.grid.x_max,
            "n_points": artifact.grid.n_points,
        },
        "model": {
            "drift_poly": list(artifact.model.drift_poly),
            "diff_poly": list(artifact.model.diff_poly),
        },
        "transform": artifact.transform.kind,
        "train_window": list(artifact.train_window),
        "initial_density": {
            "time_stamp": artifact.initial_density.time_stamp,
            "values": artifact.initial_density.values.tolist(),
        },
        "metadata": {
            "method": artifact.method,
            "loss": artifact.loss,
            "seed": artifact.seed,
        },
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def load_artifact(path) -> RomArtifact:
    payload = load_json_object(path)
    if payload.get("format") != _ARTIFACT_FORMAT:
        raise InputDataError(f"{path}: not a {_ARTIFACT_FORMAT} file")

    def section(name: str, required: tuple[str, ...]) -> dict:
        return require_keys(payload.get(name), name, required, document="artifact")

    try:
        require_keys(
            payload,
            "artifact",
            allowed=(
                "format",
                "tool_version",
                "grid",
                "model",
                "transform",
                "train_window",
                "initial_density",
                "metadata",
            ),
        )
        grid = Grid(**section("grid", ("x_min", "x_max", "n_points")))
        model = CoefficientModel(**section("model", ("drift_poly", "diff_poly")))
        dens = section("initial_density", ("time_stamp", "values"))
        f0 = DensityField(
            grid=grid,
            values=np.asarray(dens["values"], dtype=float),
            time_stamp=float(dens["time_stamp"]),
        )
        meta = section("metadata", ("method", "loss", "seed"))
        return RomArtifact(
            model=model,
            transform=TransformSpec(payload["transform"]),
            initial_density=f0,
            train_window=tuple(payload["train_window"]),
            method=meta["method"],
            loss=meta["loss"],
            seed=meta["seed"],
            tool_version=payload["tool_version"],
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise InputDataError(f"{path}: malformed artifact ({exc})") from exc


def _read_manifest(path) -> list[tuple[float, str]]:
    """Parse `time,path` lines; a first line whose fields are `time` and
    `path`, spaces around them allowed, is taken as a header."""
    entries: list[tuple[float, str]] = []
    base = Path(path).parent
    try:
        with open(path) as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                header = [c.strip() for c in line.split(",")] == ["time", "path"]
                if not line or (lineno == 1 and header):
                    continue
                parts = line.split(",", 1)
                if len(parts) != 2:
                    raise InputDataError(
                        f"{path}:{lineno}: expected 'time,path'"
                    )
                try:
                    t = float(parts[0])
                except ValueError as exc:
                    raise InputDataError(f"{path}:{lineno}: {exc}") from exc
                if not np.isfinite(t):
                    raise InputDataError(f"{path}:{lineno}: non-finite time")
                target = parts[1].strip()
                if not os.path.isabs(target):
                    target = str(base / target)
                entries.append((t, target))
    except OSError as exc:
        raise InputDataError(f"{path}: {exc}") from exc
    if not entries:
        raise InputDataError(f"{path}: empty manifest")
    entries.sort(key=lambda item: item[0])
    times = [t for t, _ in entries]
    if any(b <= a for a, b in zip(times, times[1:])):
        raise InputDataError(f"{path}: duplicate times in manifest")
    return entries


def ingest(config: RunConfig, side: str | None = None):
    """Load and validate the configured dataset, or one side of its split.

    Ensemble mode returns a TrajectoryEnsemble with the configured
    transform already applied (log transforms require positive raw
    values, and the transformed time axis must come out uniform), from
    the arrays langevin.read_ensemble gives. Density mode returns
    DensityFields in time order, each on the configured grid.

    side None gives the whole dataset; "training" or "testing" gives
    that side of split at config.train_end and config.truncate_start.
    In density mode the manifest's times are split before any density
    file is read, so a split refusal comes before any file error and
    only that side's files are read at all.
    """
    pick = None if side is None else ("training", "testing").index(side)
    if config.input_mode == "ensemble":
        times, samples = read_ensemble(config.input_path)
        tf = config.transform
        times = tf.forward_t(times)
        samples = tf.forward_x(samples)
        try:
            ens = TrajectoryEnsemble(times=times, samples=samples)
        except ValueError as exc:
            raise InputDataError(f"{config.input_path}: {exc}") from exc
        if pick is None:
            return ens
        return split(ens, config.train_end, config.truncate_start)[pick]

    entries = _read_manifest(config.input_path)
    if pick is not None:
        start, end = _split_levels(
            np.array([t for t, _ in entries]), config.train_end, config.truncate_start
        )
        entries = (entries[start : end + 1], entries[end + 1 :])[pick]
    fields = []
    for t, file_path in entries:
        field = read_density_csv(file_path, time_stamp=t)
        if field.grid != config.grid:
            raise InfeasibleConfigError(
                f"{file_path}: density grid ({field.grid.x_min}, "
                f"{field.grid.x_max}, {field.grid.n_points}) differs from the "
                "configured grid; density inputs are not re-gridded at ingest"
            )
        fields.append(field)
    return fields


def _level_index(times: np.ndarray, value: float, label: str) -> int:
    span = max(1.0, float(np.max(np.abs(times))))
    hits = np.nonzero(np.abs(times - value) <= _TIME_TOL * span)[0]
    if hits.size == 0:
        raise InfeasibleConfigError(f"{label} {value} is not on the time axis")
    return int(hits[0])


def _split_levels(
    times: np.ndarray, train_end: float, truncate_start: float | None
) -> tuple[int, int]:
    """(start, end): training takes levels start..end of the increasing
    times, testing every level after end, and neither side is empty."""
    end = _level_index(times, float(train_end), "split.train_end")
    start = 0
    if truncate_start is not None:
        start = _level_index(times, float(truncate_start), "split.truncate_start")
    if start > end:
        raise InfeasibleConfigError("truncate_start lies after train_end")
    if end + 1 >= times.size:
        raise InfeasibleConfigError(
            f"train_end {train_end} leaves an empty testing side"
        )
    return start, end


def split(dataset, train_end: float, truncate_start: float | None = None):
    """Partition by time into (training, testing): training takes
    [truncate_start or t0, train_end], testing takes everything after.
    Both sides must be non-empty (ensembles additionally need two
    levels per side). ingest(config, side) splits a manifest's times by
    the same levels and refusals before it reads any density file."""
    if isinstance(dataset, TrajectoryEnsemble):
        times = dataset.times
    else:
        times = np.asarray([f.time_stamp for f in dataset], dtype=float)
        if times.size == 0:
            raise InfeasibleConfigError("cannot split an empty density list")
        if any(b <= a for a, b in zip(times, times[1:])):
            raise InfeasibleConfigError("density list must be in time order")
    start, end = _split_levels(times, train_end, truncate_start)
    if isinstance(dataset, TrajectoryEnsemble):
        if end + 1 - start < 2 or times.size - (end + 1) < 2:
            raise InfeasibleConfigError(
                "ensemble splits need at least two time levels per side; "
                f"got {end + 1 - start} training and "
                f"{times.size - (end + 1)} testing"
            )
        make = lambda lo, hi: TrajectoryEnsemble(
            times=dataset.times[lo:hi], samples=dataset.samples[:, lo:hi]
        )
        return make(start, end + 1), make(end + 1, times.size)
    return list(dataset[start : end + 1]), list(dataset[end + 1 :])


def _densities(side, grid: Grid) -> list[DensityField]:
    """A split side as densities: the KDE of each ensemble level on
    grid, or the density list itself."""
    if isinstance(side, TrajectoryEnsemble):
        return ensemble_to_densities(side, grid)
    return list(side)


def moment_regression(config: RunConfig, training) -> CoefficientModel:
    """Regress drift and diffusion polynomials on the training side's
    mean and variance over config.fit_window (default: the whole
    training span)."""
    series = moment_series(training)
    window = config.fit_window
    if window is None:
        window = (float(series.times[0]), float(series.times[-1]))
    return regress_time_only_coefficients(
        series,
        fit_window=window,
        drift_degree=config.drift_degree,
        diff_degree=config.diff_degree,
    )


def _default_bounds(config: RunConfig) -> tuple[tuple[float, float], ...]:
    return (_DEFAULT_DRIFT_BOUND,) * (config.drift_degree + 1) + (
        _DEFAULT_DIFF_BOUND,
    ) * (config.diff_degree + 1)


def _search_start(config: RunConfig, training, bounds) -> np.ndarray | None:
    """The moment-regression parameters clipped to bounds, or None when
    moment regression refuses the training set."""
    try:
        model = moment_regression(config, training)
    except ValueError:
        return None
    lo, hi = np.asarray(bounds).T
    return np.clip(model.drift_poly + model.diff_poly, lo, hi)


def run_train(config: RunConfig, output_dir=None):
    """Calibrate on the training side and persist the result.

    Only the training side is ingested: in density mode the testing
    side's files are never read, so a missing or malformed one does
    not stop training.

    Loss minimization with "nelder_mead" starts from the moment
    regression's coefficients, clipped to the bounds, and from the
    middle of the bounds when moment regression refuses the training
    set; the report says which (start=moment_regression or
    start=midpoint). Returns (artifact, report text). When an output
    directory is resolved, artifact.json and run_report.txt are written
    there.
    """
    training = ingest(config, "training")
    train_fields = _densities(training, config.grid)
    if len(train_fields) < 2:
        raise InfeasibleConfigError(
            "training side needs at least two time levels: one initial "
            "density plus one target"
        )
    f0 = tikhonov_smooth(train_fields[0], lam=config.smoothing_lambda)
    problem = CalibrationProblem(
        initial_density=f0,
        targets=tuple((f.time_stamp, f) for f in train_fields[1:]),
        drift_degree=config.drift_degree,
        diff_degree=config.diff_degree,
        bounds=config.bounds if config.bounds is not None else _default_bounds(config),
        solver=config.solver,
        weights=config.weights,
        distance=config.distance,
    )

    extra: list[tuple[str, str]] = []
    if config.method == "loss_minimization":
        start = None
        if config.optimizer == "nelder_mead":
            start = _search_start(config, training, problem.bounds)
            extra.append(("start", "midpoint" if start is None else "moment_regression"))
        result = calibrate(
            problem,
            optimizer=config.optimizer,
            budget=config.budget,
            seed=config.seed,
            start=start,
        )
        model = result.model
        final_loss = result.final_loss
        extra.append(("n_evaluations", _fmt(result.n_evaluations)))
        extra.append(("converged", _fmt(result.converged)))
    else:
        model = moment_regression(config, training)
        # score the regressed model with the same loss for comparability
        final_loss = loss(
            problem, np.asarray(model.drift_poly + model.diff_poly)
        )

    artifact = RomArtifact(
        model=model,
        transform=config.transform,
        initial_density=f0,
        train_window=(train_fields[0].time_stamp, train_fields[-1].time_stamp),
        method=config.method,
        loss=final_loss,
        seed=config.seed,
    )

    lines = [f"{k}={v}" for k, v in config.report_items()]
    lines.append(f"train_window={_fmt(list(artifact.train_window))}")
    lines.append(f"n_training_times={len(train_fields)}")
    lines.append(f"drift_poly={_fmt(list(model.drift_poly))}")
    lines.append(f"diff_poly={_fmt(list(model.diff_poly))}")
    lines.append(f"loss={_fmt(final_loss)}")
    lines.extend(f"{k}={v}" for k, v in extra)
    lines.append(f"tool_version={__version__}")
    report = "\n".join(lines) + "\n"

    out = resolve_output_dir(output_dir, config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    save_artifact(artifact, out / "artifact.json")
    (out / "run_report.txt").write_text(report)
    return artifact, report


def run_predict(
    artifact: RomArtifact,
    horizon: float,
    record_times,
    solver: SolverConfig,
    output_dir=None,
):
    """Propagate the artifact forward and export per-time densities.

    The sorted record_times replace solver's own; they must not exceed
    horizon, which must lie beyond the training window. With a
    non-identity transform each density is also mapped back to original
    units and exported alongside: cell averages on a uniform grid over
    the exponentiated domain, which keep the CDF exactly, so no mass is
    lost or renormalised and no seed is used. Returns (densities, reconstructed densities).
    """
    record_times = tuple(float(t) for t in record_times)
    if not record_times:
        raise InfeasibleConfigError("at least one record time is required")
    if not horizon > artifact.train_window[1]:
        raise InfeasibleConfigError(
            f"prediction horizon {horizon} does not extend beyond the "
            f"training window end {artifact.train_window[1]}"
        )
    if max(record_times) > horizon + _TIME_TOL * max(1.0, abs(horizon)):
        raise InfeasibleConfigError("record times must not exceed the horizon")
    trace = solve(
        artifact.initial_density,
        artifact.model,
        replace(solver, record_times=sorted(record_times)),
    )
    if trace.diverged:
        raise SolverDivergenceError(f"forward solve diverged: {trace.diagnostic}")
    densities = list(trace.snapshots)

    reconstructed: list[DensityField] = []
    if artifact.transform.kind != "identity":
        lo = float(np.exp(artifact.grid.x_min))
        hi = float(np.exp(artifact.grid.x_max))
        target = Grid(x_min=lo, x_max=hi, n_points=artifact.grid.n_points)
        reconstructed = [
            pushforward_density(f, artifact.transform, target) for f in densities
        ]

    if output_dir is not None or os.environ.get(ENV_OUTPUT_DIR):
        out = resolve_output_dir(output_dir)
        out.mkdir(parents=True, exist_ok=True)
        _write_density_set(out, "predicted", densities)
        if reconstructed:
            _write_density_set(out, "reconstructed", reconstructed)
    return densities, reconstructed


def _write_density_set(out: Path, prefix: str, fields: list[DensityField]) -> None:
    with open(out / f"{prefix}_manifest.csv", "w") as fh:
        fh.write("time,path\n")
        for i, field in enumerate(fields):
            name = f"{prefix}_{i:04d}.csv"
            write_density_csv(field, out / name)
            fh.write(f"{field.time_stamp!r},{name}\n")


def _regrid(field: DensityField, grid: Grid) -> DensityField:
    """Linear interpolation onto grid, then renormalization."""
    values = np.interp(grid.nodes, field.grid.nodes, field.values, left=0.0, right=0.0)
    return DensityField.normalized(grid, values, field.time_stamp)


def run_validate(
    artifact: RomArtifact,
    testing,
    solver: SolverConfig,
    output_dir=None,
):
    """Score the artifact against held-out densities at their own times,
    which replace solver's record_times.

    testing is a TrajectoryEnsemble (KDE is applied per level on the
    artifact grid) or a list of DensityFields; fields on a different
    grid are re-gridded by linear interpolation plus renormalization,
    which is logged. A field whose mass is then off 1 by more than
    1e-3 is refused with InputDataError naming its time, before the
    solve. Returns rows (time, kl, l1) of the values
    kl_divergence and l1_distance give for (test, predicted), scored in
    one pass over the solve's states; the final row is echoed as the
    summary line of metrics.csv.
    """
    fields = _densities(testing, artifact.grid)
    if not fields:
        raise InfeasibleConfigError("testing set is empty")
    prepared = []
    for field in fields:
        if field.grid != artifact.grid:
            logger.info(
                "re-gridding test density at t=%r onto the artifact grid",
                field.time_stamp,
            )
            field = _regrid(field, artifact.grid)
        prepared.append(field)
    times = [f.time_stamp for f in prepared]
    if any(b <= a for a, b in zip(times, times[1:])):
        raise InfeasibleConfigError("testing densities must be in time order")
    targets = np.array([f.values for f in prepared])
    x = artifact.grid.nodes
    for t, mass in zip(times, np.trapezoid(targets, x).tolist()):
        if abs(mass - 1.0) > 1e-3:
            raise InputDataError(f"testing density at t={t!r} not normalized: mass {mass!r}")
    trace = solve(
        artifact.initial_density, artifact.model, replace(solver, record_times=times)
    )
    if trace.diverged:
        raise SolverDivergenceError(f"forward solve diverged: {trace.diagnostic}")
    kl_rows = kl_divergence_rows(targets, trace.states, x, support=targets > KL_FLOOR)
    l1_rows = np.trapezoid(np.abs(targets - trace.states), x).tolist()
    rows = [(t, max(kl, 0.0), l1) for t, kl, l1 in zip(times, kl_rows, l1_rows)]

    if output_dir is not None or os.environ.get(ENV_OUTPUT_DIR):
        out = resolve_output_dir(output_dir)
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "metrics.csv", "w") as fh:
            fh.write("time,kl,l1\n")
            for t, kl, l1 in rows:
                fh.write(f"{t!r},{kl!r},{l1!r}\n")
            t, kl, l1 = rows[-1]
            fh.write(f"final,{kl!r},{l1!r}\n")
    return rows
