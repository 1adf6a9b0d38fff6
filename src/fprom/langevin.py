"""Ensemble simulation of scalar Ito SDEs, Euler-Maruyama or exact.

Synthetic ground-truth generator: dx = h(x,t) dt + g(x,t) dW with h
and g picked from small registries. One call draws from one
counter-based RNG stream, Philox keyed (seed, 0), so identical inputs
give a bit-identical ensemble; seeds are confined to [0, 2**63) so that
no two seeds share a key.

Recorded every stride > 1 steps, additive noise (x-free h, constant g)
and geometric Brownian motion (h = b x, g = d x) are sampled once per
record interval: the first by its Euler-Maruyama increment over stride
steps, which is exactly Gaussian, the second by the SDE's exact step, so
it records the SDE's law, not Euler-Maruyama's. Every other run marches
all trajectories together step by step, x += h dt and then
x += g sqrt(dt) xi; h and g that do not depend on x are one float per
step.

write_ensemble writes the long-format CSV and an `.npz` sidecar keyed
by the CSV's sha256; read_ensemble loads the sidecar while it matches
the CSV and parses the CSV otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .density import DensityField, kde_estimate, read_csv_columns
from .errors import (
    InfeasibleConfigError,
    InputDataError,
    SolverDivergenceError,
    require_integer,
    require_seed,
    require_string,
)
from .estimation import TrajectoryEnsemble
from .grid import Grid

__all__ = [
    "SdeSpec",
    "SimPlan",
    "simulate",
    "ensemble_to_densities",
    "write_ensemble_csv",
    "write_ensemble",
    "read_ensemble",
]


# drift registry: kind -> (parameter names, h(params, x, t)); kinds
# that do not depend on x return one float
DRIFT_KINDS = {
    "constant": (("value",), lambda p, x, t: p[0]),
    "linear_in_t": (("a", "b"), lambda p, x, t: p[0] + p[1] * t),
    "linear_in_x": (("a", "b"), lambda p, x, t: x * p[1] + p[0]),
    "ornstein_uhlenbeck": (("theta", "mean"), lambda p, x, t: (x - p[1]) * -p[0]),
}

# noise registry: kind -> (parameter names, g(params, x, t))
NOISE_KINDS = {
    "constant": (("sigma",), lambda p, x, t: p[0]),
    "linear_in_x": (("a", "b"), lambda p, x, t: x * p[1] + p[0]),
}

X0_KINDS = ("point", "normal")

# drift kinds whose h does not depend on x; with constant noise and
# stride > 1 they take the once-per-record-interval additive path
_X_FREE_DRIFTS = ("constant", "linear_in_t")

# the sidecar digest reads the CSV through one reused buffer this size,
# which stays below glibc's default 128 KiB mmap threshold
_DIGEST_CHUNK = 64 * 1024

# write_ensemble_csv formats this many samples per orjson call: a few
# hundred trajectories at the usual 20-odd record times, so the digits
# of one block, not of the whole ensemble, are alive at once
_CSV_BLOCK = 8192

_ENSEMBLE_DTYPE = np.dtype([("traj_id", np.int64), ("t", float), ("x", float)])


@dataclass(frozen=True)
class SdeSpec:
    """Drift/noise selection with positional parameters, Ito reading."""

    drift_kind: str
    drift_params: tuple[float, ...]
    noise_kind: str
    noise_params: tuple[float, ...]

    def __post_init__(self) -> None:
        for kind, params, registry, label in (
            (self.drift_kind, self.drift_params, DRIFT_KINDS, "drift"),
            (self.noise_kind, self.noise_params, NOISE_KINDS, "noise"),
        ):
            require_string(kind, f"{label}.kind")
            if kind not in registry:
                raise InfeasibleConfigError(
                    f"unknown {label} kind {kind!r}; known: {sorted(registry)}"
                )
            names = registry[kind][0]
            vals = tuple(float(v) for v in params)
            if len(vals) != len(names):
                raise InfeasibleConfigError(
                    f"{label} kind {kind!r} takes {len(names)} parameters {names}, "
                    f"got {len(vals)}"
                )
            if not all(np.isfinite(v) for v in vals):
                raise InfeasibleConfigError(f"{label} parameters must be finite")
            object.__setattr__(self, f"{label}_params", vals)

    def drift(self, x: np.ndarray, t: float):
        """h(x, t): a float for x-free kinds, else one per state."""
        return DRIFT_KINDS[self.drift_kind][1](self.drift_params, x, t)

    def noise(self, x: np.ndarray, t: float):
        """g(x, t): a float for x-free kinds, else one per state."""
        return NOISE_KINDS[self.noise_kind][1](self.noise_params, x, t)


@dataclass(frozen=True)
class SimPlan:
    """How much to simulate and what to keep.

    horizon must be an integer multiple of dt, and the step count a
    multiple of stride, so the final time is always recorded.
    x0_params is (value,) for "point" and (mu, sigma) for "normal".
    """

    n_trajectories: int
    dt: float
    horizon: float
    stride: int = 1
    x0_kind: str = "point"
    x0_params: tuple[float, ...] = (0.0,)
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("n_trajectories", "stride"):
            object.__setattr__(self, name, require_integer(getattr(self, name), name))
        if self.n_trajectories < 1:
            raise InfeasibleConfigError("n_trajectories must be >= 1")
        if not self.dt > 0.0:
            raise InfeasibleConfigError("dt must be > 0")
        if self.stride < 1:
            raise InfeasibleConfigError("stride must be an integer >= 1")
        steps = self.horizon / self.dt
        if not math.isfinite(steps):
            raise InfeasibleConfigError(
                f"horizon / dt must be finite, got horizon {self.horizon} and dt {self.dt}"
            )
        n_steps = int(round(steps))
        if n_steps < 1 or abs(steps - n_steps) > 1e-9 * max(1.0, steps):
            raise InfeasibleConfigError(
                f"horizon {self.horizon} is not an integer multiple of dt {self.dt}"
            )
        if n_steps % self.stride != 0:
            raise InfeasibleConfigError(
                f"step count {n_steps} not divisible by stride {self.stride}; "
                "the final time would go unrecorded"
            )
        if require_string(self.x0_kind, "x0.kind") not in X0_KINDS:
            raise InfeasibleConfigError(f"unknown x0 kind {self.x0_kind!r}")
        want = 1 if self.x0_kind == "point" else 2
        params = tuple(float(v) for v in self.x0_params)
        if len(params) != want or not all(np.isfinite(v) for v in params):
            raise InfeasibleConfigError(
                f"x0 kind {self.x0_kind!r} takes {want} finite parameter(s)"
            )
        object.__setattr__(self, "x0_params", params)
        object.__setattr__(self, "seed", require_seed(self.seed))

    @property
    def n_steps(self) -> int:
        return int(round(self.horizon / self.dt))


def simulate(spec: SdeSpec, plan: SimPlan) -> TrajectoryEnsemble:
    """Euler-Maruyama ensemble x += h dt + g sqrt(dt) xi, recorded at
    the stride lattice, or geometric Brownian motion's exact law there.
    Identical (spec, plan) inputs give bit-identical ensembles.

    The Philox stream keyed [seed, 0] gives first the n_trajectories
    starting values when x0 is "normal", then n_trajectories normals per
    draw. With stride > 1 two kinds of SDE take one draw per record
    interval of s = stride dt:
    - additive noise (drift "constant" or "linear_in_t", noise
      "constant"): the Euler-Maruyama increment is normal with mean
      sum h(k dt) dt and variance g^2 s, so x += the left Riemann sum
      (math.fsum), then x += g sqrt(s) xi;
    - geometric Brownian motion (drift b x and noise d x, both
      "linear_in_x" with intercept 0): x *= exp((b - d^2/2) s +
      d sqrt(s) xi), the SDE's exact transition. Its recorded states
      follow the SDE's law, not Euler-Maruyama's, and dt only sets the
      record lattice.
    Otherwise, stride 1 and nonzero intercepts included, the march draws
    once per step.
    Both interval ensembles depend on the stride, and on every path a
    trajectory's path depends on how many trajectories are simulated.
    Besides the output the interval paths hold two or three arrays of
    n_trajectories floats and the march three to five, however many
    steps.

    Raises SolverDivergenceError on non-finite state and
    InfeasibleConfigError if the noise amplitude evaluates negative.
    The march names the first non-finite step; the interval paths
    resolve divergence only to the recorded step where it shows. They
    check the amplitude at t=0 alone, with the march's message: g is
    constant on one, and on the other d x keeps the sign of x0.
    """
    from numpy.random import Generator, Philox  # loaded by simulate only

    n_steps = plan.n_steps
    m = plan.n_trajectories
    try:
        out = np.empty((m, n_steps // plan.stride + 1))
    except (ValueError, MemoryError) as exc:
        raise InfeasibleConfigError(
            f"n_trajectories {m} by horizon {plan.horizon} / dt {plan.dt} / "
            f"stride {plan.stride} + 1 record times cannot be allocated: {exc}"
        ) from None
    times = np.arange(0, n_steps + 1, plan.stride) * plan.dt
    dt = plan.dt
    sqrt_dt = np.sqrt(dt)
    gen = Generator(Philox(key=[plan.seed, 0]))
    if plan.x0_kind == "normal":
        mu0, sigma0 = plan.x0_params
        x = gen.standard_normal(m)
        x *= sigma0
        x += mu0
    else:
        x = np.full(m, plan.x0_params[0])
    out[:, 0] = x
    _require_finite(x, 0, dt)
    additive = spec.drift_kind in _X_FREE_DRIFTS and spec.noise_kind == "constant"
    geometric = (
        spec.drift_kind == spec.noise_kind == "linear_in_x"
        and spec.drift_params[0] == spec.noise_params[0] == 0.0
    )
    if plan.stride > 1 and (additive or geometric):
        _require_nonnegative(spec.noise(x, 0.0), x, 0.0)
        # after the check, so that its g, an array for geometric Brownian
        # motion, and the draw buffer are never alive at once
        xi = np.empty(m)
        s = plan.stride * dt
        # g for additive noise, d for geometric Brownian motion
        scale = spec.noise_params[-1] * np.sqrt(s)
        if geometric:
            b, d = spec.drift_params[1], spec.noise_params[1]
            log_drift = (b - d * d / 2.0) * s
        for col in range(1, out.shape[1]):
            k1 = col * plan.stride
            if additive:
                left = range(k1 - plan.stride, k1)
                try:
                    x += math.fsum(spec.drift(x, k * dt) * dt for k in left)
                except (OverflowError, ValueError):
                    # the sum leaves the float range; fsum raises where the
                    # plain sum gives the inf or nan refused below
                    x += sum(spec.drift(x, k * dt) * dt for k in left)
            gen.standard_normal(out=xi)
            xi *= scale
            if additive:
                x += xi
            else:
                xi += log_drift
                np.exp(xi, out=xi)
                x *= xi
            _require_finite(x, k1, dt)
            out[:, col] = x
        return TrajectoryEnsemble(times=times, samples=out)
    for k in range(n_steps):
        t = k * dt
        g = spec.noise(x, t)
        _require_nonnegative(g, x, t)
        # two in-place adds: (x + h dt) + (g sqrt(dt)) xi
        x += spec.drift(x, t) * dt
        x += g * sqrt_dt * gen.standard_normal(m)
        _require_finite(x, k + 1, dt)
        if (k + 1) % plan.stride == 0:
            out[:, (k + 1) // plan.stride] = x
    return TrajectoryEnsemble(times=times, samples=out)


def _require_finite(x: np.ndarray, step: int, dt: float) -> None:
    """Refuse the states x after step (0 for the initial states), naming
    the first non-finite trajectory."""
    if not np.isfinite(x).all():
        bad = int(np.argmax(~np.isfinite(x)))
        raise SolverDivergenceError(
            f"trajectory {bad} non-finite at step {step} (t={step * dt})"
        )


def _require_nonnegative(g, x: np.ndarray, t: float) -> None:
    """Refuse a noise amplitude g (a float or one per state x) that is
    negative at time t, naming the first such state; NaN is not
    negative."""
    if np.less(g, 0.0).any():
        g = np.broadcast_to(g, x.shape)
        bad = int(np.argmax(g < 0.0))
        raise InfeasibleConfigError(
            f"noise amplitude negative ({g[bad]}) at t={t}, x={x[bad]}"
        )


def ensemble_to_densities(ens: TrajectoryEnsemble, grid: Grid) -> list[DensityField]:
    """KDE density at every level of the ensemble, each normalized on
    the grid and stamped with its level's time."""
    fields = []
    for k, tau in enumerate(ens.times.tolist()):
        try:
            fields.append(kde_estimate(ens.samples[:, k], grid, time_stamp=tau))
        except ValueError as exc:
            raise ValueError(f"KDE failed at t={tau}: {exc}") from exc
    return fields


def write_ensemble_csv(ens: TrajectoryEnsemble, path) -> str:
    """Long format `traj_id,t,x`, trajectory-major, each float as `repr`
    writes it: the shortest decimal that reads back to the same float.
    Returns the hex sha256 of the bytes written, fed as they are
    written, for write_ensemble's sidecar.

    The x digits come from orjson's Ryu (Adams, PLDI 2018), one
    orjson.dumps call per block of _CSV_BLOCK samples. Ryu's digits are
    repr's, and so is orjson's notation from 1e-4 up to 1e16 and at
    0.0 and -0.0; below 1e-4 it writes 0.0000467 for 4.67e-05, and
    from 1e16 up 1e16 for 1e+16, so a nonzero x with |x| < 1e-4 or
    |x| >= 1e16 is written by repr itself. One trajectory's rows are a
    `%s` template built once, with `#` as the id placeholder; no float
    repr contains that character."""
    import hashlib

    import orjson  # loaded by simulate only

    n = ens.n_times
    rows = "".join([f"#,{t!r},%s\n" for t in ens.times.tolist()]).encode()
    per_block = max(1, _CSV_BLOCK // n)
    header = b"traj_id,t,x\n"
    digest = hashlib.sha256(header)
    with open(path, "wb") as fh:
        fh.write(header)
        for r0 in range(0, ens.n_realizations, per_block):
            # ravel copies a block of a non-contiguous view, which
            # orjson refuses, into one C-ordered run
            x = ens.samples[r0 : r0 + per_block].ravel()
            digits = orjson.dumps(x, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1].split(b",")
            a = np.abs(x)
            for i in np.flatnonzero((a >= 1e16) | ((a < 1e-4) & (a > 0.0))).tolist():
                digits[i] = repr(float(x[i])).encode()
            ids = range(r0, r0 + x.size // n)
            block = b"".join([rows.replace(b"#", b"%d" % r) for r in ids]) % tuple(digits)
            digest.update(block)
            fh.write(block)
            del block  # so that the next block is not built beside it
    return digest.hexdigest()


def _read_ensemble_arrays(path) -> tuple[np.ndarray, np.ndarray]:
    """Parse the long format into (times, samples) without building the
    ensemble, so callers may transform coordinates first.

    All trajectories must share one time axis, that of the lowest id,
    and none may repeat a time; rows may arrive in any order. Errors
    name the file and the line, or the trajectory.
    """
    ids, t, x = read_csv_columns(path, _ENSEMBLE_DTYPE)
    if ids.size == 0:
        raise InputDataError(f"{path}: no data rows")
    order = np.lexsort((t, ids))
    ids, t, x = ids[order], t[order], x[order]
    repeat = (ids[1:] == ids[:-1]) & (t[1:] == t[:-1])
    if repeat.any():
        k = int(np.argmax(repeat))
        raise InputDataError(
            f"{path}: trajectory {int(ids[k])} repeats time {float(t[k])!r}"
        )
    traj, counts = np.unique(ids, return_counts=True)
    # row k is row pos[k] of its trajectory; a trajectory is off the
    # axis when its count, or any of its first n times, differs
    n = counts[0]
    starts = np.cumsum(counts) - counts
    pos = np.arange(t.size)
    pos -= np.repeat(starts, counts)
    off = t != t[np.minimum(pos, n - 1, out=pos)]
    bad = (counts != n) | np.logical_or.reduceat(off, starts)
    if bad.any():
        raise InputDataError(
            f"{path}: trajectory {int(traj[np.argmax(bad)])} does not share the common time axis"
        )
    return t[:n].copy(), x.reshape(traj.size, n)


def _sha256_hex(path) -> str:
    """Hex sha256 of the file's bytes, read in _DIGEST_CHUNK pieces."""
    import hashlib

    digest = hashlib.sha256()
    buf = bytearray(_DIGEST_CHUNK)
    view = memoryview(buf)
    with open(path, "rb") as fh:
        while n := fh.readinto(buf):
            digest.update(view[:n])
    return digest.hexdigest()


def write_ensemble(ens: TrajectoryEnsemble, csv_path) -> None:
    """Write ens to csv_path by write_ensemble_csv, and cache its arrays
    in `<csv_path>.npz` under the hex sha256 of the CSV bytes, which
    write_ensemble_csv returns. The CSV stays the system of record;
    deleting the sidecar is always safe."""
    sha256 = write_ensemble_csv(ens, csv_path)
    with open(f"{csv_path}.npz", "wb") as fh:
        np.savez(fh, times=ens.times, samples=ens.samples, sha256=np.array(sha256))


def read_ensemble(csv_path) -> tuple[np.ndarray, np.ndarray]:
    """(times, samples) of the ensemble CSV at csv_path: the arrays of
    `<csv_path>.npz` when its digest matches the CSV bytes and its
    arrays have the shapes a parse gives, the parse by
    _read_ensemble_arrays when the sidecar is missing, unreadable,
    stale or malformed. write_ensemble_csv's shortest round-trip
    decimals parse back bit for bit, so both give the same arrays."""
    import zipfile

    try:
        with open(f"{csv_path}.npz", "rb") as fh, np.load(fh, allow_pickle=False) as npz:
            if str(npz["sha256"]) == _sha256_hex(csv_path):
                times, samples = npz["times"], npz["samples"]
                if (
                    times.dtype == samples.dtype == np.float64
                    and times.ndim == 1
                    and samples.ndim == 2
                    and samples.shape[1] == times.size
                    and samples.size
                ):
                    return times, samples
    except (OSError, ValueError, KeyError, EOFError, zipfile.BadZipFile):
        pass
    return _read_ensemble_arrays(csv_path)
