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
all trajectories together step by step, in place: h and g that do not
depend on x are one float per step, applied as scalars, and the others
are written into two buffers reused from step to step, always in the
operation order (x + h dt) + (g sqrt(dt)) xi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .density import DensityField, _read_csv_columns, kde_estimate
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
    "write_ensemble_sidecar",
    "read_ensemble_sidecar",
]


def _linear_in_x(p, x, t, out):
    """a + b x into out: p[1] * x first, then p[0] added."""
    return np.add(np.multiply(x, p[1], out=out), p[0], out=out)


# drift registry: kind -> (parameter names, h(params, x, t, out)); kinds
# that do not depend on x return one float, the others write h into out
# and return it
DRIFT_KINDS = {
    "constant": (("value",), lambda p, x, t, out: p[0]),
    "linear_in_t": (("a", "b"), lambda p, x, t, out: p[0] + p[1] * t),
    "linear_in_x": (("a", "b"), _linear_in_x),
    "ornstein_uhlenbeck": (
        ("theta", "mean"),
        lambda p, x, t, out: np.multiply(np.subtract(x, p[1], out=out), -p[0], out=out),
    ),
}

# noise registry: kind -> (parameter names, g(params, x, t, out)), with
# the same float-or-out convention
NOISE_KINDS = {
    "constant": (("sigma",), lambda p, x, t, out: p[0]),
    "linear_in_x": (("a", "b"), _linear_in_x),
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

    def drift(self, x: np.ndarray, t: float, out: np.ndarray):
        """h(x, t): a float for x-free kinds, else written into out."""
        return DRIFT_KINDS[self.drift_kind][1](self.drift_params, x, t, out)

    def noise(self, x: np.ndarray, t: float, out: np.ndarray):
        """g(x, t): a float for x-free kinds, else written into out."""
        return NOISE_KINDS[self.noise_kind][1](self.noise_params, x, t, out)


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
    Besides the output the interval paths hold two arrays of
    n_trajectories floats and the march four, however many steps.

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
    out = np.empty((m, n_steps // plan.stride + 1))
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
    xi = np.empty(m)
    out[:, 0] = x
    _require_finite(x, 0, dt)
    additive = spec.drift_kind in _X_FREE_DRIFTS and spec.noise_kind == "constant"
    geometric = (
        spec.drift_kind == spec.noise_kind == "linear_in_x"
        and spec.drift_params[0] == spec.noise_params[0] == 0.0
    )
    if plan.stride > 1 and (additive or geometric):
        _require_nonnegative(spec.noise(x, 0.0, xi), x, 0.0)
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
                    x += math.fsum(spec.drift(x, k * dt, xi) * dt for k in left)
                except (OverflowError, ValueError):
                    # the sum leaves the float range; fsum raises where the
                    # plain sum gives the inf or nan refused below
                    x += sum(spec.drift(x, k * dt, xi) * dt for k in left)
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
    h_buf = np.empty(m)
    g_buf = np.empty(m)
    col = 1
    for k in range(n_steps):
        t = k * dt
        g = spec.noise(x, t, g_buf)
        _require_nonnegative(g, x, t)
        # (x + h dt) + (g sqrt(dt)) xi, the same operations in place
        h = spec.drift(x, t, h_buf)
        if isinstance(h, float):
            x += h * dt
        else:
            h *= dt
            x += h
        gen.standard_normal(out=xi)
        if isinstance(g, float):
            xi *= g * sqrt_dt
            x += xi
        else:
            g *= sqrt_dt
            g *= xi
            x += g
        _require_finite(x, k + 1, dt)
        if (k + 1) % plan.stride == 0:
            out[:, col] = x
            col += 1
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
    negative at time t, naming the first such state."""
    if g < 0.0 if isinstance(g, float) else _any_negative(g):
        g = np.broadcast_to(g, x.shape)
        bad = int(np.argmax(g < 0.0))
        raise InfeasibleConfigError(
            f"noise amplitude negative ({g[bad]}) at t={t}, x={x[bad]}"
        )


def _any_negative(g: np.ndarray) -> bool:
    """(g < 0.0).any() without the boolean temporary: fmin skips NaN,
    so the least non-NaN amplitude decides, and an all-NaN g is not
    negative."""
    return bool(np.fmin.reduce(g) < 0.0)


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
    written, for write_ensemble_sidecar.

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
    ids, t, x = _read_csv_columns(path, _ENSEMBLE_DTYPE)
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


def write_ensemble_sidecar(ens: TrajectoryEnsemble, csv_path, sha256: str) -> None:
    """Cache the arrays of an ensemble already written to csv_path in
    `<csv_path>.npz`, keyed by sha256, the hex digest of the CSV bytes
    that write_ensemble_csv returns. The CSV stays the system of record;
    deleting the sidecar is always safe."""
    with open(f"{csv_path}.npz", "wb") as fh:
        np.savez(fh, times=ens.times, samples=ens.samples, sha256=np.array(sha256))


def read_ensemble_sidecar(csv_path) -> tuple[np.ndarray, np.ndarray] | None:
    """(times, samples) from `<csv_path>.npz` when its digest matches
    the CSV bytes and its arrays have the shapes a parse gives; None
    when the sidecar is missing, unreadable, stale or malformed.
    write_ensemble_csv's shortest round-trip decimals parse back bit for
    bit, so a matching sidecar holds exactly what _read_ensemble_arrays
    would return."""
    import zipfile

    try:
        with open(f"{csv_path}.npz", "rb") as fh, np.load(fh, allow_pickle=False) as npz:
            if str(npz["sha256"]) != _sha256_hex(csv_path):
                return None
            times, samples = npz["times"], npz["samples"]
    except (OSError, ValueError, KeyError, EOFError, zipfile.BadZipFile):
        return None
    if (
        times.dtype != np.float64
        or samples.dtype != np.float64
        or times.ndim != 1
        or samples.ndim != 2
        or samples.shape[1] != times.size
        or samples.size == 0
    ):
        return None
    return times, samples
