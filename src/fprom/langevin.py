"""Euler-Maruyama ensemble simulation of scalar Ito SDEs.

Synthetic ground-truth generator: dx = h(x,t) dt + g(x,t) dW with h
and g picked from small registries. Every trajectory draws from its
own counter-based RNG stream keyed by (seed, trajectory index), so the
ensemble is bit-identical regardless of chunking or scheduling. A
Philox stream's whole state is (key, counter), so one Philox re-keyed
to a fresh state per trajectory replays exactly the stream a new
Philox(key=[seed, r]) would; seeds are confined to [0, 2**63) so that
no two seeds share a key.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox

from .density import DensityField, _load_csv_table, kde_estimate
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

# drift registry: kind -> (parameter names, h(params, x, t)); h and g
# return fresh arrays, which simulate scales in place
DRIFT_KINDS = {
    "constant": (("value",), lambda p, x, t: np.full_like(x, p[0])),
    "linear_in_t": (("a", "b"), lambda p, x, t: np.full_like(x, p[0] + p[1] * t)),
    "linear_in_x": (("a", "b"), lambda p, x, t: p[0] + p[1] * x),
    "ornstein_uhlenbeck": (("theta", "mean"), lambda p, x, t: -p[0] * (x - p[1])),
}

# noise registry: kind -> (parameter names, g(params, x, t))
NOISE_KINDS = {
    "constant": (("sigma",), lambda p, x, t: np.full_like(x, p[0])),
    "linear_in_x": (("a", "b"), lambda p, x, t: p[0] + p[1] * x),
}

X0_KINDS = ("point", "normal")

_CHUNK = 8192

# noise is drawn trajectory by trajectory into a reused buffer of at
# most _DRAW_ROWS rows and _DRAW_DOUBLES values, then transposed into
# the step-major noise array; 125 KiB stays under glibc's default
# 128 KiB mmap threshold, so the buffer comes from the heap and freeing
# it does not raise the allocator's dynamic mmap threshold for the rest
# of the process
_DRAW_ROWS = 8
_DRAW_DOUBLES = 16_000

# the sidecar digest reads the CSV through one reused buffer this size,
# which stays on the heap like the noise draw buffer above
_DIGEST_CHUNK = 64 * 1024

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

    def drift(self, x: np.ndarray, t: float) -> np.ndarray:
        return DRIFT_KINDS[self.drift_kind][1](self.drift_params, x, t)

    def noise(self, x: np.ndarray, t: float) -> np.ndarray:
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
    """Euler-Maruyama march x += h dt + g sqrt(dt) xi, recorded at the
    stride lattice. Identical (spec, plan) inputs give bit-identical
    ensembles.

    Trajectory r draws from the Philox stream keyed [seed, r]: first x0
    when x0 is "normal", then one increment per step, whatever the
    stride. One Philox is re-keyed per trajectory, which leaves every
    stream unchanged. The increments are held step-major, n_steps x
    min(n_trajectories, 8192) float64, so each step reads one
    contiguous row; trajectories beyond 8192 reuse that array chunk by
    chunk.

    Raises SolverDivergenceError on non-finite state and
    InfeasibleConfigError if the noise amplitude evaluates negative.
    """
    n_steps = plan.n_steps
    n_rec = n_steps // plan.stride + 1
    out = np.empty((plan.n_trajectories, n_rec))
    times = np.arange(0, n_steps + 1, plan.stride) * plan.dt
    dt = plan.dt
    sqrt_dt = np.sqrt(dt)
    normal_x0 = plan.x0_kind == "normal"
    bits = Philox(key=[plan.seed, 0])
    fresh = bits.state
    gen = Generator(bits)
    noise = np.empty((n_steps, min(plan.n_trajectories, _CHUNK)))
    seg = min(n_steps, _DRAW_DOUBLES)
    rows = min(_DRAW_ROWS, _DRAW_DOUBLES // seg, noise.shape[1])
    buf = np.empty((rows, seg))
    for lo in range(0, plan.n_trajectories, _CHUNK):
        hi = min(lo + _CHUNK, plan.n_trajectories)
        m = hi - lo
        x = np.empty(m)
        # rows > 1 only when one segment holds all n_steps; with longer
        # paths each block is one trajectory, whose stream simply goes on
        # from segment to segment
        for j0 in range(0, m, rows):
            j1 = min(j0 + rows, m)
            for k0 in range(0, n_steps, seg):
                k1 = min(k0 + seg, n_steps)
                for j in range(j0, j1):
                    if k0 == 0:
                        fresh["state"]["key"] = np.array(
                            [plan.seed, lo + j], dtype=np.uint64
                        )
                        bits.state = fresh
                        if normal_x0:
                            mu0, sigma0 = plan.x0_params
                            x[j] = mu0 + sigma0 * gen.standard_normal()
                        else:
                            x[j] = plan.x0_params[0]
                    gen.standard_normal(out=buf[j - j0, : k1 - k0])
                noise[k0:k1, j0:j1] = buf[: j1 - j0, : k1 - k0].T
        out[lo:hi, 0] = x
        col = 1
        for k in range(n_steps):
            t = k * dt
            g = spec.noise(x, t)
            if (g < 0.0).any():
                bad = int(np.argmax(g < 0.0))
                raise InfeasibleConfigError(
                    f"noise amplitude negative ({g[bad]}) at t={t}, x={x[bad]}"
                )
            # (x + h dt) + (g sqrt(dt)) xi, the same operations in place
            step = spec.drift(x, t)
            step *= dt
            g *= sqrt_dt
            g *= noise[k, :m]
            x += step
            x += g
            if not np.isfinite(x).all():
                bad = int(np.argmax(~np.isfinite(x)))
                raise SolverDivergenceError(
                    f"trajectory {lo + bad} non-finite at step {k + 1} "
                    f"(t={(k + 1) * dt})"
                )
            if (k + 1) % plan.stride == 0:
                out[lo:hi, col] = x
                col += 1
    return TrajectoryEnsemble(times=times, samples=out, transform="identity")


def ensemble_to_densities(
    ens: TrajectoryEnsemble, grid: Grid, times, bandwidth="auto"
) -> list[DensityField]:
    """KDE density per requested time, each normalized on the grid.

    The requested times must already be on the ensemble time axis
    (1e-9 relative); no interpolation happens here.
    """
    axis = ens.times
    span = max(1.0, float(np.max(np.abs(axis))))
    fields = []
    for tau in times:
        hits = np.nonzero(np.abs(axis - tau) <= 1e-9 * span)[0]
        if hits.size == 0:
            raise InfeasibleConfigError(f"time {tau} not on the ensemble axis")
        k = int(hits[0])
        try:
            fields.append(
                kde_estimate(ens.samples[:, k], grid, bandwidth, time_stamp=float(axis[k]))
            )
        except ValueError as exc:
            raise ValueError(f"KDE failed at t={axis[k]}: {exc}") from exc
    return fields


def write_ensemble_csv(ens: TrajectoryEnsemble, path) -> None:
    """Long format `traj_id,t,x`, trajectory-major, shortest round-trip
    decimals. The transform tag is not stored; files carry raw columns."""
    heads = [f",{float(t)!r}," for t in ens.times]
    with open(path, "w", newline="") as fh:
        fh.write("traj_id,t,x\n")
        for r, row in enumerate(ens.samples.tolist()):
            fh.write("".join([f"{r}{head}{x!r}\n" for head, x in zip(heads, row)]))


def _read_ensemble_arrays(path) -> tuple[np.ndarray, np.ndarray]:
    """Parse the long format into (times, samples) without building the
    ensemble, so callers may transform coordinates first.

    All trajectories must share one time axis; rows may arrive in any
    order. Errors name the file and line.
    """
    table = _load_csv_table(path, _ENSEMBLE_DTYPE)
    if table is None:
        return _read_ensemble_rows(path)
    order = np.lexsort((table["t"], table["traj_id"]))
    ids, t, x = table["traj_id"][order], table["t"][order], table["x"][order]
    traj, counts = np.unique(ids, return_counts=True)
    repeated = (ids[1:] == ids[:-1]) & (t[1:] == t[:-1])
    if np.any(counts != counts[0]) or np.any(repeated):
        # ragged or repeated times: the row parser orders ties and words the error
        return _read_ensemble_rows(path)
    t = t.reshape(traj.size, counts[0])
    off_axis = np.flatnonzero(np.any(t != t[0], axis=1))
    if off_axis.size:
        raise InputDataError(
            f"{path}: trajectory {int(traj[off_axis[0]])} does not share the common time axis"
        )
    return t[0].copy(), x.reshape(traj.size, counts[0])


def _read_ensemble_rows(path) -> tuple[np.ndarray, np.ndarray]:
    """Row-by-row parse for files the array parse does not take."""
    by_traj: dict[int, list[tuple[float, float]]] = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [c.strip() for c in header] != ["traj_id", "t", "x"]:
            raise InputDataError(f"{path}: expected header 'traj_id,t,x'")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 3:
                raise InputDataError(f"{path}:{lineno}: expected 3 fields")
            try:
                traj = int(row[0])
                t = float(row[1])
                x = float(row[2])
            except ValueError as exc:
                raise InputDataError(f"{path}:{lineno}: {exc}") from exc
            if not (np.isfinite(t) and np.isfinite(x)):
                raise InputDataError(f"{path}:{lineno}: non-finite value")
            by_traj.setdefault(traj, []).append((t, x))
    if not by_traj:
        raise InputDataError(f"{path}: no data rows")
    ids = sorted(by_traj)
    first = sorted(by_traj[ids[0]])
    axis = np.asarray([t for t, _ in first])
    samples = np.empty((len(ids), axis.size))
    for i, traj in enumerate(ids):
        rows = sorted(by_traj[traj])
        if len(rows) != axis.size or any(t != axis[j] for j, (t, _) in enumerate(rows)):
            raise InputDataError(
                f"{path}: trajectory {traj} does not share the common time axis"
            )
        samples[i, :] = [x for _, x in rows]
    return axis, samples


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


def write_ensemble_sidecar(ens: TrajectoryEnsemble, csv_path) -> None:
    """Cache the arrays of an ensemble already written to csv_path in
    `<csv_path>.npz`, keyed by the sha256 of the CSV bytes. The CSV
    stays the system of record; deleting the sidecar is always safe."""
    with open(f"{csv_path}.npz", "wb") as fh:
        np.savez(
            fh,
            times=ens.times,
            samples=ens.samples,
            sha256=np.array(_sha256_hex(csv_path)),
        )


def read_ensemble_sidecar(csv_path) -> tuple[np.ndarray, np.ndarray] | None:
    """(times, samples) from `<csv_path>.npz` when its digest matches
    the CSV bytes and its arrays have the shapes a parse gives; None
    when the sidecar is missing, unreadable, stale or malformed.
    write_ensemble_csv's shortest round-trip decimals parse back bit for
    bit, so a matching sidecar holds exactly what _read_ensemble_arrays
    would return."""
    import zipfile

    try:
        with np.load(f"{csv_path}.npz", allow_pickle=False) as npz:
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
