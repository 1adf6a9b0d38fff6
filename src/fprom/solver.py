"""Forward integration of the 1-D Fokker-Planck equation.

The semi-discrete form is df/dt = A(t) f with
A(t) = -D1(t) * E1 + D2(t) * E2, E1 and E2 the first- and
second-derivative operators with their wall rows closed per the
boundary condition. E1 and E2 are held in LAPACK band storage, so
memory and work per step are O(n): tridiagonal for accuracy order 2,
banded otherwise. Two integrators: classical explicit RK4 (with a hard
diffusion stability check) applying A by a banded matrix-vector
product, and Crank-Nicolson solving its left-hand band each step with
LAPACK ``?gtsv`` (tridiagonal) or ``?gbsv`` (wider bands), fetched once
per solve and called directly; no sparse LU is factored. The closed
bands are cached per (grid, accuracy order, boundary) and read-only.

After every step the state is clipped at zero and renormalized; the
pre-renormalization mass of each step is logged so mass conservation
stays observable. Non-finite state or collapsed mass sets the
divergence flag and returns the partial trace instead of raising.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg import get_lapack_funcs

from .coefficients import CoefficientModel
from .density import DensityField
from .errors import InfeasibleConfigError
from .grid import Grid, derivative_bands

__all__ = ["SolverConfig", "SolutionTrace", "solve"]

INTEGRATORS = ("explicit_rk4", "crank_nicolson")
BOUNDARIES = ("zero_flux", "zero_dirichlet")

# explicit diffusion stability: dt <= STABILITY_SAFETY * h^2 / max|D2|
STABILITY_SAFETY = 0.4

# mass below this cannot be renormalized; the solve is declared diverged
MASS_COLLAPSE = 1e-12

_RECORD_TOL = 1e-9


@dataclass(frozen=True)
class SolverConfig:
    integrator: str
    dt: float
    record_times: tuple[float, ...]
    boundary: str = "zero_flux"
    accuracy_order: int = 2
    allow_negative_diffusion: bool = False

    def __post_init__(self) -> None:
        if self.integrator not in INTEGRATORS:
            raise InfeasibleConfigError(f"unknown integrator {self.integrator!r}")
        if self.boundary not in BOUNDARIES:
            raise InfeasibleConfigError(f"unknown boundary {self.boundary!r}")
        if not self.dt > 0.0:
            raise InfeasibleConfigError("dt must be > 0")
        rt = tuple(float(t) for t in self.record_times)
        if len(rt) == 0:
            raise InfeasibleConfigError("record_times must be nonempty")
        if any(b <= a for a, b in zip(rt, rt[1:])):
            raise InfeasibleConfigError("record_times must be strictly increasing")
        if self.accuracy_order < 2 or self.accuracy_order % 2 != 0:
            raise InfeasibleConfigError("accuracy_order must be even and >= 2")
        object.__setattr__(self, "record_times", rt)


@dataclass(frozen=True)
class SolutionTrace:
    snapshots: tuple[DensityField, ...]
    mass_log: np.ndarray
    diverged: bool = False
    diagnostic: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "mass_log", np.asarray(self.mass_log, dtype=float))


@lru_cache(maxsize=32)
def _closed_bands(
    grid: Grid, accuracy_order: int, boundary: str
) -> tuple[np.ndarray, np.ndarray, int]:
    """E1, E2 bands with the wall rows replaced per the condition.

    zero_flux uses an even-reflection ghost closure: the wall rows of E1
    vanish and the wall rows of E2 become (-2, +2)/h^2, zeroing the
    diffusive flux. zero_dirichlet zeroes both wall rows so edge values
    stay frozen. Interior rows are untouched.

    Returns (b1, b2, w): both bands hold entry (i, j) at [w + i - j, j]
    with l = u = w, the smallest width covering every nonzero entry
    once the walls are closed (1 for accuracy order 2). Results are
    cached and shared between solves, so both bands are read-only.
    """
    e1, w1, _ = derivative_bands(grid, 1, accuracy_order)
    b2, w2, _ = derivative_bands(grid, 2, accuracy_order)
    # widen E1's band to E2's so both share one storage layout
    b1 = np.zeros_like(b2)
    b1[w2 - w1 : w2 + w1 + 1] = e1
    n = grid.n_points
    # entry (i, j) of a wall row i sits at [w2 + i - j, j]
    for i in (0, n - 1):
        cols = np.arange(max(0, i - w2), min(n, i + w2 + 1))
        b1[w2 + i - cols, cols] = 0.0
        b2[w2 + i - cols, cols] = 0.0
    if boundary == "zero_flux":
        h = grid.spacing
        b2[w2, 0] = -2.0 / h**2
        b2[w2 - 1, 1] = 2.0 / h**2
        b2[w2, n - 1] = -2.0 / h**2
        b2[w2 + 1, n - 2] = 2.0 / h**2
    used = np.flatnonzero(np.any(b1 != 0.0, axis=1) | np.any(b2 != 0.0, axis=1))
    w = int(np.max(np.abs(used - w2)))
    b1 = b1[w2 - w : w2 + w + 1]
    b2 = b2[w2 - w : w2 + w + 1]
    b1.flags.writeable = False
    b2.flags.writeable = False
    return b1, b2, w


def _band_matvec(ab: np.ndarray, w: int, g: np.ndarray) -> np.ndarray:
    """Product of the band matrix (l = u = w) with the vector g."""
    y = ab[w] * g
    for k in range(1, w + 1):
        y[:-k] += ab[w - k, k:] * g[k:]
        y[k:] += ab[w + k, :-k] * g[:-k]
    return y


def _identity_plus(a: np.ndarray, w: int, c: float) -> np.ndarray:
    """Band of I + c * A, for A in band storage with l = u = w."""
    m = c * a
    m[w] += 1.0
    return m


def _band_solver(w: int):
    """Solver of the band system (l = u = w) for one right-hand side.

    Calls LAPACK exactly as ``scipy.linalg.solve_banded`` does, ?gtsv
    for w = 1 and ?gbsv on the (3w + 1, n) zero-padded layout otherwise,
    without its per-call validation; the caller checks finiteness. The
    band is left untouched and b is overwritten. Returns (x, info),
    with info > 0 for an exactly singular matrix.
    """
    if w == 1:
        (gtsv,) = get_lapack_funcs(("gtsv",), dtype=np.float64)

        def solve_band(ab: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, int]:
            _, _, _, x, info = gtsv(ab[2, :-1], ab[1], ab[0, 1:], b, overwrite_b=True)
            return x, info

    else:
        (gbsv,) = get_lapack_funcs(("gbsv",), dtype=np.float64)

        def solve_band(ab: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, int]:
            lu = np.zeros((3 * w + 1, ab.shape[1]))
            lu[w:] = ab
            _, _, x, info = gbsv(w, w, lu, b, overwrite_ab=True, overwrite_b=True)
            return x, info

    return solve_band


def _record_steps(t0: float, record_times: tuple[float, ...], dt: float) -> list[int]:
    steps = []
    for tau in record_times:
        off = tau - t0
        if off < -_RECORD_TOL:
            raise InfeasibleConfigError(f"record time {tau} precedes initial time {t0}")
        k = int(round(off / dt))
        if abs(k * dt - off) > _RECORD_TOL * max(1.0, abs(off)):
            raise InfeasibleConfigError(
                f"record time {tau} is not an integer multiple of dt={dt} "
                f"past t0={t0}; time interpolation is not performed"
            )
        steps.append(k)
    return steps


def solve(f0: DensityField, model: CoefficientModel, config: SolverConfig) -> SolutionTrace:
    """March f0 forward, recording snapshots at config.record_times.

    Record times must lie on the step lattice t0 + k*dt (validated);
    each recorded snapshot is the clipped, renormalized state. For
    explicit_rk4 the diffusion stability bound is checked up front and
    violations are errors, not warnings.
    """
    grid = f0.grid
    t0 = f0.time_stamp
    if abs(f0.mass - 1.0) > 1e-3:
        raise InfeasibleConfigError(f"initial density not normalized: mass {f0.mass!r}")
    t_end = config.record_times[-1]
    rec_steps = _record_steps(t0, config.record_times, config.dt)

    d2_min, d2_max = model.diffusion_range(t0, max(t_end, t0))
    if d2_min < 0.0 and not config.allow_negative_diffusion:
        raise InfeasibleConfigError(
            f"diffusion reaches {d2_min} on the solve horizon; negative diffusion "
            "is ill-posed and refused unless allow_negative_diffusion is set"
        )
    if config.integrator == "explicit_rk4":
        dmax = max(abs(d2_min), abs(d2_max))
        if dmax > 0.0:
            dt_bound = STABILITY_SAFETY * grid.spacing**2 / dmax
            if config.dt > dt_bound:
                raise InfeasibleConfigError(
                    f"explicit_rk4 unstable: dt={config.dt} exceeds "
                    f"{STABILITY_SAFETY}*h^2/max|D2| = {dt_bound:.6e}"
                )

    b1, b2, w = _closed_bands(grid, config.accuracy_order, config.boundary)
    x = grid.nodes
    dx = np.diff(x)
    dt = config.dt

    f = np.asarray(f0.values, dtype=float).copy()
    if config.boundary == "zero_dirichlet":
        f[0] = 0.0
        f[-1] = 0.0
        f = f / np.trapezoid(f, x)

    def apply_a(t: float, g: np.ndarray) -> np.ndarray:
        d1, d2 = model.eval(t)
        return -d1 * _band_matvec(b1, w, g) + d2 * _band_matvec(b2, w, g)

    solve_band = _band_solver(w)
    cn_cached = None
    if config.integrator == "crank_nicolson" and model.is_constant():
        a = -model.drift(0.0) * b1 + model.diffusion(0.0) * b2
        cn_cached = (_identity_plus(a, w, -0.5 * dt), _identity_plus(a, w, 0.5 * dt))

    snapshots: list[DensityField] = []
    mass_log: list[float] = []
    record_lookup = {}
    for k, tau in zip(rec_steps, config.record_times):
        record_lookup.setdefault(k, []).append(tau)

    def record(step: int, state: np.ndarray) -> None:
        for tau in record_lookup.get(step, ()):
            snapshots.append(DensityField(grid=grid, values=state.copy(), time_stamp=tau))

    def diverged(what: str, step: int) -> SolutionTrace:
        return SolutionTrace(
            snapshots=tuple(snapshots),
            mass_log=np.asarray(mass_log),
            diverged=True,
            diagnostic=f"{what} at step {step} (t={t0 + step * dt})",
        )

    record(0, f)
    n_total = max(rec_steps)
    for k in range(1, n_total + 1):
        t = t0 + (k - 1) * dt
        if config.integrator == "explicit_rk4":
            k1 = apply_a(t, f)
            k2 = apply_a(t + 0.5 * dt, f + 0.5 * dt * k1)
            k3 = apply_a(t + 0.5 * dt, f + 0.5 * dt * k2)
            k4 = apply_a(t + dt, f + dt * k3)
            f_new = f + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        else:
            if cn_cached is not None:
                m_minus, m_plus = cn_cached
            else:
                d1n, d2n = model.eval(t + dt)
                d1c, d2c = model.eval(t)
                m_minus = _identity_plus(-d1n * b1 + d2n * b2, w, -0.5 * dt)
                m_plus = _identity_plus(-d1c * b1 + d2c * b2, w, 0.5 * dt)
            rhs = _band_matvec(m_plus, w, f)
            if not (np.isfinite(m_minus).all() and np.isfinite(rhs).all()):
                return diverged("non-finite Crank-Nicolson system", k)
            f_new, info = solve_band(m_minus, rhs)
            if info > 0:
                return diverged("singular Crank-Nicolson system", k)

        if not np.isfinite(f_new).all():
            return diverged("non-finite state", k)
        np.clip(f_new, 0.0, None, out=f_new)
        # np.trapezoid's arithmetic, with the spacings taken once per solve
        mass = float((dx * (f_new[1:] + f_new[:-1]) / 2.0).sum())
        mass_log.append(mass)
        if mass <= MASS_COLLAPSE:
            return diverged("density mass collapsed", k)
        f_new /= mass
        f = f_new
        record(k, f)

    return SolutionTrace(snapshots=tuple(snapshots), mass_log=np.asarray(mass_log))
