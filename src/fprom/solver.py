"""Forward integration of the 1-D Fokker-Planck equation.

The semi-discrete form is df/dt = A(t) f with
A(t) = -D1(t) * E1 + D2(t) * E2. E1 and E2 make one conservative
flux-form operator on the grid nodes: each node owns the cell between
its neighbouring faces, the face flux is D1 times the mean of the two
node values minus D2 times their difference quotient, and under
``zero_flux`` no flux crosses a wall, so the trapezoidal mass of A f is
exactly zero. Interior rows are the centred second-order stencils. Both
are tridiagonal, held in LAPACK band storage, cached per
(grid, boundary) and read-only, so memory and work per step are O(n).

Two integrators: classical explicit RK4, with hard diffusion and
advection stability checks, applying A by a tridiagonal matrix-vector
product; and Crank-Nicolson, solving its left-hand band each step with
LAPACK ``?gtsv``, fetched once per solve and called directly.

After every step the state is clipped at zero and renormalized; the
pre-renormalization mass of each step is logged so mass conservation
stays observable. Non-finite state or collapsed mass sets the
divergence flag and returns the partial trace instead of raising.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg import get_lapack_funcs

from .coefficients import CoefficientModel
from .density import DensityField
from .errors import InfeasibleConfigError
from .grid import Grid

__all__ = ["SolverConfig", "SolutionTrace", "solve"]

INTEGRATORS = ("explicit_rk4", "crank_nicolson")
BOUNDARIES = ("zero_flux", "zero_dirichlet")

# explicit RK4 stability: dt <= STABILITY_SAFETY * h^2 / max|D2| for
# diffusion and dt <= STABILITY_SAFETY * RK4_IMAG_REACH * h / max|D1| for
# advection, whose central-difference eigenvalues are imaginary
STABILITY_SAFETY = 0.4
RK4_IMAG_REACH = 2.0 * math.sqrt(2.0)

# mass below this cannot be renormalized; the solve is declared diverged
MASS_COLLAPSE = 1e-12

_RECORD_TOL = 1e-9


@dataclass(frozen=True)
class SolverConfig:
    integrator: str
    dt: float
    record_times: tuple[float, ...]
    boundary: str = "zero_flux"
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
def _closed_bands(grid: Grid, boundary: str) -> tuple[np.ndarray, np.ndarray]:
    """Tridiagonal E1, E2 in LAPACK band storage, entry (i, j) at [1 + i - j, j].

    Interior rows are the centred (-1, 0, 1)/(2h) and (1, -2, 1)/h^2.
    zero_flux closes the walls in flux form: node i owns the cell
    between its neighbouring faces (a half cell at a wall), the face
    flux is F = D1*(f_i + f_i+1)/2 - D2*(f_i+1 - f_i)/h, and no flux
    crosses a wall. E1's wall rows are then (1, 1)/h and (-1, -1)/h and
    E2's are (-2, 2)/h^2, so the trapezoidal mass of A f is exactly
    zero. zero_dirichlet zeroes both wall rows so edge values stay
    frozen. Results are cached and shared between solves, so both bands
    are read-only.
    """
    n = grid.n_points
    h = grid.spacing
    b1 = np.zeros((3, n))
    b1[0, 1:] = 0.5 / h
    b1[2, :-1] = -0.5 / h
    b2 = np.zeros((3, n))
    b2[0, 1:] = b2[2, :-1] = 1.0 / h**2
    b2[1] = -2.0 / h**2
    # the slots of wall row 0, (0, 0) and (0, 1), then of row n - 1,
    # (n - 1, n - 2) and (n - 1, n - 1)
    walls = ([1, 0, 2, 1], [0, 1, n - 2, n - 1])
    if boundary == "zero_flux":
        b1[walls] = (1.0 / h, 1.0 / h, -1.0 / h, -1.0 / h)
        b2[walls] = (-2.0 / h**2, 2.0 / h**2, 2.0 / h**2, -2.0 / h**2)
    else:
        b1[walls] = 0.0
        b2[walls] = 0.0
    b1.flags.writeable = False
    b2.flags.writeable = False
    return b1, b2


def _band_matvec(ab: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Product of the tridiagonal band ab with the vector g."""
    y = ab[1] * g
    y[:-1] += ab[0, 1:] * g[1:]
    y[1:] += ab[2, :-1] * g[:-1]
    return y


def _identity_plus(a: np.ndarray, c: float) -> np.ndarray:
    """Band of I + c * A, for A a tridiagonal band."""
    m = c * a
    m[1] += 1.0
    return m


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
    explicit_rk4 the diffusion and advection stability bounds are
    checked up front and violations are errors, not warnings.
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
        h = grid.spacing
        d1_max = model.max_abs_drift(t0, max(t_end, t0))
        for label, scale, dmax in (
            ("h^2/max|D2|", h**2, max(abs(d2_min), abs(d2_max))),
            ("2*sqrt(2)*h/max|D1|", RK4_IMAG_REACH * h, d1_max),
        ):
            if dmax > 0.0 and config.dt > STABILITY_SAFETY * scale / dmax:
                raise InfeasibleConfigError(
                    f"explicit_rk4 unstable: dt={config.dt} exceeds "
                    f"{STABILITY_SAFETY}*{label} = {STABILITY_SAFETY * scale / dmax:.6e}"
                )

    b1, b2 = _closed_bands(grid, config.boundary)
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
        return -d1 * _band_matvec(b1, g) + d2 * _band_matvec(b2, g)

    (gtsv,) = get_lapack_funcs(("gtsv",), dtype=np.float64)
    cn_cached = None
    if config.integrator == "crank_nicolson" and model.is_constant():
        a = -model.drift(0.0) * b1 + model.diffusion(0.0) * b2
        cn_cached = (_identity_plus(a, -0.5 * dt), _identity_plus(a, 0.5 * dt))

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
                m_minus = _identity_plus(-d1n * b1 + d2n * b2, -0.5 * dt)
                m_plus = _identity_plus(-d1c * b1 + d2c * b2, 0.5 * dt)
            rhs = _band_matvec(m_plus, f)
            if not (np.isfinite(m_minus).all() and np.isfinite(rhs).all()):
                return diverged("non-finite Crank-Nicolson system", k)
            # as scipy.linalg.solve_banded calls it, minus its validation;
            # the bands are copied, rhs is overwritten
            *_, f_new, info = gtsv(
                m_minus[2, :-1], m_minus[1], m_minus[0, 1:], rhs, overwrite_b=True
            )
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
