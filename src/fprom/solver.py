"""Forward integration of the 1-D Fokker-Planck equation.

The semi-discrete form is df/dt = A(t) f with
A(t) = -D1(t) * E1 + D2(t) * E2, where E1 and E2 are
``grid.flux_bands``, the one conservative flux-form operator on the
grid nodes: each node owns the cell between its neighbouring faces, the
face flux is D1 times the mean of the two node values minus D2 times
their difference quotient, and no flux crosses a wall, so the
trapezoidal mass of A f is exactly zero. Interior rows are the centred
second-order stencils. Both are tridiagonal, held in LAPACK band
storage, cached per grid and read-only, so memory and work per step
are O(n). The diffusion-sign and stability checks read the exact
ranges of D1 and D2 over the horizon from ``CoefficientModel``.

Two integrators: classical explicit RK4, with hard diffusion and
advection stability checks, applying A by a tridiagonal matrix-vector
product; and Crank-Nicolson. D1 and D2 are evaluated once per solve
for all step times. With constant coefficients the Crank-Nicolson
left-hand band is factored once by LAPACK ``?gttrf`` and each step
solves with ``?gttrs``; with time-varying ones each step builds its
bands in scratch buffers and ``?gtsv`` solves them in place. Both give
``?gtsv``'s solution bit for bit. scipy.linalg, which supplies them, is
imported at the first Crank-Nicolson solve, not with the module.

The scheme conserves mass by itself, so nothing rescales the state:
the trapezoidal mass of every step is logged, and a step whose mass
leaves f0's by more than 1e-10 relative ends the solve. The recorded
states go into one preallocated (records, n) array,
``SolutionTrace.states``, with negatives clipped to zero there only,
because a DensityField holds no negative value; ``snapshots`` wraps its
rows as DensityFields only when asked. A non-finite system or state,
an exactly singular system or a mass that is not conserved sets the
divergence flag and returns the partial trace instead of raising.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .coefficients import CoefficientModel
from .density import DensityField
from .errors import InfeasibleConfigError
from .grid import Grid, flux_bands

__all__ = ["SolverConfig", "SolutionTrace", "solve"]

INTEGRATORS = ("explicit_rk4", "crank_nicolson")

# explicit RK4 stability: dt <= STABILITY_SAFETY * h^2 / max|D2| for
# diffusion and dt <= STABILITY_SAFETY * RK4_IMAG_REACH * h / max|D1| for
# advection, whose central-difference eigenvalues are imaginary
STABILITY_SAFETY = 0.4
RK4_IMAG_REACH = 2.0 * math.sqrt(2.0)

# a step whose mass moves further than this from f0's, relative to it,
# is declared diverged
MASS_TOL = 1e-10

_RECORD_TOL = 1e-9

# steps whose coefficients are evaluated in one array pass
_COEF_CHUNK = 512


@dataclass(frozen=True)
class SolverConfig:
    """Step size, integrator and record times of one solve.

    record_times may be left empty while the times belong to someone
    else: CalibrationProblem fills them from its targets, run_predict
    and run_validate from their arguments. solve refuses an empty set.
    """

    dt: float
    integrator: str = "crank_nicolson"
    record_times: tuple[float, ...] = ()
    allow_negative_diffusion: bool = False

    def __post_init__(self) -> None:
        if self.integrator not in INTEGRATORS:
            raise InfeasibleConfigError(f"unknown integrator {self.integrator!r}")
        if not self.dt > 0.0:
            raise InfeasibleConfigError("dt must be > 0")
        rt = tuple(float(t) for t in self.record_times)
        if any(b <= a for a, b in zip(rt, rt[1:])):
            raise InfeasibleConfigError("record_times must be strictly increasing")
        object.__setattr__(self, "record_times", rt)


@dataclass(frozen=True)
class SolutionTrace:
    """What one solve recorded.

    ``states`` holds one read-only row per record time reached, in
    order, and ``times`` their record times; a diverged solve keeps the
    rows recorded before it stopped. ``snapshots`` wraps the rows as
    DensityFields on first access.
    """

    grid: Grid
    times: tuple[float, ...]
    states: np.ndarray
    mass_log: np.ndarray
    diverged: bool = False
    diagnostic: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "mass_log", np.asarray(self.mass_log, dtype=float))

    @cached_property
    def snapshots(self) -> tuple[DensityField, ...]:
        return tuple(
            DensityField(grid=self.grid, values=v, time_stamp=t)
            for v, t in zip(self.states, self.times)
        )


def _band_matvec(ab: np.ndarray, g: np.ndarray, out=None, work=None) -> np.ndarray:
    """Product of the tridiagonal band ab with the vector g, written into
    out when given, with work (n - 1 entries) as scratch."""
    if out is None:
        out, work = np.empty_like(g), np.empty(g.size - 1)
    np.multiply(ab[1], g, out=out)
    np.multiply(ab[0, 1:], g[1:], out=work)
    out[:-1] += work
    np.multiply(ab[2, :-1], g[:-1], out=work)
    out[1:] += work
    return out


def _cn_band(b1, b2, d1: float, d2: float, c: float, out, work) -> np.ndarray:
    """Band of I + c * (-d1 * E1 + d2 * E2) into out; work is (3, n) scratch."""
    np.multiply(b1, -d1, out=out)
    np.multiply(b2, d2, out=work)
    out += work
    out *= c
    out[1] += 1.0
    return out


def _coefficient_steps(model: CoefficientModel, t0: float, dt: float, n_steps: int, offsets):
    """For each step k = 1..n_steps, (D1, D2) at t + o for every offset o,
    flattened, with t = t0 + (k - 1) * dt.

    The times are formed as the step loop would form them, and D1 and
    D2 come from CoefficientModel's Horner recurrence applied to arrays
    of _COEF_CHUNK steps, so every value equals ``model.eval``'s bit
    for bit while memory stays bounded. Like Python float arithmetic,
    the recurrence overflows to inf without a warning.
    """
    for lo in range(0, n_steps, _COEF_CHUNK):
        t = t0 + np.arange(lo, min(lo + _COEF_CHUNK, n_steps), dtype=float) * dt
        columns = []
        for o in offsets:
            tt = t + o if o else t
            if not np.isfinite(tt).all():
                raise ValueError("t must be finite")
            with np.errstate(all="ignore"):
                columns += (model.drift(tt).tolist(), model.diffusion(tt).tolist())
        yield from zip(*columns)


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
    """March f0 forward, recording the state at config.record_times.

    Record times must be nonempty and lie on the step lattice
    t0 + k*dt (validated); each recorded row of ``trace.states`` is the
    state with its negatives clipped to zero, and record times on the
    same step share its value. The state itself is never clipped or rescaled, so the
    rows keep f0's mass, which may differ from 1 by up to 1e-3. For
    explicit_rk4 the diffusion and advection stability bounds are
    checked up front and violations are errors, not warnings. Per step
    the checks run in this order: a non-finite Crank-Nicolson system
    or right-hand side, a singular system, a non-finite state, then a
    trapezoidal mass more than MASS_TOL * m0 away from f0's mass m0.
    """
    if not config.record_times:
        raise InfeasibleConfigError("record_times must be nonempty")
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

    b1, b2 = flux_bands(grid)
    dx = np.diff(grid.nodes)
    dt = config.dt
    n = grid.n_points
    n_total = max(rec_steps)

    f = np.array(f0.values, dtype=float)
    states = np.empty((len(rec_steps), n))
    mass_log = np.empty(n_total)
    n_rec = 0
    work = np.empty(n - 1)

    def mass_of(g: np.ndarray) -> float:
        # np.trapezoid's arithmetic, with the spacings taken once per solve
        np.add(g[1:], g[:-1], out=work)
        np.multiply(work, dx, out=work)
        np.divide(work, 2.0, out=work)
        return float(np.add.reduce(work))

    m0 = mass_of(f)

    def trace(steps_logged: int, diagnostic: str = "") -> SolutionTrace:
        rows = states[:n_rec]
        rows.flags.writeable = False
        return SolutionTrace(
            grid=grid,
            times=config.record_times[:n_rec],
            states=rows,
            mass_log=mass_log[:steps_logged],
            diverged=bool(diagnostic),
            diagnostic=diagnostic,
        )

    def diverged(what: str, step: int, steps_logged: int) -> SolutionTrace:
        return trace(steps_logged, f"{what} at step {step} (t={t0 + step * dt})")

    def record(step: int) -> None:
        nonlocal n_rec
        while n_rec < len(rec_steps) and rec_steps[n_rec] == step:
            np.maximum(f, 0.0, out=states[n_rec])
            n_rec += 1

    record(0)
    rk4 = config.integrator == "explicit_rk4"
    constant = not rk4 and model.is_constant()
    if rk4:
        coefficients = _coefficient_steps(model, t0, dt, n_total, (0.0, 0.5 * dt, dt))
    elif constant:
        coefficients = itertools.repeat(None)
    else:
        coefficients = _coefficient_steps(model, t0, dt, n_total, (0.0, dt))

    if not rk4:
        # Crank-Nicolson: (I - dt/2 A(t + dt)) f_new = (I + dt/2 A(t)) f
        from scipy.linalg import get_lapack_funcs

        lhs, rhs_band, band_work = np.empty((3, n)), np.empty((3, n)), np.empty((3, n))
        rhs = np.empty(n)
        if constant:
            d1, d2 = model.drift(0.0), model.diffusion(0.0)
            _cn_band(b1, b2, d1, d2, -0.5 * dt, lhs, band_work)
            _cn_band(b1, b2, d1, d2, 0.5 * dt, rhs_band, band_work)
            lhs_finite = bool(np.isfinite(lhs).all())
            # ?gttrf/?gttrs do ?gtsv's elimination, pivots and back
            # substitution in the same order, so each step's solution is
            # ?gtsv's bit for bit; a non-finite band stops step 1 before
            # its factors are used
            gttrf, gttrs = get_lapack_funcs(("gttrf", "gttrs"), dtype=np.float64)
            *factors, info = gttrf(
                lhs[2, :-1], lhs[1], lhs[0, 1:],
                overwrite_dl=True, overwrite_d=True, overwrite_du=True,
            )
        else:
            (gtsv,) = get_lapack_funcs(("gtsv",), dtype=np.float64)

    def apply_a(d1: float, d2: float, g: np.ndarray) -> np.ndarray:
        return -d1 * _band_matvec(b1, g) + d2 * _band_matvec(b2, g)

    for k, coef in zip(range(1, n_total + 1), coefficients):
        if rk4:
            d1c, d2c, d1h, d2h, d1n, d2n = coef
            k1 = apply_a(d1c, d2c, f)
            k2 = apply_a(d1h, d2h, f + 0.5 * dt * k1)
            k3 = apply_a(d1h, d2h, f + 0.5 * dt * k2)
            k4 = apply_a(d1n, d2n, f + dt * k3)
            f_new = f + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        else:
            if not constant:
                d1c, d2c, d1n, d2n = coef
                _cn_band(b1, b2, d1n, d2n, -0.5 * dt, lhs, band_work)
                _cn_band(b1, b2, d1c, d2c, 0.5 * dt, rhs_band, band_work)
                lhs_finite = np.isfinite(lhs).all()
            _band_matvec(rhs_band, f, rhs, work)
            if not (lhs_finite and np.isfinite(rhs).all()):
                return diverged("non-finite Crank-Nicolson system", k, k - 1)
            if constant:
                f_new, _ = gttrs(*factors, rhs, overwrite_b=True)
            else:
                # the freshly built bands and rhs are overwritten in place
                *_, f_new, info = gtsv(
                    lhs[2, :-1], lhs[1], lhs[0, 1:], rhs,
                    overwrite_dl=True, overwrite_d=True, overwrite_du=True,
                    overwrite_b=True,
                )
            if info > 0:
                return diverged("singular Crank-Nicolson system", k, k - 1)
            # the old state's buffer takes the next right-hand side
            rhs = f

        if not np.isfinite(f_new).all():
            return diverged("non-finite state", k, k - 1)
        mass = mass_of(f_new)
        mass_log[k - 1] = mass
        if abs(mass - m0) > MASS_TOL * m0:
            return diverged("mass not conserved", k, k)
        f = f_new
        record(k)

    return trace(n_total)
