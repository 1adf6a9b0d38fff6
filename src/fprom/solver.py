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
product; and Crank-Nicolson. Each step takes D1 and D2 at the times it
needs from ``CoefficientModel``, and a Crank-Nicolson step takes its
start's from the step before when that step ended at the same time.
On a uniform grid each LAPACK vector of E1 and E2 (sub-, main and
super-diagonal) holds one value between its wall ends, so
S = dt/2 A(t) is seven scalars per time level: three interior values
and four wall entries. They are formed in Python by the operations the
whole-array expression applies to each entry, and written into the
bands I -/+ S by three fills and four wall entries each, so the bands
hold the bits of the whole-array forms; their finiteness check reads
the seven scalars and is exact. With constant coefficients the left
band is factored once by LAPACK ``?gttrf`` and each step solves with
``?gttrs``; with time-varying ones ``?gtsv`` solves each left band in
place. Both give ``?gtsv``'s solution bit for
bit. scipy.linalg, which supplies them, is imported at the first
Crank-Nicolson solve, not with the module.

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

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

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
        if not math.isfinite(self.dt):
            raise InfeasibleConfigError(f"dt must be finite, got {self.dt}")
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


def _product_rows(p: np.ndarray) -> tuple[np.ndarray, ...]:
    """Views of a (3, n) array for _band_matvec: the array, its middle
    row, and the four slices the sums read and write."""
    return p, p[1], p[1, :-1], p[1, 1:], p[0, 1:], p[2, :-1]


def _band_matvec(ab: np.ndarray, g: np.ndarray, rows=None) -> np.ndarray:
    """Product of the tridiagonal band ab with the vector g.

    The three row products go into a (3, n) array, given as its
    ``_product_rows`` views when it is reused, and the two off-diagonal
    rows are added into the middle one, which is returned.
    """
    p, y, head, tail, upper, lower = rows or _product_rows(np.empty(ab.shape))
    np.multiply(ab, g, out=p)
    np.add(head, upper, out=head)
    np.add(tail, lower, out=tail)
    return y


def _write_bands(left, s_left, right, s_right) -> None:
    """Write I - S into the left band's LAPACK vectors (dl, d, du) and
    I + S into the right band's, each S given by its seven values in
    ``_grid_constants``' slot order. -s, 1.0 - s and s + 1.0 are what
    the whole-array forms compute for each entry, so the bands get
    their bits."""
    dl, d, du = left
    lo, m, u, lo1, m0, m1, u0 = s_left
    dl.fill(-lo)
    d.fill(1.0 - m)
    du.fill(-u)
    dl[-1], d[0], d[-1], du[0] = -lo1, 1.0 - m0, 1.0 - m1, -u0
    dl, d, du = right
    lo, m, u, lo1, m0, m1, u0 = s_right
    dl.fill(lo)
    d.fill(m + 1.0)
    du.fill(u)
    dl[-1], d[0], d[-1], du[0] = lo1, m0 + 1.0, m1 + 1.0, u0


@lru_cache(maxsize=32)
def _grid_constants(grid: Grid) -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple]:
    """What every solve on grid reads and no coefficient changes:
    ``flux_bands(grid)``, the read-only node spacings and the (E1, E2)
    pair at each of the seven band slots. The slots are the interiors
    of the sub-, main and super-diagonal, then the wall entries
    (n - 1, n - 2), (0, 0), (n - 1, n - 1) and (0, 1); a band whose
    interior is not one value, bit for bit, is refused."""
    b1, b2 = flux_bands(grid)
    n = grid.n_points
    for name, b in (("E1", b1), ("E2", b2)):
        for interior in (b[2, :-2], b[1, 1:-1], b[0, 2:]):
            # compared as bytes, so that -0.0 and 0.0 differ
            if interior.tobytes() != interior[:1].tobytes() * interior.size:
                raise ValueError(f"{name} on {grid} has a band interior of several values")
    slots = ((2, 0), (1, 1), (0, 2), (2, n - 2), (1, 0), (1, n - 1), (0, 1))
    dx = np.diff(grid.nodes)
    dx.flags.writeable = False
    return b1, b2, dx, tuple((float(b1[i]), float(b2[i])) for i in slots)


@lru_cache(maxsize=64)
def _record_steps(t0: float, record_times: tuple[float, ...], dt: float) -> tuple[int, ...]:
    """The step of each record time; a loss loop asks for the same ones
    on every solve, so the answers are kept."""
    steps = []
    for tau in record_times:
        off = tau - t0
        if not math.isfinite(off / dt):
            raise InfeasibleConfigError(
                f"record time {tau} is not a finite number of dt={dt} steps past t0={t0}"
            )
        if off < -_RECORD_TOL:
            raise InfeasibleConfigError(f"record time {tau} precedes initial time {t0}")
        k = int(round(off / dt))
        if abs(k * dt - off) > _RECORD_TOL * max(1.0, abs(off)):
            raise InfeasibleConfigError(
                f"record time {tau} is not an integer multiple of dt={dt} "
                f"past t0={t0}; time interpolation is not performed"
            )
        # the step times grow with the step, so the last one the step
        # loop forms, t + dt at step k, is finite only if every one is
        if k and not math.isfinite(t0 + (k - 1) * dt + dt):
            raise InfeasibleConfigError(
                f"record time {tau} is {k} steps of dt={dt} past t0={t0}, "
                "and the step times overflow before it"
            )
        steps.append(k)
    return tuple(steps)


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

    A step passes them all at once when its left band is finite, the
    solve reports no singular pivot and its mass is within tolerance:
    a finite mass implies a finite state, and a non-finite right-hand
    side makes the LAPACK solution non-finite. A Crank-Nicolson band is
    formed from the seven scalars of S = dt/2 A at its time level, and
    the left band is finite exactly when they are, so the check reads
    them alone. A step that does not pass at once runs the checks in
    the order above, so the diagnostic, the mass log and the recorded
    rows are those of running every check on every step.
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

    b1, b2, dx, slots = _grid_constants(grid)
    dt = config.dt
    n = grid.n_points
    n_total = max(rec_steps)

    # read only: every step writes its new state into a fresh array
    f = f0.values
    states = np.empty((len(rec_steps), n))
    try:
        mass_log = np.empty(n_total)
    except (ValueError, MemoryError) as exc:
        raise InfeasibleConfigError(
            f"record time {t_end} is {n_total} steps of dt={dt} past t0={t0}, "
            f"more than can be allocated: {exc}"
        ) from None
    n_rec = 0
    work = np.empty(n - 1)

    def mass_of(g: np.ndarray) -> float:
        # np.trapezoid's arithmetic, with the spacings taken once per solve
        np.add(g[1:], g[:-1], out=work)
        np.multiply(work, dx, out=work)
        np.divide(work, 2.0, out=work)
        return float(np.add.reduce(work))

    # f0.mass is np.trapezoid's, the arithmetic of mass_of
    m0 = f0.mass

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

    lhs_finite, info = True, 0
    if not rk4:
        # Crank-Nicolson: (I - S(t + dt)) f_new = (I + S(t)) f with
        # S = dt/2 A. The right band's products alternate between two
        # (3, n) arrays: the middle row of one holds the state while the
        # other takes the next right-hand side.
        from scipy.linalg import get_lapack_funcs

        c = 0.5 * dt
        # the entries outside the LAPACK vectors, which _band_matvec
        # multiplies but never sums, stay 0
        lhs, rhs_band = np.zeros((2, 3, n))
        products = [_product_rows(p) for p in np.empty((2, 3, n))]
        left = lhs[2, :-1], lhs[1], lhs[0, 1:]
        right = rhs_band[2, :-1], rhs_band[1], rhs_band[0, 1:]

        def level(t: float) -> list[float]:
            """S at t in its seven slots, each formed as the whole-array
            expression (E1 * -D1 + E2 * D2) * (dt/2) forms its entries."""
            neg_d1, d2 = -model.drift(t), model.diffusion(t)
            return [(e1 * neg_d1 + e2 * d2) * c for e1, e2 in slots]

        if constant:
            s_0 = level(0.0)
            _write_bands(left, s_0, right, s_0)
            lhs_finite = all(map(math.isfinite, s_0))
            # ?gttrf/?gttrs do ?gtsv's elimination, pivots and back
            # substitution in the same order, so each step's solution is
            # ?gtsv's bit for bit; a singular or non-finite band fails
            # step 1 after its solve
            gttrf, gttrs = get_lapack_funcs(("gttrf", "gttrs"), dtype=np.float64)
            *factors, info = gttrf(*left, 1, 1, 1)
        else:
            (gtsv,) = get_lapack_funcs(("gtsv",), dtype=np.float64)
            # where the step before ended: a step that starts there
            # takes that end's level, as a step time is never -0.0 and
            # equal times therefore have equal bits
            t_next = s_next = None

    def apply_a(d1: float, d2: float, g: np.ndarray) -> np.ndarray:
        return -d1 * _band_matvec(b1, g) + d2 * _band_matvec(b2, g)

    def failed(k: int, f_new: np.ndarray, info: int) -> SolutionTrace | None:
        # every check in the documented order, for a step that did not
        # pass them at once; None when the step stands after all
        if not rk4 and not (lhs_finite and np.isfinite(_band_matvec(rhs_band, f)).all()):
            return diverged("non-finite Crank-Nicolson system", k, k - 1)
        if info > 0:
            return diverged("singular Crank-Nicolson system", k, k - 1)
        if not np.isfinite(f_new).all():
            return diverged("non-finite state", k, k - 1)
        mass_log[k - 1] = mass = mass_of(f_new)
        if abs(mass - m0) > MASS_TOL * m0:
            return diverged("mass not conserved", k, k)
        return None

    for k in range(1, n_total + 1):
        t = t0 + (k - 1) * dt
        if rk4:
            t_mid, t_new = t + 0.5 * dt, t + dt
            d1h, d2h = model.drift(t_mid), model.diffusion(t_mid)
            k1 = apply_a(model.drift(t), model.diffusion(t), f)
            k2 = apply_a(d1h, d2h, f + 0.5 * dt * k1)
            k3 = apply_a(d1h, d2h, f + 0.5 * dt * k2)
            k4 = apply_a(model.drift(t_new), model.diffusion(t_new), f + dt * k3)
            f_new = f + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        else:
            if not constant:
                s_start = s_next if t == t_next else level(t)
                t_next = t + dt
                s_next = level(t_next)
                _write_bands(left, s_next, right, s_start)
                lhs_finite = all(map(math.isfinite, s_next))
            rhs = _band_matvec(rhs_band, f, products[k % 2])
            if constant:
                f_new, _ = gttrs(*factors, rhs, "N", 1)
            else:
                # the left band and rhs are overwritten in place
                *_, f_new, info = gtsv(*left, rhs, 1, 1, 1, 1)

        # a finite mass implies a finite state, and a non-finite
        # right-hand side gives LAPACK a non-finite solution
        mass = mass_of(f_new)
        if lhs_finite and info == 0 and abs(mass - m0) <= MASS_TOL * m0:
            mass_log[k - 1] = mass
        else:
            stop = failed(k, f_new, info)
            if stop is not None:
                return stop
        f = f_new
        record(k)

    return trace(n_total)
