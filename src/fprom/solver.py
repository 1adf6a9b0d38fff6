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
for all step times. Crank-Nicolson's two bands, I -/+ S with
S = dt/2 A, come from one S per time level: the left band is I - S, and
the next step's right band adds 1 to the same S's diagonal. S is
formed again only when the bits of (D1, D2) change, and each of its
terms, E1 * -D1 and E2 * D2, only when its own coefficient's do, so
with time-varying coefficients the next step's right band usually
comes from this step's left one. With constant coefficients the left
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

import itertools
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

# steps whose coefficients are evaluated in one array pass
_COEF_CHUNK = 512

# a bound on every Crank-Nicolson band entry below this, far from the
# float overflow threshold, proves every band finite
_BAND_LIMIT = 1e300


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


def _left_band(s: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Band of I - S into out: -S, with 1 - S on the diagonal. For
    S = c * A these are the bits of I + (-c) * A, because rounding is
    symmetric in sign (NaN signs aside)."""
    np.negative(s, out=out)
    np.subtract(1.0, s[1], out=out[1])
    return out


@lru_cache(maxsize=32)
def _grid_constants(grid: Grid) -> tuple[np.ndarray, np.ndarray, np.ndarray, float, float]:
    """What every solve on grid reads and no coefficient changes:
    ``flux_bands(grid)``, the read-only node spacings and the largest
    magnitude in each band."""
    b1, b2 = flux_bands(grid)
    dx = np.diff(grid.nodes)
    dx.flags.writeable = False
    return b1, b2, dx, max(b1.max(), -b1.min()), max(b2.max(), -b2.min())


def _magnitude_bound(poly: tuple[float, ...], t_abs: float) -> float:
    """A bound on |p(t)| for |t| <= t_abs, and on every partial value of
    its Horner recurrence: the polynomial of |a_i| at max(t_abs, 1)."""
    s = max(t_abs, 1.0)
    acc = 0.0
    for c in reversed(poly):
        acc = acc * s + abs(c)
    return acc


def _coefficient_steps(
    model: CoefficientModel, t0: float, dt: float, n_steps: int, offsets, keys: bool = False
):
    """For each step k = 1..n_steps, (D1, D2) at t + o for every offset o,
    flattened, with t = t0 + (k - 1) * dt; with keys, each pair is
    followed by its bit patterns as a tuple of two ints, which tell
    equal values apart from -0.0 and +0.0.

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
                d1, d2 = model.drift(tt), model.diffusion(tt)
            columns += (d1.tolist(), d2.tolist())
            if keys:
                columns.append(zip(d1.view(np.int64).tolist(), d2.view(np.int64).tolist()))
        yield from zip(*columns)


@lru_cache(maxsize=64)
def _record_steps(t0: float, record_times: tuple[float, ...], dt: float) -> tuple[int, ...]:
    """The step of each record time; a loss loop asks for the same ones
    on every solve, so the answers are kept."""
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

    A step passes them all at once when its left band is known to be
    finite, the solve reports no singular pivot and its mass is within
    tolerance: a finite mass implies a finite state, and a non-finite
    right-hand side makes the LAPACK solution non-finite. Each left
    band is checked for finiteness unless a bound on |D1| and |D2|
    over the horizon keeps every band entry far from overflow. A step
    that does not pass at once runs the checks in the order above, so
    the diagnostic, the mass log and the recorded rows are those of
    running every check on every step.
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

    b1, b2, dx, b1_max, b2_max = _grid_constants(grid)
    dt = config.dt
    n = grid.n_points
    n_total = max(rec_steps)

    # read only: every step writes its new state into a fresh array
    f = f0.values
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
    if rk4:
        coefficients = _coefficient_steps(model, t0, dt, n_total, (0.0, 0.5 * dt, dt))
    elif constant:
        coefficients = itertools.repeat(None)
    else:
        coefficients = _coefficient_steps(model, t0, dt, n_total, (0.0, dt), keys=True)

    lhs_finite, info = True, 0
    if not rk4:
        # Crank-Nicolson: (I - S(t + dt)) f_new = (I + S(t)) f with
        # S = dt/2 A. The right band's products alternate between two
        # (3, n) arrays: the middle row of one holds the state while the
        # other takes the next right-hand side.
        from scipy.linalg import get_lapack_funcs

        c = 0.5 * dt
        lhs = np.empty((3, n))
        products = [_product_rows(p) for p in np.empty((2, 3, n))]
        lhs_dl, lhs_d, lhs_du = lhs[2, :-1], lhs[1], lhs[0, 1:]
        if constant:
            rhs_band = (b1 * -model.drift(0.0) + b2 * model.diffusion(0.0)) * c
            _left_band(rhs_band, lhs)
            np.add(rhs_band[1], 1.0, out=rhs_band[1])
            lhs_finite = bool(np.isfinite(lhs).all())
            # ?gttrf/?gttrs do ?gtsv's elimination, pivots and back
            # substitution in the same order, so each step's solution is
            # ?gtsv's bit for bit; a singular or non-finite band fails
            # step 1 after its solve
            gttrf, gttrs = get_lapack_funcs(("gttrf", "gttrs"), dtype=np.float64)
            *factors, info = gttrf(lhs_dl, lhs_d, lhs_du, 1, 1, 1)
        else:
            (gtsv,) = get_lapack_funcs(("gtsv",), dtype=np.float64)
            # |D1| and |D2| at every step time are at most their
            # polynomials of |a_i| at t_abs, so this bounds every band
            # entry; far below overflow, no band can be non-finite
            t_abs = abs(t0) + (n_total + 1) * dt
            drift_bound = _magnitude_bound(model.drift_poly, t_abs)
            diff_bound = _magnitude_bound(model.diff_poly, t_abs)
            bands_bounded = (b1_max * drift_bound + b2_max * diff_bound) * c + 1.0 < _BAND_LIMIT
            # S of the time levels in use, alternating between two
            # arrays, and its terms E1 * -D1 and E2 * D2, each kept while
            # the bits of its coefficient do not change
            scaled = np.empty((2, 3, n))
            drift_term, diff_term = np.empty((2, 3, n))
            term_keys = [None, None]
            s_key, cur = None, 0

            def form_s(d1: float, d2: float, key, out: np.ndarray) -> None:
                if key[0] != term_keys[0]:
                    np.multiply(b1, -d1, out=drift_term)
                if key[1] != term_keys[1]:
                    np.multiply(b2, d2, out=diff_term)
                term_keys[:] = key
                np.add(drift_term, diff_term, out=out)
                np.multiply(out, c, out=out)

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
                d1c, d2c, key_c, d1n, d2n, key_n = coef
                if key_c != s_key:
                    form_s(d1c, d2c, key_c, scaled[cur])
                rhs_band = scaled[cur]
                if key_n != key_c:
                    cur ^= 1
                    form_s(d1n, d2n, key_n, scaled[cur])
                _left_band(scaled[cur], lhs)
                # the right band takes S(t) itself, so S(t + dt) is kept
                # for the next step only when it is another array
                np.add(rhs_band[1], 1.0, out=rhs_band[1])
                s_key = key_n if key_n != key_c else None
                if not bands_bounded:
                    lhs_finite = bool(np.isfinite(lhs).all())
            rhs = _band_matvec(rhs_band, f, products[k % 2])
            if constant:
                f_new, _ = gttrs(*factors, rhs, "N", 1)
            else:
                # the left band and rhs are overwritten in place
                *_, f_new, info = gtsv(lhs_dl, lhs_d, lhs_du, rhs, 1, 1, 1, 1)

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
