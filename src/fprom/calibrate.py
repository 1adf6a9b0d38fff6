"""Loss-minimization calibration of drift and diffusion coefficients.

The loss forward-solves the Fokker-Planck equation from the initial
density and sums weighted density distances at the target times.
Infeasible parameter vectors (negative diffusion on the horizon, a
diverged solve) score a large finite penalty instead of raising, so
derivative-free search stays total.

Search is Nelder-Mead from a given start or the middle of the bounds,
or restarted from 8 seeded uniform draws inside them. Everything is
deterministic per seed.

The Nelder-Mead search (Nelder & Mead, Comput. J. 7, 1965) is scipy's
non-adaptive `_minimize_neldermead`, implemented in this module so that
importing fprom does not import scipy.optimize: reflection 1,
expansion 2, contraction 1/2 and shrink 1/2; and the stopping rule
xatol 1e-6 with fatol 1e-12 or the evaluation budget; 1e-12 lies above
the loss's rounding noise, about 1e-13 at 513 nodes. The first simplex
moves each coordinate of the start by 5 % of its value, as scipy's
default does, or by 5 % of its bounds width where it is zero (scipy's
default step there, 0.00025, left a start at the middle of a symmetric
box crawling). It evaluates the same points in the same order as
``scipy.optimize.minimize(method="Nelder-Mead")`` given that simplex as
``initial_simplex``, so results do not depend on the version of
scipy's optimiser.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .coefficients import MAX_DEGREE, CoefficientModel
from .density import KL_FLOOR, DensityField, kl_divergence_rows
from .errors import InfeasibleConfigError
from .solver import SolverConfig, solve

__all__ = [
    "CalibrationProblem",
    "CalibrationResult",
    "loss",
    "calibrate",
]

OPTIMIZERS = ("nelder_mead", "random_multistart_nelder_mead")
DISTANCES = ("kl", "l2")

PENALTY_FLOOR = 1e6
N_STARTS = 8

# quadratic charge per unit of excursion outside the bounds box
_EXCURSION_WEIGHT = 1e3

_SIMPLEX_TOL = 1e-6
_VALUE_TOL = 1e-12


@dataclass(frozen=True)
class CalibrationProblem:
    """Initial density, weighted targets, and the search box.

    The parameter vector is the drift coefficients (degree low to
    high) followed by the diffusion coefficients; bounds holds one
    (lower, upper) pair per entry. The target times are the solver's
    record times: solver must leave record_times unset, and the loss
    solves with a copy of it that has them filled in. The problem keeps
    the solver as given, so dataclasses.replace copies a built problem.
    """

    initial_density: DensityField
    targets: tuple[tuple[float, DensityField], ...]
    drift_degree: int
    diff_degree: int
    bounds: tuple[tuple[float, float], ...]
    solver: SolverConfig
    weights: tuple[float, ...] | None = None
    distance: str = "kl"

    def __post_init__(self) -> None:
        if not (0 <= self.drift_degree <= MAX_DEGREE):
            raise InfeasibleConfigError(f"drift degree must be in 0..{MAX_DEGREE}")
        if not (0 <= self.diff_degree <= MAX_DEGREE):
            raise InfeasibleConfigError(f"diffusion degree must be in 0..{MAX_DEGREE}")
        if self.distance not in DISTANCES:
            raise InfeasibleConfigError(f"unknown distance {self.distance!r}")
        targets = tuple((float(tau), field) for tau, field in self.targets)
        if not targets:
            raise InfeasibleConfigError("at least one training target is required")
        tau0 = self.initial_density.time_stamp
        taus = [tau0] + [tau for tau, _ in targets]
        if any(b <= a for a, b in zip(taus, taus[1:])):
            raise InfeasibleConfigError(
                "target times must be strictly increasing and later than the "
                f"initial time {tau0}"
            )
        for tau, field in targets:
            if field.grid != self.initial_density.grid:
                raise InfeasibleConfigError(
                    f"target at t={tau} lives on a different grid"
                )
            if abs(field.mass - 1.0) > 1e-3:
                raise InfeasibleConfigError(
                    f"target at t={tau} not normalized: mass {field.mass!r}"
                )
        if abs(self.initial_density.mass - 1.0) > 1e-3:
            raise InfeasibleConfigError("initial density not normalized")
        bounds = tuple((float(a), float(b)) for a, b in self.bounds)
        if len(bounds) != self.n_params:
            raise InfeasibleConfigError(
                f"need {self.n_params} bound pairs, got {len(bounds)}"
            )
        for a, b in bounds:
            if not (np.isfinite(a) and np.isfinite(b)):
                raise InfeasibleConfigError("bounds must be finite")
            if not a < b:
                raise InfeasibleConfigError(
                    f"bound ({a}, {b}) has zero or negative measure"
                )
        if self.weights is None:
            weights = (1.0,) * len(targets)
        else:
            weights = tuple(float(w) for w in self.weights)
        if len(weights) != len(targets):
            raise InfeasibleConfigError("one weight per target required")
        if any(not np.isfinite(w) or w < 0.0 for w in weights):
            raise InfeasibleConfigError("weights must be finite and >= 0")
        if sum(weights) <= 0.0:
            raise InfeasibleConfigError("weights must not all vanish")
        if self.solver.record_times:
            raise InfeasibleConfigError(
                "solver record_times come from the target times; leave them unset"
            )
        object.__setattr__(self, "targets", targets)
        object.__setattr__(self, "bounds", bounds)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "drift_degree", int(self.drift_degree))
        object.__setattr__(self, "diff_degree", int(self.diff_degree))

    @property
    def n_params(self) -> int:
        return self.drift_degree + 1 + self.diff_degree + 1

    def model_from_params(self, params) -> CoefficientModel:
        p = np.asarray(params, dtype=float)
        if p.shape != (self.n_params,):
            raise InfeasibleConfigError(
                f"parameter vector must have shape ({self.n_params},), got {p.shape}"
            )
        cut = self.drift_degree + 1
        return CoefficientModel(
            drift_poly=tuple(p[:cut]), diff_poly=tuple(p[cut:])
        )

    def horizon(self) -> tuple[float, float]:
        return self.initial_density.time_stamp, self.targets[-1][0]

    @cached_property
    def _solver(self) -> SolverConfig:
        """solver with the target times as its record times."""
        return replace(self.solver, record_times=tuple(tau for tau, _ in self.targets))

    @cached_property
    def _scored(self) -> tuple[list[int] | slice, list[float], np.ndarray, np.ndarray]:
        """The rows of the targets with nonzero weight (a slice when that
        is all of them), their weights, and their values and KL support
        (values > KL_FLOOR) as read-only (m, n) arrays; __post_init__
        has checked their masses."""
        rows = [i for i, w in enumerate(self.weights) if w != 0.0]
        values = np.stack([self.targets[i][1].values for i in rows])
        support = values > KL_FLOOR
        values.flags.writeable = support.flags.writeable = False
        weights = [self.weights[i] for i in rows]
        return rows if len(rows) < len(self.weights) else slice(None), weights, values, support


def _l2_rows(p: np.ndarray, q: np.ndarray, x: np.ndarray) -> list[float]:
    """Trapezoidal L2 distance of each row pair of two (m, n) arrays."""
    diff = p - q
    return np.sqrt(np.trapezoid(diff * diff, x)).tolist()


def loss(problem: CalibrationProblem, params) -> float:
    """Weighted density distance of the forward solve to the targets.

    One solve records every target time; then all targets with nonzero
    weight are scored in one pass over ``trace.states`` (KL(target ||
    predicted) by ``kl_divergence_rows``, or the L2 distance) and the
    weighted distances are summed in target order. The KL rows are not
    clamped at zero, so an initial density whose mass is off 1 shifts
    the loss by about the same amount at every parameter vector.
    Negative diffusion anywhere on the horizon returns 1e6 + |worst
    violation|; a diverged solve returns 1e6. The value is
    deterministic: repeated calls agree bit for bit.
    """
    model = problem.model_from_params(params)
    t0, t_end = problem.horizon()
    d2_min, _ = model.diffusion_range(t0, t_end)
    if d2_min < 0.0:
        return PENALTY_FLOOR + abs(d2_min)
    trace = solve(problem.initial_density, model, problem._solver)
    if trace.diverged:
        return PENALTY_FLOOR
    rows, weights, targets, support = problem._scored
    states, x = trace.states[rows], problem.initial_density.grid.nodes
    if problem.distance == "kl":
        distances = kl_divergence_rows(targets, states, x, support=support)
    else:
        distances = _l2_rows(targets, states, x)
    total = 0.0
    for w, d in zip(weights, distances):
        total += w * d
    return total


class _BudgetSpent(Exception):
    """The evaluation budget ran out in the middle of a simplex step."""


def _first_simplex(x0: np.ndarray, width: np.ndarray) -> np.ndarray:
    """The (n + 1, n) simplex whose vertex k + 1 moves coordinate k of x0
    to 1.05 x0[k], or to 0.05 width[k] where x0[k] is zero."""
    sim = np.tile(x0, (x0.size + 1, 1))
    for k in range(x0.size):
        sim[k + 1, k] = 1.05 * x0[k] if x0[k] != 0 else 0.05 * width[k]
    return sim


def _nelder_mead(func, sim, maxfev: int) -> tuple[np.ndarray, float, bool]:
    """Minimize func from the (n + 1, n) first simplex sim by at most
    maxfev evaluations.

    Line for line scipy's `_minimize_neldermead` given sim as its
    ``initial_simplex``, without bounds or iteration cap (see the module
    docstring). A step that the budget cuts short stops where scipy's
    `_MaxFuncCallError` stops it: an expansion or contraction stores
    nothing, and a shrink leaves the vertex it just moved with its old
    value. Returns the best vertex, its value and whether the tolerances
    stopped the search before the budget did.
    """
    n_calls = 0

    def f(x: np.ndarray) -> float:
        nonlocal n_calls
        if n_calls >= maxfev:
            raise _BudgetSpent
        n_calls += 1
        return func(np.copy(x))

    sim = np.array(sim, dtype=float)
    n = sim.shape[1]
    fsim = np.full(n + 1, np.inf)
    try:
        for k in range(n + 1):
            fsim[k] = f(sim[k])
    except _BudgetSpent:
        pass
    # sorted twice, as scipy does: argsort is not stable, so a second
    # pass can reorder tied values
    for _ in range(2):
        ind = np.argsort(fsim)
        sim = np.take(sim, ind, 0)
        fsim = np.take(fsim, ind, 0)

    while n_calls < maxfev:
        try:
            if (
                np.max(np.ravel(np.abs(sim[1:] - sim[0]))) <= _SIMPLEX_TOL
                and np.max(np.abs(fsim[0] - fsim[1:])) <= _VALUE_TOL
            ):
                break
            xbar = np.add.reduce(sim[:-1], 0) / n
            xr = 2 * xbar - 1 * sim[-1]
            fxr = f(xr)
            if fxr < fsim[0]:
                xe = 3 * xbar - 2 * sim[-1]
                fxe = f(xe)
                if fxe < fxr:
                    sim[-1], fsim[-1] = xe, fxe
                else:
                    sim[-1], fsim[-1] = xr, fxr
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:
                if fxr < fsim[-1]:
                    xc = 1.5 * xbar - 0.5 * sim[-1]
                    fxc = f(xc)
                    shrink = not fxc <= fxr
                    if not shrink:
                        sim[-1], fsim[-1] = xc, fxc
                else:
                    xcc = 0.5 * xbar + 0.5 * sim[-1]
                    fxcc = f(xcc)
                    shrink = not fxcc < fsim[-1]
                    if not shrink:
                        sim[-1], fsim[-1] = xcc, fxcc
                if shrink:
                    for j in range(1, n + 1):
                        sim[j] = sim[0] + 0.5 * (sim[j] - sim[0])
                        fsim[j] = f(sim[j])
        except _BudgetSpent:
            pass
        ind = np.argsort(fsim)
        sim = np.take(sim, ind, 0)
        fsim = np.take(fsim, ind, 0)

    return sim[0], float(np.min(fsim)), n_calls < maxfev


@dataclass(frozen=True)
class CalibrationResult:
    """Best model found plus bookkeeping.

    final_loss matches loss(problem, best params) bit for bit.
    """

    model: CoefficientModel
    final_loss: float
    n_evaluations: int
    converged: bool


def calibrate(
    problem: CalibrationProblem,
    optimizer: str = "random_multistart_nelder_mead",
    budget: int = 500,
    seed: int = 0,
    start=None,
) -> CalibrationResult:
    """Minimize loss() over the bounds box with seeded Nelder-Mead.

    "nelder_mead" runs once, from start (a parameter vector inside the
    box) when one is given and from the box midpoint otherwise; the
    multistart variant, which takes no start, draws 8 uniform starts
    inside the box and splits the budget evenly. Each search begins
    from _first_simplex of its start
    and the box widths, and iterates on a clipped copy of the point with
    a quadratic charge for leaving the box, so returned coefficients
    always respect the bounds. Ties keep the earliest start. final_loss
    is the loss the search already computed at the returned point, or a
    new solve where a budget-cut shrink moved that point without
    evaluating it.
    """
    if optimizer not in OPTIMIZERS:
        raise InfeasibleConfigError(f"unknown optimizer {optimizer!r}")
    if budget < 50:
        raise InfeasibleConfigError("budget must be >= 50 evaluations")
    lo = np.asarray([a for a, _ in problem.bounds])
    hi = np.asarray([b for _, b in problem.bounds])
    if start is not None:
        if optimizer != "nelder_mead":
            raise InfeasibleConfigError(f"{optimizer} draws its own starts; pass no start")
        start = np.asarray(start, dtype=float)
        if start.shape != lo.shape or not np.all((lo <= start) & (start <= hi)):
            raise InfeasibleConfigError(
                f"start must be {lo.size} parameters inside the bounds, got {start.tolist()}"
            )

    n_evals = 0
    # loss at each clipped point the search evaluated, keyed by its bytes
    losses: dict[bytes, float] = {}

    def objective(p: np.ndarray) -> float:
        nonlocal n_evals
        pc = np.clip(p, lo, hi)
        n_evals += 1
        value = losses[pc.tobytes()] = loss(problem, pc)
        return value + _EXCURSION_WEIGHT * float(np.sum((p - pc) ** 2))

    if optimizer == "nelder_mead":
        starts = [0.5 * (lo + hi) if start is None else start]
        per_start = budget
    else:
        from numpy.random import Generator, Philox  # the only draws here

        gen = Generator(Philox(key=[seed, 0]))
        starts = [lo + gen.uniform(size=lo.size) * (hi - lo) for _ in range(N_STARTS)]
        per_start = budget // N_STARTS

    best_x = None
    best_val = np.inf
    converged = False
    for x0 in starts:
        x, fun, success = _nelder_mead(objective, _first_simplex(x0, hi - lo), per_start)
        if fun < best_val:
            best_val = fun
            best_x = np.clip(x, lo, hi)
            converged = success

    final_loss = losses.get(best_x.tobytes())
    if final_loss is None:
        final_loss = loss(problem, best_x)
    return CalibrationResult(
        model=problem.model_from_params(best_x),
        final_loss=final_loss,
        n_evaluations=n_evals,
        converged=converged,
    )
