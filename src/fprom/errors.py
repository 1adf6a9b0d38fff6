"""Exception types shared across the toolkit.

The CLI maps these onto process exit codes, so anything user-facing
should raise one of them rather than a bare exception.
"""

import numbers


class InputDataError(ValueError):
    """Malformed or unreadable user input (files, config, CLI arguments)."""


class InfeasibleConfigError(ValueError):
    """A configuration that can never run: bad bounds, unstable dt,
    record times off the step lattice, negative diffusion without the
    override flag, and similar."""


class SolverDivergenceError(RuntimeError):
    """A numerical computation blew up (non-finite state, vanished mass)."""


def require_integer(value, what: str) -> int:
    """value as an int, refused unless it is a real number with an
    integral value; bools are refused too, so a JSON ``true`` or a
    fraction never runs silently as a truncated count."""
    if (
        isinstance(value, bool)
        or not isinstance(value, numbers.Real)
        or not float(value).is_integer()
    ):
        raise InfeasibleConfigError(f"{what} must be an integer, got {value!r}")
    return int(value)


def require_float(value, what: str) -> float:
    """value as a float, refused with an InputDataError naming what when
    float() cannot read it (a list, an object, null or a non-numeric
    string), so a malformed config field exits 2 instead of raising a
    TypeError."""
    try:
        return float(value)
    except (TypeError, ValueError):
        raise InputDataError(f"{what} must be a number, got {value!r}") from None


def require_floats(values, what: str) -> tuple[float, ...]:
    """A list of numbers as a tuple of floats, each read by require_float
    and named by its index."""
    if not isinstance(values, (list, tuple)):
        raise InputDataError(f"{what} must be a list of numbers, got {values!r}")
    return tuple(require_float(v, f"{what}[{i}]") for i, v in enumerate(values))
