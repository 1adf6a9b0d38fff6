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
