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


def require_seed(value) -> int:
    """The seed as an int, refused unless in [0, 2**63): Philox reads a
    larger or negative key modulo 2**64 (or overflows), so two seeds
    would share a stream."""
    seed = require_integer(value, "seed")
    if not 0 <= seed < 2**63:
        raise InfeasibleConfigError("seed must be in [0, 2**63)")
    return seed


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


def require_string(value, what: str) -> str:
    """value itself, refused with an InputDataError naming what unless it
    is a string, so a list, object or number where a config names a kind
    exits 2 instead of raising a TypeError."""
    if not isinstance(value, str):
        raise InputDataError(f"{what} must be a string, got {value!r}")
    return value


def require_keys(section, where: str, required=(), allowed=()) -> dict:
    """section itself, refused with an InputDataError unless it is a
    JSON object (None reads as a missing section) holding every key in
    required and no key outside required and allowed."""
    if section is None:
        raise InputDataError(f"config is missing the {where!r} section")
    if not isinstance(section, dict):
        raise InputDataError(f"{where} must be a JSON object")
    unknown = sorted(set(section) - set(required) - set(allowed))
    if unknown:
        raise InputDataError(f"unknown {where} key(s): {', '.join(unknown)}")
    missing = [key for key in required if key not in section]
    if missing:
        raise InputDataError(f"{where} section needs {' and '.join(missing)}")
    return section
