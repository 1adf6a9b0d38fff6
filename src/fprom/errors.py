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


def require_keys(
    section, where: str, required=(), allowed=(), document: str = "config"
) -> dict:
    """section itself, refused with an InputDataError unless it is a
    JSON object (None reads as a section missing from the named
    document) holding every key in required and no key outside required
    and allowed."""
    if section is None:
        raise InputDataError(f"{document} is missing the {where!r} section")
    if not isinstance(section, dict):
        raise InputDataError(f"{where} must be a JSON object")
    unknown = sorted(set(section) - set(required) - set(allowed))
    if unknown:
        raise InputDataError(f"unknown {where} key(s): {', '.join(unknown)}")
    missing = [key for key in required if key not in section]
    if missing:
        raise InputDataError(f"{where} section needs {' and '.join(missing)}")
    return section


def read_table(raw, where: str, table) -> tuple[dict, list[str]]:
    """The values that the config document raw gives for the keys of
    table, each read by its row's reader, and the optional keys it
    leaves out.

    Each row begins (dotted key, reader, required). A key "s.name"
    lives in the JSON object raw["s"], which must be present; keys
    outside the table are refused at both levels, all through
    require_keys. A reader is called as reader(value, dotted key), and
    None keeps the value as given. The absent keys list section keys
    first, then top-level keys, each in table order.
    """
    rows = [(*key.rpartition("."), read, required) for key, read, required, *_ in table]
    sections = dict.fromkeys(section for section, *_ in rows if section)

    def names(section: str, required: bool) -> tuple[str, ...]:
        return tuple(n for s, _, n, _, r in rows if s == section and r == required)

    docs = {"": require_keys(raw, where, names("", True), (*sections, *names("", False)))}
    for s in sections:
        docs[s] = require_keys(raw.get(s), s, names(s, True), names(s, False))
    values, absent = {}, []
    for section, dot, name, read, _ in rows:
        key = section + dot + name
        if name not in docs[section]:
            absent.append(key)
        else:
            value = docs[section][name]
            values[key] = value if read is None else read(value, key)
    absent.sort(key=lambda key: "." not in key)
    return values, absent
