"""The benchmark's traced layers still exist in fprom.

fprombench/tracer.py wraps each (module, function) in its TRACED table
by looking it up in ``fprom.<module>``; a name that no longer resolves
is skipped and its layer silently drops out of the traced run. This
test reads that table and fails instead.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "fprombench" / "tracer.py"

# deleted with the general stencil machinery and with the sampled
# pushforward; the benchmark still lists them
ALREADY_GONE = {("grid", "derivative_matrix"), ("sampling", "rejection_sample")}


def traced_layers():
    spec = importlib.util.spec_from_file_location("fprombench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return set(tracer.TRACED)


def test_every_traced_function_resolves():
    missing = sorted(
        f"{module}.{name}"
        for module, name in traced_layers() - ALREADY_GONE
        if not callable(getattr(importlib.import_module(f"fprom.{module}"), name, None))
    )
    assert missing == []


def test_the_exception_is_really_gone():
    for module, name in ALREADY_GONE:
        assert not hasattr(importlib.import_module(f"fprom.{module}"), name)
