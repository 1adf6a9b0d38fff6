"""Run one iteration of a workload's fprom commands in this process.

Usage: python3 child.py SPEC.json

SPEC holds ``commands`` (argument lists for ``fprom.cli.main``, run one
after the other), ``trace`` (wrap the layers with the span recorder)
and ``result`` (where to write the outcome as JSON). The outcome holds
the CPU seconds taken to import ``fprom.cli``, each command's exit code
and [CPU seconds, wall seconds], the CPU seconds of the reference
kernel run before the first command and after each one, this process's
peak RSS and, when traced, its spans.
"""

import sys
import time


_REFERENCE_INPUTS = {}


def reference_s() -> float:
    """CPU seconds of a fixed mix of interpreter, numpy and sparse work.

    None of it is fprom code, so a change to fprom leaves it alone; it
    tracks how fast the host runs this process at the moment, which on
    a shared host drifts by a third and more within minutes.
    """
    import numpy as np
    import scipy.sparse as sparse
    import scipy.sparse.linalg as sla

    n = 513
    state = _REFERENCE_INPUTS
    if not state:
        state["a"] = np.random.default_rng(0).random(250_000)
        state["b"] = np.ones(n)
    cpu = time.process_time()
    total = 0
    for i in range(100_000):
        total += i * i
    for _ in range(24):
        np.exp(-state["a"]).sum()
    for k in range(40):
        m = sparse.diags([np.full(n - 1, -1.0), np.full(n, 2.5 + k),
                          np.full(n - 1, -1.0)], [-1, 0, 1], format="csc")
        sla.splu(m).solve(state["b"])
    return time.process_time() - cpu


def main() -> int:
    cpu = time.process_time()
    import fprom.cli  # noqa: F401  (the set-up every fprom call pays)

    setup = time.process_time() - cpu

    import json
    import resource
    import traceback

    with open(sys.argv[1]) as fh:
        spec = json.load(fh)
    recorder = None
    if spec["trace"]:
        import tracer

        recorder = tracer.install(tracer.Recorder())
    cli = sys.modules["fprom.cli"]

    commands, refs = [], [reference_s()]
    for argv in spec["commands"]:
        wall, cpu = time.perf_counter(), time.process_time()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            traceback.print_exc()
            code = 1
        commands.append({"code": code, "command_s": (
            time.process_time() - cpu, time.perf_counter() - wall)})
        sys.stdout.flush()
        sys.stderr.flush()
        refs.append(reference_s())

    result = {
        "setup_s": setup,
        "commands": commands,
        "reference_s": refs,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if recorder is not None:
        result["spans"] = recorder.spans
        result["missing"] = recorder.missing
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
