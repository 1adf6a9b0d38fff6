"""Outside-in span recorder for fprom.

`install()` replaces each listed function with a wrapper in every
loaded ``fprom.*`` module namespace that holds a reference to it, so
calls made through any import path are timed. Each call records one
span (name, start, end, parent) plus work counts derived from its
arguments (and, for a few pass/fail counts, its result). Spans stay in
memory; the caller writes them out once. Span times are read from the
process CPU clock, so time the host gives to other guests is left out.

`summarize()` turns spans into per-layer metrics: call counts, summed
counts and self time, i.e. span time minus the time its child spans
cover.
"""

from __future__ import annotations

import functools
import sys
import time
import warnings

# loss values at or above this are penalties (negative diffusion or a
# diverged solve), not useful evaluations
LOSS_PENALTY = 1e6


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _path_steps(args, kwargs, result):
    plan = _arg(args, kwargs, 1, "plan")
    return {"path_steps": plan.n_trajectories * plan.n_steps}


def _ensemble_rows(args, kwargs, result):
    ens = _arg(args, kwargs, 0, "ens")
    return {"rows": ens.n_realizations * ens.n_times}


def _ingest_rows(args, kwargs, result):
    if isinstance(result, list):
        return {"rows": sum(f.grid.n_points for f in result)}
    return {"rows": result.n_realizations * result.n_times}


def _kernel_evals(args, kwargs, result):
    samples = _arg(args, kwargs, 0, "samples")
    grid = _arg(args, kwargs, 1, "grid")
    return {"kernel_evals": len(samples) * grid.n_points}


def _dense_bytes(args, kwargs, result):
    return {"dense_bytes": 8 * _arg(args, kwargs, 0, "grid").n_points ** 2}


def _solve_steps(args, kwargs, result):
    f0 = _arg(args, kwargs, 0, "f0")
    config = _arg(args, kwargs, 2, "config")
    steps = int(round((max(config.record_times) - f0.time_stamp) / config.dt))
    return {
        "steps": steps,
        "node_steps": steps * f0.grid.n_points,
        "diverged": int(bool(result.diverged)),
    }


def _loss_useful(args, kwargs, result):
    return {"useful": int(result < LOSS_PENALTY)}


def _samples(args, kwargs, result):
    return {"samples": int(_arg(args, kwargs, 1, "n"))}


# (module, function) -> computes counts from the call
TRACED = {
    ("langevin", "simulate"): _path_steps,
    ("langevin", "write_ensemble_csv"): _ensemble_rows,
    ("pipeline", "ingest"): _ingest_rows,
    ("pipeline", "run_train"): None,
    ("pipeline", "run_predict"): None,
    ("pipeline", "run_validate"): None,
    ("pipeline", "save_artifact"): None,
    ("density", "kde_estimate"): _kernel_evals,
    ("density", "tikhonov_smooth"): None,
    ("density", "kl_divergence"): None,
    ("density", "read_density_csv"): None,
    ("density", "write_density_csv"): None,
    ("grid", "derivative_matrix"): _dense_bytes,
    ("solver", "solve"): _solve_steps,
    ("calibrate", "calibrate"): None,
    ("calibrate", "loss"): _loss_useful,
    ("estimation", "moment_series"): None,
    ("estimation", "regress_time_only_coefficients"): None,
    ("sampling", "pushforward_density"): None,
    ("sampling", "rejection_sample"): _samples,
    ("cli", "main"): None,
}

_TRUNCATION_TEXT = "KDE mass will be truncated"


class Recorder:
    """In-memory spans: [id, name, start, end, parent id, counts]."""

    def __init__(self):
        self.spans = []
        self.missing = []
        self._stack = []

    def wrap(self, name, fn, counter):
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [len(recorder.spans), name, 0.0, 0.0,
                    recorder._stack[-1][0] if recorder._stack else None, {}]
            recorder.spans.append(span)
            recorder._stack.append(span)
            caught = None
            span[2] = time.process_time()
            try:
                if name == "density.kde_estimate":
                    with warnings.catch_warnings(record=True) as caught:
                        warnings.simplefilter("always")
                        result = fn(*args, **kwargs)
                else:
                    result = fn(*args, **kwargs)
            finally:
                span[3] = time.process_time()
                recorder._stack.pop()
            if caught is not None:
                span[5]["truncated"] = sum(
                    _TRUNCATION_TEXT in str(w.message) for w in caught
                )
                for w in caught:
                    warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
            if counter is not None:
                span[5].update(counter(args, kwargs, result))
            return result

        return traced


def install(recorder: Recorder, traced=TRACED) -> Recorder:
    """Wrap every listed function wherever an fprom module refers to it.

    A listed function that no longer exists is noted in
    ``recorder.missing`` and skipped.
    """
    modules = {k: m for k, m in sys.modules.items()
               if m is not None and (k == "fprom" or k.startswith("fprom."))}
    for (mod, fname), counter in traced.items():
        owner = modules.get(f"fprom.{mod}")
        original = getattr(owner, fname, None) if owner is not None else None
        if not callable(original):
            recorder.missing.append(f"{mod}.{fname}")
            continue
        wrapper = recorder.wrap(f"{mod}.{fname}", original, counter)
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
    return recorder


def summarize(spans) -> dict:
    """Per-name totals: calls, self_s and every summed count."""
    child_time = [0.0] * len(spans)
    for _, _, start, end, parent, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    out: dict[str, dict] = {}
    for sid, name, start, end, _, counts in spans:
        agg = out.setdefault(name, {"calls": 0, "self_s": 0.0})
        agg["calls"] += 1
        agg["self_s"] += (end - start) - child_time[sid]
        for key, value in counts.items():
            agg[key] = agg.get(key, 0) + value
    return out
