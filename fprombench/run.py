"""fprom benchmark: fixed CLI command sequences, timed from outside.

Usage (from the repository root):

    python3 fprombench/run.py --workload workflow --seed 0 --seconds 35 --trace 0

Each iteration of a workload runs its ``fprom`` commands one after the
other (a closed loop with one client) in a fresh child process that
imports ``fprom.cli`` and calls ``fprom.cli.main(argv)`` for each
command, with BLAS threads pinned to 1. Iterations repeat while the
next one would still end within ``--seconds``; at least one runs.
Every iteration's outputs are checked: exit codes, expected files, the
final KL budget, the recovered coefficients and, across iterations of
one seed, byte-identical artifacts, reports and metrics.

Times are CPU seconds (user plus system) of the child, which leave out
the time a shared host gives to other guests. CPU seconds still follow
how fast the host runs the child: on a 2-vCPU cloud guest the same
command sequence took from 2.1 s to 4.2 s within four minutes, and the
median of a 30-second run moved by a third between runs. So the child
also times a fixed reference kernel (numpy, scipy and interpreter
work, no fprom code; see child.py) before its first command and after
each one, and the gated times are scaled to that kernel: an
iteration's ``workload_s`` is its commands' CPU seconds times
``REF_S`` over the mean reference time, i.e. the seconds the sequence
would take on a host that runs the reference kernel in ``REF_S``.
``setup_s`` scales the import of ``fprom.cli`` the same way. A change
to fprom moves these as it moves the CPU time; a change in host speed
mostly cancels. The unscaled CPU seconds (``*_cpu_s``), wall seconds
(``*_wall_s``), the reference time and the accuracy figures are
printed above the result line.

With ``--trace 0`` the last line of output is a JSON object with the
end-to-end metrics, each the median over the run's iterations. With
``--trace 1`` one more iteration runs with every layer wrapped by the
span recorder (see tracer.py) and the JSON object carries the
per-layer metrics instead. Lines before it give each metric's
quartiles and sample count, the checks that failed and a record of
the machine and library versions.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer
from workloads import BUILDERS, DIFF_TOL, DRIFT_TOL, KL_BUDGET, SIZES, WHY

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = tuple(BUILDERS)

# a run starts no iteration that would end past RUN_LIMIT_S and kills
# any command still running RUN_DEADLINE_S after the run began
RUN_LIMIT_S = 150.0
RUN_DEADLINE_S = 170.0

# the reference kernel's CPU time that scaled times are expressed at,
# about its median on the 2-vCPU guest the benchmark was tuned on
REF_S = 0.05

END_TO_END = {
    "workload_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# printed above the result line only: unscaled times, which move with
# the host's speed; single commands, some of which run on some
# workloads only; and accuracy, which varies with the seed
REPORTED = {
    **{f"{name}_{clock}_s": "s"
       for name in ("workload", "setup", "simulate", "estimate", "train",
                    "predict", "validate")
       for clock in ("cpu", "wall") if (name, clock) != ("setup", "wall")},
    "host_ref_s": "s",
    "final_kl": "nats",
    "final_l1": "1",
    "coef_rel_err": "1",
}
# the metric a command's time adds to, where it is not the command's name
STAGE_OF = {"calibrate": "train"}

PER_LAYER = {
    "langevin.simulate.self_s": "s",
    "langevin.simulate.path_steps": "count",
    "langevin.write_ensemble_csv.self_s": "s",
    "langevin.write_ensemble_csv.rows": "count",
    "pipeline.ingest.self_s": "s",
    "pipeline.ingest.calls": "count",
    "pipeline.ingest.rows": "count",
    "pipeline.run_train.self_s": "s",
    "pipeline.run_predict.self_s": "s",
    "pipeline.run_validate.self_s": "s",
    "pipeline.save_artifact.self_s": "s",
    "density.kde_estimate.self_s": "s",
    "density.kde_estimate.calls": "count",
    "density.kde_estimate.kernel_evals": "count",
    "density.kde_estimate.truncated": "count",
    "density.tikhonov_smooth.self_s": "s",
    "density.kl_divergence.calls": "count",
    "density.kl_divergence.self_s": "s",
    "density.read_density_csv.self_s": "s",
    "density.write_density_csv.self_s": "s",
    "grid.derivative_matrix.calls": "count",
    "grid.derivative_matrix.self_s": "s",
    "grid.derivative_matrix.dense_bytes": "bytes",
    "solver.solve.calls": "count",
    "solver.solve.self_s": "s",
    "solver.solve.steps": "count",
    "solver.solve.node_steps": "count",
    "solver.solve.diverged": "count",
    "calibrate.calibrate.self_s": "s",
    "calibrate.loss.calls": "count",
    "calibrate.loss.self_s": "s",
    "calibrate.loss.useful_frac": "frac",
    "estimation.moment_series.self_s": "s",
    "estimation.regress_time_only_coefficients.self_s": "s",
    "sampling.pushforward_density.self_s": "s",
    "sampling.rejection_sample.self_s": "s",
    "sampling.rejection_sample.samples": "count",
    "cli.main.calls": "count",
    "cli.main.self_s": "s",
    "trace.overhead_frac": "frac",
    "trace.coverage_frac": "frac",
}

def child_env() -> dict:
    env = dict(os.environ)
    env.pop("FPROM_OUTPUT_DIR", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    for key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = "1"
    return env


class Tally:
    """Commands and checks attempted, and the ones that failed."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok


def run_child(commands, cwd: Path, trace: bool, env: dict, deadline: float) -> dict:
    """Run one iteration's commands in a fresh child and return its outcome."""
    remaining = deadline - time.monotonic()
    if remaining <= 0.0:
        return {"error": "not run, past the run deadline"}
    spec = cwd / ".iteration.json"
    result = cwd / ".iteration.result.json"
    spec.write_text(json.dumps({"commands": commands, "trace": trace,
                                "result": str(result)}))
    with open(cwd / "iteration.log", "w") as log:
        try:
            subprocess.run(
                [sys.executable, str(HERE / "child.py"), str(spec)],
                cwd=cwd, env=env, stdout=log, stderr=subprocess.STDOUT,
                timeout=remaining, check=False,
            )
        except subprocess.TimeoutExpired:
            return {"error": "timeout"}
    try:
        return json.loads(result.read_text())
    except (OSError, ValueError):
        return {"error": "crashed"}


def _final_row(path: Path):
    try:
        last = path.read_text().splitlines()[-1].split(",")
        if last[0] == "final":
            return float(last[1]), float(last[2])
    except (OSError, IndexError, ValueError):
        pass
    return None


def _coef_errors(path: Path, truth):
    try:
        model = json.loads(path.read_text())["model"]
        pairs = list(zip(model["drift_poly"], truth[0])) + list(
            zip(model["diff_poly"], truth[1]))
        if len(pairs) != len(truth[0]) + len(truth[1]):
            return None
        return [(float(est), float(true)) for est, true in pairs]
    except (OSError, KeyError, TypeError, ValueError):
        return None


def run_iteration(workload, cwd: Path, trace: bool, tally: Tally, env: dict,
                  deadline: float, sabotage: str | None = None) -> dict:
    """Run the workload's commands in order and check what they left."""
    argvs = [list(command.argv) for command in workload.commands]
    for argv in argvs:
        if argv[0] == sabotage:
            argv.append("--no-such-option")
    res = run_child(argvs, cwd, trace, env, deadline)
    done = res.get("commands", [])
    values: dict[str, float] = {"workload_cpu_s": 0.0, "workload_wall_s": 0.0}
    for index, (argv, command) in enumerate(zip(argvs, workload.commands)):
        got = done[index] if index < len(done) else {"code": res.get("error", "crashed")}
        label = f"{workload.name}: fprom {' '.join(argv)}"
        if tally.check(got["code"] == 0, f"{label} exited {got['code']}"):
            absent = [p for p in command.expect if not (cwd / p).is_file()]
            tally.check(not absent, f"{label} left no {absent}")
        if "command_s" in got:
            stage = STAGE_OF.get(argv[0], argv[0])
            for key, value in zip(("cpu_s", "wall_s"), got["command_s"]):
                for name in (f"{stage}_{key}", f"workload_{key}"):
                    values[name] = values.get(name, 0.0) + value
    if "peak_rss_mb" in res:
        values["peak_rss_mb"] = res["peak_rss_mb"]

    kls, l1s, rel, digests = [], [], [], {}
    for out, truth in workload.truth.items():
        name = f"{out}/metrics.csv"
        row = _final_row(cwd / name)
        if tally.check(row is not None, f"{workload.name}: {name} has no final row"):
            kls.append(row[0])
            l1s.append(row[1])
            tally.check(row[0] <= KL_BUDGET,
                        f"{workload.name}: {name} final KL {row[0]} > {KL_BUDGET}")
        pairs = _coef_errors(cwd / out / "artifact.json", truth)
        if tally.check(pairs is not None,
                       f"{workload.name}: {out}/artifact.json unreadable"):
            for i, (est, true) in enumerate(pairs):
                tol = DRIFT_TOL if i < len(truth[0]) else DIFF_TOL
                tally.check(abs(est - true) <= tol,
                            f"{workload.name}: {out} coefficient {i} = {est}, "
                            f"generator {true}, tolerance {tol}")
                rel.append(abs(est - true) / abs(true))
        for name in ("artifact.json", "run_report.txt", "metrics.csv"):
            try:
                digest = hashlib.sha256((cwd / out / name).read_bytes()).hexdigest()
            except OSError:
                digest = None
            digests[f"{out}/{name}"] = digest
    for name, found in (("final_kl", kls), ("final_l1", l1s), ("coef_rel_err", rel)):
        if found:
            values[name] = max(found)
    if "setup_s" in res:
        # all calls, the first and cold one too: over 42 calibrate_tv
        # iterations this mean tracked the commands' time more closely
        # than the mean of the warm calls or the first call alone
        ref = statistics.fmean(res["reference_s"])
        values["host_ref_s"] = ref
        values["setup_cpu_s"] = res["setup_s"]
        values["setup_s"] = res["setup_s"] * REF_S / ref
        values["workload_s"] = values["workload_cpu_s"] * REF_S / ref
    return {"values": values, "spans": res.get("spans", []),
            "missing": res.get("missing", []), "digests": digests}


def quartiles(values):
    values = sorted(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def layer_metrics(traced: dict, untraced_s: float) -> dict:
    """Per-layer metrics of the traced iteration.

    Both fractions read 0 when the traced or every untraced child
    crashed; the run then already counts the failure.
    """
    totals = tracer.summarize(traced["spans"])
    covered = sum(agg["self_s"] for agg in totals.values())
    values = traced["values"]
    out = {"trace.overhead_frac": 0.0, "trace.coverage_frac": 0.0}
    if "workload_s" in values and untraced_s:
        out["trace.overhead_frac"] = values["workload_s"] / untraced_s - 1.0
        out["trace.coverage_frac"] = covered / values["workload_cpu_s"]
    for metric in PER_LAYER:
        layer, stat = metric.rsplit(".", 1)
        agg = totals.get(layer, {})
        if stat == "useful_frac":
            calls = agg.get("calls", 0)
            out[metric] = agg.get("useful", 0) / calls if calls else 0.0
        elif layer != "trace":
            out[metric] = agg.get(stat, 0)
    return out


def run_record(seed: int, workload: str) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        openblas = "unknown"
    sha = "unknown"
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=30,
                                 check=False).stdout.strip() or "unknown"
        except (OSError, subprocess.TimeoutExpired):
            pass
    src_hash = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src_hash.update(path.relative_to(SRC).as_posix().encode())
        src_hash.update(path.read_bytes())
    llc = "unknown"
    for level in (4, 3, 2):
        try:
            size = subprocess.run(["getconf", f"LEVEL{level}_CACHE_SIZE"],
                                  capture_output=True, text=True, timeout=30,
                                  check=False).stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            break
        if size.isdigit() and int(size) > 0:
            llc = f"L{level} {int(size) // 1024} KiB"
            break
    return {
        "git_sha": sha,
        "src_sha256": src_hash.hexdigest(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": openblas,
        "nproc": os.cpu_count(),
        "blas_threads": 1,
        "last_level_cache": llc,
        "seed": seed,
        "workload": workload,
        "why": WHY[workload],
    }


def _compare(first, it, tally: Tally, name: str):
    """Check this iteration's output files against the first iteration's."""
    if first is None:
        return it["digests"]
    for path, digest in it["digests"].items():
        tally.check(digest is not None and digest == first.get(path),
                    f"{name}: {path} differs between iterations of one seed")
    return first


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 size: str = "full", sabotage: str | None = None) -> dict:
    """Run one workload and return its result and report lines."""
    env = child_env()
    base = ROOT / ".bench_work" / f"{name}-s{seed}-p{os.getpid()}"
    shutil.rmtree(base, ignore_errors=True)
    tally = Tally()
    iterations = []
    first_digests = None
    started = time.perf_counter()
    deadline = time.monotonic() + RUN_DEADLINE_S
    try:
        while True:
            begun = time.perf_counter()
            cwd = base / f"iter{len(iterations)}"
            cwd.mkdir(parents=True)
            workload = BUILDERS[name](cwd, seed, SIZES[size])
            it = run_iteration(workload, cwd, False, tally, env, deadline, sabotage)
            iterations.append(it)
            first_digests = _compare(first_digests, it, tally, name)
            shutil.rmtree(cwd)
            now = time.perf_counter()
            # start no iteration that would end past --seconds
            if 2 * now - begun - started > min(seconds, RUN_LIMIT_S):
                break
        traced = None
        if trace:
            cwd = base / "traced"
            cwd.mkdir(parents=True)
            workload = BUILDERS[name](cwd, seed, SIZES[size])
            traced = run_iteration(workload, cwd, True, tally, env, deadline, sabotage)
            _compare(first_digests, traced, tally, name)
    finally:
        shutil.rmtree(base, ignore_errors=True)
        try:
            base.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    lines = [f"workload {name} seed {seed} size {size}: {len(iterations)} "
             f"untraced iteration(s){', 1 traced' if trace else ''}"]
    summary = {}
    for metric, unit in {**END_TO_END, **REPORTED}.items():
        samples = [it["values"][metric] for it in iterations
                   if metric in it["values"]]
        if not samples:
            continue
        q1, med, q3 = quartiles(samples)
        summary[metric] = med
        lines.append(f"  {metric:<17} {med:.6g} {unit}  "
                     f"(q1 {q1:.6g}, q3 {q3:.6g}, n={len(samples)})")
    metrics = {m: {"value": summary.get(m), "unit": u}
               for m, u in END_TO_END.items()}
    if traced is not None:
        layers = layer_metrics(traced, summary.get("workload_s"))
        metrics = {m: {"value": layers[m], "unit": u} for m, u in PER_LAYER.items()}
        for metric, unit in PER_LAYER.items():
            lines.append(f"  {metric:<50} {layers[metric]:.6g} {unit}")
        if traced["missing"]:
            lines.append("  traced functions missing: "
                         + ", ".join(sorted(traced["missing"])))
    failed = len(tally.failures)
    attempted = max(tally.attempted, 1)
    lines.append(f"  failed_frac       {failed / attempted:.6g}  "
                 f"({failed} of {attempted} commands and checks)")
    lines.extend(f"  FAILED: {what}" for what in tally.failures)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return {"result": result, "lines": lines, "traced": traced}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "toy"), default="full",
                        help="toy sizes for a quick check of the harness")
    args = parser.parse_args(argv)
    if not (SRC / "fprom" / "cli.py").is_file():
        print(f"error: no fprom sources under {SRC}", file=sys.stderr)
        return 2
    out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                       args.size)
    for line in out["lines"]:
        print(line)
    print("run record: " + json.dumps(run_record(args.seed, args.workload)))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
