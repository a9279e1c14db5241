"""Benchmark of fracpicard: three workloads, end-to-end metrics, outside-in per-layer trace.

Run from the root of a checkout:

    python3 perfbench/run.py --workload solve-ref-4096 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --baseline perfbench/baseline.json

The load is a closed loop with one client: one operation at a time, each
in a fresh child process that imports fracpicard from ``src``.
``FRACPICARD_MAX_THREADS`` and the BLAS thread variables are removed from
the children's environment, so the program runs with its defaults.

``--trace 0`` times whole operations and reports the end-to-end metrics
(medians over the run).  ``--trace 1`` runs the operation in one child,
alternating untraced and traced repetitions, and reports the per-layer
metrics of the traced ones and the tracing overhead.  Every operation's
output is checked; the last line of stdout is a JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--workload all``
runs every workload both ways and can record the results, with the
environment, as a baseline file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from typing import NamedTuple

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracer  # noqa: E402
import workloads  # noqa: E402

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s", "max_error": "1"}
# Each per-layer metric, with the end-to-end metric it should move and on
# which workloads (ref = solve-ref-4096, fam = family-16x256, lib =
# lib-linear-8192).  ``_s`` is self time unless the name says total.
PER_LAYER = {
    "cli.self_s": "s",  # wall_s: ref, fam (CSV formatting, report printing)
    "cli.csv_bytes": "B",  # wall_s: ref, fam
    "config.load_s": "s",  # setup_s: ref, fam
    "solver.rhs_calls": "count",  # wall_s, cpu_s: all
    "rhsdsl.eval_s": "s",  # wall_s: ref (about half), fam; zero on lib
    "solver.sweeps": "count",  # wall_s: all
    "solver.step_self_s": "s",  # wall_s: ref, lib
    "solver.check_s": "s",  # total; wall_s: all
    "solver.residual_s": "s",  # total; wall_s: all
    "fracops.build_weights_s": "s",  # total; wall_s, peak_rss_mb: lib
    "fracops.weights_bytes": "B",  # peak_rss_mb: lib, ref
    "fracops.integral_calls": "count",  # wall_s, cpu_s: ref, lib; about zero time on fam
    "fracops.integral_s": "s",  # total; wall_s, cpu_s: ref, lib
    "fracops.caputo_l1_s": "s",  # total; wall_s: lib
    "specfun.ml_calls": "count",  # wall_s: fam
    "specfun.ml_s": "s",  # wall_s: fam; small on ref
    "specfun.ml_distinct_frac": "1",  # wall_s: fam (useful share of the calls)
    "dependence.solve_family_self_s": "s",  # wall_s: fam (with the member loops)
    "dependence.family_cpu_per_wall": "1",  # wall_s, cpu_s: fam (what the thread pool buys)
    "dependence.distance_calls": "count",  # wall_s: fam
    "dependence.distance_s": "s",  # total; wall_s: fam
    "dependence.estimate_s": "s",  # total; wall_s: fam (small)
    "trace.overhead_s": "s",  # none: traced minus untraced in-process wall
}
COMPUTED = ("cli.csv_bytes", "fracops.weights_bytes")  # from array and file sizes, not measured
EXACT_COUNTS = ("solver.sweeps", "solver.rhs_calls", "fracops.integral_calls", "specfun.ml_calls")
THREAD_VARS = ("FRACPICARD_MAX_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

MIN_SETUPS = 11
MIN_OPS = 3
CHILD_TIMEOUT_S = 150
# Layer self times must add up to the traced operation's wall time within
# this share where no thread pool runs; pool threads overlap, so there the
# sum is reported without a gate.
SELF_SUM_TOLERANCE = 0.03


class ChildRun(NamedTuple):
    wall: float
    cpu: float
    rss_mb: float
    rc: int
    stdout: str


def child_env(extra: dict | None = None) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env["PYTHONPATH"] = os.pathsep.join([os.path.abspath("src"), HERE])
    env.update(extra or {})
    return env


def spawn(argv: list[str], outdir: str, extra_env: dict | None = None) -> ChildRun:
    """Run one child to completion; time it from spawn to exit and take its rusage."""
    with open(os.path.join(outdir, "stdout.txt"), "wb") as out, open(
        os.path.join(outdir, "stderr.txt"), "wb"
    ) as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=child_env(extra_env), stdout=out, stderr=err)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(os.path.join(outdir, "stdout.txt"), encoding="utf-8", errors="replace") as handle:
        stdout = handle.read()
    return ChildRun(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, proc.returncode, stdout)


def _stderr(outdir: str) -> str:
    with open(os.path.join(outdir, "stderr.txt"), encoding="utf-8", errors="replace") as handle:
        return handle.read()


def checked(wl, job: dict, rc: int, stdout: str, outdir: str) -> workloads.Outcome:
    """The workload's output check; an unreadable output is a failed operation."""
    try:
        return wl.check(job, rc, stdout, outdir)
    except Exception as exc:  # any defect in the output fails this operation only
        return workloads.Outcome([f"output check raised {type(exc).__name__}: {exc}"], float("nan"), "")


class Tally:
    """Counts operations and failures, including outputs that differ between repetitions."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.digest = None
        self.errors: list[float] = []

    def add(self, label: str, outcome: workloads.Outcome) -> None:
        self.attempted += 1
        problems = list(outcome.problems)
        if not problems:
            if self.digest is None:
                self.digest = outcome.digest
            elif outcome.digest != self.digest:
                problems.append("output differs from the first repetition of this run")
        if problems:
            self.failed += 1
            print(f"FAILED {label}: " + "; ".join(problems))
        else:
            self.errors.append(outcome.max_error)


def _fresh_dir(path: str) -> str:
    os.makedirs(path)
    return path


def run_untraced(wl, job: dict, seconds: float) -> tuple[Tally, dict]:
    setup_dir = _fresh_dir(os.path.join(job["workdir"], "setup"))
    setup: list[ChildRun] = []

    def set_up() -> None:
        run = spawn(workloads.CHILD + ["setup", job["job_path"]], setup_dir)
        if run.rc != 0:
            raise RuntimeError(f"set-up child failed: {_stderr(setup_dir)}")
        setup.append(run)

    # Operations fill ``seconds`` of their own wall time.  One set-up runs
    # after each, so both sample the same stretch of machine load.
    tally = Tally()
    runs: list[ChildRun] = []
    while len(runs) < MIN_OPS or sum(r.wall for r in runs) < seconds:
        outdir = _fresh_dir(os.path.join(job["workdir"], f"op-{len(runs)}"))
        run = spawn(wl.argv(job, outdir), outdir)
        tally.add(f"operation {len(runs)}", checked(wl, job, run.rc, run.stdout, outdir))
        runs.append(run)
        shutil.rmtree(outdir)
        set_up()
    while len(setup) < MIN_SETUPS:
        set_up()

    errors = tally.errors or [float("nan")]
    metrics = {
        "wall_s": statistics.median(r.wall for r in runs),
        "cpu_s": statistics.median(r.cpu for r in runs),
        "peak_rss_mb": statistics.median(r.rss_mb for r in runs),
        "setup_s": statistics.median(r.wall for r in setup),
        "max_error": statistics.median(errors),
    }
    samples = {"operations": len(runs), "setups": len(setup)}
    print("wall_s of each operation: " + ", ".join(f"{r.wall:.3f}" for r in runs))
    print("setup_s of each set-up: " + ", ".join(f"{r.wall:.3f}" for r in setup))
    return tally, {"metrics": metrics, "samples": samples}


def blas_probe(wl, job: dict, default_outdir: str) -> dict:
    """Run one operation with a single BLAS thread and compare its CSV to the default run."""
    outdir = _fresh_dir(os.path.join(job["workdir"], "blas-probe"))
    run = spawn(wl.argv(job, outdir), outdir, {"OPENBLAS_NUM_THREADS": "1"})
    header, one, single = workloads.read_csv(os.path.join(outdir, "solution.csv"))
    _, many, default = workloads.read_csv(os.path.join(default_outdir, "solution.csv"))
    diff = abs(one - many)
    return {
        "rc": run.rc,
        "csv_identical": single == default,
        "rows_differing": int((diff > 0).any(axis=1).sum()),
        "rows": int(one.shape[0]),
        "max_abs_diff": {col: float(diff[:, i].max()) for i, col in enumerate(header)},
    }


def run_traced(wl, job: dict, seconds: float) -> tuple[Tally, dict, bool]:
    out_json = os.path.join(job["workdir"], "trace.json")
    run = spawn(workloads.CHILD + ["trace", job["job_path"], out_json, repr(seconds)], job["workdir"])
    if run.rc != 0:
        raise RuntimeError(f"trace child failed: {_stderr(job['workdir'])}")
    with open(out_json, encoding="utf-8") as handle:
        record = json.load(handle)

    tally = Tally()
    for kind in ("untraced", "traced"):
        for i, entry in enumerate(record[kind]):
            tally.add(f"{kind} in-process operation {i}", checked(wl, job, entry["rc"], entry["stdout"], entry["outdir"]))

    traced = record["traced"]
    for e in traced:
        e["metrics"], e["self_sum"] = tracer.layer_metrics(e.pop("trace"))
        e["metrics"]["cli.csv_bytes"] = e["csv_bytes"]
    metrics = {}
    for name, unit in PER_LAYER.items():
        if name != "trace.overhead_s":
            # Counts and computed sizes stay whole numbers.
            median = statistics.median_low if unit in ("count", "B") else statistics.median
            metrics[name] = median(e["metrics"][name] for e in traced)
    untraced_wall = statistics.median(e["wall"] for e in record["untraced"])
    traced_wall = statistics.median(e["wall"] for e in traced)
    metrics["trace.overhead_s"] = traced_wall - untraced_wall

    consistent = True
    for name in EXACT_COUNTS:
        values = sorted({e["metrics"][name] for e in traced})
        if len(values) != 1:
            consistent = False
            print(f"TRACE INCONSISTENT: {name} differs between repetitions: {values}")
    shares = [e["self_sum"] / e["wall"] - 1.0 for e in traced]
    gated = not wl.pool_threads
    for i, (e, share) in enumerate(zip(traced, shares)):
        ok = not gated or abs(share) <= SELF_SUM_TOLERANCE
        consistent &= ok
        verdict = ("ok" if ok else "INCONSISTENT") if gated else "overlapping threads, not gated"
        print(f"trace {i}: layer self-time sum = {e['self_sum']:.4f} s, traced wall = {e['wall']:.4f} s ({share:+.2%}; {verdict})")
    detail = {
        "metrics": metrics,
        "samples": {"traced": len(traced), "untraced": len(record["untraced"])},
        "untraced_inprocess_wall_s": untraced_wall,
        "traced_inprocess_wall_s": traced_wall,
        "self_sum_minus_wall_share": shares,
    }
    if wl.blas_probe:
        detail["blas_probe"] = probe = blas_probe(wl, job, record["untraced"][0]["outdir"])
        print(
            "finding (not gated): with OPENBLAS_NUM_THREADS=1 the CSV is "
            + ("byte-identical" if probe["csv_identical"] else f"different in {probe['rows_differing']} of {probe['rows']} rows")
            + " to the default run; max |diff| "
            + ", ".join(f"{k} {v:.2e}" for k, v in probe["max_abs_diff"].items())
        )
    return tally, detail, consistent


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    wl = workloads.WORKLOADS[name]
    workdir = os.path.join(os.getcwd(), ".perfbench_work", f"{name}-{os.getpid()}-{int(trace)}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        job = wl.prepare(seed, workdir)
        if trace:
            tally, detail, consistent = run_traced(wl, job, seconds)
            units = PER_LAYER
        else:
            tally, detail = run_untraced(wl, job, seconds)
            consistent = True
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed_frac = tally.failed / tally.attempted
    print(f"workload = {name} (seed {seed}, trace {int(trace)}): {wl.why}")
    print(f"seed varies: {wl.varies}")
    for key, count in detail["samples"].items():
        print(f"samples.{key} = {count}")
    for metric, unit in units.items():
        note = " (computed)" if metric in COMPUTED else ""
        print(f"{metric} = {detail['metrics'][metric]!r} {unit}{note}")
    print(f"failed_frac = {failed_frac!r} (of {tally.attempted} operations)")
    return {
        "correct": tally.failed == 0 and consistent,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m: {"value": detail["metrics"][m], "unit": u} for m, u in units.items()},
        "failed_frac": failed_frac,
        "detail": detail,
    }


def environment() -> dict:
    """Where a baseline was measured: cores, interpreter, numpy and its BLAS, caches."""
    import ctypes
    import glob

    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    for lib in glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*")):
        try:
            threads = ctypes.CDLL(lib).scipy_openblas_get_num_threads64_()
        except (OSError, AttributeError):
            pass
    caches = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        fields = {}
        for key in ("level", "type", "size"):
            with open(os.path.join(index, key), encoding="ascii") as handle:
                fields[key] = handle.read().strip()
        caches[f"L{fields['level']} {fields['type']}"] = fields["size"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"), "config": blas.get("openblas configuration")},
        "blas_default_threads": threads,
        "caches_per_core_and_shared": caches,
        "FRACPICARD_MAX_THREADS": "unset (removed from every child's environment)",
        "computed_not_measured": list(COMPUTED),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--baseline", help="with --workload all: write the results to this JSON file")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "fracpicard", "__init__.py")):
        print("error: run from the root of a fracpicard checkout (src/fracpicard is missing)", file=sys.stderr)
        return 2

    if args.workload != "all":
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
        return 0

    results = {}
    for name in workloads.WORKLOADS:
        for trace in (False, True):
            results[(name, trace)] = run_workload(name, args.seed, args.seconds, trace)
    summary = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}/{m}": v for (name, _), r in results.items() for m, v in r["metrics"].items()},
    }
    if args.baseline:
        baseline = {
            "seed": args.seed,
            "seconds": args.seconds,
            "environment": environment(),
            "workloads": {
                name: {
                    "why": wl.why,
                    "seed_varies": wl.varies,
                    "failed_frac": sum(results[(name, t)]["failed"] for t in (False, True))
                    / sum(results[(name, t)]["attempted"] for t in (False, True)),
                    "end_to_end": results[(name, False)]["metrics"],
                    "per_layer": results[(name, True)]["metrics"],
                    "detail": {"untraced": results[(name, False)]["detail"]["samples"], "traced": {
                        k: v for k, v in results[(name, True)]["detail"].items() if k != "metrics"}},
                    "correct": results[(name, False)]["correct"] and results[(name, True)]["correct"],
                }
                for name, wl in workloads.WORKLOADS.items()
            },
        }
        with open(args.baseline, "w", encoding="utf-8") as handle:
            json.dump(baseline, handle, indent=2)
            handle.write("\n")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
