"""Child-process entry points of the benchmark.

Run from the root of a checkout, with ``src`` and ``perfbench`` on
``PYTHONPATH``:

    python3 perfbench/child.py setup JOB.json          # import + load config / build spec
    python3 perfbench/child.py lib JOB.json OUTDIR      # one lib-linear-8192 operation
    python3 perfbench/child.py trace JOB.json OUT.json SECONDS

``setup`` and ``lib`` import nothing of the benchmark, so their timings
carry only interpreter start-up and fracpicard.  ``trace`` runs the job's
operation in this process, alternating untraced and traced repetitions
for ``SECONDS`` (at least two of each), and at the end writes the walls,
outputs and recorded spans as JSON.
"""

from __future__ import annotations

import json
import os
import sys


def build_spec(job: dict):
    """The lib-linear problem ``D^{1/2} x = lam * x`` as a library ``ProblemSpec``."""
    import fracpicard

    lam = job["lam"]
    return fracpicard.ProblemSpec(
        alpha=0.5, T=0.5, x0=job["x0"], rhs=lambda t, x, y: lam * x, M1=0.0, M2=lam, M3=1e-6
    )


def lib_op(job: dict, outdir: str) -> tuple[int, str]:
    """Solve the lib-linear problem, score it, save ``x``; return (exit code, report)."""
    import numpy as np

    import fracpicard

    spec = build_spec(job)
    report = fracpicard.solve(spec, fracpicard.SolverConfig(n=job["n"], tol=job["tol"]))
    res = fracpicard.residual_caputo(spec, report.x, report.z)
    np.save(os.path.join(outdir, "x.npy"), np.ascontiguousarray(report.x.values[:, 0]))
    lines = [
        f"converged = {str(report.converged).lower()}",
        f"certified = {str(report.certified).lower()}",
        f"iterations = {report.iterations}",
        f"alg_residual_max = {float(np.max(np.abs(res.algebraic.values)))!r}",
    ]
    return (0 if report.converged else 4), "\n".join(lines) + "\n"


def _setup(job: dict) -> None:
    import fracpicard

    if "config" in job:
        fracpicard.load_config(job["config"])
    else:
        build_spec(job)


def _trace(job: dict, out_path: str, seconds: float) -> None:
    import time

    import tracer
    import workloads

    wl = workloads.WORKLOADS[job["workload"]]
    record: dict = {"untraced": [], "traced": []}
    start = time.perf_counter()
    rep = 0
    while rep < 2 or time.perf_counter() - start < seconds:
        for traced in (False, True):
            outdir = os.path.join(job["workdir"], f"inproc-{rep}-{int(traced)}")
            os.makedirs(outdir)
            if traced:
                tr = tracer.Tracer()
                with tracer.installed(tr):
                    t0 = time.perf_counter()
                    with tr.operation(rep):
                        rc, stdout = wl.run_inprocess(job, outdir)
                    wall = time.perf_counter() - t0
                entry = {"trace": tr.record(), "csv_bytes": workloads.csv_bytes(outdir)}
            else:
                t0 = time.perf_counter()
                rc, stdout = wl.run_inprocess(job, outdir)
                wall = time.perf_counter() - t0
                entry = {}
            entry.update(wall=wall, rc=rc, stdout=stdout, outdir=outdir)
            record["traced" if traced else "untraced"].append(entry)
        rep += 1
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(record, handle)


def main(argv: list[str]) -> int:
    mode, job_path = argv[0], argv[1]
    with open(job_path, encoding="utf-8") as handle:
        job = json.load(handle)
    if mode == "setup":
        _setup(job)
        return 0
    if mode == "lib":
        rc, stdout = lib_op(job, argv[2])
        sys.stdout.write(stdout)
        return rc
    if mode == "trace":
        _trace(job, argv[2], float(argv[3]))
        return 0
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
