"""The benchmark's workloads: inputs drawn from a seed, one operation each, output checks.

Every check compares against :mod:`oracles`, which shares no code with
fracpicard.  An operation's digest is the SHA-256 of its outputs; it must
not change across the repetitions of a run.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import random
import sys
from typing import NamedTuple

import numpy as np

import oracles

HERE = os.path.dirname(os.path.abspath(__file__))
CLI = [sys.executable, "-c", "import sys; from fracpicard.cli import main; sys.exit(main())"]
CHILD = [sys.executable, os.path.join(HERE, "child.py")]


class Outcome(NamedTuple):
    problems: list[str]
    max_error: float
    digest: str


def csv_bytes(outdir: str) -> int:
    """Bytes of CSV the operation wrote (computed from the files, not measured)."""
    return sum(os.path.getsize(os.path.join(outdir, f)) for f in os.listdir(outdir) if f.endswith(".csv"))


def report_values(stdout: str) -> dict[str, str]:
    """The ``key = value`` lines of a fracpicard report."""
    out = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            out[key.strip()] = value.strip()
    return out


def read_csv(path: str) -> tuple[list[str], np.ndarray, bytes]:
    with open(path, "rb") as handle:
        raw = handle.read()
    rows = list(csv.reader(io.StringIO(raw.decode("utf-8"))))
    return rows[0], np.array(rows[1:], dtype=float), raw


def _require_certified(report: dict[str, str], problems: list[str]) -> None:
    for key in ("converged", "certified"):
        if report.get(key) != "true":
            problems.append(f"{key} = {report.get(key)}")


class Workload:
    name = ""
    why = ""
    varies = ""
    pool_threads = False  # runs members on fracpicard's thread pool
    blas_probe = False  # repeat one operation with a single BLAS thread

    def prepare(self, seed: int, workdir: str) -> dict:
        """Draw the inputs from ``seed``, write them under ``workdir``, return the job."""
        raise NotImplementedError

    def argv(self, job: dict, outdir: str) -> list[str]:
        """Command of one operation in a fresh child process."""
        raise NotImplementedError

    def run_inprocess(self, job: dict, outdir: str) -> tuple[int, str]:
        """The same operation in this process: (exit code, stdout)."""
        raise NotImplementedError

    def check(self, job: dict, rc: int, stdout: str, outdir: str) -> Outcome:
        raise NotImplementedError

    def _write_job(self, job: dict, workdir: str) -> dict:
        job.update(workload=self.name, workdir=workdir, job_path=os.path.join(workdir, "job.json"))
        with open(job["job_path"], "w", encoding="utf-8") as handle:
            json.dump(job, handle)
        return job


class CliWorkload(Workload):
    def cli_args(self, job: dict, outdir: str) -> list[str]:
        raise NotImplementedError

    def argv(self, job, outdir):
        return CLI + self.cli_args(job, outdir)

    def run_inprocess(self, job, outdir):
        from fracpicard import cli

        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(self.cli_args(job, outdir))
        return rc, buf.getvalue()


class SolveRef(CliWorkload):
    name = "solve-ref-4096"
    why = "main CLI path: per-node formula callbacks and the solver loop over 55 sweeps, plus a 134 MB dense weight matrix"
    varies = "the shift c in [0, sqrt(pi)/2]; the Picard iterates are the same for every c"
    blas_probe = True
    N = 4096
    ERROR_LIMIT = 5e-5  # 1.86e-5 at the seed commit

    def prepare(self, seed, workdir):
        c = random.Random(seed).uniform(0.0, math.sqrt(math.pi) / 2.0)
        config = os.path.join(workdir, "problem.cfg")
        with open(config, "w", encoding="utf-8") as handle:
            handle.write(
                "[problem]\nalpha = 0.5\nT = 0.5\n"
                f"x0 = {1.0 - c!r}\n"
                f"rhs = sqrt(pi)/4 + {c!r}/2 - t^(1/2)/2 + (x + abs(y))/2\n"
                "M1 = 0.5\nM2 = 0.5\nM3 = 0.5\n"
                f"[solver]\nn = {self.N}\ntol = 1e-10\ntheta = 2.0\n"
            )
        return self._write_job({"c": c, "x0": 1.0 - c, "config": config}, workdir)

    def cli_args(self, job, outdir):
        return ["solve", job["config"], "--out", os.path.join(outdir, "solution.csv")]

    def check(self, job, rc, stdout, outdir):
        problems = [] if rc == 0 else [f"exit code {rc}"]
        _require_certified(report_values(stdout), problems)
        header, data, raw = read_csv(os.path.join(outdir, "solution.csv"))
        if data.shape[0] != self.N + 1 or header[1] != "x_1":
            problems.append(f"unexpected CSV shape {data.shape}")
        if data[0, 1] != job["x0"]:
            problems.append(f"x(0) = {data[0, 1]!r}, expected {job['x0']!r}")
        err = float(np.max(np.abs(data[:, 1] - oracles.reference_exact(data[:, 0], job["c"]))))
        if not err <= self.ERROR_LIMIT:
            problems.append(f"max error {err:.3e} above {self.ERROR_LIMIT:.1e}")
        return Outcome(problems, err, hashlib.sha256(raw).hexdigest())


class Family(CliWorkload):
    name = "family-16x256"
    why = "Mittag-Leffler weights and distances: 120 member distances, a 16x16 Hausdorff matrix, 32 member solves on the thread pool"
    varies = "the 16 anchors, drawn from (0, 1]"
    pool_threads = True
    N = 256
    REFERENCE_N = 4096
    # The error of a member scales with its anchor, so max_error is taken
    # relative to the anchor: 3.0e-4 at the seed commit, against the
    # n=4096 reference, whichever anchors the seed draws.
    ERROR_LIMIT = 1e-3

    def prepare(self, seed, workdir):
        rng = random.Random(seed)
        anchors = [1.0 - rng.random() for _ in range(16)]
        common = "M1 = 0.125\nM2 = 0.875\nM3 = 0.25\n"
        config = os.path.join(workdir, "family.cfg")
        with open(config, "w", encoding="utf-8") as handle:
            handle.write(
                "[problem]\nalpha = 0.5\nT = 0.5\nx0 = 1\n"
                "rhs = 0.75*x + 0.25*y + t*sin(x)/8\n" + common
                + f"[solver]\nn = {self.N}\ntol = 1e-10\n"
                "[compare]\nx0 = 1\nrhs = 0.75*x + 0.25*y + t*cos(x)/8\n" + common
                + "[family]\nanchors = " + ", ".join(repr(a) for a in anchors) + "\n"
            )
        ref = oracles.family_reference(anchors, 0.5, self.REFERENCE_N)
        step = self.REFERENCE_N // self.N
        job = {"anchors": anchors, "config": config, "reference": ref[::step].tolist()}
        return self._write_job(job, workdir)

    def cli_args(self, job, outdir):
        return ["family", job["config"], "--out-dir", outdir]

    def check(self, job, rc, stdout, outdir):
        problems = [] if rc == 0 else [f"exit code {rc}"]
        report = report_values(stdout)
        measured = float(report.get("hausdorff_measured", "nan"))
        bound = float(report.get("hausdorff_bound", "nan"))
        if not measured <= bound:
            problems.append(f"hausdorff_measured {measured!r} > hausdorff_bound {bound!r}")
        digest = hashlib.sha256()
        err = 0.0
        reference = np.array(job["reference"])
        for i, anchor in enumerate(job["anchors"]):
            _, data, raw = read_csv(os.path.join(outdir, f"family_{i + 1}.csv"))
            digest.update(raw)
            if data[0, 1] != anchor or data[0, 2] != anchor:
                problems.append(f"member {i + 1}: node 0 is ({data[0, 1]!r}, {data[0, 2]!r}), anchor {anchor!r}")
            err = max(err, float(np.max(np.abs(data[:, 1] - reference[:, i]))) / anchor)
        if not err <= self.ERROR_LIMIT:
            problems.append(f"relative max error {err:.3e} above {self.ERROR_LIMIT:.1e}")
        return Outcome(problems, err, digest.hexdigest())


class LibLinear(Workload):
    name = "lib-linear-8192"
    why = "library call with a Python rhs: a 537 MB dense weight matrix over 13 sweeps, no formula parsing, no config, no CSV"
    # The sweep count depends on lam and x0: 12 to 15 over lam in [0.4, 0.6]
    # and x0 in [0.5, 2], which moved wall_s by 10% from seed to seed.  Over
    # these ranges every draw takes 13 sweeps.
    varies = "lam in [0.45, 0.47] and x0 in [0.8, 1.25], over which every draw takes 13 sweeps"
    N = 8192
    # The discretisation error scales as x0 * lam**2 (9.25e-6 * x0 * lam**2 at
    # lam = 0.4, 0.5, 0.6); max_error is reported at the scale of lam = 0.5,
    # x0 = 1 so that the seed's draw does not move it.
    ERROR_LIMIT = 5e-6  # 2.31e-6 at the seed commit, at that scale
    RESIDUAL_LIMIT = 1e-9

    def prepare(self, seed, workdir):
        rng = random.Random(seed)
        job = {"lam": rng.uniform(0.45, 0.47), "x0": rng.uniform(0.8, 1.25), "n": self.N, "tol": 1e-10}
        return self._write_job(job, workdir)

    def argv(self, job, outdir):
        return CHILD + ["lib", job["job_path"], outdir]

    def run_inprocess(self, job, outdir):
        import child

        return child.lib_op(job, outdir)

    def check(self, job, rc, stdout, outdir):
        problems = [] if rc == 0 else [f"exit code {rc}"]
        report = report_values(stdout)
        _require_certified(report, problems)
        residual = float(report.get("alg_residual_max", "nan"))
        if not residual <= self.RESIDUAL_LIMIT:
            problems.append(f"algebraic residual {residual!r} above {self.RESIDUAL_LIMIT:.0e}")
        path = os.path.join(outdir, "x.npy")
        x = np.load(path)
        t = np.linspace(0.0, 0.5, self.N + 1)
        if x.shape != t.shape:
            problems.append(f"x has shape {x.shape}")
        exact = oracles.linear_exact(t, job["lam"], job["x0"])
        err = float(np.max(np.abs(x - exact))) * 0.25 / (job["x0"] * job["lam"] ** 2)
        if not err <= self.ERROR_LIMIT:
            problems.append(f"scaled max error {err:.3e} above {self.ERROR_LIMIT:.1e}")
        with open(path, "rb") as handle:
            digest = hashlib.sha256(handle.read()).hexdigest()
        return Outcome(problems, err, digest)


WORKLOADS = {w.name: w for w in (SolveRef(), Family(), LibLinear())}
