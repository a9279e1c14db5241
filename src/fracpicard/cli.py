"""Command-line front end.

Subcommands: ``check`` (contraction certificate), ``solve`` (iterate and
write CSV), ``depend`` (distance bound vs measured distance for a pair),
``family`` (anchored solution families, per-member CSVs, Hausdorff
comparison), ``mlf`` (evaluate the Mittag-Leffler function), and
``selftest`` (built-in fixture validations).

Exit codes: 0 success; 2 configuration or domain error; 3 contraction
certificate failure; 4 iteration did not converge; 5 distance bound
violated; 6 anchor condition failure.  Reports are ``key = value`` lines
on stdout; CSV files are written atomically (temp file + rename) with LF
endings and 17 significant digits, so identical inputs produce
byte-identical outputs.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import tempfile

import numpy as np

from .config import load_config
from .dependence import (
    ProblemPair,
    dependence_bound,
    estimate_eta_sup,
    estimate_ml_gap,
    family_hausdorff_bound,
    hausdorff_distance,
    measured_distance,
    solve_family,
)
from .errors import (
    AnchorConditionError,
    ConfigError,
    ContractionError,
    FracpicardError,
    IterationError,
)
from .fixtures import builtin_fixtures, get_fixture, validate_exact
from .grid import GridFunction, UniformGrid
from .solver import (
    ProblemSpec,
    SolverConfig,
    check_contraction,
    residual_caputo,
    resolve_theta,
    solve,
)
from .specfun import mittag_leffler

__all__ = ["main"]

_EXIT_OK = 0
_EXIT_CONFIG = 2
_EXIT_CONTRACTION = 3
_EXIT_NOT_CONVERGED = 4
_EXIT_BOUND_VIOLATED = 5
_EXIT_ANCHOR = 6


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def _write_solution_csv(path: str, x: GridFunction, z: GridFunction, spec: ProblemSpec) -> None:
    """Write one solution as CSV: nodes, states, derivatives, residual norms."""
    res = residual_caputo(spec, x, z)
    d = x.dim
    header = (
        "t,"
        + ",".join(f"x_{i + 1}" for i in range(d))
        + ","
        + ",".join(f"z_{i + 1}" for i in range(d))
        + ",alg_residual,caputo_residual"
    )
    alg = np.linalg.norm(res.algebraic.values, axis=1)
    cap = np.linalg.norm(res.caputo.values, axis=1)
    nodes = x.grid.nodes()

    lines = [header]
    for k in range(x.grid.n + 1):
        cells = [_fmt(float(nodes[k]))]
        cells.extend(_fmt(float(v)) for v in x.values[k])
        cells.extend(_fmt(float(v)) for v in z.values[k])
        cells.append(_fmt(float(alg[k])))
        cells.append(_fmt(float(cap[k])))
        lines.append(",".join(cells))
    payload = "\n".join(lines) + "\n"

    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=".tmp_csv_")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(payload)
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


def _sampling_radius(*specs: ProblemSpec, n: int) -> float:
    """Radius covering the iterate balls of all given problems, for gap sampling."""
    radius = 1.0
    for spec in specs:
        report = check_contraction(spec, n)
        if report.R is not None:
            radius = max(radius, report.R)
        else:
            radius = max(radius, float(np.linalg.norm(spec.x0)))
    return radius


def cmd_check(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    theta, q_b = resolve_theta(cfg.problem.M2, cfg.problem.M3, cfg.solver.theta_override)
    report = check_contraction(cfg.problem, cfg.solver.n)
    verdict = "PASS" if report.contraction_ok else "FAIL"
    print(f"q_global = {report.q_global!r} {verdict}")
    print(f"q_bielecki = {q_b!r}")
    print(f"theta = {theta!r}")
    print(f"K = {report.K!r}")
    print(f"R = {report.R!r}" if report.R is not None else "R = n/a")
    print(f"L = {report.L!r}" if report.L is not None else "L = n/a")
    print(f"contraction = {verdict}")
    return _EXIT_OK if report.contraction_ok else _EXIT_CONTRACTION


def cmd_solve(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    report = solve(cfg.problem, cfg.solver)
    _write_solution_csv(args.out, report.x, report.z, cfg.problem)
    print(f"converged = {'true' if report.converged else 'false'}")
    print(f"certified = {'true' if report.certified else 'false'}")
    print(f"iterations = {report.iterations}")
    print(f"final_step = {report.step_norms[-1]!r}")
    print(f"a_posteriori_bound = {report.a_posteriori_bound!r}")
    print(f"q_global = {report.contraction.q_global!r}")
    print(f"q_bielecki = {report.contraction.q_bielecki!r}")
    print(f"theta = {report.contraction.theta!r}")
    if cfg.fixture is not None and cfg.fixture.exact_solution is not None:
        exact = GridFunction.sample(report.x.grid, cfg.fixture.exact_solution)
        err = float(np.max(np.linalg.norm(report.x.values - exact.values, axis=1)))
        print(f"max_error_vs_exact = {err!r}")
    print(f"csv = {args.out}")
    return _EXIT_OK if report.converged else _EXIT_NOT_CONVERGED


def cmd_depend(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    if cfg.compare is None:
        raise ConfigError("depend requires a [compare] section")
    theta, _ = resolve_theta(
        *ProblemPair(cfg.problem, cfg.compare).worst_constants(), cfg.solver.theta_override
    )

    report_f = solve(cfg.problem, cfg.solver)
    report_g = solve(cfg.compare, cfg.solver)
    if not (report_f.converged and report_g.converged):
        which = "problem" if not report_f.converged else "compare problem"
        print(f"error: the {which} solve did not converge", file=sys.stderr)
        return _EXIT_NOT_CONVERGED

    if cfg.k_eta is not None:
        k_eta, label = cfg.k_eta, "given"
    else:
        radius = _sampling_radius(cfg.problem, cfg.compare, n=cfg.solver.n)
        k_eta = estimate_eta_sup(cfg.problem, cfg.compare, radius)
        label = "estimated"
    pair = ProblemPair(cfg.problem, cfg.compare, k_eta=k_eta)
    bound = dependence_bound(pair, theta)
    measured = measured_distance(report_f.x, report_g.x, cfg.problem.alpha, theta)

    print(f"theta = {theta!r}")
    print(f"k_eta = {k_eta!r} ({label})")
    print(f"bound = {bound!r}")
    print(f"measured = {measured!r}")
    print(f"margin = {bound - measured!r}")
    if measured <= bound:
        return _EXIT_OK
    print("error: measured distance exceeds the bound", file=sys.stderr)
    return _EXIT_BOUND_VIOLATED


def cmd_family(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    if cfg.anchors is None:
        raise ConfigError("family requires a [family] section with anchors")
    family = solve_family(cfg.problem, cfg.anchors, cfg.solver)

    os.makedirs(args.out_dir, exist_ok=True)
    for index, (z, x) in enumerate(family.solutions, start=1):
        _write_solution_csv(os.path.join(args.out_dir, f"family_{index}.csv"), x, z, cfg.problem)

    theta, _ = resolve_theta(cfg.problem.M2, cfg.problem.M3, cfg.solver.theta_override)
    members = len(family.solutions)
    print(f"members = {members}")
    for i in range(members):
        for j in range(i + 1, members):
            dist = measured_distance(
                family.solutions[i][1], family.solutions[j][1], cfg.problem.alpha, theta
            )
            print(f"distance_{i + 1}_{j + 1} = {dist!r}")

    if cfg.compare is not None:
        pair_theta, _ = resolve_theta(
            *ProblemPair(cfg.problem, cfg.compare).worst_constants(), cfg.solver.theta_override
        )
        other = solve_family(cfg.compare, cfg.anchors, cfg.solver)
        if cfg.k_ml is not None:
            k_ml, label = cfg.k_ml, "given"
        else:
            radius = _sampling_radius(cfg.problem, cfg.compare, n=cfg.solver.n)
            k_ml = estimate_ml_gap(cfg.problem, cfg.compare, pair_theta, radius)
            label = "estimated"
        pair = ProblemPair(cfg.problem, cfg.compare, k_ml=k_ml)
        bound = family_hausdorff_bound(pair, pair_theta)
        measured = hausdorff_distance(
            [x for (_, x) in family.solutions],
            [x for (_, x) in other.solutions],
            cfg.problem.alpha,
            pair_theta,
        )
        print(f"k_ml = {k_ml!r} ({label})")
        print(f"hausdorff_bound = {bound!r}")
        print(f"hausdorff_measured = {measured!r}")
        if measured > bound:
            print("error: measured Hausdorff distance exceeds the bound", file=sys.stderr)
            return _EXIT_BOUND_VIOLATED
    print(f"csv_dir = {args.out_dir}")
    return _EXIT_OK


def cmd_mlf(args: argparse.Namespace) -> int:
    print(repr(mittag_leffler(args.alpha, args.z)))
    return _EXIT_OK


def _selftest_checks():
    table = builtin_fixtures()
    for name in ("reference", "shifted_reference", "linear"):
        fixture = table[name]
        alg, cap = validate_exact(fixture, n=4096)
        ok = alg <= 1e-2 and cap <= 1e-2
        yield (
            f"{name}: residual self-check",
            ok,
            f"algebraic {alg:.2e}, rebuilt-derivative {cap:.2e} (limit 1e-2)",
        )

    reference = table["reference"]
    report = check_contraction(reference.spec, 1024)
    expected_q = 0.8989422804014326
    ok = abs(report.q_global - expected_q) <= 5e-4 and report.contraction_ok
    yield ("reference: contraction factor", ok, f"q_global = {report.q_global!r}")

    run = solve(reference.spec, SolverConfig(n=1024, tol=1e-10, theta_override=2.0))
    exact = GridFunction.sample(run.x.grid, reference.exact_solution)
    err = float(np.max(np.abs(run.x.values - exact.values)))
    ok = run.converged and run.iterations <= 60 and err <= 1e-2
    yield (
        "reference: solve vs closed form",
        ok,
        f"iterations = {run.iterations}, max error = {err:.2e} (limit 1e-2)",
    )

    e_gap = abs(mittag_leffler(1.0, 1.0) - math.e)
    half = mittag_leffler(0.5, 0.5)
    identity = math.exp(0.25) * math.erfc(-0.5)
    ok = e_gap <= 1e-12 * math.e and abs(half - identity) <= 1e-10
    yield (
        "series vs exp and erfc identities",
        ok,
        f"|E_1(1) - e| = {e_gap:.2e}, half-order gap = {abs(half - identity):.2e}",
    )


def cmd_selftest(args: argparse.Namespace) -> int:
    failed = 0
    for name, ok, detail in _selftest_checks():
        verdict = "PASS" if ok else "FAIL"
        print(f"{verdict}  {name}: {detail}")
        if not ok:
            failed += 1
    print(f"selftest: {'all checks passed' if failed == 0 else f'{failed} check(s) failed'}")
    return _EXIT_OK if failed == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracpicard",
        description=(
            "Fixed-point solver for implicit fractional initial-value problems "
            "D^alpha x = f(t, x, D^alpha x)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="evaluate the contraction certificate")
    p.add_argument("config", help="path to a config file")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("solve", help="solve the problem and write a CSV")
    p.add_argument("config", help="path to a config file")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("depend", help="compare two problems against the distance bound")
    p.add_argument("config", help="config with a [compare] section")
    p.set_defaults(func=cmd_depend)

    p = sub.add_parser("family", help="solve an anchored solution family")
    p.add_argument("config", help="config with a [family] section")
    p.add_argument("--out-dir", required=True, help="directory for per-member CSVs")
    p.set_defaults(func=cmd_family)

    p = sub.add_parser("mlf", help="evaluate the Mittag-Leffler function E_alpha(z)")
    p.add_argument("alpha", type=float, help="order in (0, 1]")
    p.add_argument("z", type=float, help="argument in [-5, 200]")
    p.set_defaults(func=cmd_mlf)

    p = sub.add_parser("selftest", help="run the built-in fixture validations")
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return _EXIT_CONFIG
    except ContractionError as exc:
        print(f"contraction failure: {exc}", file=sys.stderr)
        return _EXIT_CONTRACTION
    except IterationError as exc:
        print(f"not converged: {exc}", file=sys.stderr)
        return _EXIT_NOT_CONVERGED
    except AnchorConditionError as exc:
        print(f"anchor condition failure: {exc}", file=sys.stderr)
        return _EXIT_ANCHOR
    except FracpicardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
