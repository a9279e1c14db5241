import math
import os
import subprocess
import sys

import numpy as np
import pytest

import fracpicard
from fracpicard import cli
from fracpicard.fixtures import reference_problem
from fracpicard.solver import SolverConfig, solve

from oracles import erfc_identity

REFERENCE_CFG = "[problem]\nfixture = reference\n[solver]\nn = 64\ntheta = 2.0\n"
EIGEN_CFG = (
    "[problem]\nalpha = 0.5\nT = 0.5\nx0 = 1\nrhs = x\n"
    "M1 = 0\nM2 = 1\nM3 = 1e-6\n[solver]\nn = 64\n"
)
# The shifted half-order reference problem, x(t) = sqrt(t) + E_{1/2}(sqrt(t)) - 0.612.
SHIFTED_CFG = (
    "[problem]\nalpha = 0.5\nT = 0.5\nx0 = 0.388\n"
    "rhs = sqrt(pi)/4 + 0.612/2 - t^(1/2)/2 + (x + abs(y))/2\n"
    "M1 = 0.5\nM2 = 0.5\nM3 = 0.5\n[solver]\nn = {n}\ntol = 1e-10\ntheta = 2.0\n"
)
NONCONTRACTIVE_CFG = (
    "[problem]\nalpha = 0.5\nT = 4\nx0 = 1\nrhs = 0.95*sin(x) + 0.1*y\n"
    "M1 = 0\nM2 = 0.95\nM3 = 0.1\n[solver]\nn = 64\n"
)


def parse_report(text):
    out = {}
    for line in text.splitlines():
        if " = " in line:
            key, _, value = line.partition(" = ")
            out[key.strip()] = value.strip()
    return out


class TestCheck:
    def test_certified_problem(self, write_config, capsys):
        cfg = write_config(REFERENCE_CFG)
        assert cli.main(["check", cfg]) == 0
        report = parse_report(capsys.readouterr().out)
        q = float(report["q_global"].split()[0])
        assert q == pytest.approx(0.8989422804014326, abs=1e-12)
        assert report["q_global"].endswith("PASS")
        assert report["contraction"] == "PASS"
        assert float(report["R"]) == pytest.approx(9.770899372372293, rel=1e-12)

    def test_failing_certificate(self, write_config, capsys):
        cfg = write_config(NONCONTRACTIVE_CFG)
        assert cli.main(["check", cfg]) == 3
        report = parse_report(capsys.readouterr().out)
        assert report["q_global"].endswith("FAIL")
        assert float(report["q_global"].split()[0]) > 1.0
        assert report["R"] == "n/a"
        assert report["L"] == "n/a"
        assert report["contraction"] == "FAIL"

    def test_bad_config(self, write_config, capsys):
        cfg = write_config("[problem]\nalpha = nope\n")
        assert cli.main(["check", cfg]) == 2
        assert "config error:" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        assert cli.main(["check", str(tmp_path / "absent.cfg")]) == 2
        assert "cannot read" in capsys.readouterr().err


class TestSolve:
    def test_report_and_csv(self, write_config, tmp_path, capsys):
        cfg = write_config(REFERENCE_CFG)
        out_csv = str(tmp_path / "run.csv")
        assert cli.main(["solve", cfg, "--out", out_csv]) == 0
        report = parse_report(capsys.readouterr().out)
        assert report["converged"] == "true"
        assert report["certified"] == "true"
        assert int(report["iterations"]) <= 60
        assert float(report["max_error_vs_exact"]) <= 1e-2
        assert report["csv"] == out_csv

        lines = open(out_csv, encoding="utf-8").read().splitlines()
        assert lines[0] == "t,x_1,z_1,alg_residual,caputo_residual"
        assert len(lines) == 66  # header + 65 nodes
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        assert float(first[1]) == 1.0
        assert float(first[2]) == pytest.approx(
            math.sqrt(math.pi) / 2.0 + 1.0, abs=1e-6
        )

    def test_csv_round_trips_solution_bits(self, write_config, tmp_path):
        cfg = write_config(REFERENCE_CFG)
        out_csv = str(tmp_path / "run.csv")
        cli.main(["solve", cfg, "--out", out_csv])
        rows = [
            line.split(",")
            for line in open(out_csv, encoding="utf-8").read().splitlines()[1:]
        ]
        report = solve(
            reference_problem().spec,
            SolverConfig(n=64, tol=1e-10, theta_override=2.0),
        )
        nodes = report.x.grid.nodes()
        for k, row in enumerate(rows):
            assert float(row[0]) == nodes[k]
            assert float(row[1]) == report.x.values[k, 0]
            assert float(row[2]) == report.z.values[k, 0]

    def test_faulting_rhs_reports_offset(self, write_config, tmp_path, capsys):
        cfg = write_config(
            "[problem]\nalpha = 0.5\nT = 0.5\nx0 = 1\nrhs = 0.5*x + sqrt(t - 1)\n"
            "M1 = 0\nM2 = 0.5\nM3 = 0.5\n[solver]\nn = 64\n"
        )
        assert cli.main(["solve", cfg, "--out", str(tmp_path / "run.csv")]) == 2
        assert "square root of a negative value (at offset 8)" in capsys.readouterr().err

    def test_zero_rhs(self, write_config, tmp_path):
        cfg = write_config(
            "[problem]\nalpha = 0.5\nT = 0.5\nx0 = 5\nrhs = 0\n"
            "M1 = 0\nM2 = 1e-6\nM3 = 1e-6\n[solver]\nn = 8\n"
        )
        out_csv = str(tmp_path / "zero.csv")
        assert cli.main(["solve", cfg, "--out", out_csv]) == 0
        for line in open(out_csv, encoding="utf-8").read().splitlines()[1:]:
            _, x, z, alg, cap = line.split(",")
            assert x == "5" and z == "0"
            assert float(alg) == 0.0 and float(cap) == 0.0

    def test_deterministic_output(self, write_config, tmp_path):
        cfg = write_config(REFERENCE_CFG)
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        cli.main(["solve", cfg, "--out", a])
        cli.main(["solve", cfg, "--out", b])
        assert open(a, "rb").read() == open(b, "rb").read()

    @pytest.mark.parametrize("n", [256, 4096])
    def test_output_independent_of_blas_threads(self, write_config, tmp_path, n):
        # The weight apply calls no BLAS, at either size.
        cfg = write_config(SHIFTED_CFG.format(n=n))
        src = os.path.dirname(os.path.dirname(os.path.abspath(fracpicard.__file__)))
        env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        outputs = []
        for threads in (None, "1"):
            out_csv = str(tmp_path / f"run-{threads}.csv")
            run_env = env if threads is None else dict(env, OPENBLAS_NUM_THREADS=threads)
            subprocess.run(
                [sys.executable, "-m", "fracpicard.cli", "solve", cfg, "--out", out_csv],
                env=run_env,
                check=True,
                capture_output=True,
            )
            outputs.append(open(out_csv, "rb").read())
        assert outputs[0] == outputs[1]

    def test_non_contractive_refused(self, write_config, tmp_path, capsys):
        cfg = write_config(NONCONTRACTIVE_CFG)
        assert cli.main(["solve", cfg, "--out", str(tmp_path / "x.csv")]) == 3
        assert "contraction failure:" in capsys.readouterr().err

    def test_force_solves_uncertified(self, write_config, tmp_path, capsys):
        cfg = write_config(NONCONTRACTIVE_CFG.replace("n = 64", "n = 64\nforce = true"))
        assert cli.main(["solve", cfg, "--out", str(tmp_path / "x.csv")]) == 0
        report = parse_report(capsys.readouterr().out)
        assert report["converged"] == "true"
        assert report["certified"] == "false"

    def test_iteration_budget_exhausted(self, write_config, tmp_path, capsys):
        cfg = write_config("[problem]\nfixture = reference\n[solver]\nn = 64\nmax_iter = 3\n")
        out_csv = str(tmp_path / "partial.csv")
        assert cli.main(["solve", cfg, "--out", out_csv]) == 4
        report = parse_report(capsys.readouterr().out)
        assert report["converged"] == "false"
        assert int(report["iterations"]) == 3
        # the partial iterate is still written for inspection
        assert len(open(out_csv, encoding="utf-8").read().splitlines()) == 66


class TestDepend:
    PAIR_CFG = (
        "[problem]\nfixture = reference\n[solver]\nn = 512\ntheta = 2.0\n"
        "[compare]\nfixture = comparison\nK_eta = 1.1502\n"
    )

    def test_reference_vs_comparison(self, write_config, capsys):
        cfg = write_config(self.PAIR_CFG)
        assert cli.main(["depend", cfg]) == 0
        report = parse_report(capsys.readouterr().out)
        assert report["k_eta"] == "1.1502 (given)"
        bound = float(report["bound"])
        measured = float(report["measured"])
        assert bound == pytest.approx(math.sqrt(math.pi) / 2.0 + 2.3004, rel=1e-14)
        assert measured == pytest.approx(math.sqrt(math.pi) / 2.0, abs=1e-12)
        assert measured <= bound
        assert float(report["margin"]) == pytest.approx(bound - measured, rel=1e-12)

    def test_identical_problems(self, write_config, capsys):
        cfg = write_config(
            "[problem]\nfixture = reference\n[solver]\nn = 64\ntheta = 2.0\n"
            "[compare]\nfixture = reference\nK_eta = 0\n"
        )
        assert cli.main(["depend", cfg]) == 0
        report = parse_report(capsys.readouterr().out)
        assert float(report["bound"]) == 0.0
        assert float(report["measured"]) == 0.0

    def test_missing_compare_section(self, write_config, capsys):
        cfg = write_config(REFERENCE_CFG)
        assert cli.main(["depend", cfg]) == 2
        assert "requires a [compare] section" in capsys.readouterr().err

    def test_bound_violation(self, write_config, capsys):
        cfg = write_config(
            "[problem]\nalpha = 0.5\nT = 0.5\nx0 = 1\nrhs = (x + y)/2\n"
            "M1 = 0\nM2 = 0.5\nM3 = 0.5\n[solver]\nn = 128\n"
            "[compare]\nrhs = (x + y)/2 + 0.5*t\nx0 = 1\nM1 = 1\nM2 = 0.5\nM3 = 0.5\nK_eta = 0\n"
        )
        assert cli.main(["depend", cfg]) == 5
        captured = capsys.readouterr()
        assert "measured distance exceeds the bound" in captured.err
        assert float(parse_report(captured.out)["margin"]) < 0.0

    def test_estimated_gap_label(self, write_config, capsys):
        cfg = write_config(
            "[problem]\nalpha = 0.5\nT = 0.5\nx0 = 1\nrhs = (x + y)/2\n"
            "M1 = 0\nM2 = 0.5\nM3 = 0.5\n[solver]\nn = 128\n"
            "[compare]\nrhs = (x + y)/2 + 0.5*t\nx0 = 1\nM1 = 1\nM2 = 0.5\nM3 = 0.5\n"
        )
        assert cli.main(["depend", cfg]) == 0
        report = parse_report(capsys.readouterr().out)
        assert report["k_eta"].endswith("(estimated)")
        assert float(report["measured"]) <= float(report["bound"])


class TestFamily:
    def test_eigen_family_csvs(self, write_config, tmp_path, capsys):
        cfg = write_config(EIGEN_CFG + "[family]\nanchors = 0.5, 1.0\n")
        out_dir = str(tmp_path / "fam")
        assert cli.main(["family", cfg, "--out-dir", out_dir]) == 0
        report = parse_report(capsys.readouterr().out)
        assert report["members"] == "2"
        assert float(report["distance_1_2"]) == pytest.approx(0.5, abs=1e-8)
        assert report["csv_dir"] == out_dir

        rows1 = [
            line.split(",")
            for line in open(f"{out_dir}/family_1.csv", encoding="utf-8")
            .read()
            .splitlines()[1:]
        ]
        rows2 = [
            line.split(",")
            for line in open(f"{out_dir}/family_2.csv", encoding="utf-8")
            .read()
            .splitlines()[1:]
        ]
        assert float(rows1[0][1]) == 0.5
        assert float(rows2[0][1]) == 1.0
        # the problem is linear in (x, z), so members scale with the anchor
        for r1, r2 in zip(rows1, rows2):
            assert float(r2[1]) == pytest.approx(2.0 * float(r1[1]), rel=1e-8)

    def test_single_anchor_matches_solve(self, write_config, tmp_path):
        solve_cfg = write_config(EIGEN_CFG, name="solve.cfg")
        family_cfg = write_config(
            EIGEN_CFG + "[family]\nanchors = 1.0\n", name="family.cfg"
        )
        out_csv = str(tmp_path / "solve.csv")
        out_dir = str(tmp_path / "fam")
        assert cli.main(["solve", solve_cfg, "--out", out_csv]) == 0
        assert cli.main(["family", family_cfg, "--out-dir", out_dir]) == 0
        solo = open(out_csv, "rb").read()
        member = open(f"{out_dir}/family_1.csv", "rb").read()
        assert solo == member

    def test_unanchored_problem_refused(self, write_config, tmp_path, capsys):
        cfg = write_config(REFERENCE_CFG + "[family]\nanchors = 0.5, 1.0\n")
        assert cli.main(["family", cfg, "--out-dir", str(tmp_path / "fam")]) == 6
        assert "anchor condition failure:" in capsys.readouterr().err

    def test_missing_family_section(self, write_config, tmp_path, capsys):
        cfg = write_config(EIGEN_CFG)
        assert cli.main(["family", cfg, "--out-dir", str(tmp_path / "fam")]) == 2
        assert "requires a [family] section" in capsys.readouterr().err

    def test_family_hausdorff_comparison(self, write_config, tmp_path, capsys):
        cfg = write_config(
            "[problem]\nalpha = 0.5\nT = 0.5\nx0 = 1\nrhs = (x + y)/2\n"
            "M1 = 0.5\nM2 = 0.5\nM3 = 0.5\n[solver]\nn = 64\n"
            "[compare]\nrhs = (x + y)/2 + 0.5*t\nx0 = 1\nM1 = 1\nM2 = 0.5\nM3 = 0.5\nK_ml = 0.25\n"
            "[family]\nanchors = 0.5, 1.0\n"
        )
        assert cli.main(["family", cfg, "--out-dir", str(tmp_path / "fam")]) == 0
        report = parse_report(capsys.readouterr().out)
        assert report["k_ml"] == "0.25 (given)"
        bound = float(report["hausdorff_bound"])
        expected = 0.25 * math.sqrt(0.5) / (math.gamma(1.5) * 0.25)
        assert bound == pytest.approx(expected, rel=1e-12)
        assert float(report["hausdorff_measured"]) <= bound


class TestMlf:
    def test_value(self, capsys):
        assert cli.main(["mlf", "0.5", "1.0"]) == 0
        value = float(capsys.readouterr().out.strip())
        assert value == pytest.approx(erfc_identity(1.0), rel=1e-10)

    def test_classical_case(self, capsys):
        assert cli.main(["mlf", "1.0", "2.0"]) == 0
        value = float(capsys.readouterr().out.strip())
        assert value == pytest.approx(math.exp(2.0), rel=1e-12)

    def test_domain_error(self, capsys):
        assert cli.main(["mlf", "1.5", "1.0"]) == 2
        assert "alpha in (0, 1]" in capsys.readouterr().err

    def test_non_numeric_argument(self, capsys):
        assert cli.main(["mlf", "half", "1.0"]) == 2


class TestSelftest:
    def test_all_pass(self, capsys):
        assert cli.main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert out.count("PASS") >= 5
        assert "all checks passed" in out


class TestArgparse:
    def test_solve_requires_out(self, write_config, capsys):
        cfg = write_config(REFERENCE_CFG)
        assert cli.main(["solve", cfg]) == 2

    def test_unknown_command(self, capsys):
        assert cli.main(["wat"]) == 2

    def test_help_exits_zero(self, capsys):
        assert cli.main(["--help"]) == 0
        assert "fracpicard" in capsys.readouterr().out
