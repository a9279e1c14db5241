import numpy as np
import pytest

from fracpicard.config import load_config, parse_config
from fracpicard.errors import ConfigError
from fracpicard.fixtures import get_fixture

BASE = "[problem]\nfixture = reference\n[solver]\nn = 64\n"
FULL = (
    "[problem]\n"
    "alpha = 0.5\n"
    "T = 0.5\n"
    "x0 = 1\n"
    "rhs = x\n"
    "M1 = 0\n"
    "M2 = 0.5\n"
    "M3 = 0.5\n"
    "[solver]\n"
    "n = 64\n"
)


class TestHappyPath:
    def test_explicit_problem(self):
        cfg = parse_config(FULL)
        assert cfg.problem.alpha == 0.5
        assert cfg.problem.T == 0.5
        assert np.array_equal(cfg.problem.x0, np.array([1.0]))
        assert cfg.problem.M1 == 0.0
        assert cfg.fixture is None
        assert cfg.solver.n == 64

    def test_solver_defaults(self):
        cfg = parse_config(FULL)
        assert cfg.solver.tol == 1e-10
        assert cfg.solver.max_iter == 200
        assert cfg.solver.theta_override is None
        assert cfg.solver.force is False

    def test_all_solver_keys(self):
        cfg = parse_config(
            "[problem]\nfixture = reference\n"
            "[solver]\nn = 64\ntol = 1e-8\nmax_iter = 50\ntheta = 3.0\nforce = true\n"
        )
        assert cfg.solver.tol == 1e-8
        assert cfg.solver.max_iter == 50
        assert cfg.solver.theta_override == 3.0
        assert cfg.solver.force is True

    def test_fixture_resolution(self):
        cfg = parse_config(BASE)
        assert cfg.fixture is not None
        assert cfg.fixture.name == "reference"
        assert cfg.problem.alpha == 0.5

    def test_comments_and_whitespace(self):
        text = (
            "# leading comment\n"
            "\n"
            "[problem]\n"
            "  fixture = reference   # trailing comment\n"
            "\n"
            "[solver]\n"
            "n = 64\n"
        )
        cfg = parse_config(text)
        assert cfg.fixture.name == "reference"
        assert cfg.solver.n == 64

    def test_repeated_rhs_builds_components(self):
        text = (
            "[problem]\nalpha = 0.5\nT = 0.5\nx0 = 1, 2\n"
            "rhs = x\nrhs = 0.3*x\n"
            "M1 = 0\nM2 = 0.5\nM3 = 0.5\n[solver]\nn = 64\n"
        )
        cfg = parse_config(text)
        assert np.array_equal(cfg.problem.x0, np.array([1.0, 2.0]))
        out = cfg.problem.rhs(np.zeros((1, 1)), np.array([[1.0, 2.0]]), np.zeros((1, 2)))[0]
        assert out == pytest.approx(np.array([1.0, 0.6]))

    def test_compare_inherits_order_and_horizon(self):
        text = FULL + (
            "[compare]\nrhs = 0.4*x\nx0 = 1\nM1 = 0\nM2 = 0.4\nM3 = 0.5\nK_eta = 1.2\n"
        )
        cfg = parse_config(text)
        assert cfg.compare.alpha == 0.5
        assert cfg.compare.T == 0.5
        assert cfg.k_eta == 1.2

    def test_compare_by_fixture(self):
        text = BASE + "[compare]\nfixture = comparison\nK_eta = 1.1502\nK_ml = 0.25\n"
        cfg = parse_config(text)
        assert cfg.compare.rhs is get_fixture("comparison").spec.rhs
        assert cfg.k_eta == 1.1502
        assert cfg.k_ml == 0.25

    def test_family_scalar_anchors(self):
        cfg = parse_config(BASE + "[family]\nanchors = 0.5, 1.0\n")
        assert len(cfg.anchors) == 2
        assert np.array_equal(cfg.anchors[0], np.array([0.5]))
        assert np.array_equal(cfg.anchors[1], np.array([1.0]))
        assert cfg.k_ml is None

    def test_family_vector_anchors(self):
        text = (
            "[problem]\nalpha = 0.5\nT = 0.5\nx0 = 1, 2\n"
            "rhs = x\nrhs = 0.3*x\n"
            "M1 = 0\nM2 = 0.5\nM3 = 0.5\n[solver]\nn = 64\n"
            "[family]\nanchors = 1, 2; 3, 4\n"
        )
        cfg = parse_config(text)
        assert np.array_equal(cfg.anchors[0], np.array([1.0, 2.0]))
        assert np.array_equal(cfg.anchors[1], np.array([3.0, 4.0]))


def _err(text):
    with pytest.raises(ConfigError) as excinfo:
        parse_config(text)
    return excinfo.value


class TestErrors:
    def test_unknown_section(self):
        e = _err("[nope]\n")
        assert "unknown section [nope]" in str(e)
        assert e.line == 1

    def test_duplicate_section(self):
        e = _err("[problem]\nalpha = 0.5\n[problem]\n")
        assert "duplicate section [problem]" in str(e)
        assert e.line == 3

    def test_key_outside_section(self):
        e = _err("alpha = 0.5\n")
        assert "key outside any [section]" in str(e)
        assert e.line == 1

    def test_empty_value(self):
        e = _err("[problem]\nalpha =\n")
        assert "empty value for 'alpha'" in str(e)
        assert e.line == 2

    def test_unknown_key(self):
        e = _err(FULL.replace("[solver]", "wat = 1\n[solver]"))
        assert "unknown key 'wat' in [problem]" in str(e)
        assert e.line == 9

    def test_duplicate_key(self):
        e = _err(FULL.replace("T = 0.5", "T = 0.5\nT = 0.6"))
        assert "duplicate key 'T' in [problem]" in str(e)
        assert e.line == 4

    def test_bad_float(self):
        e = _err(FULL.replace("alpha = 0.5", "alpha = abc"))
        assert "alpha must be a real number, got 'abc'" in str(e)
        assert e.line == 2

    def test_bad_int(self):
        e = _err(BASE.replace("n = 64", "n = 1.5"))
        assert "n must be an integer, got '1.5'" in str(e)
        assert e.line == 4

    def test_bad_bool(self):
        e = _err(BASE + "force = maybe\n")
        assert "force must be true or false, got 'maybe'" in str(e)
        assert e.line == 5

    def test_missing_problem_section(self):
        e = _err("[solver]\nn = 64\n")
        assert "missing required section [problem]" in str(e)

    def test_missing_solver_section(self):
        e = _err("[problem]\nfixture = reference\n")
        assert "missing required section [solver]" in str(e)

    def test_missing_required_key(self):
        e = _err("[problem]\nalpha = 0.5\n[solver]\nn = 64\n")
        assert "[problem] is missing required key 'T'" in str(e)

    def test_domain_violation_carries_line(self):
        e = _err(FULL.replace("M3 = 0.5", "M3 = 2"))
        assert "M3 must lie in [0,1), got 2.0" in str(e)
        assert e.line == 8

    def test_component_count_mismatch(self):
        e = _err(FULL.replace("x0 = 1", "x0 = 1, 2"))
        assert "2 x0 component(s) but 1 rhs line(s)" in str(e)

    def test_fixture_with_explicit_keys(self):
        e = _err(BASE.replace("fixture = reference", "fixture = reference\nalpha = 0.5"))
        assert "fixture cannot be combined with explicit keys (alpha)" in str(e)

    def test_unknown_fixture(self):
        e = _err(BASE.replace("reference", "wat"))
        assert "unknown fixture 'wat'" in str(e)
        assert "available:" in str(e)

    def test_compare_must_not_restate_alpha(self):
        e = _err(BASE + "[compare]\nalpha = 0.3\nrhs = x\nx0 = 1\nM1 = 0\nM2 = 0.4\nM3 = 0.5\n")
        assert "[compare] inherits alpha from [problem]; remove it" in str(e)

    def test_bad_rhs_reports_offset(self):
        e = _err(FULL.replace("rhs = x", "rhs = 1 + * 2"))
        assert str(e).startswith("line 5: rhs:")
        assert "offset 4" in str(e)
        assert e.line == 5

    def test_anchor_dimension_mismatch(self):
        e = _err(BASE + "[family]\nanchors = 1, 2; 3\n")
        assert "anchor '1, 2' has 2 component(s), problem has 1" in str(e)

    def test_empty_anchor_vector(self):
        e = _err(BASE + "[family]\nanchors = ;\n")
        assert "anchors has an empty vector" in str(e)

    def test_load_config_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(str(tmp_path / "absent.cfg"))

    def test_load_config_round_trip(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text(FULL, encoding="utf-8")
        cfg = load_config(str(p))
        assert cfg.problem.alpha == 0.5
