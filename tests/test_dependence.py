import math
from dataclasses import replace

import numpy as np
import pytest

from fracpicard.dependence import (
    AnchorCheck,
    ProblemPair,
    check_anchor_condition,
    dependence_bound,
    estimate_eta_sup,
    estimate_ml_gap,
    family_hausdorff_bound,
    hausdorff_distance,
    measured_distance,
    solve_family,
)
from fracpicard.config import parse_config
from fracpicard.errors import (
    AnchorConditionError,
    ContractionError,
    DomainError,
    IterationError,
)
from fracpicard.fixtures import reference_problem, shifted_reference_problem
from fracpicard.grid import GridFunction, UniformGrid
from fracpicard.solver import ProblemSpec, SolverConfig, solve
from fracpicard.specfun import mittag_leffler

from oracles import brute_hausdorff, erfc_identity

SQRT_PI = math.sqrt(math.pi)


def _eigen_spec(x0=1.0):
    # D^alpha x = x; the time-zero slice of the rhs is the identity, so
    # anchored families exist, and members are a * E_alpha(t^alpha).
    return ProblemSpec(
        alpha=0.5,
        T=0.5,
        x0=np.atleast_1d(x0),
        rhs=lambda t, x, y: x,
        M1=0.0,
        M2=1.0,
        M3=1e-6,
    )


def _averaged_spec(shift=0.0, T=0.5):
    # f(t, x, y) = (x + y)/2 + shift*t keeps f(0, x, x) = x for any shift.
    return ProblemSpec(
        alpha=0.5,
        T=T,
        x0=np.array([1.0]),
        rhs=lambda t, x, y: 0.5 * (x + y) + shift * t,
        M1=0.5 + abs(shift),
        M2=0.5,
        M3=0.5,
    )


class TestProblemPair:
    def test_valid_pair(self, reference):
        shifted = shifted_reference_problem()
        pair = ProblemPair(reference.spec, shifted.spec, k_eta=1.1502)
        assert pair.worst_constants() == (0.5, 0.5)

    def test_mismatched_orders(self, reference):
        other = _eigen_spec()
        bad = ProblemSpec(
            alpha=0.25, T=0.5, x0=np.array([1.0]), rhs=other.rhs, M1=0.0, M2=1.0, M3=1e-6
        )
        with pytest.raises(DomainError):
            ProblemPair(reference.spec, bad)

    def test_mismatched_horizons(self):
        with pytest.raises(DomainError):
            ProblemPair(_averaged_spec(), _averaged_spec(T=1.0))

    def test_negative_constants(self):
        with pytest.raises(DomainError):
            ProblemPair(_eigen_spec(), _eigen_spec(), k_eta=-0.1)
        with pytest.raises(DomainError):
            ProblemPair(_eigen_spec(), _eigen_spec(), k_ml=-0.1)


class TestDependenceBound:
    def test_reference_pair_value(self, reference):
        shifted = shifted_reference_problem()
        pair = ProblemPair(reference.spec, shifted.spec, k_eta=1.1502)
        bound = dependence_bound(pair, 2.0)
        # |x0_f - x0_g| + k_eta / (theta (1 - q)) = sqrt(pi)/2 + 2.3004
        assert bound == pytest.approx(SQRT_PI / 2.0 + 2.3004, abs=1e-12)
        assert bound == pytest.approx(3.1866269254527575, rel=1e-14)

    def test_identical_problems_zero_bound(self):
        spec = _eigen_spec()
        pair = ProblemPair(spec, spec, k_eta=0.0)
        assert dependence_bound(pair, 4.0) == 0.0

    def test_pure_gap_term(self):
        pair = ProblemPair(_averaged_spec(), _averaged_spec(shift=1.0), k_eta=0.5)
        # same x0, so the bound is k_eta / (theta (1 - q)) = 0.5/(2 * 0.25)
        assert dependence_bound(pair, 2.0) == pytest.approx(1.0, rel=1e-14)

    def test_monotone_in_theta_for_equal_anchors(self):
        pair = ProblemPair(_averaged_spec(), _averaged_spec(shift=1.0), k_eta=0.5)
        values = [dependence_bound(pair, theta) for theta in (1.5, 2.0, 3.0, 5.0, 10.0)]
        assert all(b <= a for a, b in zip(values, values[1:]))

    def test_theta_too_small(self):
        pair = ProblemPair(_averaged_spec(), _averaged_spec(shift=1.0), k_eta=0.5)
        with pytest.raises(DomainError):
            dependence_bound(pair, 1.0)  # 0.5/1 + 0.5 = 1, not a contraction
        with pytest.raises(DomainError):
            dependence_bound(pair, 0.0)

    def test_measured_distance_respects_bound(self, reference):
        shifted = shifted_reference_problem()
        cfg = SolverConfig(n=512, tol=1e-10, theta_override=2.0)
        run_f = solve(reference.spec, cfg)
        run_g = solve(shifted.spec, cfg)
        measured = measured_distance(run_f.x, run_g.x, 0.5, 2.0)
        # the initial-value offset dominates; it sits at t=0 where the
        # weight is one, so the measured distance is exactly sqrt(pi)/2
        assert measured == pytest.approx(SQRT_PI / 2.0, abs=1e-12)
        pair = ProblemPair(reference.spec, shifted.spec, k_eta=1.1502)
        assert measured <= dependence_bound(pair, 2.0)


class TestMeasuredDistance:
    def test_zero_for_equal_functions(self):
        grid = UniformGrid(0.5, 16)
        f = GridFunction.sample(grid, lambda t: np.array([math.sin(t)]))
        assert measured_distance(f, f, 0.5, 2.0) == 0.0

    def test_constant_offset(self):
        grid = UniformGrid(0.5, 16)
        a = GridFunction.constant(grid, [1.0, 1.0])
        b = GridFunction.constant(grid, [1.0 + 3.0, 1.0 + 4.0])
        assert measured_distance(a, b, 0.5, 2.0) == pytest.approx(5.0)

    def test_grid_mismatch(self):
        a = GridFunction.constant(UniformGrid(0.5, 8), 0.0)
        b = GridFunction.constant(UniformGrid(0.5, 16), 0.0)
        with pytest.raises(Exception):
            measured_distance(a, b, 0.5, 2.0)


class TestHausdorff:
    @staticmethod
    def _random_sets(rng, grid, size_a, size_b):
        A = [GridFunction(grid, rng.normal(size=(grid.n + 1, 2))) for _ in range(size_a)]
        B = [GridFunction(grid, rng.normal(size=(grid.n + 1, 2))) for _ in range(size_b)]
        return A, B

    def test_singletons(self):
        grid = UniformGrid(0.5, 8)
        a = GridFunction.constant(grid, [0.0, 0.0])
        b = GridFunction.constant(grid, [3.0, 4.0])
        assert hausdorff_distance([a], [b], 0.5, 2.0) == pytest.approx(5.0)

    def test_identical_sets_zero(self):
        grid = UniformGrid(0.5, 8)
        A = [GridFunction.constant(grid, float(v)) for v in (0.0, 1.0, 2.0)]
        assert hausdorff_distance(A, A, 0.5, 2.0) == 0.0

    def test_matches_brute_force_exactly(self):
        rng = np.random.default_rng(2024)
        grid = UniformGrid(0.5, 8)
        dist = lambda a, b: measured_distance(a, b, 0.5, 2.0)
        for _ in range(40):
            A, B = self._random_sets(
                rng, grid, int(rng.integers(1, 9)), int(rng.integers(1, 9))
            )
            assert hausdorff_distance(A, B, 0.5, 2.0) == brute_hausdorff(A, B, dist)

    def test_matches_independent_metric(self):
        # Rebuild the metric itself from the erfc closed form, so neither
        # the max-min structure nor the weights come from the package.
        rng = np.random.default_rng(99)
        grid = UniformGrid(0.5, 8)
        ts = grid.nodes()
        weights = np.array([erfc_identity(2.0 * math.sqrt(t)) for t in ts])

        def dist(a, b):
            gaps = np.linalg.norm(a.values - b.values, axis=1)
            return float(np.max(gaps / weights))

        A, B = self._random_sets(rng, grid, 5, 7)
        assert hausdorff_distance(A, B, 0.5, 2.0) == pytest.approx(
            brute_hausdorff(A, B, dist), rel=1e-10
        )

    def test_symmetry_and_triangle(self):
        rng = np.random.default_rng(5)
        grid = UniformGrid(0.5, 8)
        for _ in range(10):
            A, B = self._random_sets(rng, grid, 4, 3)
            C = [GridFunction(grid, rng.normal(size=(9, 2))) for _ in range(5)]
            h_ab = hausdorff_distance(A, B, 0.5, 2.0)
            h_ba = hausdorff_distance(B, A, 0.5, 2.0)
            h_bc = hausdorff_distance(B, C, 0.5, 2.0)
            h_ac = hausdorff_distance(A, C, 0.5, 2.0)
            assert h_ab == h_ba
            assert h_ac <= h_ab + h_bc + 1e-12

    def test_empty_sets_rejected(self):
        grid = UniformGrid(0.5, 8)
        a = GridFunction.constant(grid, 0.0)
        with pytest.raises(DomainError):
            hausdorff_distance([], [a], 0.5, 2.0)
        with pytest.raises(DomainError):
            hausdorff_distance([a], [], 0.5, 2.0)


class TestAnchorCondition:
    def test_identity_rhs_passes(self):
        check = check_anchor_condition(_eigen_spec(), 5.0, 256)
        assert check == AnchorCheck(ok=True, worst_violation=0.0)

    def test_averaged_rhs_passes(self):
        check = check_anchor_condition(_averaged_spec(shift=2.0), 3.0, 128)
        assert check.ok

    def test_reference_rhs_fails(self, reference):
        check = check_anchor_condition(reference.spec, 9.8, 256)
        assert not check.ok
        assert check.worst_violation > 1.0

    def test_bad_arguments(self):
        with pytest.raises(DomainError):
            check_anchor_condition(_eigen_spec(), 0.0, 16)
        with pytest.raises(DomainError):
            check_anchor_condition(_eigen_spec(), 1.0, 0)


class TestSolveFamily:
    def test_members_match_closed_form(self):
        spec = _eigen_spec()
        family = solve_family(spec, [0.25, 0.5, 1.0], SolverConfig(n=512, tol=1e-10))
        for anchor, (z, x) in zip(family.anchors, family.solutions):
            # bit-exact anchoring at node 0, for both z and x
            assert z.values[0, 0] == anchor[0]
            assert x.values[0, 0] == anchor[0]
            nodes = z.grid.nodes()
            exact = np.array(
                [anchor[0] * mittag_leffler(0.5, t**0.5) for t in nodes]
            )
            assert float(np.abs(x.values[:, 0] - exact).max()) <= 1e-2

    def test_pairwise_separation(self):
        spec = _eigen_spec()
        anchors = [0.25, 0.5, 1.0]
        tol = 1e-10
        family = solve_family(spec, anchors, SolverConfig(n=512, tol=tol))
        theta = max(1.0, 2.0 * spec.M2 / (1.0 - spec.M3))
        q_b = spec.M2 / theta + spec.M3
        for i in range(3):
            for j in range(i + 1, 3):
                gap = measured_distance(
                    family.solutions[i][1], family.solutions[j][1], 0.5, theta
                )
                floor = (1.0 - q_b) * abs(anchors[i] - anchors[j]) - 10.0 * tol
                assert gap >= floor

    @pytest.mark.parametrize("anchors", [[1.0], [0.25, -0.5, 1.0, 2.0]], ids=["one", "four"])
    def test_members_match_plain_solve_bitwise(self, anchors):
        # A member is the plain solve of the problem with x0 = a started
        # from the constant a, so the outputs agree bit for bit.
        spec = _eigen_spec(x0=1.0)
        config = SolverConfig(n=128, tol=1e-10)
        family = solve_family(spec, anchors, config)
        grid = UniformGrid(spec.T, config.n)
        for a, (z_fam, x_fam) in zip(anchors, family.solutions):
            start = GridFunction.constant(grid, np.array([a]))
            plain = solve(replace(spec, x0=a), replace(config, initial_guess=start))
            assert np.array_equal(z_fam.values, plain.z.values)
            assert np.array_equal(x_fam.values, plain.x.values)

    def test_node_zero_drift_names_the_member(self):
        # f(0, x, x) = x holds at the sampled points but not at x = 0.3,
        # where the rhs adds one: member 1 drifts by 1 on its first step.
        spec = ProblemSpec(
            alpha=0.5,
            T=0.5,
            x0=np.array([1.0]),
            rhs=lambda t, x, y: np.where(x == 0.3, y + 1.0, 0.75 * x + 0.25 * y),
            M1=0.0,
            M2=0.75,
            M3=0.25,
        )
        with pytest.raises(AnchorConditionError, match=r"^member 1: node 0 drifted by 1\.000e\+00") as excinfo:
            solve_family(spec, [0.5, 0.3], SolverConfig(n=64))
        assert excinfo.value.worst_violation == 1.0

    def test_small_drift_is_restored_exactly(self):
        # f(0, x, x) = x + 1e-13 passes the sampled check, and node 0
        # drifts by 1e-13 per step, below the drift tolerance: it is put
        # back on the anchor after every step.
        spec = ProblemSpec(
            alpha=0.5,
            T=0.5,
            x0=np.array([1.0]),
            rhs=lambda t, x, y: np.where(t == 0.0, y + 1e-13, 0.75 * x + 0.25 * y),
            M1=0.0,
            M2=0.75,
            M3=0.25,
        )
        z, x = solve_family(spec, [0.5], SolverConfig(n=64)).solutions[0]
        assert z.values[0, 0] == 0.5
        assert x.values[0, 0] == 0.5

    def test_rejects_problem_without_anchor_identity(self, reference):
        with pytest.raises(AnchorConditionError) as excinfo:
            solve_family(reference.spec, [1.0], SolverConfig(n=64))
        assert excinfo.value.worst_violation > 1.0

    def test_contraction_failure_raises(self):
        spec = _averaged_spec(T=4.0)
        with pytest.raises(ContractionError):
            solve_family(spec, [1.0], SolverConfig(n=64))

    def test_force_overrides_failed_certificate(self):
        spec = _averaged_spec(T=4.0)
        family = solve_family(spec, [1.0], SolverConfig(n=64, force=True))
        assert len(family.solutions) == 1

    def test_iteration_budget_exhaustion(self):
        with pytest.raises(IterationError, match="member 0"):
            solve_family(_eigen_spec(), [1.0], SolverConfig(n=64, tol=1e-12, max_iter=2))

    def test_empty_anchors(self):
        with pytest.raises(DomainError):
            solve_family(_eigen_spec(), [], SolverConfig(n=16))

    def test_bad_anchor_shape(self):
        with pytest.raises(DomainError):
            solve_family(_eigen_spec(), [[1.0, 2.0]], SolverConfig(n=16))


class TestFamilyHausdorffBound:
    def test_zero_gap_zero_bound(self):
        pair = ProblemPair(_eigen_spec(), _eigen_spec(), k_ml=0.0)
        assert family_hausdorff_bound(pair, 4.0) == 0.0

    def test_closed_form_value(self):
        pair = ProblemPair(_averaged_spec(), _averaged_spec(shift=0.5), k_ml=0.25)
        bound = family_hausdorff_bound(pair, 2.0)
        expected = 0.25 * 0.5**0.5 / (math.gamma(1.5) * 0.25)
        assert bound == pytest.approx(expected, rel=1e-14)

    def test_measured_families_respect_bound(self):
        f = _averaged_spec()
        g = _averaged_spec(shift=0.5)
        # |f - g| = t/2 <= (T/2) * E_alpha(theta t^alpha), so k_ml = 0.25 is valid
        pair = ProblemPair(f, g, k_ml=0.25)
        bound = family_hausdorff_bound(pair, 2.0)
        cfg = SolverConfig(n=256, tol=1e-10, theta_override=2.0)
        fam_f = solve_family(f, [0.5, 1.0], cfg)
        fam_g = solve_family(g, [0.5, 1.0], cfg)
        measured = hausdorff_distance(
            [x for _, x in fam_f.solutions],
            [x for _, x in fam_g.solutions],
            0.5,
            2.0,
        )
        assert measured <= bound

    def test_rejects_unanchored_problem(self, reference):
        pair = ProblemPair(reference.spec, shifted_reference_problem().spec, k_ml=1.0)
        with pytest.raises(AnchorConditionError):
            family_hausdorff_bound(pair, 2.0)


class TestGapEstimators:
    def test_constant_gap(self):
        f = _averaged_spec()
        g = ProblemSpec(
            alpha=0.5,
            T=0.5,
            x0=np.array([1.0]),
            rhs=lambda t, x, y: 0.5 * (x + y) + 0.25,
            M1=0.5,
            M2=0.5,
            M3=0.5,
        )
        est = estimate_eta_sup(f, g, radius=3.0)
        assert est == pytest.approx(1.1 * 0.25, rel=1e-12)

    def test_identical_problems_zero(self):
        spec = _eigen_spec()
        assert estimate_eta_sup(spec, spec, radius=2.0) == 0.0
        assert estimate_ml_gap(spec, spec, 2.0, radius=2.0) == 0.0

    def test_time_weighted_gap(self):
        f = _averaged_spec()
        g = _averaged_spec(shift=0.5)
        eta = estimate_eta_sup(f, g, radius=3.0)
        ml = estimate_ml_gap(f, g, 2.0, radius=3.0)
        # the raw gap tops out at T/2 = 0.25 (x 1.1 safety); dividing by the
        # growing weight shrinks it a lot
        assert 0.24 <= eta <= 0.275 + 1e-12
        assert 0.0 < ml < 0.05
        assert ml < eta

    def test_ml_gap_value_is_pinned(self):
        # The family benchmark's pair at its pair theta and sampling radius.
        # estimate_ml_gap shares the norm-weight builder, which must leave
        # this value unchanged to the last bit.
        common = "M1 = 0.125\nM2 = 0.875\nM3 = 0.25\n"
        cfg = parse_config(
            "[problem]\nalpha = 0.5\nT = 0.5\nx0 = 1\nrhs = 0.75*x + 0.25*y + t*sin(x)/8\n"
            + common
            + "[solver]\nn = 256\n[compare]\nx0 = 1\nrhs = 0.75*x + 0.25*y + t*cos(x)/8\n"
            + common
        )
        value = estimate_ml_gap(cfg.problem, cfg.compare, 2.3333333333333335, 18.201188613036944)
        assert value.hex() == "0x1.d634385967097p-8"

    def test_bad_arguments(self):
        spec = _eigen_spec()
        with pytest.raises(DomainError):
            estimate_eta_sup(spec, spec, radius=0.0)
        with pytest.raises(DomainError):
            estimate_eta_sup(spec, spec, radius=1.0, samples=0)
        with pytest.raises(DomainError):
            estimate_ml_gap(spec, spec, 0.0, radius=1.0)
