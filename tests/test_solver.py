import math

import numpy as np
import pytest

from fracpicard.dependence import (
    ProblemPair,
    dependence_bound,
    family_hausdorff_bound,
    solve_family,
)
from fracpicard.errors import (
    ContractionError,
    DomainError,
    RhsEvaluationError,
    SeriesConvergenceError,
)
from fracpicard.fracops import _NEAR, build_weights, frac_integral
from fracpicard.grid import GridFunction, UniformGrid
from fracpicard.solver import (
    ProblemSpec,
    SolverConfig,
    _weight_vector,
    bielecki_norm,
    check_contraction,
    chebyshev_norm,
    picard_step,
    reconstruct_x,
    residual_caputo,
    resolve_theta,
    select_theta,
    solve,
)
from fracpicard.specfun import bielecki_weight, mittag_leffler

from oracles import abm_solve, erfc_identity

SQRT_PI = math.sqrt(math.pi)


def _spec(alpha=0.5, T=0.5, x0=1.0, rhs=None, M1=0.5, M2=0.5, M3=0.5):
    if rhs is None:
        rhs = lambda t, x, y: 0.5 * x
    return ProblemSpec(alpha=alpha, T=T, x0=np.atleast_1d(x0), rhs=rhs, M1=M1, M2=M2, M3=M3)


class TestProblemSpec:
    def test_x0_scalar_lifts_and_freezes(self):
        spec = _spec(x0=2.0)
        assert spec.x0.shape == (1,)
        assert spec.dim == 1
        with pytest.raises(ValueError):
            spec.x0[0] = 3.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"alpha": 0.0},
            {"alpha": 1.0},
            {"alpha": 1.5},
            {"T": 0.0},
            {"T": -1.0},
            {"T": math.inf},
            {"M1": -0.1},
            {"M2": math.nan},
            {"M2": -1.0},
            {"M3": -0.1},
            {"M3": 1.0},
            {"M3": 1.5},
            {"x0": math.nan},
        ],
    )
    def test_rejects_invalid_fields(self, kwargs):
        with pytest.raises(DomainError):
            _spec(**kwargs)

    def test_m3_message_names_the_range(self):
        with pytest.raises(DomainError, match=r"M3 must lie in \[0,1\), got 1.5"):
            _spec(M3=1.5)

    def test_accepts_zero_lipschitz_constants(self):
        # D^{1/2} x = x/2 with M3 = 0 (the rhs ignores y): x = E_{1/2}(sqrt(t)/2).
        assert _spec(M2=0.0).M2 == 0.0
        spec = _spec(M3=0.0)
        run = solve(spec, SolverConfig(n=1024, tol=1e-12))
        assert run.converged and run.certified
        assert run.contraction.theta == 1.0
        assert run.contraction.q_bielecki == 0.5
        exact = np.array([erfc_identity(0.5 * math.sqrt(t)) for t in run.x.grid.nodes()])
        assert float(np.abs(run.x.values[:, 0] - exact).max()) <= 1e-4


class TestSolverConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [{"n": 1}, {"n": 0}, {"tol": 0.0}, {"tol": -1e-3}, {"max_iter": 0}, {"theta_override": 0.0}],
    )
    def test_rejects_invalid_fields(self, kwargs):
        with pytest.raises(DomainError):
            SolverConfig(**{"n": 16, **kwargs})


class TestSelectTheta:
    def test_balanced_case(self):
        assert select_theta(_spec(M2=0.5, M3=0.5)) == 2.0

    def test_floors_at_one(self):
        assert select_theta(_spec(M2=0.1, M3=0.1)) == 1.0

    def test_strong_coupling(self):
        spec = _spec(M2=10.0, M3=0.9)
        theta = select_theta(spec)
        assert theta == pytest.approx(200.0)
        assert spec.M2 / theta + spec.M3 == pytest.approx(0.95)

    def test_factor_always_below_one(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            m2 = float(rng.uniform(1e-3, 50.0))
            m3 = float(rng.uniform(1e-3, 0.999))
            spec = _spec(M2=m2, M3=m3)
            theta = select_theta(spec)
            assert theta >= 1.0
            assert m2 / theta + m3 <= (1.0 + m3) / 2.0 + 1e-12
            assert m2 / theta + m3 < 1.0


class TestResolveTheta:
    def test_default_and_override(self):
        assert resolve_theta(0.5, 0.5) == (2.0, 0.75)
        assert resolve_theta(0.0, 0.0) == (1.0, 0.0)
        assert resolve_theta(0.5, 0.5, 4.0) == (4.0, 0.625)

    @pytest.mark.parametrize("theta", [0.0, -1.0, math.nan])
    def test_rejects_non_positive_override(self, theta):
        with pytest.raises(DomainError, match="theta must be > 0"):
            resolve_theta(0.5, 0.5, theta)

    @pytest.mark.parametrize(
        "call",
        [
            lambda spec: solve(spec, SolverConfig(n=16, theta_override=1.1)),
            lambda spec: solve_family(spec, [1.0], SolverConfig(n=16, theta_override=1.1)),
            lambda spec: dependence_bound(ProblemPair(spec, spec), 1.1),
            lambda spec: family_hausdorff_bound(ProblemPair(spec, spec), 1.1),
        ],
        ids=["solve", "solve_family", "dependence_bound", "family_hausdorff_bound"],
    )
    def test_too_small_theta_has_one_message(self, call):
        spec = _spec(M1=0.0, M2=0.875, M3=0.25, rhs=lambda t, x, y: 0.75 * x + 0.25 * y)
        message = r"^theta = 1\.1 gives weighted factor 1\.04545 >= 1; need theta > 1\.16667$"
        with pytest.raises(DomainError, match=message):
            call(spec)


class TestCheckContraction:
    def test_reference_constants(self, reference):
        report = check_contraction(reference.spec, 1024)
        assert report.q_global == pytest.approx(0.8989422804014326, abs=1e-12)
        assert report.contraction_ok
        assert report.theta == 2.0
        assert report.q_bielecki == pytest.approx(0.75, abs=1e-12)
        # K = 1.1 * sup |f(t,0,0)|; the sup sits at t=0 where f = sqrt(pi)/4
        assert report.K == pytest.approx(1.1 * SQRT_PI / 4.0, rel=1e-12)
        assert report.R == pytest.approx(9.770899372372293, rel=1e-12)
        assert report.L == pytest.approx(23.050558591143027, rel=1e-12)

    def test_degenerate_coupling(self):
        spec = _spec(rhs=lambda t, x, y: np.cos(t), M2=1e-12, M3=0.5, T=2.0)
        report = check_contraction(spec, 256)
        assert report.q_global == pytest.approx(0.5, abs=1e-9)
        assert report.K == pytest.approx(1.1, rel=1e-12)  # sup at t=0
        assert report.R == pytest.approx(report.K / 0.5, rel=1e-6)

    def test_failing_certificate_reported_not_raised(self):
        spec = _spec(T=4.0, M2=1.0, M3=0.5)
        report = check_contraction(spec, 64)
        assert report.q_global == pytest.approx(2.0 / math.gamma(1.5) + 0.5, rel=1e-12)
        assert report.q_global == pytest.approx(2.7568, abs=1e-3)
        assert not report.contraction_ok
        assert report.R is None and report.L is None
        # the weighted factor is still fine: theta soaks up T
        assert report.q_bielecki < 1.0


class TestNorms:
    def test_zero(self):
        grid = UniformGrid(0.5, 8)
        z = GridFunction.constant(grid, 0.0)
        assert bielecki_norm(z, 0.5, 2.0) == 0.0
        assert chebyshev_norm(z) == 0.0

    def test_constant_supremum_sits_at_zero(self):
        grid = UniformGrid(0.5, 8)
        z = GridFunction.constant(grid, [3.0, 4.0])
        assert chebyshev_norm(z) == pytest.approx(5.0)
        assert bielecki_norm(z, 0.5, 2.0) == pytest.approx(5.0)
        # larger theta shrinks every t>0 weight further; the t=0 node wins
        assert bielecki_norm(z, 0.5, 6.0) == pytest.approx(5.0)

    def test_weight_cancels_matching_growth(self):
        grid = UniformGrid(0.5, 64)
        z = GridFunction.sample(
            grid, lambda t: np.array([mittag_leffler(0.5, 2.0 * t**0.5)])
        )
        assert bielecki_norm(z, 0.5, 2.0) == pytest.approx(1.0, abs=1e-10)

    def test_weights_are_shared_and_read_only(self):
        wt = _weight_vector(UniformGrid(0.5, 16), 0.5, 2.0)
        assert _weight_vector(UniformGrid(0.5, 16), 0.5, 2.0) is wt
        assert not wt.flags.writeable

    @pytest.mark.parametrize("n", [256, 4096, 8192])
    @pytest.mark.parametrize("alpha,theta", [(0.5, 2.0), (0.75, 1.5)])
    def test_weights_bitwise_equal_node_by_node(self, n, alpha, theta):
        grid = UniformGrid(0.5, n)
        expected = [bielecki_weight(alpha, theta, t) for t in grid.nodes()]
        assert _weight_vector(grid, alpha, theta).tolist() == expected

    def test_weight_failure_raises_the_node_error(self):
        # The first node whose series does not settle raises what
        # bielecki_weight raises there.
        grid = UniformGrid(2.0, 16)
        nodes = grid.nodes()
        first = None
        for t in nodes:
            try:
                bielecki_weight(0.3, 3.0, t)
            except SeriesConvergenceError as exc:
                first = str(exc)
                break
        assert first is not None
        with pytest.raises(SeriesConvergenceError) as info:
            _weight_vector(grid, 0.3, 3.0)
        assert str(info.value) == first
        with pytest.raises(DomainError, match="theta > 0"):
            _weight_vector(grid, 0.5, -1.0)

    def test_bielecki_never_exceeds_chebyshev(self):
        rng = np.random.default_rng(11)
        grid = UniformGrid(0.7, 12)
        for _ in range(20):
            z = GridFunction(grid, rng.normal(size=(13, 2)))
            for theta in (0.5, 1.0, 3.0):
                assert bielecki_norm(z, 0.5, theta) <= chebyshev_norm(z) + 1e-15

    def test_single_spike(self):
        grid = UniformGrid(1.0, 4)
        values = np.zeros((5, 1))
        values[0, 0] = 3.0
        assert chebyshev_norm(GridFunction(grid, values)) == 3.0


class TestPicardStep:
    def test_from_zero_guess(self, reference):
        grid = UniformGrid(0.5, 64)
        weights = build_weights(0.5, grid)
        z = GridFunction.constant(grid, 0.0)
        out = picard_step(reference.spec, weights, z)
        nodes = grid.nodes()
        for k in (0, 3, 64):
            expected = SQRT_PI / 4.0 - math.sqrt(nodes[k]) / 2.0 + 0.5
            assert out.values[k, 0] == pytest.approx(expected, rel=1e-14)

    def test_exact_solution_is_near_fixed_point(self, reference):
        grid = UniformGrid(0.5, 2048)
        weights = build_weights(0.5, grid)
        z_star = GridFunction.sample(grid, reference.exact_derivative)
        out = picard_step(reference.spec, weights, z_star)
        assert chebyshev_norm(out - z_star) <= 5e-3

    def test_constant_rhs(self):
        spec = _spec(rhs=lambda t, x, y: np.ones_like(x))
        grid = UniformGrid(0.5, 16)
        weights = build_weights(0.5, grid)
        z = GridFunction.sample(grid, lambda t: np.array([math.sin(t)]))
        out = picard_step(spec, weights, z)
        assert np.all(out.values == 1.0)

    def test_non_finite_rhs_names_node(self):
        spec = _spec(rhs=lambda t, x, y: np.where(t > 0.4, math.nan, 0.1 * x))
        grid = UniformGrid(0.5, 10)
        weights = build_weights(0.5, grid)
        z = GridFunction.constant(grid, 0.0)
        with pytest.raises(RhsEvaluationError, match="node 9"):
            picard_step(spec, weights, z)

    def test_wrong_shape_rhs_rejected(self):
        spec = _spec(rhs=lambda t, x, y: np.array([1.0, 2.0]))
        grid = UniformGrid(0.5, 4)
        weights = build_weights(0.5, grid)
        with pytest.raises(RhsEvaluationError, match="shape"):
            picard_step(spec, weights, GridFunction.constant(grid, 0.0))

    def test_dimension_mismatch(self):
        spec = _spec()
        grid = UniformGrid(0.5, 4)
        weights = build_weights(0.5, grid)
        with pytest.raises(DomainError):
            picard_step(spec, weights, GridFunction.constant(grid, [1.0, 2.0]))


class TestReconstructX:
    def test_zero_derivative(self):
        spec = _spec(x0=[2.0, -1.0], rhs=lambda t, x, y: np.zeros_like(x))
        grid = UniformGrid(0.5, 8)
        weights = build_weights(0.5, grid)
        x = reconstruct_x(spec, weights, GridFunction.constant(grid, [0.0, 0.0]))
        assert np.all(x.values == spec.x0)

    def test_constant_derivative_power_rule(self):
        spec = _spec(x0=0.0)
        grid = UniformGrid(1.0, 64)
        weights = build_weights(0.5, grid)
        z = GridFunction.constant(grid, math.gamma(1.5))
        x = reconstruct_x(spec, weights, z)
        nodes = grid.nodes()
        for k in range(1, 65):
            assert x.values[k, 0] == pytest.approx(nodes[k] ** 0.5, rel=1e-12)

    def test_node_zero_bitwise(self, reference_run, reference):
        assert reference_run.x.values[0, 0] == reference.spec.x0[0]


class TestSolve:
    def test_reference_run(self, reference_run, reference):
        run = reference_run
        assert run.converged and run.certified
        assert run.iterations <= 60
        exact = GridFunction.sample(run.x.grid, reference.exact_solution)
        err = np.abs(run.x.values - exact.values)
        assert float(err.max()) <= 1e-2
        assert float(err[128:].max()) <= 3e-3
        # frozen values from this deterministic configuration
        assert run.iterations == 55
        assert run.z.values[0, 0] == pytest.approx(SQRT_PI / 2.0 + 1.0, abs=1e-6)
        assert float(err.max()) == pytest.approx(7.504661038448823e-05, rel=1e-6)

    def test_ratios_stay_under_weighted_factor(self, reference_run):
        q_b = reference_run.contraction.q_bielecki
        assert len(reference_run.ratio_estimates) == reference_run.iterations - 1
        assert max(reference_run.ratio_estimates) <= q_b + 0.05

    def test_a_posteriori_bound_is_honest(self, reference, reference_run):
        tight = solve(
            reference.spec, SolverConfig(n=1024, tol=1e-13, theta_override=2.0)
        )
        dist = bielecki_norm(reference_run.z - tight.z, 0.5, 2.0)
        assert dist <= reference_run.a_posteriori_bound
        assert reference_run.a_posteriori_bound <= 10.0 * reference_run.step_norms[-1]

    def test_zero_rhs_is_immediate(self):
        spec = _spec(rhs=lambda t, x, y: np.zeros_like(x), x0=3.0, M2=1e-6, M3=0.5)
        run = solve(spec, SolverConfig(n=32))
        assert run.converged
        assert run.iterations <= 2
        assert np.all(run.x.values == 3.0)
        assert np.all(run.z.values == 0.0)

    def test_linear_problem_against_marching_oracle(self):
        spec = _spec(
            rhs=lambda t, x, y: 0.5 * x, M1=0.0, M2=0.5, M3=1e-6, T=0.5, x0=1.0
        )
        run = solve(spec, SolverConfig(n=1024, tol=1e-12))
        oracle = abm_solve(0.5, 0.5, 1.0, lambda t, x: 0.5 * x, 8192)
        gap = float(np.abs(run.x.values[:, 0] - oracle[::8]).max())
        assert gap <= 1e-2

    def test_implicit_reference_against_marching_oracle(self, reference_run):
        # For the reference problem z >= 0, so the implicit relation
        # z = f(t, x, z) resolves in closed form to the explicit
        # F(t, x) = sqrt(pi)/2 - sqrt(t) + x, which a marching scheme
        # can integrate without any fixed-point machinery.
        oracle = abm_solve(
            0.5, 0.5, 1.0, lambda t, x: SQRT_PI / 2.0 - math.sqrt(t) + x, 8192
        )
        gap = float(np.abs(reference_run.x.values[:, 0] - oracle[::8]).max())
        assert gap <= 1e-2

    def test_grid_refinement_does_not_worsen(self, reference):
        errs = {}
        exact = reference.exact_solution
        for n in (256, 512, 1024):
            run = solve(reference.spec, SolverConfig(n=n, tol=1e-10, theta_override=2.0))
            sampled = GridFunction.sample(run.x.grid, exact)
            errs[n] = float(np.abs(run.x.values - sampled.values).max())
        assert errs[1024] <= errs[512]
        assert errs[1024] <= errs[256]

    def test_forced_growing_solution_converges(self):
        # D^{1/2} x = 4x, x(0) = 1 on [0, 1] grows to E_{1/2}(4), about 1.8e7,
        # while the norm weights of the early nodes stay near 1: the weighted
        # step only falls to tol if no node picks up rounding from later,
        # larger values.
        spec = ProblemSpec(
            alpha=0.5, T=1.0, x0=np.array([1.0]), rhs=lambda t, x, y: 4.0 * x,
            M1=0.0, M2=4.0, M3=1e-6,
        )
        report = solve(spec, SolverConfig(n=1024, force=True, theta_override=4.4))
        assert report.converged
        assert report.x.values[-1, 0] == pytest.approx(mittag_leffler(0.5, 4.0), rel=1e-3)

    def test_fine_grid_is_feasible(self):
        # D^{1/2} x = x/2, x(0) = 1 has x(t) = E_{1/2}(sqrt(t)/2).  At
        # n = 65536 the weights stay O(n) and the error keeps falling as h.
        lam = 0.5
        spec = ProblemSpec(
            alpha=0.5, T=0.5, x0=np.array([1.0]), rhs=lambda t, x, y: lam * x,
            M1=0.0, M2=lam, M3=1e-6,
        )

        def error(n):
            report = solve(spec, SolverConfig(n=n))
            assert report.converged and report.certified
            exact = [erfc_identity(lam * math.sqrt(t)) for t in report.x.grid.nodes()]
            return float(np.max(np.abs(report.x.values[:, 0] - exact)))

        n = 65536
        weights = build_weights(0.5, UniformGrid(0.5, n))
        held = sum(v.nbytes for v in vars(weights).values() if isinstance(v, np.ndarray))
        assert held <= 3 * (n + 1) * 8
        frac_integral(weights, GridFunction.constant(weights.grid, 1.0))
        plan = weights.plan()
        # One fixed near-field block and about n complex values, no dense matrix.
        assert plan.near.shape == (_NEAR, _NEAR)
        assert sum(s.nbytes for s in plan.spectra) <= 2 * (n + 1) * 8
        assert error(n) <= 2.0 * error(8192) * 8192 / n

    def test_initial_guess_independence(self, reference):
        cfg = lambda guess: SolverConfig(
            n=256, tol=1e-10, theta_override=2.0, initial_guess=guess
        )
        grid = UniformGrid(0.5, 256)
        run0 = solve(reference.spec, cfg(GridFunction.constant(grid, 0.0)))
        run5 = solve(reference.spec, cfg(GridFunction.constant(grid, 5.0)))
        gap = bielecki_norm(run0.x - run5.x, 0.5, 2.0)
        assert gap <= 10.0 * 1e-10

    def test_initial_guess_grid_mismatch(self, reference):
        guess = GridFunction.constant(UniformGrid(0.5, 128), 0.0)
        with pytest.raises(DomainError):
            solve(reference.spec, SolverConfig(n=256, initial_guess=guess))

    def test_ball_and_lipschitz_membership(self, reference_run):
        report = reference_run.contraction
        assert chebyshev_norm(reference_run.z) <= report.R + 1e-6
        dz = np.linalg.norm(np.diff(reference_run.z.values, axis=0), axis=1)
        h = reference_run.z.grid.h
        assert float((dz[1:] / h).max()) <= report.L + 0.1

    def test_uncertified_without_force_raises(self):
        spec = _spec(T=4.0, M2=1.0, M3=0.5)
        with pytest.raises(ContractionError):
            solve(spec, SolverConfig(n=64))

    def test_force_runs_uncertified(self):
        # Same failing global certificate; the weighted factor is still a
        # contraction, so the iteration converges but stays uncertified.
        spec = _spec(
            T=4.0, M2=1.0, M3=0.5, rhs=lambda t, x, y: 0.2 * np.sin(x) + 0.1 * y
        )
        run = solve(spec, SolverConfig(n=128, force=True))
        assert run.converged
        assert not run.certified
        assert not run.contraction.contraction_ok

    def test_theta_override_must_contract(self, reference):
        with pytest.raises(DomainError):
            solve(reference.spec, SolverConfig(n=64, theta_override=0.9))

    def test_max_iter_exhaustion_reported(self, reference):
        run = solve(reference.spec, SolverConfig(n=64, tol=1e-14, max_iter=3))
        assert not run.converged
        assert not run.certified
        assert run.iterations == 3


class TestResiduals:
    def test_exact_pair_scores_small(self, reference):
        grid = UniformGrid(0.5, 1024)
        x = GridFunction.sample(grid, reference.exact_solution)
        z = GridFunction.sample(grid, reference.exact_derivative)
        res = residual_caputo(reference.spec, x, z)
        alg = np.linalg.norm(res.algebraic.values, axis=1)
        cap = np.linalg.norm(res.caputo.values, axis=1)
        assert float(alg[1:].max()) <= 1e-12
        assert float(cap[128:].max()) <= 1e-2

    def test_converged_pair_scores_small(self, reference, reference_run):
        res = residual_caputo(reference.spec, reference_run.x, reference_run.z)
        alg = np.linalg.norm(res.algebraic.values, axis=1)
        cap = np.linalg.norm(res.caputo.values, axis=1)
        assert float(alg[1:].max()) <= 1e-8
        assert float(cap[128:].max()) <= 1e-2

    def test_constant_solution_zero_rhs(self):
        spec = _spec(rhs=lambda t, x, y: np.zeros_like(x), x0=4.0, M2=1e-6)
        grid = UniformGrid(0.5, 64)
        x = GridFunction.constant(grid, 4.0)
        z = GridFunction.constant(grid, 0.0)
        res = residual_caputo(spec, x, z)
        assert float(np.abs(res.algebraic.values).max()) <= 1e-10
        assert float(np.abs(res.caputo.values).max()) <= 1e-10

    def test_wrong_candidate_is_flagged(self, reference, reference_run):
        res_good = residual_caputo(reference.spec, reference_run.x, reference_run.z)
        good = float(
            np.linalg.norm(res_good.caputo.values, axis=1)[128:].max()
        )
        bumped = reference_run.x.values.copy()
        bumped[512] += 1e-3
        res_bad = residual_caputo(
            reference.spec, GridFunction(reference_run.x.grid, bumped), reference_run.z
        )
        bad = float(np.linalg.norm(res_bad.caputo.values, axis=1)[128:].max())
        assert bad > 10.0 * good
