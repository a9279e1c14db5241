"""Tests of the benchmark's own machinery.

Run from the root of a checkout: ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import math
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, os.pardir, "src"))
sys.path.insert(0, HERE)

import fracpicard  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from tracer import Aggregate, Span  # noqa: E402


def test_self_times_on_a_nested_tree_with_two_threads():
    main, pool = 1, 2
    spans = [
        Span(0, "op", 0.0, 10.0, None, main, 0, 0.0),
        Span(1, "family", 1.0, 9.0, 0, main, 0, 0.0),
        # Two pool threads work under "family" at once: [2, 6] and [4, 8]
        # overlap, so together they cover [2, 8], not 8 seconds.
        Span(2, "member", 2.0, 6.0, 1, pool, 0, 0.0),
        Span(3, "member", 4.0, 8.0, 1, pool + 1, 0, 0.0),
        Span(4, "integral", 3.0, 4.0, 2, pool, 0, 0.0),
        # A child that outlives its parent counts only inside the parent.
        Span(5, "integral", 7.5, 8.5, 3, pool + 1, 0, 0.0),
    ]
    aggregates = [
        Aggregate(2, "rhs", pool, 100, 1.5),  # same thread as member 2: subtracted
        Aggregate(1, "rhs", pool, 10, 0.25),  # other thread than "family": not subtracted
    ]
    own = tracer.self_times(spans, aggregates)
    assert own[0] == pytest.approx(10.0 - 8.0)
    assert own[1] == pytest.approx(8.0 - 6.0)
    assert own[2] == pytest.approx(4.0 - 1.0 - 1.5)
    assert own[3] == pytest.approx(4.0 - 0.5)
    assert own[4] == pytest.approx(1.0)
    assert own[5] == pytest.approx(1.0)


def test_union_length_merges_overlaps_and_ignores_empty_intervals():
    assert tracer.union_length([(0, 2), (1, 3), (5, 6), (4, 4)]) == pytest.approx(4.0)
    assert tracer.union_length([]) == 0.0


@pytest.mark.parametrize("z", [0.0, 0.1, 0.5, 0.7071, 1.0, 1.5])
def test_half_order_closed_form_matches_the_series(z):
    assert oracles.half_order_ml(z) == pytest.approx(oracles.half_order_ml_series(z), rel=1e-13)


def test_closed_form_solutions_use_the_half_order_function():
    t = np.array([0.0, 0.125, 0.5])
    ref = oracles.reference_exact(t, c=0.25)
    lin = oracles.linear_exact(t, lam=0.5, x0=2.0)
    for s, r, x in zip(t, ref, lin):
        assert r == pytest.approx(math.sqrt(s) + oracles.half_order_ml_series(math.sqrt(s)) - 0.25, rel=1e-13)
        assert x == pytest.approx(2.0 * oracles.half_order_ml_series(0.5 * math.sqrt(s)), rel=1e-13)


def test_family_reference_solves_the_anchored_equation():
    anchors = [0.25, 1.0]
    x = oracles.family_reference(anchors, T=0.5, n=64)
    assert x[0].tolist() == anchors
    # Doubling the grid moves the states by much less than they change.
    fine = oracles.family_reference(anchors, T=0.5, n=128)[::2]
    assert np.max(np.abs(fine - x)) < 1e-3 * np.max(np.abs(x - x[0]))


def _package_attributes():
    return {
        (name, attr): id(value)
        for name, module in list(sys.modules.items())
        if name == "fracpicard" or name.startswith("fracpicard.")
        for attr, value in vars(module).items()
    }


def test_wrappers_are_removed_after_a_traced_run():
    import fracpicard.cli  # noqa: F401  (installing imports every traced module)

    before = _package_attributes()
    init = fracpicard.ProblemSpec.__dict__["__init__"]
    tr = tracer.Tracer()
    with tracer.installed(tr):
        from fracpicard import dependence, solver

        # One wrapper replaces the function at every module that imported it.
        assert id(solver.frac_integral) != before[("fracpicard.fracops", "frac_integral")]
        assert dependence.frac_integral is solver.frac_integral
        with tr.operation(0):
            spec = fracpicard.ProblemSpec(alpha=0.5, T=0.5, x0=1.0, rhs=lambda t, x, y: 0.5 * x, M1=0, M2=0.5, M3=0.1)
            fracpicard.solve(spec, fracpicard.SolverConfig(n=32))
    assert _package_attributes() == before
    assert fracpicard.ProblemSpec.__dict__["__init__"] is init
    after = fracpicard.ProblemSpec(alpha=0.5, T=0.5, x0=1.0, rhs=spec.rhs.__wrapped__, M1=0, M2=0.5, M3=0.1)
    assert not hasattr(after.rhs, "__wrapped__")
    assert tr.spans  # the run inside the block was traced


def test_counts_match_the_solver_report():
    tr = tracer.Tracer()
    with tracer.installed(tr), tr.operation(0):
        spec = fracpicard.ProblemSpec(alpha=0.5, T=0.5, x0=1.0, rhs=lambda t, x, y: 0.5 * x, M1=0, M2=0.5, M3=0.1)
        report = fracpicard.solve(spec, fracpicard.SolverConfig(n=32))
    metrics, self_sum = tracer.layer_metrics(tr.record())
    op = next(s for s in tr.spans if s.name == "op")
    assert metrics["solver.sweeps"] == report.iterations
    assert metrics["fracops.integral_calls"] == report.iterations + 1
    # check_contraction samples 33 nodes, the first guess one, each sweep 33.
    assert metrics["solver.rhs_calls"] == 33 + 1 + 33 * report.iterations
    assert metrics["specfun.ml_calls"] == 33
    assert metrics["fracops.weights_bytes"] == 33 * 33 * 8
    assert self_sum == pytest.approx(op.end - op.start, rel=1e-9)


def test_family_member_spans_run_on_pool_threads_under_solve_family():
    tr = tracer.Tracer()
    rhs = fracpicard.as_rhs([fracpicard.parse("0.75*x + 0.25*y + t*sin(x)/8")])
    with tracer.installed(tr), tr.operation(0):
        # Built inside the block, so that its rhs is counted.
        spec = fracpicard.ProblemSpec(alpha=0.5, T=0.5, x0=1.0, rhs=rhs, M1=0.125, M2=0.875, M3=0.25)
        fracpicard.solve_family(spec, [0.5, 1.0], fracpicard.SolverConfig(n=16))
    family = next(s for s in tr.spans if s.name == "dependence.solve_family")
    members = [s for s in tr.spans if s.name == "dependence.solve_member"]
    assert len(members) == 2 and all(m.parent == family.id for m in members)
    metrics, _ = tracer.layer_metrics(tr.record())
    assert metrics["solver.sweeps"] == metrics["fracops.integral_calls"] - 2
    assert metrics["rhsdsl.eval_s"] > 0.0


def test_benchmark_file_names_every_workload_and_metric():
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
