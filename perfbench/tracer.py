"""Outside-in tracing of fracpicard: timing wrappers around its public functions.

The tracer never edits the package.  While :func:`installed` is active it
replaces every fracpicard module attribute that refers to a traced
function with a timing wrapper, so a function imported into several
modules (``solver.frac_integral`` and ``dependence.frac_integral``) is
caught at every call site, and it wraps the ``rhs`` callback of every
``ProblemSpec`` built meanwhile.  Leaving the block restores every
attribute.

Functions listed in ``SPANS`` record one span per call: name, start, end,
parent span, thread and operation id, plus process CPU time.  Per-node
callbacks (the rhs and ``mittag_leffler``) would swamp a span list, so
they are aggregated per parent span as a call count plus a time.  Spans
live in memory until the run ends; :meth:`Tracer.record` then hands them
out as plain data and :func:`layer_metrics` turns that into per-layer
figures.
"""

from __future__ import annotations

import dataclasses
import importlib
import itertools
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Iterable, NamedTuple

import numpy as np

# (module, attribute) -> span name.  ``_solve_member`` is private, but it
# is what runs on the family thread pool: without a span of its own, work
# on the pool threads would have no parent in the thread it ran on.
SPANS = {
    ("fracpicard.cli", "main"): "cli.main",
    ("fracpicard.config", "load_config"): "config.load_config",
    ("fracpicard.solver", "solve"): "solver.solve",
    ("fracpicard.solver", "check_contraction"): "solver.check_contraction",
    ("fracpicard.solver", "picard_step"): "solver.picard_step",
    ("fracpicard.solver", "reconstruct_x"): "solver.reconstruct_x",
    ("fracpicard.solver", "residual_caputo"): "solver.residual_caputo",
    ("fracpicard.fracops", "build_weights"): "fracops.build_weights",
    ("fracpicard.fracops", "frac_integral"): "fracops.frac_integral",
    ("fracpicard.fracops", "caputo_l1"): "fracops.caputo_l1",
    ("fracpicard.dependence", "solve_family"): "dependence.solve_family",
    ("fracpicard.dependence", "_solve_member"): "dependence.solve_member",
    ("fracpicard.dependence", "measured_distance"): "dependence.measured_distance",
    ("fracpicard.dependence", "hausdorff_distance"): "dependence.hausdorff_distance",
    ("fracpicard.dependence", "check_anchor_condition"): "dependence.check_anchor_condition",
    ("fracpicard.dependence", "estimate_eta_sup"): "dependence.estimate_eta_sup",
    ("fracpicard.dependence", "estimate_ml_gap"): "dependence.estimate_ml_gap",
    ("fracpicard.dependence", "family_hausdorff_bound"): "dependence.family_hausdorff_bound",
}
ML = ("fracpicard.specfun", "mittag_leffler")
ML_NAME = "specfun.mittag_leffler"
RHS_FORMULA = "rhsdsl.eval"  # rhs built by the formula language
RHS_USER = "rhs.user"  # rhs supplied as a plain Python callable
WEIGHTS_SPAN = "fracops.build_weights"


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    op: int
    cpu: float  # process CPU seconds (all threads) during the span


class Aggregate(NamedTuple):
    parent: int | None
    name: str
    thread: int
    count: int
    seconds: float


class _ThreadState(threading.local):
    def __init__(self):
        self.stack: list[int] = []
        self.aggs: dict[tuple[int | None, str], list] = {}
        self.ml_args: set = set()
        self.registered = False


class Tracer:
    """Collects spans and callback aggregates for one or more operations."""

    def __init__(self):
        self.spans: list[Span] = []
        self.weights_bytes = 0
        self._ids = itertools.count()
        self._local = _ThreadState()
        self._threads: list[tuple[int, dict]] = []
        self._lock = threading.Lock()
        self._op = 0
        self._op_stack: list[int] = []

    def _state(self) -> _ThreadState:
        st = self._local
        if not st.registered:
            with self._lock:
                # The thread's own attribute dict: it outlives the thread,
                # so the aggregates of finished pool threads stay readable.
                self._threads.append((threading.get_ident(), st.__dict__))
            st.registered = True
        return st

    def _parent(self, st: _ThreadState) -> int | None:
        if st.stack:
            return st.stack[-1]
        # A pool thread starts with an empty stack: its work belongs to
        # whatever the operation's own thread is running at that moment.
        op_stack = self._op_stack
        return op_stack[-1] if op_stack else None

    @contextmanager
    def span(self, name: str):
        st = self._state()
        parent = self._parent(st)
        sid = next(self._ids)
        st.stack.append(sid)
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            cpu1 = time.process_time()
            st.stack.pop()
            self.spans.append(
                Span(sid, name, t0, t1, parent, threading.get_ident(), self._op, cpu1 - cpu0)
            )

    @contextmanager
    def operation(self, op_id: int):
        """Mark one operation; its thread's open span parents pool-thread work."""
        st = self._state()
        self._op = op_id
        self._op_stack = st.stack
        with self.span("op"):
            yield

    def _add(self, name: str, seconds: float, ml_key=None) -> None:
        st = self._state()
        key = (self._parent(st), name)
        rec = st.aggs.get(key)
        if rec is None:
            st.aggs[key] = [1, seconds]
        else:
            rec[0] += 1
            rec[1] += seconds
        if ml_key is not None:
            st.ml_args.add(ml_key)

    def span_wrapper(self, name: str, fn: Callable) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            with tracer.span(name):
                result = fn(*args, **kwargs)
            if name == WEIGHTS_SPAN:
                tracer.weights_bytes = max(tracer.weights_bytes, array_bytes(result))
            return result

        traced.__wrapped__ = fn
        return traced

    def callback_wrapper(self, name: str, fn: Callable, record_args: bool = False) -> Callable:
        add = self._add
        clock = time.perf_counter

        def counted(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                key = (args + tuple(kwargs.values()))[:2] if record_args else None
                add(name, clock() - t0, key)

        counted.__wrapped__ = fn
        counted.perfbench_origin = name
        return counted

    def rhs_wrapper(self, fn: Callable) -> Callable:
        if getattr(fn, "perfbench_origin", None) is not None:
            return fn  # dataclasses.replace passes an already wrapped rhs back in
        module = getattr(fn, "__module__", None) or ""
        name = RHS_FORMULA if module.startswith("fracpicard.rhsdsl") else RHS_USER
        return self.callback_wrapper(name, fn)

    def aggregates(self) -> list[Aggregate]:
        out = []
        for thread, state in self._threads:
            for (parent, name), (count, seconds) in state.get("aggs", {}).items():
                out.append(Aggregate(parent, name, thread, count, seconds))
        return out

    def ml_distinct(self) -> int:
        keys = set()
        for _, state in self._threads:
            keys |= state.get("ml_args", set())
        return len(keys)

    def record(self) -> dict:
        """Everything traced, as plain JSON-ready data for :func:`layer_metrics`."""
        return {
            "spans": [list(s) for s in self.spans],
            "aggregates": [list(a) for a in self.aggregates()],
            "ml_distinct": self.ml_distinct(),
            "weights_bytes": self.weights_bytes,
        }


def array_bytes(obj) -> int:
    """Bytes held by the numpy arrays that are direct fields of ``obj`` (computed)."""
    if dataclasses.is_dataclass(obj):
        values = [getattr(obj, f.name) for f in dataclasses.fields(obj)]
    else:
        values = list(getattr(obj, "__dict__", {}).values())
    return sum(v.nbytes for v in values if isinstance(v, np.ndarray))


def _package_modules():
    return [m for name, m in list(sys.modules.items()) if name == "fracpicard" or name.startswith("fracpicard.")]


def _patch_everywhere(original, wrapper, patches: list) -> None:
    for module in _package_modules():
        for attr, value in list(vars(module).items()):
            if value is original:
                patches.append((module, attr, value))
                setattr(module, attr, wrapper)


@contextmanager
def installed(tracer: Tracer):
    """Install the wrappers for the duration of the block, then remove them all."""
    for module_name, _ in list(SPANS) + [ML]:
        importlib.import_module(module_name)
    patches: list = []
    try:
        for (module_name, attr), name in SPANS.items():
            original = getattr(sys.modules[module_name], attr, None)
            if original is not None:
                _patch_everywhere(original, tracer.span_wrapper(name, original), patches)
        original = getattr(sys.modules[ML[0]], ML[1])
        _patch_everywhere(original, tracer.callback_wrapper(ML_NAME, original, record_args=True), patches)

        spec_cls = sys.modules["fracpicard.solver"].ProblemSpec
        init = spec_cls.__init__

        def traced_init(self, *args, **kwargs):
            if "rhs" in kwargs:
                kwargs["rhs"] = tracer.rhs_wrapper(kwargs["rhs"])
            elif len(args) > 3:
                args = args[:3] + (tracer.rhs_wrapper(args[3]),) + args[4:]
            init(self, *args, **kwargs)

        patches.append((spec_cls, "__init__", init))
        spec_cls.__init__ = traced_init
        yield tracer
    finally:
        for owner, attr, value in reversed(patches):
            setattr(owner, attr, value)


def union_length(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length covered by a set of possibly overlapping intervals."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(i for i in intervals if i[1] > i[0]):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def self_times(spans: list[Span], aggregates: list[Aggregate]) -> dict[int, float]:
    """Each span's duration minus the part of it its children cover.

    Child spans may come from several threads and overlap; the covered
    part is the union of their intervals, clipped to the parent.
    Aggregated callbacks have no interval: their time is subtracted from
    the parent span recorded in the same thread, where the calls ran
    between its child spans.
    """
    by_id = {s.id: s for s in spans}
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    callback_time: dict[int, float] = defaultdict(float)
    for a in aggregates:
        parent = by_id.get(a.parent)
        if parent is not None and parent.thread == a.thread:
            callback_time[a.parent] += a.seconds
    out = {}
    for s in spans:
        covered = union_length((max(c.start, s.start), min(c.end, s.end)) for c in children[s.id])
        out[s.id] = (s.end - s.start) - covered - callback_time[s.id]
    return out


def _outermost_total(spans: list[Span], names: set[str]) -> float:
    """Summed duration of spans in ``names`` that have no ancestor in ``names``."""
    by_id = {s.id: s for s in spans}

    def nested(s: Span) -> bool:
        p = by_id.get(s.parent)
        while p is not None:
            if p.name in names:
                return True
            p = by_id.get(p.parent)
        return False

    return sum((s.end - s.start for s in spans if s.name in names and not nested(s)), 0.0)


def layer_metrics(record: dict) -> tuple[dict[str, float], float]:
    """Per-layer metrics of a :meth:`Tracer.record`, plus the sum of all self times.

    The self-time sum covers every span and every callback aggregate, so
    on a single-threaded operation it should equal the operation's wall
    time; work on pool threads overlaps and makes it larger, and times
    taken there include waits for the interpreter lock.
    """
    spans = [Span(*s) for s in record["spans"]]
    aggs = [Aggregate(*a) for a in record["aggregates"]]
    own = self_times(spans, aggs)

    def count(*names):
        return sum(1 for s in spans if s.name in names)

    def self_of(*names):
        return sum((own[s.id] for s in spans if s.name in names), 0.0)

    def total(*names):
        return _outermost_total(spans, set(names))

    def agg(name):
        picked = [a for a in aggs if a.name == name]
        return sum(a.count for a in picked), sum((a.seconds for a in picked), 0.0)

    integrals_per_member: dict[int, int] = defaultdict(int)
    members = {s.id for s in spans if s.name == "dependence.solve_member"}
    for s in spans:
        if s.name == "fracops.frac_integral" and s.parent in members:
            integrals_per_member[s.parent] += 1
    # A member runs one integral per sweep plus one to rebuild x at the end.
    member_sweeps = sum(max(0, integrals_per_member[m] - 1) for m in members)

    family = [s for s in spans if s.name == "dependence.solve_family"]
    family_wall = sum(s.end - s.start for s in family)
    rhs_formula = agg(RHS_FORMULA)
    rhs_user = agg(RHS_USER)
    ml_calls, ml_s = agg(ML_NAME)

    metrics = {
        "cli.self_s": self_of("cli.main"),
        "config.load_s": total("config.load_config"),
        "solver.rhs_calls": rhs_formula[0] + rhs_user[0],
        "rhsdsl.eval_s": rhs_formula[1],
        "solver.sweeps": count("solver.picard_step") + member_sweeps,
        "solver.step_self_s": self_of("solver.picard_step"),
        "solver.check_s": total("solver.check_contraction"),
        "solver.residual_s": total("solver.residual_caputo"),
        "fracops.build_weights_s": total("fracops.build_weights"),
        "fracops.weights_bytes": record["weights_bytes"],
        "fracops.integral_calls": count("fracops.frac_integral"),
        "fracops.integral_s": total("fracops.frac_integral"),
        "fracops.caputo_l1_s": total("fracops.caputo_l1"),
        "specfun.ml_calls": ml_calls,
        "specfun.ml_s": ml_s,
        "specfun.ml_distinct_frac": record["ml_distinct"] / ml_calls if ml_calls else 0.0,
        "dependence.solve_family_self_s": self_of("dependence.solve_family", "dependence.solve_member"),
        "dependence.family_cpu_per_wall": sum(s.cpu for s in family) / family_wall if family_wall else 0.0,
        "dependence.distance_calls": count("dependence.measured_distance", "dependence.hausdorff_distance"),
        "dependence.distance_s": total("dependence.measured_distance", "dependence.hausdorff_distance"),
        "dependence.estimate_s": total(
            "dependence.check_anchor_condition",
            "dependence.estimate_eta_sup",
            "dependence.estimate_ml_gap",
        ),
    }
    self_sum = sum(own.values()) + sum(a.seconds for a in aggs)
    return metrics, self_sum
