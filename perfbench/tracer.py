"""Span tracing from outside the library, and the per-layer table built from it.

``Tracer.install`` replaces public qguard callables with recording wrappers
at the attribute each caller looks up: module functions such as
``qguard.backends.run_shots`` (what ``SimulatorAdapter.run`` calls) and
methods such as ``PackedCHSHTest.evaluate``.  Each call becomes a span
(name, start, end, parent, decision id, attributes) kept in memory;
``uninstall`` puts the originals back.  Spans nest by call order, one
thread only, so a span's self time is its duration minus its children's.
"""

from __future__ import annotations

import functools
import json
import statistics
from collections import defaultdict
from datetime import datetime, timezone
from pathlib import Path
from time import perf_counter_ns

import qguard.backends as backends
import qguard.circuits as circuits
import qguard.cli as cli
import qguard.constraints as constraints
import qguard.executor as executor
from workloads import DECISION_SPAN as DECISION

EVALUATE = "constraints.evaluate"
BACKEND_RUN = "backends.run"


def _shots_at(position: int):
    """Attribute extractor: the ``shots`` argument, passed by keyword or at ``position``."""
    return lambda args, kwargs: {"shots": kwargs["shots"] if "shots" in kwargs else args[position]}


# (owner, attribute, span name, attributes taken from the call's arguments)
_TARGETS = [
    (backends, "run_shots", "simulator.run_shots", _shots_at(1)),
    (backends.SimulatorAdapter, "run", BACKEND_RUN, _shots_at(2)),
    (backends.ReplayAdapter, "run", BACKEND_RUN, _shots_at(2)),
    (backends, "parse_recording", "backends.parse_recording", None),
    (backends.SimulatorAdapter, "calibration", "calibration.snapshot", None),
    (backends.ReplayAdapter, "calibration", "calibration.snapshot", None),
    (backends, "calibration_from_dict", "calibration.parse", None),
    (constraints, "packed_chsh_circuit", "circuits.build", None),
    (circuits, "phi_plus", "circuits.build", None),
    (cli, "circuit_from_dict", "circuits.build", None),
    (circuits.BitstringCounts, "__init__", "circuits.counts", None),
    (constraints, "compute_pair_correlator", "chsh.score", None),
    (constraints, "chsh_score", "chsh.score", None),
    (constraints, "correlator_standard_error", "chsh.score", None),
    (constraints, "score_standard_error", "chsh.score", None),
    (constraints.IntrospectionResult, "to_dict", "constraints.to_dict", None),
    (cli, "validate_workflow", "cli.validate", None),
    (cli, "run_workflow", "cli.run", None),
] + [
    (cls, "evaluate", EVALUATE, lambda args, kwargs, kind=cls.__name__: {"kind": kind})
    for cls in (
        constraints.PackedCHSHTest,
        constraints.CalibrationConstraint,
        constraints.AndConstraint,
        constraints.FreshWithin,
    )
]


class Tracer:
    """In-memory span recorder for one thread, plus the wrappers that feed it."""

    def __init__(self):
        # Each span: [id, parent id, name, start ns, end ns, decision, attrs]
        self.spans: list[list] = []
        self.decision = -1
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    # -- recording ----------------------------------------------------------

    def begin(self, name: str, attrs: dict | None = None) -> list:
        span = [
            len(self.spans),
            self._stack[-1] if self._stack else None,
            name,
            perf_counter_ns(),
            None,
            self.decision,
            attrs or {},
        ]
        self.spans.append(span)
        self._stack.append(span[0])
        return span

    def end(self, span: list):
        span[4] = perf_counter_ns()
        self._stack.pop()

    def _wrap(self, fn, name, attrs_of):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.begin(name, attrs_of(args, kwargs) if attrs_of else None)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(span)

        return traced

    def _wrap_executor(self, fn):
        """run_conditionally, with each callback traced and the evidence's
        age taken at callback entry."""

        def callback(cb):
            def traced_callback(backend, introspection):
                age = datetime.now(timezone.utc) - min(_leaf_times(introspection))
                span = self.begin("executor.callback", {"evidence_age_us": age.total_seconds() * 1e6})
                try:
                    return cb(backend, introspection)
                finally:
                    self.end(span)

            return traced_callback

        @functools.wraps(fn)
        def traced(adapter, constraint, on_pass, on_fail, *args, **kwargs):
            span = self.begin("executor.run_conditionally")
            try:
                return fn(adapter, constraint, callback(on_pass), callback(on_fail), *args, **kwargs)
            finally:
                self.end(span)

        return traced

    def install(self):
        for owner, attr, name, attrs_of in _TARGETS:
            original = owner.__dict__[attr]
            self._restore.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, attrs_of))
        # cli imported run_conditionally by name; both lookups get the wrapper.
        original = executor.run_conditionally
        wrapped = self._wrap_executor(original)
        for owner in (executor, cli):
            self._restore.append((owner, "run_conditionally", original))
            owner.run_conditionally = wrapped

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def write(self, path: Path):
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("id", "parent", "name", "start_ns", "end_ns", "decision", "attrs")
        with path.open("w") as out:
            for span in self.spans:
                out.write(json.dumps(dict(zip(keys, span))) + "\n")


def _leaf_times(node):
    """``evaluated_at`` of every leaf of an introspection tree."""
    if not node.children:
        yield node.evaluated_at
    for child in node.children:
        yield from _leaf_times(child)


# -- the per-layer table --------------------------------------------------------

# (metric, unit) in the order BENCHMARK.json lists them.
LAYER_METRICS = (
    ("simulator.run_shots_ms", "ms"),
    ("simulator.shots_per_s", "1/s"),
    ("backends.run_self_ms", "ms"),
    ("backends.recording_parse_ms", "ms"),
    ("backends.recording_parse_calls", "count"),
    ("circuits.build_ms", "ms"),
    ("circuits.counts_ms", "ms"),
    ("circuits.counts_calls", "count"),
    ("calibration.snapshot_ms", "ms"),
    ("calibration.parse_ms", "ms"),
    ("chsh.score_ms", "ms"),
    ("constraints.evaluate_self_ms", "ms"),
    ("constraints.nodes_per_decision", "count"),
    ("constraints.shots_per_decision", "count"),
    ("constraints.cache_hit_ratio", "frac"),
    ("constraints.to_dict_ms", "ms"),
    ("executor.self_ms", "ms"),
    ("executor.callback_ms", "ms"),
    ("executor.evidence_age_us", "us"),
    ("cli.validate_ms", "ms"),
    ("cli.run_self_ms", "ms"),
    ("cli.report_bytes", "bytes"),
    ("trace.overhead_frac", "frac"),
)


def layer_metrics(
    spans: list[list], untraced_rate: float, traced_rate: float, report_bytes: float
) -> dict:
    """Per-layer metrics from the spans of a traced run, plus ``decision_ms``.

    Times are per-decision totals, reported as the median over decisions;
    a nested span of the same name as an enclosing one is not counted twice.
    Counts are means per decision.
    """
    by_id = {span[0]: span for span in spans}
    duration = {span[0]: (span[4] - span[3]) / 1e6 for span in spans}
    child_time = defaultdict(float)
    for span in spans:
        if span[1] is not None:
            child_time[span[1]] += duration[span[0]]

    def has_ancestor(span, name):
        parent = span[1]
        while parent is not None:
            if by_id[parent][2] == name:
                return True
            parent = by_id[parent][1]
        return False

    decisions = sorted({span[5] for span in spans if span[2] == DECISION})
    inclusive = defaultdict(lambda: defaultdict(float))
    self_time = defaultdict(lambda: defaultdict(float))
    calls = defaultdict(int)
    for span in spans:
        name, decision = span[2], span[5]
        calls[name] += 1
        self_time[name][decision] += duration[span[0]] - child_time[span[0]]
        if not has_ancestor(span, name):
            inclusive[name][decision] += duration[span[0]]

    def median_of(table, name):
        return statistics.median(table[name].get(d, 0.0) for d in decisions)

    def per_decision(count):
        return count / len(decisions)

    simulated = [span for span in spans if span[2] == "simulator.run_shots"]
    seconds_simulated = sum(duration[span[0]] for span in simulated) / 1e3
    constraint_shots = sum(
        span[6]["shots"] for span in spans if span[2] == BACKEND_RUN and has_ancestor(span, EVALUATE)
    )
    # A FreshWithin evaluation that did not evaluate its child was a cache hit.
    evaluating = {span[1] for span in spans if span[2] == EVALUATE}
    fresh = [span[0] for span in spans if span[2] == EVALUATE and span[6]["kind"] == "FreshWithin"]
    hits = sum(1 for span_id in fresh if span_id not in evaluating)
    ages = [span[6]["evidence_age_us"] for span in spans if span[2] == "executor.callback"]

    values = {
        "simulator.run_shots_ms": median_of(inclusive, "simulator.run_shots"),
        "simulator.shots_per_s": (
            sum(span[6]["shots"] for span in simulated) / seconds_simulated if simulated else 0.0
        ),
        "backends.run_self_ms": median_of(self_time, BACKEND_RUN),
        "backends.recording_parse_ms": median_of(inclusive, "backends.parse_recording"),
        "backends.recording_parse_calls": per_decision(calls["backends.parse_recording"]),
        "circuits.build_ms": median_of(inclusive, "circuits.build"),
        "circuits.counts_ms": median_of(inclusive, "circuits.counts"),
        "circuits.counts_calls": per_decision(calls["circuits.counts"]),
        "calibration.snapshot_ms": median_of(inclusive, "calibration.snapshot"),
        "calibration.parse_ms": median_of(inclusive, "calibration.parse"),
        "chsh.score_ms": median_of(inclusive, "chsh.score"),
        "constraints.evaluate_self_ms": median_of(self_time, EVALUATE),
        "constraints.nodes_per_decision": per_decision(calls[EVALUATE]),
        "constraints.shots_per_decision": per_decision(constraint_shots),
        "constraints.cache_hit_ratio": hits / len(fresh) if fresh else 0.0,
        "constraints.to_dict_ms": median_of(inclusive, "constraints.to_dict"),
        "executor.self_ms": median_of(self_time, "executor.run_conditionally"),
        "executor.callback_ms": median_of(inclusive, "executor.callback"),
        "executor.evidence_age_us": statistics.median(ages) if ages else 0.0,
        "cli.validate_ms": median_of(inclusive, "cli.validate"),
        "cli.run_self_ms": median_of(self_time, "cli.run"),
        "cli.report_bytes": report_bytes,
        "trace.overhead_frac": 1.0 - traced_rate / untraced_rate,
    }
    values["decision_ms"] = median_of(inclusive, DECISION)
    return values
