"""Resource constraints: runtime checks a backend must pass before the main
computation is dispatched.

A constraint evaluates against a ``BackendAdapter`` and produces an
``IntrospectionResult`` with a pass/fail flag and named scores.  The probe
here is ``PackedCHSHTest``, which runs one packed Bell-test circuit and
scores entanglement quality; ``CalibrationConstraint`` checks published
device properties without spending any shots.  Constraints compose with
AND/OR/NOT and can be wrapped with a TTL cache (``FreshWithin``).

A tree holds no clock: ``evaluate`` is given the decision's clock, which
stamps every node, ages FreshWithin's cache and judges a calibration's age.
Everything is immutable except FreshWithin's cache.  New constraint kinds
plug in by subclassing :class:`ResourceConstraint` and implementing its
``_evaluate``; ``name()`` defaults to the class name.
"""

from __future__ import annotations

import math
import operator
import threading
from dataclasses import dataclass, field
from datetime import datetime, timedelta
from typing import Any, Callable, Hashable, Iterable, Mapping, NamedTuple

from .backends import BackendAdapter, ExperimentResult
from .calibration import CalibrationSnapshot
from .chsh import (
    chsh_score,
    compute_pair_correlator,
    correlator_standard_error,
    score_standard_error,
)
from .circuits import packed_chsh_circuit
from .errors import (
    BackendError, ConstraintError, DocumentError, as_float, check_aware, check_integer, check_real,
    check_shots, check_tuple, check_type,
)
from .fields import choice, each, integer, items, join, located, number, record, required, string
from .timestamps import format_timestamp, utc_now


@dataclass(frozen=True)
class _Threshold:
    """A pure threshold decision over one scalar score."""

    threshold: float

    def __post_init__(self):
        check_real(self.threshold, "threshold", ConstraintError)
        # NaN compares false with every score; an infinite threshold still
        # decides every score one way, as written.
        if math.isnan(as_float(self.threshold)):
            raise ConstraintError(f"threshold must not be NaN, got {self.threshold!r}")


@dataclass(frozen=True)
class MinimumAcceptableValue(_Threshold):
    """Passes iff the score is at least the threshold (boundary passes)."""

    def decide(self, value: float) -> bool:
        return value >= self.threshold


@dataclass(frozen=True)
class MaximumAcceptableValue(_Threshold):
    """Passes iff the score is at most the threshold (boundary passes)."""

    def decide(self, value: float) -> bool:
        return value <= self.threshold


@dataclass(frozen=True)
class IntrospectionResult:
    """The outcome of one constraint evaluation.

    ``scores`` holds the named numbers the decision was based on; composite
    constraints carry their evaluated children in order.  Subscripting reads
    a score, so ``result["CHSH_score"]`` works directly.  Every field is
    checked when the result is built, so a report can always be written.
    """

    constraint_name: str
    passed: bool
    scores: Mapping[str, float] = field(default_factory=dict)
    evaluated_at: datetime = field(default_factory=utc_now)
    evidence: ExperimentResult | None = None
    children: tuple["IntrospectionResult", ...] = ()

    def __post_init__(self):
        check_type(self.constraint_name, str, "constraint_name", ConstraintError)
        check_type(self.passed, bool, "passed", ConstraintError)
        scores = dict(check_type(self.scores, Mapping, "scores", ConstraintError))
        for name, value in scores.items():
            check_type(name, str, "score name", ConstraintError)
            check_real(value, f"scores[{name!r}]", ConstraintError)
        check_aware(self.evaluated_at, "evaluated_at", ConstraintError)
        if self.evidence is not None:
            check_type(self.evidence, ExperimentResult, "evidence", ConstraintError)
        children = check_tuple(self.children, "children", ConstraintError, IntrospectionResult)
        object.__setattr__(self, "scores", scores)
        object.__setattr__(self, "children", children)

    def __getitem__(self, key: str) -> float:
        return self.scores[key]

    def to_dict(self) -> dict[str, Any]:
        doc: dict[str, Any] = {
            "constraint_name": self.constraint_name,
            "passed": self.passed,
            "scores": dict(self.scores),
            "evaluated_at": format_timestamp(self.evaluated_at),
        }
        if self.evidence is not None:
            doc["evidence"] = self.evidence.to_dict()
        if self.children:
            doc["children"] = [child.to_dict() for child in self.children]
        return doc


class ResourceConstraint:
    """Base of runtime resource checks; an extension point.

    A subclass implements ``_evaluate``, and passes the clock it is given
    to any child it evaluates.  ``evaluate`` raises :class:`ConstraintError`
    for an adapter that is not a ``BackendAdapter`` or a clock that cannot
    be called, and builds the node's result from ``_evaluate``, named by
    ``name()`` and stamped by one read of the clock, taken after the check.
    """

    def name(self) -> str:
        return type(self).__name__

    def evaluate(
        self, adapter: BackendAdapter, shots: int, clock: Callable[[], datetime] = utc_now
    ) -> IntrospectionResult:
        check_type(adapter, BackendAdapter, "adapter", ConstraintError)
        check_type(clock, Callable, "clock", ConstraintError)
        passed, scores, evidence, children = self._evaluate(adapter, shots, clock)
        return IntrospectionResult(self.name(), bool(passed), scores, clock(), evidence, children)

    def _evaluate(self, adapter: BackendAdapter, shots: int, clock: Callable[[], datetime]) -> tuple:
        """The check itself: whether it passed, its scores, its evidence
        (None if it ran nothing) and its evaluated children, in order."""
        raise NotImplementedError


class PackedCHSHTest(ResourceConstraint):
    """Entanglement-quality probe: one packed Bell-test run, scored against
    a policy threshold.

    All four correlators come from a single circuit execution (one job, one
    queue wait, identical device conditions across the four settings).  The
    policy decides on the point estimate of S; the standard errors, from
    the shots the evidence holds, are reported but do not affect it.
    """

    def __init__(self, policy: _Threshold):
        self._policy = check_type(
            policy, (MinimumAcceptableValue, MaximumAcceptableValue), "policy", ConstraintError
        )

    evaluate = ResourceConstraint.evaluate  # own __dict__ entry, for perfbench's tracer

    def _evaluate(self, adapter: BackendAdapter, shots: int, clock: Callable[[], datetime]):
        result = check_type(
            adapter.run(packed_chsh_circuit(), check_shots(shots, ConstraintError)),
            ExperimentResult, "run() result", BackendError,
        )
        correlators = tuple(
            compute_pair_correlator(result.counts, pair) for pair in range(4)
        )
        score = chsh_score(*correlators)
        scores = {
            "CHSH_score": score,
            "E00": correlators[0],
            "E01": correlators[1],
            "E10": correlators[2],
            "E11": correlators[3],
            "se_E00": correlator_standard_error(correlators[0], result.shots),
            "se_E01": correlator_standard_error(correlators[1], result.shots),
            "se_E10": correlator_standard_error(correlators[2], result.shots),
            "se_E11": correlator_standard_error(correlators[3], result.shots),
            "se_S": score_standard_error(correlators, result.shots),
            "threshold": self._policy.threshold,
        }
        return self._policy.decide(score), scores, result, ()


class _Criterion(NamedTuple):
    score: str
    worst: Callable[[CalibrationSnapshot, datetime], float | None]
    passes: Callable[[float, float], bool]
    integral: bool = False


# One row per calibration criterion, keyed by its keyword and document key:
# the name of its score, the snapshot's worst case for it at the given time
# (None when the snapshot carries no data for it), and how that worst case
# must compare with the limit.
_CRITERIA = {
    "min_qubits": _Criterion("num_qubits", lambda s, now: float(s.num_qubits), operator.ge, True),
    "min_t1_us": _Criterion("worst_t1_us", lambda s, now: min(q.t1_us for q in s.qubits), operator.ge),
    "min_t2_us": _Criterion("worst_t2_us", lambda s, now: min(q.t2_us for q in s.qubits), operator.ge),
    "max_readout_error": _Criterion(
        "worst_readout_error", lambda s, now: max(q.readout_error for q in s.qubits), operator.le
    ),
    "max_gate_error": _Criterion(
        "worst_gate_error", lambda s, now: max((g.error for g in s.gates), default=None), operator.le
    ),
    # A negative age means the snapshot is stamped after the clock's now, so
    # its age is unknown and it is stale, as in FreshWithin.
    "max_age_s": _Criterion(
        "calibration_age_s",
        lambda s, now: (now - s.taken_at).total_seconds(),
        lambda age, limit: 0.0 <= age <= limit,
    ),
}


class CalibrationConstraint(ResourceConstraint):
    """Threshold checks against the backend's calibration snapshot.

    The criteria are keywords: ``min_qubits`` (an integer), ``min_t1_us``,
    ``min_t2_us``, ``max_readout_error``, ``max_gate_error`` and
    ``max_age_s`` (finite numbers); one left out or None is not checked.
    Aggregation is worst-case: minimum over qubits for T1/T2, maximum for
    error rates, because one bad qubit in the selected set breaks a
    computation.  ``max_age_s`` bounds the snapshot's age, ``taken_at`` to
    the decision's clock; a snapshot stamped in the future fails it.  No
    circuit is run and ``shots`` is ignored.  A criterion over data the
    snapshot does not carry (e.g. max_gate_error with an empty gate list)
    passes vacuously and reports no score for it.
    """

    def __init__(self, **criteria: float | None):
        unknown = sorted(set(criteria) - set(_CRITERIA))
        if unknown:
            raise ConstraintError(f"unknown criteria: {unknown}")
        self._criteria = {key: criteria[key] for key in _CRITERIA if criteria.get(key) is not None}
        if not self._criteria:
            raise ConstraintError("at least one criterion must be set")
        for key, value in self._criteria.items():
            if _CRITERIA[key].integral:
                check_integer(value, key, ConstraintError)
            else:
                check_real(value, key, ConstraintError, finite=True)

    evaluate = ResourceConstraint.evaluate  # own __dict__ entry, for perfbench's tracer

    def _evaluate(self, adapter: BackendAdapter, shots: int, clock: Callable[[], datetime]):
        snapshot = check_type(
            adapter.calibration(), CalibrationSnapshot, "calibration() result", BackendError
        )
        now = clock()
        scores: dict[str, float] = {}
        passed = True
        for key, limit in self._criteria.items():
            criterion = _CRITERIA[key]
            worst = criterion.worst(snapshot, now)
            if worst is not None:
                scores[criterion.score] = worst
                passed = passed and criterion.passes(worst, limit)
        return passed, scores, None, ()


class _Composite(ResourceConstraint):
    """Shared body of AND and OR: children run in order, and the first child
    whose outcome equals ``_decisive`` decides the whole.

    Evaluation stops there, because each child evaluation may spend paid
    shots; later children never run and are absent from ``children``.
    """

    _decisive: bool

    def __init__(self, children: Iterable[ResourceConstraint]):
        self._children = check_tuple(children, "children", ConstraintError, ResourceConstraint)
        if not self._children:
            raise ConstraintError(f"{self.name()} requires at least one child")

    def _evaluate(self, adapter: BackendAdapter, shots: int, clock: Callable[[], datetime]):
        evaluated: list[IntrospectionResult] = []
        passed = not self._decisive
        for child in self._children:
            outcome = child.evaluate(adapter, shots, clock)
            evaluated.append(outcome)
            if outcome.passed == self._decisive:
                passed = self._decisive
                break
        return passed, {}, None, tuple(evaluated)


class AndConstraint(_Composite):
    """Passes iff every child passes; stops at the first failure."""

    _decisive = False
    evaluate = ResourceConstraint.evaluate  # own __dict__ entry, for perfbench's tracer


class OrConstraint(_Composite):
    """Passes iff any child passes; stops at the first success."""

    _decisive = True
    evaluate = ResourceConstraint.evaluate  # own __dict__ entry, for perfbench's tracer


class NotConstraint(ResourceConstraint):
    """Inverts its child's outcome."""

    def __init__(self, child: ResourceConstraint):
        self._child = check_type(child, ResourceConstraint, "child", ConstraintError)

    def _evaluate(self, adapter: BackendAdapter, shots: int, clock: Callable[[], datetime]):
        outcome = self._child.evaluate(adapter, shots, clock)
        return not outcome.passed, {}, None, (outcome,)


class FreshWithin(ResourceConstraint):
    """TTL cache around a child constraint.

    Introspection and use of its result are separated in time; this wrapper
    bounds that gap.  The child result is reused while ``0 <= now -
    evaluated_at <= ttl``, ``now`` being read from the clock ``evaluate`` is
    given, for the same shot count on a backend with the same
    ``cache_key()``; otherwise the child is re-evaluated.  A negative age
    means the clock stepped back, so the result's age is unknown and it is
    stale.  The cached result is returned as-is, original ``evaluated_at``
    included, so callers can see exactly how stale their information is.
    Errors do not populate the cache.

    Safe under concurrent ``evaluate`` calls: the lock admits at most one
    child evaluation at a time, and concurrent callers observe the cached
    value once it lands.
    """

    def __init__(self, child: ResourceConstraint, ttl: timedelta):
        check_type(ttl, timedelta, "ttl", ConstraintError)
        if ttl <= timedelta(0):
            raise ConstraintError(f"ttl must be positive, got {ttl.total_seconds()} s")
        self._child = check_type(child, ResourceConstraint, "child", ConstraintError)
        self._ttl = ttl
        self._lock = threading.Lock()
        self._cached: IntrospectionResult | None = None
        self._cached_for: tuple[Hashable, int] | None = None

    def name(self) -> str:
        return f"FreshWithin({self._child.name()})"

    def evaluate(
        self, adapter: BackendAdapter, shots: int, clock: Callable[[], datetime] = utc_now
    ) -> IntrospectionResult:
        check_type(adapter, BackendAdapter, "adapter", ConstraintError)
        check_type(clock, Callable, "clock", ConstraintError)
        request = (adapter.cache_key(), shots)
        with self._lock:
            if self._cached is not None and self._cached_for == request:
                age = clock() - self._cached.evaluated_at
                if timedelta(0) <= age <= self._ttl:
                    return self._cached
            outcome = self._child.evaluate(adapter, shots, clock)
            self._cached, self._cached_for = outcome, request
            return outcome


# --- document format -------------------------------------------------------
#
# { "type": "packed_chsh" | "calibration" | "and" | "or" | "not" | "fresh_within",
#   "policy": {"kind": "min"|"max", "threshold": number}?,   (packed_chsh)
#   "criteria": {...}?,                                      (calibration)
#   "children": [...]?,                                      (composites, not, fresh_within)
#   "ttl_seconds": number? }                                 (fresh_within)

_POLICY_KIND = choice({"min": MinimumAcceptableValue, "max": MaximumAcceptableValue})
_POLICY_FIELDS = {"kind": _POLICY_KIND, "threshold": number}
_CRITERION_FIELDS = {key: integer if c.integral else number for key, c in _CRITERIA.items()}


def _policy(value: Any, path: str) -> _Threshold:
    policy = record(value, path, _POLICY_FIELDS)
    return policy["kind"](policy["threshold"])


def _criteria(value: Any, path: str) -> dict[str, float]:
    return record(value, path, _CRITERION_FIELDS, optional=_CRITERION_FIELDS)


def constraint_from_dict(doc: Mapping[str, Any], path: str = "constraint") -> ResourceConstraint:
    """Build a constraint tree from its document form.

    Malformed documents raise :class:`DocumentError` naming the offending
    field.  The tree holds no clock: each evaluation is given one.
    """
    children = each(constraint_from_dict)

    def only_child(value: Any, children_path: str) -> ResourceConstraint:
        if len(items(value, children_path)) != 1:
            raise DocumentError(children_path, f"expected exactly 1 child, got {len(value)}")
        return children(value, children_path)[0]

    readers = {
        "packed_chsh": {"policy": _policy},
        "calibration": {"criteria": _criteria},
        "and": {"children": children},
        "or": {"children": children},
        "not": {"children": only_child},
        "fresh_within": {"children": only_child, "ttl_seconds": number},
    }
    fields = record(doc, path, {"type": string, **required(doc, "type", path, choice(readers))})
    kind = fields["type"]
    if kind == "packed_chsh":
        return PackedCHSHTest(fields["policy"])
    if kind == "calibration":
        with located(join(path, "criteria")):
            return CalibrationConstraint(**fields["criteria"])
    if kind in ("and", "or"):
        with located(join(path, "children")):
            return (AndConstraint if kind == "and" else OrConstraint)(fields["children"])
    if kind == "not":
        return NotConstraint(fields["children"])
    with located(join(path, "ttl_seconds")):
        return FreshWithin(fields["children"], timedelta(seconds=fields["ttl_seconds"]))
