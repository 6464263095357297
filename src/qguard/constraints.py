"""Resource constraints: runtime checks a backend must pass before the main
computation is dispatched.

A constraint evaluates against a backend adapter and produces an
``IntrospectionResult`` with a pass/fail flag and named scores.  The probe
here is ``PackedCHSHTest``, which runs one packed Bell-test circuit and
scores entanglement quality; ``CalibrationConstraint`` checks published
device properties without spending any shots.  Constraints compose with
AND/OR/NOT and can be wrapped with a TTL cache (``FreshWithin``).

Everything is immutable except FreshWithin's cache.  New constraint kinds
plug in by implementing :class:`ResourceConstraint`.
"""

from __future__ import annotations

import math
import numbers
import operator
import threading
from dataclasses import dataclass, field
from datetime import datetime, timedelta
from typing import Any, Callable, Hashable, Iterable, Mapping, NamedTuple, Protocol

from .backends import BackendAdapter, ExperimentResult
from .calibration import CalibrationSnapshot
from .chsh import (
    chsh_score,
    compute_pair_correlator,
    correlator_standard_error,
    score_standard_error,
)
from .circuits import MeasurementSettings, packed_chsh_circuit
from .errors import ConstraintError, DocumentError, check_shots
from .fields import integer, items, join, located, no_unknown, number, obj, required
from .timestamps import format_timestamp, utc_now


class Policy(Protocol):
    """A pure threshold decision over one scalar score."""

    threshold: float

    def decide(self, value: float) -> bool: ...


@dataclass(frozen=True)
class _Threshold:
    threshold: float

    def __post_init__(self):
        # NaN compares false with every score; an infinite threshold still
        # decides every score one way, as written.
        if isinstance(self.threshold, numbers.Real) and math.isnan(self.threshold):
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
    a score, so ``result["CHSH_score"]`` works directly.
    """

    constraint_name: str
    passed: bool
    scores: Mapping[str, float] = field(default_factory=dict)
    evaluated_at: datetime = field(default_factory=utc_now)
    evidence: ExperimentResult | None = None
    children: tuple["IntrospectionResult", ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "scores", dict(self.scores))
        object.__setattr__(self, "children", tuple(self.children))

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
    """Interface for runtime resource checks; an extension point."""

    def evaluate(self, adapter: BackendAdapter, shots: int) -> IntrospectionResult:
        raise NotImplementedError

    def name(self) -> str:
        raise NotImplementedError


class PackedCHSHTest(ResourceConstraint):
    """Entanglement-quality probe: one packed Bell-test run, scored against
    a policy threshold.

    All four correlators come from a single circuit execution (one job, one
    queue wait, identical device conditions across the four settings).  The
    policy decides on the point estimate of S; per-correlator standard
    errors are reported in the scores but do not affect the decision.
    """

    def __init__(
        self,
        policy: Policy,
        settings: MeasurementSettings = MeasurementSettings(),
        clock: Callable[[], datetime] = utc_now,
    ):
        self._policy = policy
        self._settings = settings
        self._clock = clock

    def name(self) -> str:
        return "PackedCHSHTest"

    def evaluate(self, adapter: BackendAdapter, shots: int) -> IntrospectionResult:
        shots = check_shots(shots, ConstraintError)
        result = adapter.run(packed_chsh_circuit(self._settings), shots)
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
            "se_E00": correlator_standard_error(correlators[0], shots),
            "se_E01": correlator_standard_error(correlators[1], shots),
            "se_E10": correlator_standard_error(correlators[2], shots),
            "se_E11": correlator_standard_error(correlators[3], shots),
            "se_S": score_standard_error(correlators, shots),
            "threshold": self._policy.threshold,
        }
        return IntrospectionResult(
            constraint_name=self.name(),
            passed=self._policy.decide(score),
            scores=scores,
            evaluated_at=self._clock(),
            evidence=result,
        )


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
    the constraint's clock; a snapshot stamped in the future fails it.  No
    circuit is run and ``shots`` is ignored.  A criterion over data the
    snapshot does not carry (e.g. max_gate_error with an empty gate list)
    passes vacuously and reports no score for it.
    """

    def __init__(self, *, clock: Callable[[], datetime] = utc_now, **criteria: float | None):
        unknown = sorted(set(criteria) - set(_CRITERIA))
        if unknown:
            raise ConstraintError(f"unknown criteria: {unknown}")
        self._criteria = {key: criteria[key] for key in _CRITERIA if criteria.get(key) is not None}
        if not self._criteria:
            raise ConstraintError("at least one criterion must be set")
        problems = []
        for key, value in self._criteria.items():
            integral = _CRITERIA[key].integral
            kind, wanted = (numbers.Integral, "an integer") if integral else (numbers.Real, "a number")
            if isinstance(value, bool) or not isinstance(value, kind):
                problems.append(f"{key}: expected {wanted}, got {value!r}")
            elif not integral and not math.isfinite(value):
                problems.append(f"{key}: expected a finite number, got {value!r}")
        if problems:
            raise ConstraintError("; ".join(problems))
        self._clock = clock

    def name(self) -> str:
        return "CalibrationConstraint"

    def evaluate(self, adapter: BackendAdapter, shots: int) -> IntrospectionResult:
        snapshot = adapter.calibration()
        now = self._clock()
        scores: dict[str, float] = {}
        passed = True
        for key, limit in self._criteria.items():
            criterion = _CRITERIA[key]
            worst = criterion.worst(snapshot, now)
            if worst is not None:
                scores[criterion.score] = worst
                passed = passed and criterion.passes(worst, limit)
        return IntrospectionResult(
            constraint_name=self.name(),
            passed=bool(passed),
            scores=scores,
            evaluated_at=now,
        )


class _Composite(ResourceConstraint):
    """Shared body of AND and OR: children run in order, and the first child
    whose outcome equals ``_decisive`` decides the whole.

    Evaluation stops there by default, because each child evaluation may
    spend paid shots; later children then never run and are absent from
    ``children``.  ``evaluate_all=True`` trades that economy for a complete
    report.
    """

    _decisive: bool

    def __init__(
        self,
        children: Iterable[ResourceConstraint],
        evaluate_all: bool = False,
        clock: Callable[[], datetime] = utc_now,
    ):
        self._children = tuple(children)
        if not self._children:
            raise ConstraintError(f"{self.name()} requires at least one child")
        self._evaluate_all = evaluate_all
        self._clock = clock

    def name(self) -> str:
        return type(self).__name__

    def evaluate(self, adapter: BackendAdapter, shots: int) -> IntrospectionResult:
        evaluated: list[IntrospectionResult] = []
        passed = not self._decisive
        for child in self._children:
            outcome = child.evaluate(adapter, shots)
            evaluated.append(outcome)
            if outcome.passed == self._decisive:
                passed = self._decisive
                if not self._evaluate_all:
                    break
        return IntrospectionResult(
            constraint_name=self.name(),
            passed=passed,
            evaluated_at=self._clock(),
            children=tuple(evaluated),
        )


# Each subclass holds ``evaluate`` in its own ``__dict__``, where per-class
# instrumentation such as perfbench's span tracer looks it up.


class AndConstraint(_Composite):
    """Passes iff every child passes; stops at the first failure."""

    _decisive = False
    evaluate = _Composite.evaluate


class OrConstraint(_Composite):
    """Passes iff any child passes; stops at the first success."""

    _decisive = True
    evaluate = _Composite.evaluate


class NotConstraint(ResourceConstraint):
    """Inverts its child's outcome."""

    def __init__(
        self, child: ResourceConstraint, clock: Callable[[], datetime] = utc_now
    ):
        self._child = child
        self._clock = clock

    def name(self) -> str:
        return "NotConstraint"

    def evaluate(self, adapter: BackendAdapter, shots: int) -> IntrospectionResult:
        outcome = self._child.evaluate(adapter, shots)
        return IntrospectionResult(
            constraint_name=self.name(),
            passed=not outcome.passed,
            evaluated_at=self._clock(),
            children=(outcome,),
        )


class FreshWithin(ResourceConstraint):
    """TTL cache around a child constraint.

    Introspection and use of its result are separated in time; this wrapper
    bounds that gap.  The child result is reused while ``0 <= now -
    evaluated_at <= ttl``, for the same shot count on a backend with the same
    ``cache_key()`` (``name()`` for adapters without one); otherwise the
    child is re-evaluated.  A negative age means the clock stepped back, so
    the result's age is unknown and it is stale.
    The cached result is returned as-is, original ``evaluated_at`` included,
    so callers can see exactly how stale their information is.  Errors do
    not populate the cache.

    Safe under concurrent ``evaluate`` calls: the lock admits at most one
    child evaluation at a time, and concurrent callers observe the cached
    value once it lands.
    """

    def __init__(
        self,
        child: ResourceConstraint,
        ttl: timedelta,
        clock: Callable[[], datetime] = utc_now,
    ):
        if not isinstance(ttl, timedelta):
            raise ConstraintError(f"ttl must be a timedelta, got {ttl!r}")
        if ttl <= timedelta(0):
            raise ConstraintError(f"ttl must be positive, got {ttl.total_seconds()} s")
        self._child = child
        self._ttl = ttl
        self._clock = clock
        self._lock = threading.Lock()
        self._cached: IntrospectionResult | None = None
        self._cached_for: tuple[Hashable, int] | None = None

    def name(self) -> str:
        return f"FreshWithin({self._child.name()})"

    def evaluate(self, adapter: BackendAdapter, shots: int) -> IntrospectionResult:
        request = (getattr(adapter, "cache_key", adapter.name)(), shots)
        with self._lock:
            if self._cached is not None and self._cached_for == request:
                age = self._clock() - self._cached.evaluated_at
                if timedelta(0) <= age <= self._ttl:
                    return self._cached
            outcome = self._child.evaluate(adapter, shots)
            self._cached, self._cached_for = outcome, request
            return outcome


# --- document format -------------------------------------------------------
#
# { "type": "packed_chsh" | "calibration" | "and" | "or" | "not" | "fresh_within",
#   "policy": {"kind": "min"|"max", "threshold": number}?,   (packed_chsh)
#   "criteria": {...}?,                                      (calibration)
#   "children": [...]?,                                      (composites, not, fresh_within)
#   "ttl_seconds": number? }                                 (fresh_within)

_ALLOWED_KEYS = {
    "packed_chsh": {"type", "policy"},
    "calibration": {"type", "criteria"},
    "and": {"type", "children"},
    "or": {"type", "children"},
    "not": {"type", "children"},
    "fresh_within": {"type", "children", "ttl_seconds"},
}


_POLICIES = {"min": MinimumAcceptableValue, "max": MaximumAcceptableValue}


def constraint_from_dict(
    doc: Mapping[str, Any],
    path: str = "constraint",
    clock: Callable[[], datetime] = utc_now,
) -> ResourceConstraint:
    """Build a constraint tree from its document form.

    Malformed documents raise :class:`DocumentError` naming the offending
    field.  ``clock`` is threaded through to every node so whole trees can
    run against synthetic time.
    """
    kind = obj(doc, path).get("type")
    if kind not in _ALLOWED_KEYS:
        raise DocumentError(f"{path}.type", f"unknown constraint type {kind!r}")
    no_unknown(doc, _ALLOWED_KEYS[kind], path)

    if kind == "packed_chsh":
        policy_path = f"{path}.policy"
        policy = required(doc, "policy", path, obj)
        no_unknown(policy, ("kind", "threshold"), policy_path)
        policy_kind = policy.get("kind")
        if policy_kind not in _POLICIES:
            raise DocumentError(
                f"{policy_path}.kind", f"expected \"min\" or \"max\", got {policy_kind!r}"
            )
        threshold = required(policy, "threshold", policy_path, number)
        return PackedCHSHTest(_POLICIES[policy_kind](threshold), clock=clock)

    if kind == "calibration":
        criteria_path = f"{path}.criteria"
        criteria = required(doc, "criteria", path, obj)
        no_unknown(criteria, _CRITERIA, criteria_path)
        kwargs = {
            key: (integer if _CRITERIA[key].integral else number)(value, join(criteria_path, key))
            for key, value in criteria.items()
        }
        with located(criteria_path):
            return CalibrationConstraint(clock=clock, **kwargs)

    children_path = f"{path}.children"
    child_docs = required(doc, "children", path, items)
    if kind in ("not", "fresh_within") and len(child_docs) != 1:
        raise DocumentError(children_path, f"expected exactly 1 child, got {len(child_docs)}")
    children = [
        constraint_from_dict(child, f"{children_path}[{i}]", clock)
        for i, child in enumerate(child_docs)
    ]
    if kind in ("and", "or"):
        with located(children_path):
            return (AndConstraint if kind == "and" else OrConstraint)(children, clock=clock)
    if kind == "not":
        return NotConstraint(children[0], clock=clock)
    ttl = required(doc, "ttl_seconds", path, number)
    with located(f"{path}.ttl_seconds"):
        return FreshWithin(children[0], ttl=timedelta(seconds=ttl), clock=clock)
