import itertools
import json
import math
import re
import threading
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qguard import (
    AndConstraint,
    BackendAdapter,
    BackendError,
    BitstringCounts,
    CalibrationConstraint,
    CalibrationSnapshot,
    ConstraintError,
    DocumentError,
    ExperimentResult,
    FreshWithin,
    IntrospectionResult,
    MaximumAcceptableValue,
    MinimumAcceptableValue,
    NoiseModel,
    NotConstraint,
    OrConstraint,
    PackedCHSHTest,
    QGuardError,
    QubitCalibration,
    RecordingAdapter,
    ReplayAdapter,
    ResourceConstraint,
    SimulatorAdapter,
    constraint_from_dict,
    correlator_standard_error,
    packed_chsh_circuit,
    run_conditionally,
    score_standard_error,
    synthetic_calibration_for,
)

T0 = datetime(2026, 8, 21, 9, 0, 0, tzinfo=timezone.utc)
CHSH_MAX = 2.0 * math.sqrt(2.0)


class ManualClock:
    def __init__(self, start=T0):
        self.now = start

    def advance(self, seconds):
        self.now = self.now + timedelta(seconds=seconds)

    def __call__(self):
        return self.now


class CountingAdapter(BackendAdapter):
    """Fake backend that tallies run calls and returns canned counts."""

    def __init__(self, calibration=None):
        self.run_calls = 0
        self._calibration = calibration

    def run(self, circuit, shots):
        self.run_calls += 1
        return ExperimentResult(
            counts=BitstringCounts({"0" * circuit.num_measured: shots}),
            shots=shots,
            backend_name="counting",
            submitted_at=T0,
            completed_at=T0,
        )

    def calibration(self):
        if self._calibration is None:
            self._calibration = synthetic_calibration_for(NoiseModel.ideal(), num_qubits=2)
        return self._calibration

    def name(self):
        return "counting"


class StubConstraint(ResourceConstraint):
    """Fixed-outcome constraint; optionally burns adapter runs as evidence."""

    def __init__(self, passed, runs_per_evaluation=0, label="stub"):
        self._passed = passed
        self._runs = runs_per_evaluation
        self._label = label
        self.evaluations = 0

    def name(self):
        return self._label

    def evaluate(self, adapter, shots, clock=None):
        self.evaluations += 1
        from qguard import phi_plus

        for _ in range(self._runs):
            adapter.run(phi_plus(), shots)
        return IntrospectionResult(
            constraint_name=self._label,
            passed=self._passed,
            scores={"value": 1.0 if self._passed else 0.0},
            evaluated_at=T0,
        )


# --- policies --------------------------------------------------------------


def test_minimum_policy_boundary_inclusive():
    policy = MinimumAcceptableValue(2.2)
    assert policy.decide(2.2)
    assert policy.decide(2.200001)
    assert not policy.decide(2.199999)


def test_maximum_policy_boundary_inclusive():
    policy = MaximumAcceptableValue(0.1)
    assert policy.decide(0.1)
    assert not policy.decide(0.11)


@given(st.floats(allow_nan=False), st.floats(allow_nan=False))
def test_policy_coherence(threshold, x):
    assert MinimumAcceptableValue(threshold).decide(x) == (x >= threshold)
    assert MaximumAcceptableValue(threshold).decide(x) == (x <= threshold)


@pytest.mark.parametrize("policy", [MinimumAcceptableValue, MaximumAcceptableValue])
def test_policy_rejects_nan_threshold(policy):
    with pytest.raises(ConstraintError, match="NaN"):
        policy(math.nan)


@pytest.mark.parametrize("threshold", ["2.2", True, None])
@pytest.mark.parametrize("policy", [MinimumAcceptableValue, MaximumAcceptableValue])
def test_policy_rejects_a_threshold_that_is_not_a_number(policy, threshold):
    # "2.2" used to be taken and to fail in decide() with a bare TypeError,
    # and True was taken as 1.
    with pytest.raises(ConstraintError, match="threshold must be a number"):
        policy(threshold)


@pytest.mark.parametrize("policy", [MinimumAcceptableValue, MaximumAcceptableValue])
def test_policy_takes_a_threshold_too_large_for_a_float(policy):
    # math.isnan(10**400) used to raise a bare OverflowError.  The threshold
    # is infinite in effect and decides every score one way.
    assert policy(10**400).decide(4.0) is (policy is MaximumAcceptableValue)
    assert policy(-(10**400)).decide(-4.0) is (policy is MinimumAcceptableValue)


# --- IntrospectionResult ---------------------------------------------------


def test_introspection_result_subscript_reads_scores():
    result = IntrospectionResult("c", True, {"CHSH_score": 2.5}, T0)
    assert result["CHSH_score"] == 2.5
    with pytest.raises(KeyError):
        result["missing"]


def test_introspection_result_to_dict():
    child = IntrospectionResult("inner", False, {"x": 1.0}, T0)
    result = IntrospectionResult("outer", False, {}, T0, children=(child,))
    doc = result.to_dict()
    assert doc["constraint_name"] == "outer"
    assert doc["passed"] is False
    assert doc["evaluated_at"] == "2026-08-21T09:00:00Z"
    assert doc["children"][0]["constraint_name"] == "inner"
    assert json.dumps(doc)  # JSON-serializable throughout


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("constraint_name", 5, "constraint_name must be a str, got 5"),
        ("passed", 1, "passed must be a bool, got 1"),
        ("scores", 5, "scores must be a Mapping, got 5"),
        ("scores", {1: 2.0}, "score name must be a str, got 1"),
        ("scores", {"s": "2"}, "scores['s'] must be a number, got '2'"),
        ("evaluated_at", "now", "evaluated_at must be a timezone-aware datetime, got 'now'"),
        ("evaluated_at", datetime(2026, 8, 21), "evaluated_at must be a timezone-aware datetime"),
        ("evidence", {}, "evidence must be an ExperimentResult, got {}"),
        ("children", 5, "children must be an iterable, got 5"),
        ("children", ["x"], "children[0] must be an IntrospectionResult, got 'x'"),
    ],
)
def test_introspection_result_checks_its_fields_when_built(field, value, message):
    # Each used to be accepted, and then failed in to_dict with a bare
    # error, or never, leaving a result no report could hold.
    fields = {"constraint_name": "c", "passed": True, "scores": {}, "evaluated_at": T0}
    with pytest.raises(ConstraintError, match=f"^{re.escape(message)}"):
        IntrospectionResult(**{**fields, field: value})


def test_a_clock_that_returns_a_naive_datetime_fails_the_evaluation():
    check = PackedCHSHTest(MinimumAcceptableValue(0.0))
    with pytest.raises(ConstraintError, match="^evaluated_at must be a timezone-aware"):
        check.evaluate(CountingAdapter(), 10, lambda: datetime(2026, 8, 21))


# --- ResourceConstraint ----------------------------------------------------


class TickingClock:
    """Synthetic clock that moves one second forward on every read."""

    def __init__(self):
        self.reads = 0

    def __call__(self):
        self.reads += 1
        return T0 + timedelta(seconds=self.reads)


def test_a_subclass_that_implements_only_evaluate_gets_its_result_built():
    clock = TickingClock()
    evidence = ExperimentResult(
        counts=BitstringCounts({"0": 1}),
        shots=1,
        backend_name="counting",
        submitted_at=T0,
        completed_at=T0,
    )
    child = IntrospectionResult("inner", True, {}, T0)
    scores = {"value": 0.5}
    checked_at = []

    class Minimal(ResourceConstraint):
        def _evaluate(self, adapter, shots, clock):
            checked_at.append(clock())
            return False, scores, evidence, (child,)

    result = Minimal().evaluate(CountingAdapter(), 1, clock)
    assert result.constraint_name == "Minimal"
    assert result.passed is False
    assert result.scores == scores
    assert result.evidence is evidence
    assert result.children == (child,)
    # One read of the clock it was given, taken after the check returned.
    assert clock.reads == 2
    assert result.evaluated_at == T0 + timedelta(seconds=2) > checked_at[0]


@pytest.mark.parametrize(
    "cls", [PackedCHSHTest, CalibrationConstraint, AndConstraint, OrConstraint, FreshWithin]
)
def test_instrumented_constraints_hold_evaluate_in_their_own_dict(cls):
    # perfbench's span tracer wraps each class's own ``__dict__["evaluate"]``.
    assert "evaluate" in cls.__dict__


# --- PackedCHSHTest --------------------------------------------------------


def test_packed_chsh_zero_noise_passes():
    adapter = SimulatorAdapter(NoiseModel.ideal(seed=21))
    check = PackedCHSHTest(MinimumAcceptableValue(2.2))
    result = check.evaluate(adapter, 10_000)
    assert result.passed
    assert 2.78 <= result["CHSH_score"] <= 2.88
    assert result.constraint_name == "PackedCHSHTest"
    for key in ("E00", "E01", "E10", "E11", "se_E00", "se_E01", "se_E10", "se_E11", "se_S"):
        assert key in result.scores
    assert result.evidence is not None
    assert result.evidence.counts.num_bits == 8
    assert result.evidence.shots == 10_000


def test_packed_chsh_bell_stage_noise_fails():
    adapter = SimulatorAdapter(NoiseModel(p1=0, p2=0.3, readout_flip=0, seed=8))
    check = PackedCHSHTest(MinimumAcceptableValue(2.2))
    result = check.evaluate(adapter, 10_000)
    assert not result.passed
    assert abs(result["CHSH_score"] - CHSH_MAX * 0.7) < 0.07


def test_packed_chsh_runs_one_job():
    adapter = CountingAdapter()
    check = PackedCHSHTest(MinimumAcceptableValue(0.0))
    check.evaluate(adapter, 100)
    assert adapter.run_calls == 1


def test_packed_chsh_submits_one_circuit_object_every_time():
    submitted = []

    class Spy(CountingAdapter):
        def run(self, circuit, shots):
            submitted.append(circuit)
            return super().run(circuit, shots)

    check, adapter = PackedCHSHTest(MinimumAcceptableValue(0.0)), Spy()
    check.evaluate(adapter, 100)
    check.evaluate(adapter, 100)
    assert submitted[0] is submitted[1] is packed_chsh_circuit()


def test_packed_chsh_rejects_bad_shots():
    with pytest.raises(ValueError):
        PackedCHSHTest(MinimumAcceptableValue(2.2)).evaluate(CountingAdapter(), 0)


@pytest.mark.parametrize("shots", ["10", 2.5, True], ids=["string", "float", "bool"])
def test_packed_chsh_rejects_non_integer_shots_before_running(shots):
    adapter = CountingAdapter()
    with pytest.raises(ConstraintError):
        PackedCHSHTest(MinimumAcceptableValue(2.2)).evaluate(adapter, shots)
    assert adapter.run_calls == 0


def test_packed_chsh_accepts_a_numpy_integer_shot_count():
    result = PackedCHSHTest(MinimumAcceptableValue(0.0)).evaluate(CountingAdapter(), np.int64(10))
    assert result.evidence.shots == 10


def test_packed_chsh_standard_errors_use_the_evidence_shot_count():
    # A lenient replay serves a 100-shot recording at any requested shot
    # count; the standard errors were computed from the 10 000 requested,
    # ten times too confident.
    recorder = RecordingAdapter(SimulatorAdapter(NoiseModel(p1=0.0, p2=0.1, readout_flip=0.0, seed=3)))
    recorder.run(packed_chsh_circuit(), 100)
    check = PackedCHSHTest(MinimumAcceptableValue(0.0))
    result = check.evaluate(ReplayAdapter(recorder.recording()), 10_000)
    correlators = tuple(result[f"E{pair}"] for pair in ("00", "01", "10", "11"))
    assert result.evidence.shots == 100
    assert result["se_S"] == score_standard_error(correlators, 100) > 0.0
    for pair, correlator in zip(("00", "01", "10", "11"), correlators):
        assert result[f"se_E{pair}"] == correlator_standard_error(correlator, 100)


def test_constraint_misuse_raises_a_typed_error():
    bad = [
        lambda: PackedCHSHTest(MinimumAcceptableValue(2.2)).evaluate(CountingAdapter(), 0),
        lambda: AndConstraint([]),
        lambda: OrConstraint([]),
        lambda: FreshWithin(StubConstraint(True), ttl=timedelta(0)),
        # Children and policies of the wrong type fail when built, before a
        # probe can spend its shots.
        lambda: AndConstraint([None]),
        lambda: OrConstraint([StubConstraint(True), "x"]),
        # Children that are no iterable at all.
        lambda: AndConstraint(None),
        lambda: OrConstraint(5),
        lambda: NotConstraint("x"),
        lambda: FreshWithin(42, timedelta(seconds=1)),
        lambda: PackedCHSHTest(2.2),
        lambda: PackedCHSHTest(None),
        # Clocks that cannot be called, which would fail only when read.
        lambda: CalibrationConstraint(min_qubits=1).evaluate(CountingAdapter(), 1, clock="x"),
        lambda: PackedCHSHTest(MinimumAcceptableValue(2.2)).evaluate(CountingAdapter(), 1, clock="x"),
        lambda: AndConstraint([StubConstraint(True)]).evaluate(CountingAdapter(), 1, clock=None),
        lambda: FreshWithin(StubConstraint(True), timedelta(seconds=1)).evaluate(
            CountingAdapter(), 1, clock=5
        ),
        # Adapters that are not BackendAdapters, which escaped as a bare
        # AttributeError or went unread under a stub.
        lambda: PackedCHSHTest(MinimumAcceptableValue(2.2)).evaluate(object(), 100),
        lambda: CalibrationConstraint(min_qubits=1).evaluate(object(), 100),
        lambda: AndConstraint([StubConstraint(True)]).evaluate(object(), 100),
        lambda: NotConstraint(StubConstraint(True)).evaluate(object(), 100),
        lambda: FreshWithin(StubConstraint(True), timedelta(seconds=1)).evaluate(object(), 100),
    ]
    for build in bad:
        with pytest.raises(ConstraintError) as excinfo:
            build()
        assert isinstance(excinfo.value, QGuardError)


class WrongReturnAdapter(CountingAdapter):
    def run(self, circuit, shots):
        return {"0" * circuit.num_measured: shots}

    def calibration(self):
        return None


@pytest.mark.parametrize(
    "check, message",
    [
        (PackedCHSHTest(MinimumAcceptableValue(2.2)), "run() result must be an ExperimentResult, got {"),
        (CalibrationConstraint(min_qubits=1), "calibration() result must be a CalibrationSnapshot, got None"),
    ],
    ids=["run", "calibration"],
)
def test_an_adapter_method_that_returns_the_wrong_type_raises_a_backend_error_naming_it(check, message):
    # Each used to escape as a bare AttributeError from reading the result.
    with pytest.raises(BackendError, match=f"^{re.escape(message)}"):
        check.evaluate(WrongReturnAdapter(), 10)


# --- CalibrationConstraint -------------------------------------------------


def two_qubit_snapshot():
    return CalibrationSnapshot(
        taken_at=T0,
        num_qubits=2,
        qubits=(
            QubitCalibration(t1_us=100.0, t2_us=80.0, readout_error=0.01),
            QubitCalibration(t1_us=120.0, t2_us=100.0, readout_error=0.02),
        ),
        gates=(),
        coupling_map=((0, 1),),
    )


class SnapshotAdapter(CountingAdapter):
    def __init__(self, snapshot):
        super().__init__(calibration=snapshot)


def test_calibration_constraint_t1_threshold():
    adapter = SnapshotAdapter(two_qubit_snapshot())
    assert CalibrationConstraint(min_t1_us=90).evaluate(adapter, 1).passed
    result = CalibrationConstraint(min_t1_us=110).evaluate(adapter, 1)
    assert not result.passed
    assert result.scores["worst_t1_us"] == 100.0


def test_calibration_constraint_min_qubits():
    adapter = SnapshotAdapter(two_qubit_snapshot())
    result = CalibrationConstraint(min_qubits=8).evaluate(adapter, 1)
    assert not result.passed
    assert result.scores["num_qubits"] == 2.0
    assert CalibrationConstraint(min_qubits=2).evaluate(adapter, 1).passed


def test_calibration_constraint_worst_case_aggregation():
    adapter = SnapshotAdapter(two_qubit_snapshot())
    result = CalibrationConstraint(
        min_t2_us=80, max_readout_error=0.02
    ).evaluate(adapter, 1)
    assert result.passed
    assert result.scores["worst_t2_us"] == 80.0
    assert result.scores["worst_readout_error"] == 0.02


def test_calibration_constraint_runs_no_circuits():
    adapter = SnapshotAdapter(two_qubit_snapshot())
    CalibrationConstraint(min_t1_us=1).evaluate(adapter, 10_000)
    assert adapter.run_calls == 0


def test_calibration_constraint_requires_a_criterion():
    with pytest.raises(ValueError):
        CalibrationConstraint()


def test_calibration_constraint_without_criteria_raises_a_typed_error():
    with pytest.raises(ConstraintError, match="at least one criterion must be set"):
        CalibrationConstraint()


@pytest.mark.parametrize(
    "kwargs",
    [{"min_qubits": "8"}, {"min_qubits": 8.9}, {"min_qubits": True}, {"min_t1_us": "50"}, {"max_gate_error": False}],
    ids=["string_qubits", "fractional_qubits", "bool_qubits", "string_t1", "bool_gate_error"],
)
def test_calibration_constraint_rejects_ill_typed_criteria(kwargs):
    with pytest.raises(ConstraintError) as excinfo:
        CalibrationConstraint(**kwargs)
    assert isinstance(excinfo.value, QGuardError)
    assert isinstance(excinfo.value, ValueError)
    assert str(excinfo.value).startswith(f"{next(iter(kwargs))} must be ")


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("key", ["min_t1_us", "max_readout_error"])
def test_calibration_constraint_rejects_non_finite_criteria(key, value):
    with pytest.raises(ConstraintError, match=f"^{key} must be a finite number"):
        CalibrationConstraint(**{key: value})


@pytest.mark.parametrize("key", ["min_t1_us", "max_readout_error"])
def test_calibration_constraint_rejects_criteria_too_large_for_a_float(key):
    # math.isfinite(10**400) used to raise a bare OverflowError.
    with pytest.raises(ConstraintError, match=f"^{key} must be a finite number"):
        CalibrationConstraint(**{key: 10**400})


def test_calibration_constraint_rejects_unknown_criteria():
    with pytest.raises(ConstraintError, match="min_t9"):
        CalibrationConstraint(min_t9=5)


def test_calibration_constraint_gate_error_vacuous_without_gate_data():
    adapter = SnapshotAdapter(two_qubit_snapshot())  # empty gate list
    result = CalibrationConstraint(max_gate_error=1e-9).evaluate(adapter, 1)
    assert result.passed
    assert "worst_gate_error" not in result.scores


def test_calibration_constraint_gate_error():
    adapter = SnapshotAdapter(
        synthetic_calibration_for(NoiseModel(p1=0.001, p2=0.02, readout_flip=0.01), 3)
    )
    result = CalibrationConstraint(max_gate_error=0.01).evaluate(adapter, 1)
    assert not result.passed
    assert result.scores["worst_gate_error"] == 0.02
    assert CalibrationConstraint(max_gate_error=0.02).evaluate(adapter, 1).passed


def test_calibration_constraint_max_age():
    # Nothing read taken_at before: a six-year-old snapshot passed.
    clock = ManualClock()
    six_years = 6 * 365 * 24 * 3600
    old = synthetic_calibration_for(NoiseModel.ideal(), 2, taken_at=T0 - timedelta(seconds=six_years))
    constraint = CalibrationConstraint(max_age_s=3600)
    result = constraint.evaluate(CountingAdapter(old), 1, clock)
    assert not result.passed
    assert result.scores == {"calibration_age_s": six_years}
    assert result.evaluated_at == T0
    hour_old = old.with_taken_at(T0 - timedelta(seconds=3600))  # the boundary passes
    assert constraint.evaluate(CountingAdapter(hour_old), 1, clock).passed


def test_calibration_constraint_is_stamped_after_its_check():
    clock = TickingClock()
    adapter = SnapshotAdapter(two_qubit_snapshot())  # taken at T0
    result = CalibrationConstraint(max_age_s=100.0).evaluate(adapter, 1, clock)
    # The age is judged at the first read; the result is stamped by the second.
    assert result.scores == {"calibration_age_s": 1.0}
    assert result.evaluated_at == T0 + timedelta(seconds=2)


def test_calibration_constraint_rejects_a_snapshot_from_the_future():
    # A negative age is unknown, so the snapshot is stale, as in FreshWithin.
    future = synthetic_calibration_for(NoiseModel.ideal(), 2, taken_at=T0 + timedelta(seconds=1))
    result = CalibrationConstraint(max_age_s=3600).evaluate(CountingAdapter(future), 1, ManualClock())
    assert not result.passed
    assert result.scores["calibration_age_s"] == -1.0


def test_constraint_from_dict_reads_max_age():
    doc = {"type": "calibration", "criteria": {"min_qubits": 2, "max_age_s": 60}}
    clock = ManualClock()
    snapshot = synthetic_calibration_for(NoiseModel.ideal(), 2, taken_at=T0)
    constraint = constraint_from_dict(doc)
    assert constraint.evaluate(CountingAdapter(snapshot), 1, clock).passed
    clock.advance(61)
    assert not constraint.evaluate(CountingAdapter(snapshot), 1, clock).passed
    doc["criteria"]["max_age_s"] = "1h"
    with pytest.raises(DocumentError) as caught:
        constraint_from_dict(doc)
    assert caught.value.path == "constraint.criteria.max_age_s"


# --- composites ------------------------------------------------------------


@pytest.mark.parametrize("arity", [2, 3])
def test_truth_tables(arity):
    for flags in itertools.product([False, True], repeat=arity):
        children = [StubConstraint(f) for f in flags]
        assert AndConstraint(children).evaluate(CountingAdapter(), 1).passed == all(flags)
        children = [StubConstraint(f) for f in flags]
        assert OrConstraint(children).evaluate(CountingAdapter(), 1).passed == any(flags)
    for flag in (False, True):
        assert NotConstraint(StubConstraint(flag)).evaluate(CountingAdapter(), 1).passed == (not flag)


def test_and_records_children_in_order():
    result = AndConstraint(
        [StubConstraint(True, label="a"), StubConstraint(False, label="b")]
    ).evaluate(CountingAdapter(), 1)
    assert [c.constraint_name for c in result.children] == ["a", "b"]
    assert not result.passed


def test_and_short_circuits_without_running_later_children():
    adapter = CountingAdapter()
    chsh = PackedCHSHTest(MinimumAcceptableValue(0.0))
    result = AndConstraint([StubConstraint(False), chsh]).evaluate(adapter, 16)
    assert not result.passed
    assert adapter.run_calls == 0
    assert len(result.children) == 1


def test_or_short_circuits_on_first_success():
    second = StubConstraint(True)
    result = OrConstraint([StubConstraint(True), second]).evaluate(CountingAdapter(), 1)
    assert result.passed
    assert second.evaluations == 0
    assert len(result.children) == 1


def test_composites_require_children():
    with pytest.raises(ValueError):
        AndConstraint([])
    with pytest.raises(ValueError):
        OrConstraint([])


def test_not_records_single_child():
    result = NotConstraint(StubConstraint(False, label="inner")).evaluate(CountingAdapter(), 1)
    assert result.passed
    assert [c.constraint_name for c in result.children] == ["inner"]


def test_child_errors_propagate():
    class Exploding(ResourceConstraint):
        def name(self):
            return "boom"

        def evaluate(self, adapter, shots, clock=None):
            raise RuntimeError("broken probe")

    with pytest.raises(RuntimeError, match="broken probe"):
        AndConstraint([StubConstraint(True), Exploding()]).evaluate(CountingAdapter(), 1)


# --- FreshWithin -----------------------------------------------------------


class ClockedStub(StubConstraint):
    """Stub whose results carry the time of the clock it is evaluated against."""

    def evaluate(self, adapter, shots, clock):
        self.evaluations += 1
        return IntrospectionResult(
            constraint_name="clocked",
            passed=self._passed,
            scores={},
            evaluated_at=clock(),
        )


def test_fresh_within_caches_inside_ttl():
    clock = ManualClock()
    child = ClockedStub(True)
    fresh = FreshWithin(child, ttl=timedelta(seconds=60))
    first = fresh.evaluate(CountingAdapter(), 1, clock)
    clock.advance(1)
    second = fresh.evaluate(CountingAdapter(), 1, clock)
    assert child.evaluations == 1
    assert second is first
    assert second.evaluated_at == first.evaluated_at


def test_fresh_within_reevaluates_past_ttl():
    clock = ManualClock()
    child = ClockedStub(True)
    fresh = FreshWithin(child, ttl=timedelta(seconds=60))
    first = fresh.evaluate(CountingAdapter(), 1, clock)
    clock.advance(120)
    second = fresh.evaluate(CountingAdapter(), 1, clock)
    assert child.evaluations == 2
    assert second.evaluated_at > first.evaluated_at


def test_fresh_within_boundary_is_inclusive():
    clock = ManualClock()
    child = ClockedStub(True)
    fresh = FreshWithin(child, ttl=timedelta(seconds=60))
    fresh.evaluate(CountingAdapter(), 1, clock)
    clock.advance(60)  # exactly ttl old: still fresh
    fresh.evaluate(CountingAdapter(), 1, clock)
    assert child.evaluations == 1
    clock.advance(1)  # now past ttl
    fresh.evaluate(CountingAdapter(), 1, clock)
    assert child.evaluations == 2


def test_fresh_within_rejects_nonpositive_ttl():
    with pytest.raises(ValueError):
        FreshWithin(StubConstraint(True), ttl=timedelta(0))
    with pytest.raises(ValueError):
        FreshWithin(StubConstraint(True), ttl=timedelta(seconds=-3))


@pytest.mark.parametrize("ttl", [5, 5.0, None], ids=["int", "float", "none"])
def test_fresh_within_rejects_a_ttl_that_is_not_a_timedelta(ttl):
    with pytest.raises(ConstraintError, match="timedelta"):
        FreshWithin(StubConstraint(True), ttl=ttl)


def test_fresh_within_does_not_cache_errors():
    clock = ManualClock()

    class FlakyOnce(ResourceConstraint):
        def __init__(self):
            self.calls = 0

        def name(self):
            return "flaky"

        def evaluate(self, adapter, shots, clock):
            self.calls += 1
            if self.calls == 1:
                raise RuntimeError("probe offline")
            return IntrospectionResult("flaky", True, {}, clock())

    child = FlakyOnce()
    fresh = FreshWithin(child, ttl=timedelta(seconds=60))
    with pytest.raises(RuntimeError):
        fresh.evaluate(CountingAdapter(), 1, clock)
    result = fresh.evaluate(CountingAdapter(), 1, clock)
    assert result.passed
    assert child.calls == 2


def test_fresh_within_evaluates_child_once_under_contention():
    clock = ManualClock()
    barrier = threading.Barrier(4)

    class SlowChild(ResourceConstraint):
        def __init__(self):
            self.calls = 0

        def name(self):
            return "slow"

        def evaluate(self, adapter, shots, clock):
            self.calls += 1
            return IntrospectionResult("slow", True, {}, clock())

    child = SlowChild()
    fresh = FreshWithin(child, ttl=timedelta(seconds=60))
    results = []

    def worker():
        barrier.wait()
        results.append(fresh.evaluate(CountingAdapter(), 1, clock))

    threads = [threading.Thread(target=worker) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert child.calls == 1
    assert all(r is results[0] for r in results)


def test_fresh_within_treats_a_clock_stepped_back_as_stale():
    clock = ManualClock()
    child = ClockedStub(True)
    fresh = FreshWithin(child, ttl=timedelta(seconds=60))
    adapter = CountingAdapter()
    fresh.evaluate(adapter, 1, clock)
    clock.advance(-365 * 24 * 3600)  # the cached result now lies a year ahead
    fresh.evaluate(adapter, 1, clock)
    assert child.evaluations == 2


def test_fresh_within_reevaluates_for_other_shots():
    fresh = FreshWithin(PackedCHSHTest(MinimumAcceptableValue(2.0)), ttl=timedelta(seconds=60))
    first = fresh.evaluate(SimulatorAdapter(NoiseModel.ideal()), 1000)
    second = fresh.evaluate(SimulatorAdapter(NoiseModel(p1=0.0, p2=0.5, readout_flip=0.0)), 50)
    assert second is not first
    assert second.evidence.shots == 50


def test_fresh_within_reevaluates_for_other_backend():
    class OtherAdapter(CountingAdapter):
        def name(self):
            return "other"

    clock = ManualClock()
    child = ClockedStub(True)
    fresh = FreshWithin(child, ttl=timedelta(seconds=60))
    first = fresh.evaluate(CountingAdapter(), 1, clock)
    second = fresh.evaluate(OtherAdapter(), 1, clock)
    assert child.evaluations == 2
    assert second is not first
    assert fresh.evaluate(OtherAdapter(), 1, clock) is second


def test_fresh_within_reevaluates_for_other_simulator_noise():
    fresh = FreshWithin(PackedCHSHTest(MinimumAcceptableValue(2.0)), ttl=timedelta(seconds=60))
    noisy = NoiseModel(p1=0.0, p2=0.5, readout_flip=0.0)
    ideal_result = fresh.evaluate(SimulatorAdapter(NoiseModel.ideal()), 1000)
    noisy_result = fresh.evaluate(SimulatorAdapter(noisy), 1000)
    assert noisy_result is not ideal_result
    assert not noisy_result.passed
    assert fresh.evaluate(RecordingAdapter(SimulatorAdapter(NoiseModel.ideal())), 1000).passed
    recorded_noisy = fresh.evaluate(RecordingAdapter(SimulatorAdapter(noisy)), 1000)
    assert not recorded_noisy.passed
    # Same noise, other seed: the same backend, so the result is reused.
    assert fresh.evaluate(SimulatorAdapter(noisy.with_seed(9)), 1000) is recorded_noisy


def test_fresh_within_reevaluates_for_other_recording():
    ideal = RecordingAdapter(SimulatorAdapter(NoiseModel.ideal()))
    noisy = RecordingAdapter(SimulatorAdapter(NoiseModel(p1=0.0, p2=0.5, readout_flip=0.0)))
    circuit = packed_chsh_circuit()
    ideal.run(circuit, 1000)
    noisy.run(circuit, 1000)
    ideal_recording, noisy_recording = ideal.recording(), noisy.recording()
    fresh = FreshWithin(PackedCHSHTest(MinimumAcceptableValue(2.0)), ttl=timedelta(seconds=60))
    ideal_result = fresh.evaluate(ReplayAdapter(ideal_recording), 1000)
    assert ideal_result.passed
    noisy_result = fresh.evaluate(ReplayAdapter(noisy_recording), 1000)
    assert noisy_result is not ideal_result
    assert not noisy_result.passed
    # A new replay of the same recording is the same evidence.
    assert fresh.evaluate(ReplayAdapter(noisy_recording), 1000) is noisy_result


def test_fresh_within_reevaluates_for_other_simulator_calibration():
    # Simulators with one noise model used to share a cache key, so B
    # passed on A's T1 of 120 although its own T1 is 40.
    noise = NoiseModel.ideal()
    synthetic = synthetic_calibration_for(noise)
    weak = CalibrationSnapshot(
        taken_at=synthetic.taken_at,
        num_qubits=synthetic.num_qubits,
        qubits=(QubitCalibration(t1_us=40.0, t2_us=30.0, readout_error=0.0),) * synthetic.num_qubits,
        gates=synthetic.gates,
        coupling_map=synthetic.coupling_map,
    )
    fresh = FreshWithin(CalibrationConstraint(min_t1_us=100), ttl=timedelta(seconds=60))
    assert fresh.evaluate(SimulatorAdapter(noise), 1).passed
    result = fresh.evaluate(SimulatorAdapter(noise, weak), 1)
    assert not result.passed
    assert result["worst_t1_us"] == 40.0
    # The same snapshot stamped at another moment is the same backend.
    restamped = SimulatorAdapter(noise, weak.with_taken_at(T0))
    assert fresh.evaluate(restamped, 1) is result


# --- document form ---------------------------------------------------------


def test_constraint_from_dict_packed_chsh():
    constraint = constraint_from_dict(
        {"type": "packed_chsh", "policy": {"kind": "min", "threshold": 2.2}}
    )
    assert isinstance(constraint, PackedCHSHTest)
    adapter = SimulatorAdapter(NoiseModel.ideal(seed=1))
    assert constraint.evaluate(adapter, 2000).passed


def test_constraint_from_dict_max_policy():
    constraint = constraint_from_dict(
        {"type": "packed_chsh", "policy": {"kind": "max", "threshold": 1.0}}
    )
    adapter = SimulatorAdapter(NoiseModel.ideal(seed=1))
    assert not constraint.evaluate(adapter, 2000).passed


def test_constraint_from_dict_nested_tree():
    doc = {
        "type": "and",
        "children": [
            {"type": "calibration", "criteria": {"min_t1_us": 50}},
            {
                "type": "fresh_within",
                "ttl_seconds": 300,
                "children": [
                    {
                        "type": "not",
                        "children": [
                            {"type": "calibration", "criteria": {"min_qubits": 100}}
                        ],
                    }
                ],
            },
        ],
    }
    constraint = constraint_from_dict(doc)
    adapter = SimulatorAdapter(NoiseModel.ideal())
    result = constraint.evaluate(adapter, 1)
    assert result.passed
    assert len(result.children) == 2


def test_constraint_from_dict_unknown_type():
    with pytest.raises(DocumentError, match="constraint.type"):
        constraint_from_dict({"type": "chsh_v2"})


def test_constraint_from_dict_bad_ttl():
    doc = {
        "type": "fresh_within",
        "ttl_seconds": -1,
        "children": [{"type": "calibration", "criteria": {"min_qubits": 1}}],
    }
    with pytest.raises(DocumentError, match="ttl_seconds"):
        constraint_from_dict(doc)


def test_constraint_from_dict_unknown_criterion():
    with pytest.raises(DocumentError, match="criteria"):
        constraint_from_dict({"type": "calibration", "criteria": {"min_t9": 5}})


def test_constraint_from_dict_min_qubits_must_be_an_integer():
    doc = {"type": "calibration", "criteria": {"min_qubits": 8.9}}
    with pytest.raises(DocumentError) as excinfo:
        constraint_from_dict(doc)
    assert excinfo.value.path == "constraint.criteria.min_qubits"


@pytest.mark.parametrize(
    "value", [math.nan, math.inf, -math.inf, 10**400], ids=["nan", "inf", "minus_inf", "huge_int"]
)
def test_constraint_from_dict_rejects_non_finite_numbers(value):
    docs = {
        "constraint.policy.threshold": {
            "type": "packed_chsh",
            "policy": {"kind": "min", "threshold": value},
        },
        "constraint.criteria.max_readout_error": {
            "type": "calibration",
            "criteria": {"max_readout_error": value},
        },
    }
    for path, doc in docs.items():
        # json writes and reads NaN, Infinity and integers of any size.
        with pytest.raises(DocumentError, match="expected a finite number") as excinfo:
            constraint_from_dict(json.loads(json.dumps(doc)))
        assert excinfo.value.path == path


def test_constraint_from_dict_bad_policy():
    with pytest.raises(DocumentError, match="policy.kind"):
        constraint_from_dict({"type": "packed_chsh", "policy": {"kind": "exact", "threshold": 1}})
    with pytest.raises(DocumentError, match="threshold"):
        constraint_from_dict({"type": "packed_chsh", "policy": {"kind": "min"}})


@pytest.mark.parametrize(
    "doc, path",
    [
        ({"type": ["and"], "children": []}, "constraint.type"),
        ({"type": {"and": 1}}, "constraint.type"),
        ({"type": "packed_chsh", "policy": {"kind": ["min"], "threshold": 2}}, "constraint.policy.kind"),
        ({"type": "not", "children": [{"type": ["calibration"]}]}, "constraint.children[0].type"),
    ],
    ids=["list_type", "object_type", "list_policy_kind", "list_child_type"],
)
def test_constraint_from_dict_rejects_a_one_of_field_that_is_not_a_string(doc, path):
    # Each used to escape as a bare TypeError: unhashable type.
    with pytest.raises(DocumentError) as excinfo:
        constraint_from_dict(doc)
    assert excinfo.value.path == path


def test_constraint_from_dict_child_errors_name_their_path():
    doc = {"type": "not", "children": [{"type": "nope"}]}
    with pytest.raises(DocumentError, match=r"children\[0\].type"):
        constraint_from_dict(doc)


def test_constraint_from_dict_not_requires_single_child():
    doc = {
        "type": "not",
        "children": [
            {"type": "calibration", "criteria": {"min_qubits": 1}},
            {"type": "calibration", "criteria": {"min_qubits": 1}},
        ],
    }
    with pytest.raises(DocumentError, match="exactly 1"):
        constraint_from_dict(doc)


def test_every_node_of_a_document_tree_is_stamped_by_the_decision_clock():
    # Each node used to read its own wall clock, so the nodes were stamped
    # outside the decision, and the calibration age was judged against the
    # wall clock rather than the decision's.
    doc = {
        "type": "and",
        "children": [
            {"type": "calibration", "criteria": {"min_qubits": 8, "max_age_s": 60}},
            {"type": "not", "children": [{"type": "packed_chsh", "policy": {"kind": "max", "threshold": 2.0}}]},
            {
                "type": "or",
                "children": [
                    {"type": "packed_chsh", "policy": {"kind": "max", "threshold": 2.0}},
                    {
                        "type": "fresh_within",
                        "ttl_seconds": 60,
                        "children": [{"type": "packed_chsh", "policy": {"kind": "min", "threshold": 2.2}}],
                    },
                ],
            },
        ],
    }
    clock = ManualClock()
    outcome = run_conditionally(
        SimulatorAdapter(NoiseModel.ideal(seed=3), clock=clock),
        constraint_from_dict(doc),
        on_pass=lambda adapter, introspection: clock.advance(1),
        on_fail=lambda adapter, introspection: None,
        shots=1000,
        clock=clock,
    )

    def nodes(result):
        yield result
        for child in result.children:
            yield from nodes(child)

    evaluated = list(nodes(outcome.introspection))
    assert outcome.introspection.passed
    assert [node.constraint_name for node in evaluated] == [
        "AndConstraint", "CalibrationConstraint", "NotConstraint", "PackedCHSHTest",
        "OrConstraint", "PackedCHSHTest", "PackedCHSHTest",
    ]
    assert outcome.finished_at == T0 + timedelta(seconds=1)
    for node in evaluated:
        assert outcome.started_at <= node.evaluated_at <= outcome.finished_at
