from datetime import datetime, timedelta, timezone

import pytest

from qguard import (
    BackendAdapter,
    Branch,
    CallbackError,
    ConditionalResult,
    ConstraintError,
    FreshWithin,
    IntrospectionError,
    IntrospectionResult,
    MinimumAcceptableValue,
    NoiseModel,
    PackedCHSHTest,
    QGuardError,
    ResourceConstraint,
    SimulatorAdapter,
    phi_plus,
    run_conditionally,
)

T0 = datetime(2026, 8, 21, 12, 0, 0, tzinfo=timezone.utc)


class FixedConstraint(ResourceConstraint):
    def __init__(self, passed):
        self._passed = passed

    def name(self):
        return "fixed"

    def evaluate(self, adapter, shots, clock=None):
        return IntrospectionResult("fixed", self._passed, {"s": 1.0}, T0)


class ExplodingConstraint(ResourceConstraint):
    def name(self):
        return "exploding"

    def evaluate(self, adapter, shots, clock=None):
        raise ConnectionError("backend unreachable")


class SpyAdapter(BackendAdapter):
    """Wraps a real adapter, logging every run call."""

    def __init__(self, inner):
        self._inner = inner
        self.runs = []

    def run(self, circuit, shots):
        self.runs.append((circuit, shots))
        return self._inner.run(circuit, shots)

    def calibration(self):
        return self._inner.calibration()

    def name(self):
        return self._inner.name()


def test_passing_constraint_runs_main_circuit():
    adapter = SimulatorAdapter(NoiseModel.ideal(seed=5))
    check = PackedCHSHTest(MinimumAcceptableValue(2.2))

    def main_computation(backend, introspection):
        assert introspection["CHSH_score"] >= 2.2
        return backend.run(phi_plus(), 1024)

    outcome = run_conditionally(
        adapter,
        check,
        on_pass=main_computation,
        on_fail=lambda backend, introspection: None,
        shots=10_000,
    )
    assert isinstance(outcome, ConditionalResult)
    assert outcome.branch is Branch.PASSED
    assert outcome.main_result is not None
    assert outcome.main_result.shots == 1024
    assert set(outcome.main_result.counts) <= {"00", "11"}
    assert outcome.introspection.passed
    assert outcome.finished_at >= outcome.started_at


def test_failing_constraint_takes_fail_branch():
    adapter = SimulatorAdapter(NoiseModel(p1=0, p2=0.3, readout_flip=0, seed=7))
    check = PackedCHSHTest(MinimumAcceptableValue(2.2))
    fallback_seen = []

    outcome = run_conditionally(
        adapter,
        check,
        on_pass=lambda backend, introspection: backend.run(phi_plus(), 1024),
        on_fail=lambda backend, introspection: fallback_seen.append(introspection),
        shots=10_000,
    )
    assert outcome.branch is Branch.FAILED
    assert len(fallback_seen) == 1
    assert outcome.main_result is None  # append returns None
    assert outcome.introspection["CHSH_score"] < 2.2


@pytest.mark.parametrize("passed", [True, False])
def test_exactly_one_callback_runs(passed):
    calls = []
    run_conditionally(
        SimulatorAdapter(NoiseModel.ideal()),
        FixedConstraint(passed),
        on_pass=lambda a, i: calls.append("pass"),
        on_fail=lambda a, i: calls.append("fail"),
        shots=1,
    )
    assert calls == ["pass" if passed else "fail"]


def test_callback_receives_the_recorded_introspection_object():
    seen = []
    outcome = run_conditionally(
        SimulatorAdapter(NoiseModel.ideal()),
        FixedConstraint(True),
        on_pass=lambda a, i: seen.append(i),
        on_fail=lambda a, i: None,
        shots=1,
    )
    assert seen[0] is outcome.introspection


def test_callback_receives_the_same_adapter():
    adapter = SimulatorAdapter(NoiseModel.ideal())
    seen = []
    run_conditionally(
        adapter,
        FixedConstraint(True),
        on_pass=lambda a, i: seen.append(a),
        on_fail=lambda a, i: None,
        shots=1,
    )
    assert seen[0] is adapter


def test_introspection_error_skips_both_callbacks():
    calls = []
    with pytest.raises(IntrospectionError) as excinfo:
        run_conditionally(
            SimulatorAdapter(NoiseModel.ideal()),
            ExplodingConstraint(),
            on_pass=lambda a, i: calls.append("pass"),
            on_fail=lambda a, i: calls.append("fail"),
            shots=1,
        )
    assert calls == []
    assert excinfo.value.constraint_name == "exploding"
    assert isinstance(excinfo.value.__cause__, ConnectionError)
    assert excinfo.value.failed_at >= excinfo.value.started_at


def test_a_failing_fresh_within_tree_is_named_by_its_wrapper():
    with pytest.raises(IntrospectionError) as excinfo:
        run_conditionally(
            SimulatorAdapter(NoiseModel.ideal()),
            FreshWithin(ExplodingConstraint(), timedelta(seconds=60)),
            on_pass=lambda a, i: None,
            on_fail=lambda a, i: None,
            shots=1,
        )
    assert excinfo.value.constraint_name == "FreshWithin(exploding)"
    assert isinstance(excinfo.value.__cause__, ConnectionError)


def test_callback_error_carries_branch_and_introspection():
    def broken_main(adapter, introspection):
        raise ValueError("postprocessing bug")

    with pytest.raises(CallbackError) as excinfo:
        run_conditionally(
            SimulatorAdapter(NoiseModel.ideal()),
            FixedConstraint(True),
            on_pass=broken_main,
            on_fail=lambda a, i: None,
            shots=1,
        )
    err = excinfo.value
    assert err.branch is Branch.PASSED
    assert err.introspection.passed
    assert isinstance(err.__cause__, ValueError)


def test_fail_branch_callback_error():
    with pytest.raises(CallbackError) as excinfo:
        run_conditionally(
            SimulatorAdapter(NoiseModel.ideal()),
            FixedConstraint(False),
            on_pass=lambda a, i: None,
            on_fail=lambda a, i: 1 / 0,
            shots=1,
        )
    assert excinfo.value.branch is Branch.FAILED
    assert isinstance(excinfo.value.__cause__, ZeroDivisionError)


def test_no_hidden_execution():
    # The executor itself runs nothing: with a constraint and callbacks that
    # never touch the backend, the adapter stays idle.
    adapter = SpyAdapter(SimulatorAdapter(NoiseModel.ideal()))
    run_conditionally(
        adapter,
        FixedConstraint(True),
        on_pass=lambda a, i: "done",
        on_fail=lambda a, i: None,
        shots=500,
    )
    assert adapter.runs == []


def test_all_runs_accounted_for():
    adapter = SpyAdapter(SimulatorAdapter(NoiseModel.ideal(seed=3)))
    check = PackedCHSHTest(MinimumAcceptableValue(2.2))
    run_conditionally(
        adapter,
        check,
        on_pass=lambda backend, introspection: backend.run(phi_plus(), 64),
        on_fail=lambda backend, introspection: None,
        shots=4000,
    )
    assert len(adapter.runs) == 2  # one probe, one main circuit
    assert adapter.runs[0][0].num_qubits == 8
    assert adapter.runs[0][1] == 4000
    assert adapter.runs[1][0].num_qubits == 2
    assert adapter.runs[1][1] == 64


def test_main_result_passthrough_is_opaque():
    payload = {"arbitrary": ["structure", 42]}
    outcome = run_conditionally(
        SimulatorAdapter(NoiseModel.ideal()),
        FixedConstraint(True),
        on_pass=lambda a, i: payload,
        on_fail=lambda a, i: None,
        shots=1,
    )
    assert outcome.main_result is payload


def test_rejects_bad_shots():
    with pytest.raises(ValueError):
        run_conditionally(
            SimulatorAdapter(NoiseModel.ideal()),
            FixedConstraint(True),
            on_pass=lambda a, i: None,
            on_fail=lambda a, i: None,
            shots=0,
        )


def test_bad_shots_raise_a_typed_error_before_any_evaluation():
    with pytest.raises(ConstraintError) as excinfo:
        run_conditionally(
            SimulatorAdapter(NoiseModel.ideal()),
            ExplodingConstraint(),
            on_pass=lambda a, i: None,
            on_fail=lambda a, i: None,
            shots=-1,
        )
    assert isinstance(excinfo.value, QGuardError)


@pytest.mark.parametrize("shots", ["10", 2.5, True], ids=["string", "float", "bool"])
def test_non_integer_shots_raise_a_typed_error_before_any_evaluation(shots):
    with pytest.raises(ConstraintError):
        run_conditionally(
            SimulatorAdapter(NoiseModel.ideal()),
            ExplodingConstraint(),
            on_pass=lambda a, i: None,
            on_fail=lambda a, i: None,
            shots=shots,
        )


@pytest.mark.parametrize("constraint", ["x", None], ids=["string", "none"])
def test_a_constraint_of_the_wrong_type_raises_a_typed_error_before_anything_runs(constraint):
    # "x" used to escape as a bare AttributeError from the handler that
    # reports a failed evaluation.
    adapter = SpyAdapter(SimulatorAdapter(NoiseModel.ideal()))
    called = []
    with pytest.raises(ConstraintError):
        run_conditionally(
            adapter,
            constraint,
            on_pass=lambda a, i: called.append(a),
            on_fail=lambda a, i: called.append(a),
            shots=10,
        )
    assert adapter.runs == [] and called == []


def test_a_clock_that_cannot_be_called_raises_a_typed_error_before_anything_runs():
    # It used to escape as a bare TypeError from the first clock reading.
    adapter = SpyAdapter(SimulatorAdapter(NoiseModel.ideal()))
    with pytest.raises(ConstraintError, match="^clock must be a Callable, got 'x'$"):
        run_conditionally(
            adapter,
            FixedConstraint(True),
            on_pass=lambda a, i: None,
            on_fail=lambda a, i: None,
            shots=10,
            clock="x",
        )
    assert adapter.runs == []


def test_a_clock_that_reads_a_naive_datetime_raises_a_typed_error_before_the_tree_runs():
    # It used to return a record whose started_at and finished_at were naive.
    adapter = SpyAdapter(SimulatorAdapter(NoiseModel.ideal()))
    with pytest.raises(ConstraintError, match="^clock reading must be a timezone-aware datetime"):
        run_conditionally(
            adapter,
            PackedCHSHTest(MinimumAcceptableValue(2.2)),
            on_pass=lambda a, i: pytest.fail("on_pass ran"),
            on_fail=lambda a, i: pytest.fail("on_fail ran"),
            shots=10,
            clock=lambda: datetime(2020, 1, 1),
        )
    assert adapter.runs == []


def test_an_adapter_that_is_not_a_backend_adapter_raises_a_typed_error_before_anything_runs():
    # A constraint that ignores its adapter used to pass, and the callback
    # then ran against the object.
    def clock():
        raise AssertionError("the clock was read")

    with pytest.raises(ConstraintError, match="^adapter must be a BackendAdapter, got <object"):
        run_conditionally(
            object(),
            FixedConstraint(True),
            on_pass=lambda a, i: pytest.fail("on_pass ran"),
            on_fail=lambda a, i: pytest.fail("on_fail ran"),
            shots=10,
            clock=clock,
        )


def test_timestamps_use_injected_clock():
    times = [T0, T0 + timedelta(seconds=5)]
    clock_calls = iter(times)
    outcome = run_conditionally(
        SimulatorAdapter(NoiseModel.ideal()),
        FixedConstraint(True),
        on_pass=lambda a, i: None,
        on_fail=lambda a, i: None,
        shots=1,
        clock=lambda: next(clock_calls),
    )
    assert outcome.started_at == times[0]
    assert outcome.finished_at == times[1]


def test_the_decision_clock_stamps_the_tree_and_ages_its_cache():
    # A tree built with defaults used to read the wall clock: its result was
    # stamped outside [started_at, finished_at], and a 60 s FreshWithin
    # served evidence ten minutes old on the decision's clock.
    now = [datetime(2020, 1, 1, tzinfo=timezone.utc)]

    def clock():
        now[0] += timedelta(seconds=1)
        return now[0]

    fresh = FreshWithin(PackedCHSHTest(MinimumAcceptableValue(2.2)), timedelta(seconds=60))
    adapter = SimulatorAdapter(NoiseModel.ideal(seed=5))

    def decide():
        return run_conditionally(
            adapter, fresh, on_pass=lambda a, i: None, on_fail=lambda a, i: None, shots=1000, clock=clock
        )

    first = decide()
    assert first.started_at < first.introspection.evaluated_at < first.finished_at
    hit = decide()  # a few seconds old on the decision's clock: a cache hit
    assert hit.introspection is first.introspection
    now[0] += timedelta(minutes=10)
    second = decide()
    assert second.introspection is not first.introspection
    assert second.started_at < second.introspection.evaluated_at < second.finished_at
