import json
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest

from qguard import (
    BackendError,
    BitstringCounts,
    CircuitError,
    DocumentError,
    ExperimentResult,
    NoiseModel,
    Recording,
    RecordingAdapter,
    RecordingExhausted,
    ReplayAdapter,
    SimulatorAdapter,
    derive_seed,
    parse_recording,
    phi_plus,
)

T0 = datetime(2026, 8, 21, 10, 0, 0, tzinfo=timezone.utc)


class TickingClock:
    """Synthetic clock advancing a fixed step per reading."""

    def __init__(self, start=T0, step=timedelta(seconds=1)):
        self.now = start
        self.step = step

    def __call__(self):
        current = self.now
        self.now = self.now + self.step
        return current


# --- ExperimentResult ------------------------------------------------------


def test_result_counts_must_sum_to_shots():
    with pytest.raises(BackendError, match="sum"):
        ExperimentResult(
            counts=BitstringCounts({"00": 3}),
            shots=10,
            backend_name="x",
            submitted_at=T0,
            completed_at=T0,
        )


def test_result_rejects_counts_that_are_not_a_histogram():
    # This used to escape as a bare TypeError.
    with pytest.raises(CircuitError):
        ExperimentResult(counts=5, shots=1, backend_name="x", submitted_at=T0, completed_at=T0)


@pytest.mark.parametrize("shots", ["1", True, 1.5, 0])
def test_result_rejects_bad_shots_with_a_typed_error(shots):
    # "1" used to escape as a bare TypeError, and True was accepted.
    with pytest.raises(BackendError, match="positive integer"):
        ExperimentResult(
            counts=BitstringCounts({"0": 1}),
            shots=shots,
            backend_name="x",
            submitted_at=T0,
            completed_at=T0,
        )


def test_result_takes_a_numpy_integer_shot_count_as_int():
    result = ExperimentResult(
        counts={"0": 4}, shots=np.int64(4), backend_name="x", submitted_at=T0, completed_at=T0
    )
    assert type(result.shots) is int
    assert json.dumps(result.to_dict()["shots"]) == "4"


def test_result_timestamps_must_be_ordered():
    with pytest.raises(BackendError, match="precedes"):
        ExperimentResult(
            counts=BitstringCounts({"0": 1}),
            shots=1,
            backend_name="x",
            submitted_at=T0,
            completed_at=T0 - timedelta(seconds=5),
        )


@pytest.mark.parametrize(
    "moment", ["2026-08-21T10:00:00Z", datetime(2026, 8, 21, 10)], ids=["string", "naive"]
)
@pytest.mark.parametrize("field", ["submitted_at", "completed_at"])
def test_result_rejects_a_timestamp_that_is_not_an_aware_datetime(field, moment):
    # Each used to escape as a bare TypeError from the ordering check.
    stamps = {"submitted_at": T0, "completed_at": T0, field: moment}
    with pytest.raises(BackendError, match=f"{field} must be a timezone-aware datetime"):
        ExperimentResult(counts={"0": 1}, shots=1, backend_name="x", **stamps)


def test_result_wraps_plain_dict_counts():
    result = ExperimentResult(
        counts={"0": 4},
        shots=4,
        backend_name="x",
        submitted_at=T0,
        completed_at=T0,
    )
    assert isinstance(result.counts, BitstringCounts)


# --- SimulatorAdapter ------------------------------------------------------


def test_simulator_adapter_contract():
    adapter = SimulatorAdapter(NoiseModel.ideal(seed=1))
    result = adapter.run(phi_plus(), 1024)
    assert result.counts.total == 1024
    assert result.shots == 1024
    assert result.backend_name == "simulator"
    assert adapter.name() == "simulator"
    assert result.completed_at >= result.submitted_at
    assert "run_index" in result.metadata


def test_simulator_counts_width_matches_measured_qubits():
    adapter = SimulatorAdapter(NoiseModel(seed=3))
    result = adapter.run(phi_plus(), 64)
    assert result.counts.num_bits == phi_plus().num_measured


def test_zero_noise_bell_outcomes():
    adapter = SimulatorAdapter(NoiseModel.ideal(seed=5))
    result = adapter.run(phi_plus(), 10_000)
    assert set(result.counts) <= {"00", "11"}


def test_calibration_taken_at_non_decreasing():
    clock = TickingClock()
    adapter = SimulatorAdapter(NoiseModel.ideal(), clock=clock)
    first = adapter.calibration()
    second = adapter.calibration()
    assert second.taken_at > first.taken_at
    assert first.qubits == second.qubits


def test_repeat_runs_are_independent_but_sessions_reproduce():
    noise = NoiseModel(p1=0.01, p2=0.02, readout_flip=0.01, seed=99)
    a = SimulatorAdapter(noise)
    b = SimulatorAdapter(noise)
    a1, a2 = a.run(phi_plus(), 4096), a.run(phi_plus(), 4096)
    b1, b2 = b.run(phi_plus(), 4096), b.run(phi_plus(), 4096)
    assert dict(a1.counts) == dict(b1.counts)
    assert dict(a2.counts) == dict(b2.counts)
    assert dict(a1.counts) != dict(a2.counts)


def test_derive_seed_properties():
    seeds = {derive_seed(7, i) for i in range(200)}
    assert len(seeds) == 200
    assert all(0 <= s < 2**64 for s in seeds)
    assert derive_seed(7, 3) == derive_seed(7, 3)
    assert derive_seed(7, 0) != derive_seed(8, 0)


# --- recording and replay --------------------------------------------------


def make_recording(num_results=2):
    clock = TickingClock()
    inner = SimulatorAdapter(NoiseModel.ideal(seed=11), clock=clock)
    recorder = RecordingAdapter(inner)
    for _ in range(num_results):
        recorder.run(phi_plus(), 256)
    return recorder.recording()


def test_recording_round_trips_through_json():
    recording = make_recording()
    text = json.dumps(recording.to_dict())
    parsed = parse_recording(text)
    assert parsed.calibration.num_qubits == recording.calibration.num_qubits
    assert len(parsed.results) == 2
    for original, replayed in zip(recording.results, parsed.results):
        assert dict(replayed.counts) == dict(original.counts)
        assert replayed.shots == original.shots
        assert replayed.submitted_at == original.submitted_at


def test_replay_returns_results_in_order_exactly_once():
    recording = make_recording(2)
    adapter = ReplayAdapter(recording)
    first = adapter.run(phi_plus(), 256)
    second = adapter.run(phi_plus(), 256)
    assert dict(first.counts) == dict(recording.results[0].counts)
    assert dict(second.counts) == dict(recording.results[1].counts)
    with pytest.raises(RecordingExhausted):
        adapter.run(phi_plus(), 256)


@pytest.mark.parametrize(
    "build, what",
    [
        (lambda: Recording("x", ("y",)), "calibration"),
        (lambda: Recording(make_recording(0).calibration, ("y",)), r"results\[0\]"),
        (lambda: Recording(make_recording(0).calibration, 5), "results"),
        (lambda: ReplayAdapter("x"), "recording"),
        (lambda: ExperimentResult({"0": 1}, 1, 5, T0, T0), "backend_name"),
        (lambda: ExperimentResult({"0": 1}, 1, "x", T0, T0, {1: "2"}), "metadata key"),
        (lambda: ExperimentResult({"0": 1}, 1, "x", T0, T0, {"k": 2}), r"metadata\['k'\]"),
        (lambda: ExperimentResult({"0": 1}, 1, "x", T0, T0, 5), "metadata"),
        (lambda: ReplayAdapter(make_recording(0), strict="no"), "strict"),
    ],
    ids=[
        "string_calibration", "string_result", "int_results", "string_recording",
        "int_backend_name", "int_metadata_key", "int_metadata_value", "int_metadata",
        "string_strict",
    ],
)
def test_recording_and_replay_reject_values_of_the_wrong_type(build, what):
    # A lenient replay of the second used to return "y" as evidence, and the
    # third escaped as a bare TypeError.  The three results were accepted, and
    # recordings holding them could not be parsed back; the last turned
    # strict mode on.
    with pytest.raises(BackendError, match=f"^{what} must be "):
        build()


def test_replay_ignores_submitted_circuit_but_logs_it():
    recording = make_recording(1)
    adapter = ReplayAdapter(recording)
    other = phi_plus()
    adapter.run(other, 999)
    assert adapter.submitted == [(other, 999)]


def test_replay_verbatim_even_for_odd_counts():
    result = ExperimentResult(
        counts=BitstringCounts({"00": 700, "11": 324}),
        shots=1024,
        backend_name="device",
        submitted_at=T0,
        completed_at=T0 + timedelta(seconds=30),
    )
    recording = Recording(calibration=make_recording(0).calibration, results=(result,))
    adapter = ReplayAdapter(recording)
    replayed = adapter.run(phi_plus(), 1024)
    assert dict(replayed.counts) == {"00": 700, "11": 324}
    assert replayed.backend_name == "device"


def test_replay_calibration_is_the_recorded_snapshot():
    recording = make_recording(0)
    adapter = ReplayAdapter(recording)
    assert adapter.calibration() is recording.calibration
    assert adapter.name() == "replay"


def test_strict_replay_checks_bit_width():
    recording = make_recording(1)  # 2-bit results
    adapter = ReplayAdapter(recording, strict=True)
    from qguard import Circuit, Gate

    wide = Circuit(3, (Gate.h(0),), (0, 1, 2))
    with pytest.raises(BackendError, match="bit"):
        adapter.run(wide, 256)


def test_strict_replay_checks_shots():
    recording = make_recording(1)
    adapter = ReplayAdapter(recording, strict=True)
    with pytest.raises(BackendError, match="shots"):
        adapter.run(phi_plus(), 512)


def test_lenient_replay_allows_mismatches():
    recording = make_recording(1)
    adapter = ReplayAdapter(recording, strict=False)
    result = adapter.run(phi_plus(), 512)
    assert result.shots == 256


def test_replay_from_file(tmp_path):
    recording = make_recording(1)
    path = tmp_path / "session.json"
    path.write_text(json.dumps(recording.to_dict()))
    adapter = ReplayAdapter.from_file(path)
    assert dict(adapter.run(phi_plus(), 256).counts) == dict(recording.results[0].counts)


def test_recording_with_unphysical_calibration_rejected_at_load():
    doc = make_recording(1).to_dict()
    doc["calibration"]["qubits"][0]["t2_us"] = 1e9
    from qguard import CalibrationError

    with pytest.raises(CalibrationError):
        parse_recording(json.dumps(doc))


def test_recording_schema_violations():
    with pytest.raises(DocumentError, match="calibration"):
        parse_recording({"results": []})
    doc = make_recording(1).to_dict()
    doc["results"][0]["shots"] = 0
    with pytest.raises(DocumentError, match="shots"):
        parse_recording(doc)
    doc = make_recording(1).to_dict()
    doc["results"][0]["counts"]["00"] = 10**6
    with pytest.raises(DocumentError, match=r"results\[0\]"):
        parse_recording(doc)


@pytest.mark.parametrize(
    "where, key, path",
    [
        ((), "format", ""),
        (("results", 0), "metdata", "results[0]"),
        (("calibration", "qubits", 0), "t3_us", "calibration.qubits[0]"),
    ],
)
def test_recording_rejects_unknown_fields(where, key, path):
    doc = make_recording(1).to_dict()
    target = doc
    for step in where:
        target = target[step]
    target[key] = {}
    with pytest.raises(DocumentError, match=key) as caught:
        parse_recording(doc)
    assert caught.value.path == path


def test_recording_adapter_passthrough():
    inner = SimulatorAdapter(NoiseModel.ideal(seed=2))
    recorder = RecordingAdapter(inner)
    result = recorder.run(phi_plus(), 128)
    assert result.counts.total == 128
    assert recorder.name() == "simulator"
    assert recorder.calibration().num_qubits == inner.calibration().num_qubits


def test_recording_keeps_the_calibration_that_was_served():
    clock = TickingClock(step=timedelta(hours=1))
    recorder = RecordingAdapter(SimulatorAdapter(NoiseModel.ideal(), clock=clock))
    served = recorder.calibration()
    recorder.calibration()  # a later snapshot; the first one is what was judged
    recorder.run(phi_plus(), 16)
    assert recorder.recording().calibration == served
    assert recorder.recording().calibration.taken_at == T0


def test_recording_fetches_a_calibration_if_none_was_served():
    clock = TickingClock(step=timedelta(hours=1))
    recorder = RecordingAdapter(SimulatorAdapter(NoiseModel.ideal(), clock=clock))
    assert recorder.recording().calibration.taken_at == T0


def test_simulator_session_replays_identically():
    # the polymorphism contract: replaying a recorded simulator session is
    # indistinguishable result-wise from the live session
    noise = NoiseModel(p1=0.01, p2=0.05, readout_flip=0.02, seed=77)
    live = RecordingAdapter(SimulatorAdapter(noise))
    live_results = [live.run(phi_plus(), 2048) for _ in range(3)]
    replay = ReplayAdapter(live.recording())
    for live_result in live_results:
        replayed = replay.run(phi_plus(), 2048)
        assert dict(replayed.counts) == dict(live_result.counts)
        assert replayed.shots == live_result.shots
