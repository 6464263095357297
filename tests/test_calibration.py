import json
import math
from datetime import datetime, timezone

import numpy as np
import pytest

from qguard import (
    CalibrationError,
    CalibrationSnapshot,
    DocumentError,
    GateCalibration,
    NoiseModel,
    QubitCalibration,
    calibration_from_dict,
    calibration_to_dict,
    parse_calibration,
    synthetic_calibration_for,
)

NOW = datetime(2026, 8, 21, 12, 0, 0, tzinfo=timezone.utc)


def sample_doc():
    return {
        "taken_at": "2026-08-21T12:00:00Z",
        "num_qubits": 2,
        "qubits": [
            {"t1_us": 100.0, "t2_us": 80.0, "readout_error": 0.01},
            {"t1_us": 120.0, "t2_us": 100.0, "readout_error": 0.02},
        ],
        "gates": [
            {"name": "u", "qubits": [0], "error": 0.001},
            {"name": "cnot", "qubits": [0, 1], "error": 0.01},
        ],
        "coupling_map": [[0, 1], [1, 0]],
    }


def test_parse_sample():
    snapshot = parse_calibration(json.dumps(sample_doc()))
    assert snapshot.num_qubits == 2
    assert snapshot.qubits[0].t1_us == 100.0
    assert snapshot.qubits[1].readout_error == 0.02
    assert snapshot.gates[1].qubits == (0, 1)
    assert snapshot.coupling_map == ((0, 1), (1, 0))
    assert snapshot.taken_at == NOW


def test_round_trip():
    snapshot = parse_calibration(json.dumps(sample_doc()))
    assert calibration_from_dict(calibration_to_dict(snapshot)) == snapshot


def test_rejects_t2_above_physical_bound():
    doc = sample_doc()
    doc["qubits"][0]["t2_us"] = 250.0
    with pytest.raises(CalibrationError, match="2\\*t1"):
        calibration_from_dict(doc)


def test_rejects_out_of_range_readout_error():
    doc = sample_doc()
    doc["qubits"][1]["readout_error"] = 1.5
    with pytest.raises(CalibrationError, match="readout_error"):
        calibration_from_dict(doc)


def test_rejects_missing_coupling_map():
    doc = sample_doc()
    del doc["coupling_map"]
    with pytest.raises(DocumentError, match="coupling_map"):
        calibration_from_dict(doc)


def test_rejects_bad_timestamp():
    doc = sample_doc()
    doc["taken_at"] = "yesterday"
    with pytest.raises(DocumentError, match="taken_at"):
        calibration_from_dict(doc)


def test_rejects_naive_timestamp():
    doc = sample_doc()
    doc["taken_at"] = "2026-08-21T12:00:00"
    with pytest.raises(DocumentError, match="offset"):
        calibration_from_dict(doc)


def test_rejects_qubit_record_count_mismatch():
    doc = sample_doc()
    doc["num_qubits"] = 3
    with pytest.raises(CalibrationError, match="num_qubits"):
        calibration_from_dict(doc)


def test_rejects_gate_on_unknown_qubit():
    doc = sample_doc()
    doc["gates"][0]["qubits"] = [5]
    with pytest.raises(CalibrationError, match="outside"):
        calibration_from_dict(doc)


def test_rejects_coupling_outside_device():
    doc = sample_doc()
    doc["coupling_map"].append([0, 9])
    with pytest.raises(CalibrationError, match="coupling"):
        calibration_from_dict(doc)


def test_error_paths_name_the_field():
    doc = sample_doc()
    doc["qubits"][1]["t1_us"] = "fast"
    with pytest.raises(DocumentError, match=r"qubits\[1\].t1_us"):
        calibration_from_dict(doc)


def test_rejects_nonpositive_times():
    with pytest.raises(CalibrationError):
        QubitCalibration(t1_us=0.0, t2_us=0.0, readout_error=0.0)


@pytest.mark.parametrize(
    "times", [(math.nan, 100.0), (math.inf, 100.0), (120.0, math.nan), (120.0, math.inf)]
)
def test_rejects_non_finite_times(times):
    # A NaN T1 on the last of 8 qubits used to pass min_t1_us=50 with a
    # worst T1 of 120, and on the first qubit to fail with a worst of nan.
    t1, t2 = times
    with pytest.raises(CalibrationError, match="finite"):
        CalibrationSnapshot(
            taken_at=NOW,
            num_qubits=8,
            qubits=(QubitCalibration(120.0, 100.0, 0.01),) * 7
            + (QubitCalibration(t1_us=t1, t2_us=t2, readout_error=0.01),),
            gates=(),
            coupling_map=(),
        )


@pytest.mark.parametrize("where, path", [((), ""), (("qubits", 1), "qubits[1]"), (("gates", 0), "gates[0]")])
def test_rejects_unknown_fields(where, path):
    doc = sample_doc()
    target = doc
    for key in where:
        target = target[key]
    target["t3_us"] = 90.0
    with pytest.raises(DocumentError, match="t3_us") as caught:
        calibration_from_dict(doc)
    assert caught.value.path == path


def test_gate_record_validation():
    with pytest.raises(CalibrationError):
        GateCalibration(name="u", qubits=(), error=0.1)
    with pytest.raises(CalibrationError):
        GateCalibration(name="u", qubits=(0,), error=1.2)


def snapshot_with(**fields):
    one_qubit = dict(
        taken_at=NOW,
        num_qubits=1,
        qubits=(QubitCalibration(100.0, 80.0, 0.01),),
        gates=(),
        coupling_map=(),
    )
    return CalibrationSnapshot(**{**one_qubit, **fields})


# Each used to escape as a bare TypeError, AttributeError or ValueError.
@pytest.mark.parametrize(
    "build",
    [
        lambda: QubitCalibration("100", 80.0, 0.01),
        lambda: QubitCalibration(100.0, 80.0, None),
        lambda: GateCalibration("u", (0,), "0.1"),
        lambda: GateCalibration("u", ("a",), 0.1),
        lambda: snapshot_with(num_qubits="1"),
        lambda: snapshot_with(taken_at="2026-08-21T12:00:00Z"),
        lambda: snapshot_with(coupling_map=("x",)),
        lambda: snapshot_with(qubits=5),
        # Accepted, so that CalibrationConstraint later crashed on it.
        lambda: snapshot_with(qubits=("x",)),
        lambda: snapshot_with(gates=("x",)),
        # Accepted, so that its calibration document could not be parsed back.
        lambda: GateCalibration(5, (0,), 0.01),
    ],
    ids=[
        "string_t1",
        "missing_readout_error",
        "string_gate_error",
        "string_gate_qubit",
        "string_num_qubits",
        "string_taken_at",
        "string_coupling_pair",
        "int_qubits",
        "string_qubit_record",
        "string_gate_record",
        "int_gate_name",
    ],
)
def test_wrong_typed_record_raises_calibration_error(build):
    with pytest.raises(CalibrationError, match="must be"):
        build()


def test_gate_qubits_accept_any_iterable_of_integers():
    for qubits in (range(2), [0, 1], np.array([0, 1]), (q for q in (0, 1))):
        assert GateCalibration("cx", qubits, 0.01).qubits == (0, 1)
    with pytest.raises(CalibrationError, match="^gate qubits must be an iterable, got 0$"):
        GateCalibration("u", 0, 0.1)
    with pytest.raises(CalibrationError, match="^gate qubit must be an integer, got 0.0$"):
        GateCalibration("u", (0.0,), 0.1)


def test_snapshot_requires_aware_timestamp():
    with pytest.raises(CalibrationError, match="aware"):
        CalibrationSnapshot(
            taken_at=datetime(2026, 1, 1),
            num_qubits=1,
            qubits=(QubitCalibration(100.0, 80.0, 0.01),),
            gates=(),
            coupling_map=(),
        )


def test_synthetic_calibration_mirrors_noise():
    noise = NoiseModel(p1=0.004, p2=0.03, readout_flip=0.017, seed=0)
    snapshot = synthetic_calibration_for(noise, num_qubits=4, taken_at=NOW)
    assert snapshot.num_qubits == 4
    assert len(snapshot.qubits) == 4
    assert all(q.readout_error == 0.017 for q in snapshot.qubits)
    single = [g for g in snapshot.gates if len(g.qubits) == 1]
    double = [g for g in snapshot.gates if len(g.qubits) == 2]
    assert all(g.error == 0.004 for g in single)
    assert all(g.error == 0.03 for g in double)
    assert len(single) == 4
    assert len(double) == 3
    assert (0, 1) in snapshot.coupling_map and (1, 0) in snapshot.coupling_map


@pytest.mark.parametrize("num_qubits", ["a", 2.5])
def test_synthetic_calibration_rejects_a_width_that_is_not_an_integer(num_qubits):
    # Each used to escape as a bare TypeError from range().
    with pytest.raises(CalibrationError, match="num_qubits"):
        synthetic_calibration_for(NoiseModel(), num_qubits=num_qubits, taken_at=NOW)


@pytest.mark.parametrize("times", [(10**400, 1.0), (1.0, 10**400)])
def test_rejects_relaxation_times_too_large_for_a_float(times):
    # 10**400 used to escape as a bare OverflowError from 2.0 * t1.
    with pytest.raises(CalibrationError, match="finite"):
        QubitCalibration(*times, 0.1)


@pytest.mark.parametrize("stamp", ["0001-01-01T00:00:00+01:00", "9999-12-31T23:59:59-01:00"])
def test_rejects_a_timestamp_outside_the_utc_calendar(stamp):
    # Shifting either to UTC leaves years 1..9999; it used to escape as a
    # bare OverflowError.
    doc = sample_doc()
    doc["taken_at"] = stamp
    with pytest.raises(DocumentError) as caught:
        calibration_from_dict(doc)
    assert caught.value.path == "taken_at"
