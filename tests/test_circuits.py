import json
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qguard import (
    BitstringCounts,
    Circuit,
    CircuitError,
    DocumentError,
    Gate,
    GateKind,
    MeasurementSettings,
    QGuardError,
    chsh_pair_circuit,
    circuit_from_dict,
    circuit_to_dict,
    packed_chsh_circuit,
    parse_circuit,
    phi_plus,
    serialize_circuit,
)
from qguard.circuits import _checked_num_bits


def test_gate_constructors():
    g = Gate.ry(3, 0.5)
    assert g.kind is GateKind.RY
    assert g.targets == (3,)
    assert g.angle == 0.5
    c = Gate.cnot(0, 1)
    assert c.targets == (0, 1)
    assert c.angle is None


def test_gate_rejects_missing_angle():
    with pytest.raises(CircuitError, match="requires an angle"):
        Gate(GateKind.RX, (0,))


def test_gate_rejects_surplus_angle():
    with pytest.raises(CircuitError, match="takes no angle"):
        Gate(GateKind.H, (0,), 1.0)


def test_gate_rejects_duplicate_targets():
    with pytest.raises(CircuitError, match="distinct"):
        Gate.cnot(2, 2)


def test_gate_rejects_wrong_arity():
    with pytest.raises(CircuitError):
        Gate(GateKind.CNOT, (0,))
    with pytest.raises(CircuitError):
        Gate(GateKind.X, (0, 1))


def test_circuit_validates_targets_against_width():
    with pytest.raises(CircuitError, match="out of range"):
        Circuit(2, (Gate.h(5),), (0,))


def test_circuit_requires_measurement():
    with pytest.raises(CircuitError, match="non-empty"):
        Circuit(2, (Gate.h(0),), ())


def test_circuit_measured_qubits_strictly_increasing():
    with pytest.raises(CircuitError, match="strictly increasing"):
        Circuit(3, (), (1, 0))
    with pytest.raises(CircuitError, match="strictly increasing"):
        Circuit(3, (), (1, 1))


def test_circuit_rejects_out_of_range_measurement():
    with pytest.raises(CircuitError):
        Circuit(2, (), (0, 2))


@pytest.mark.parametrize(
    "angle", [math.nan, math.inf, -math.inf, "abc", "0.5", True, 10**400],
    ids=["nan", "inf", "minus_inf", "string", "numeric_string", "bool", "huge_int"],
)
def test_gate_rejects_a_bad_angle(angle):
    with pytest.raises(CircuitError, match="angle"):
        Gate.rx(0, angle)


def test_gate_accepts_any_finite_real_angle():
    assert Gate.ry(0, 2).angle == 2.0
    assert type(Gate.rz(0, Fraction(1, 4)).angle) is float


@pytest.mark.parametrize(
    "build",
    [
        lambda: Gate.h("a"),
        lambda: Gate.h(1.0),
        lambda: Gate.cnot(0, True),
        lambda: Circuit("2", (), (0,)),
        lambda: Circuit(2.5, (), (0,)),
        lambda: Circuit(2, (), (0.0,)),
    ],
    ids=["string_target", "float_target", "bool_target", "string_width", "float_width", "float_measured"],
)
def test_non_integer_indices_raise_a_typed_error(build):
    with pytest.raises(CircuitError, match="must be an integer") as excinfo:
        build()
    assert isinstance(excinfo.value, QGuardError)
    assert isinstance(excinfo.value, ValueError)


@pytest.mark.parametrize(
    "build",
    [
        lambda: Gate(GateKind.H, 0),
        lambda: Gate("H", (0,)),
        lambda: Circuit(2, None, (0,)),
        lambda: Circuit(2, (), 0),
        lambda: BitstringCounts(5),
        lambda: BitstringCounts([5]),
        lambda: BitstringCounts([("00", 1)]),
        lambda: packed_chsh_circuit(MeasurementSettings(a0="x")),
        lambda: MeasurementSettings(b1=True),
        # The first used to escape as a bare TypeError from the negation,
        # and the second built RY(-1.0).
        lambda: chsh_pair_circuit("x", 0),
        lambda: chsh_pair_circuit(True, 0),
    ],
    ids=[
        "int_targets", "string_kind", "none_gates", "int_measured",
        "int_counts", "int_counts_entry", "pair_list_counts", "string_setting", "bool_setting",
        "string_pair_angle", "bool_pair_angle",
    ],
)
def test_malformed_gate_and_circuit_fields_raise_a_typed_error(build):
    with pytest.raises(CircuitError) as excinfo:
        build()
    assert isinstance(excinfo.value, QGuardError)


def test_phi_plus_structure():
    c = phi_plus()
    assert c.num_qubits == 2
    assert c.gates == (Gate.h(0), Gate.cnot(0, 1))
    assert c.measured_qubits == (0, 1)


def test_packed_chsh_gate_census():
    c = packed_chsh_circuit()
    census = Counter(g.kind for g in c.gates)
    assert census == {GateKind.H: 4, GateKind.CNOT: 4, GateKind.RY: 8}
    assert c.num_qubits == 8
    assert c.measured_qubits == tuple(range(8))


def test_packed_chsh_rotation_angles():
    s = MeasurementSettings()
    c = packed_chsh_circuit(s)
    rotations = {g.targets[0]: g.angle for g in c.gates if g.kind is GateKind.RY}
    assert rotations == {
        0: -s.a0, 1: -s.b0,
        2: -s.a0, 3: -s.b1,
        4: -s.a1, 5: -s.b0,
        6: -s.a1, 7: -s.b1,
    }


def test_packed_chsh_one_rotation_per_qubit():
    c = packed_chsh_circuit(MeasurementSettings(a0=0.1, a1=0.2, b0=0.3, b1=0.4))
    rotated = [g.targets[0] for g in c.gates if g.kind is GateKind.RY]
    assert sorted(rotated) == list(range(8))


def test_packed_chsh_circuit_is_built_once_per_settings():
    settings = MeasurementSettings(a0=0.1)
    built = packed_chsh_circuit(settings)
    assert packed_chsh_circuit(MeasurementSettings(a0=0.1)) is built
    assert packed_chsh_circuit() is packed_chsh_circuit()
    other = packed_chsh_circuit(MeasurementSettings(a0=0.2))
    assert other is not built and other != built
    assert other.gates[8] == Gate.ry(0, -0.2)


def test_packed_chsh_no_cross_pair_entanglement():
    c = packed_chsh_circuit()
    for g in c.gates:
        pairs = {t // 2 for t in g.targets}
        assert len(pairs) == 1


def test_chsh_pair_circuit_structure():
    c = chsh_pair_circuit(0.25, -0.5)
    assert c.num_qubits == 2
    assert c.gates[0] == Gate.h(0)
    assert c.gates[1] == Gate.cnot(0, 1)
    assert c.gates[2] == Gate.ry(0, -0.25)
    assert c.gates[3] == Gate.ry(1, 0.5)


def test_default_settings_are_the_canonical_angles():
    s = MeasurementSettings()
    assert s.a0 == 0.0
    assert s.a1 == pytest.approx(math.pi / 2)
    assert s.b0 == pytest.approx(math.pi / 4)
    assert s.b1 == pytest.approx(-math.pi / 4)


# --- counts ----------------------------------------------------------------


def test_counts_basic():
    counts = BitstringCounts({"00": 3, "11": 5})
    assert counts.total == 8
    assert counts.num_bits == 2
    assert counts["11"] == 5
    assert counts == {"00": 3, "11": 5}
    assert dict(counts) == {"00": 3, "11": 5}


def test_counts_rejects_mixed_lengths():
    with pytest.raises(CircuitError, match="mixed"):
        BitstringCounts({"0": 1, "00": 1})


def counts_error(counts):
    with pytest.raises(CircuitError) as excinfo:
        BitstringCounts(counts)
    return str(excinfo.value)


def test_counts_rejects_bad_keys():
    assert counts_error({"0x": 1}) == "invalid bitstring key '0x'"
    assert counts_error({"": 1}) == "invalid bitstring key ''"
    assert counts_error({0: 1}) == "invalid bitstring key 0"
    assert counts_error({"01": 1, "1 ": 1}) == "invalid bitstring key '1 '"


def test_counts_rejects_bad_values():
    for bad in (-1, 1.5, True, np.int64(1)):
        assert counts_error({"0": bad}) == "count for '0' must be a non-negative integer"
    # Entries are checked in order, so the bad count is named before the bad length.
    assert counts_error({"00": 1, "11": -1, "0": 2}) == "count for '11' must be a non-negative integer"


def test_counts_accepts_str_and_int_subclasses():
    class Bits(str):
        pass

    class Count(int):
        pass

    counts = BitstringCounts({Bits("01"): Count(3), "10": 1})
    assert counts == {"01": 3, "10": 1}
    assert counts.num_bits == 2
    assert counts.total == 4


@given(
    st.dictionaries(
        st.text("01x", max_size=3) | st.integers(0, 1),
        st.integers(-1, 3) | st.booleans() | st.floats(0, 3),
        max_size=4,
    )
)
def test_counts_accept_exactly_what_the_entry_by_entry_walk_accepts(counts):
    try:
        expected = _checked_num_bits(counts)
    except CircuitError as exc:
        assert counts_error(counts) == str(exc)
    else:
        assert BitstringCounts(counts).num_bits == expected


def test_counts_rejects_empty():
    with pytest.raises(CircuitError):
        BitstringCounts({})


# --- documents -------------------------------------------------------------


def test_round_trip_phi_plus():
    assert parse_circuit(serialize_circuit(phi_plus())) == phi_plus()


def test_round_trip_packed():
    c = packed_chsh_circuit()
    assert parse_circuit(serialize_circuit(c)) == c


def test_document_field_shapes():
    doc = circuit_to_dict(phi_plus())
    assert doc == {
        "num_qubits": 2,
        "gates": [
            {"kind": "H", "targets": [0]},
            {"kind": "CNOT", "targets": [0, 1]},
        ],
        "measure": [0, 1],
    }


def test_parse_rejects_unknown_kind():
    doc = {"num_qubits": 1, "gates": [{"kind": "SWAP", "targets": [0]}], "measure": [0]}
    with pytest.raises(DocumentError, match=r"gates\[0\].kind"):
        circuit_from_dict(doc)


def test_parse_rejects_missing_angle():
    doc = {"num_qubits": 1, "gates": [{"kind": "RY", "targets": [0]}], "measure": [0]}
    with pytest.raises(DocumentError, match="angle"):
        circuit_from_dict(doc)


def test_parse_rejects_out_of_range_target():
    doc = {"num_qubits": 2, "gates": [{"kind": "X", "targets": [5]}], "measure": [0]}
    with pytest.raises(DocumentError, match="out of range"):
        circuit_from_dict(doc)


def test_parse_rejects_unknown_gate_field():
    doc = {
        "num_qubits": 1,
        "gates": [{"kind": "X", "targets": [0], "power": 2}],
        "measure": [0],
    }
    with pytest.raises(DocumentError, match="unknown field"):
        circuit_from_dict(doc)


def test_parse_rejects_unknown_circuit_field():
    doc = {"num_qubits": 1, "gates": [], "measure": [0], "measured_qubits": [5]}
    with pytest.raises(DocumentError, match="measured_qubits") as excinfo:
        circuit_from_dict(doc)
    assert excinfo.value.path == ""


def test_parse_reports_missing_fields():
    with pytest.raises(DocumentError, match="num_qubits"):
        circuit_from_dict({"gates": [], "measure": [0]})
    with pytest.raises(DocumentError, match="measure"):
        circuit_from_dict({"num_qubits": 1, "gates": []})


def test_parse_rejects_bad_json():
    with pytest.raises(DocumentError, match="invalid JSON"):
        parse_circuit("{not json")


def test_parse_rejects_non_integer_targets():
    doc = {"num_qubits": 1, "gates": [{"kind": "X", "targets": [0.5]}], "measure": [0]}
    with pytest.raises(DocumentError, match=r"targets\[0\]"):
        circuit_from_dict(doc)


_ANGLED = (GateKind.RX, GateKind.RY, GateKind.RZ)


@st.composite
def circuits(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    gates = []
    for _ in range(draw(st.integers(min_value=0, max_value=12))):
        kind = draw(st.sampled_from(sorted(GateKind, key=lambda k: k.value)))
        if kind is GateKind.CNOT and n < 2:
            kind = GateKind.X
        if kind is GateKind.CNOT:
            control = draw(st.integers(0, n - 1))
            target = draw(st.integers(0, n - 2))
            if target >= control:
                target += 1
            gates.append(Gate.cnot(control, target))
        elif kind in _ANGLED:
            angle = draw(
                st.floats(-10, 10, allow_nan=False, allow_infinity=False)
            )
            gates.append(Gate(kind, (draw(st.integers(0, n - 1)),), angle))
        else:
            gates.append(Gate(kind, (draw(st.integers(0, n - 1)),)))
    measured = draw(
        st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True)
    )
    return Circuit(n, tuple(gates), tuple(sorted(measured)))


@given(circuits())
def test_round_trip_property(circuit):
    assert parse_circuit(serialize_circuit(circuit)) == circuit


@given(circuits())
def test_document_is_plain_json(circuit):
    doc = circuit_to_dict(circuit)
    assert json.loads(json.dumps(doc)) == doc


def test_gate_takes_a_numpy_float32_angle_without_a_warning():
    # abs(angle) <= sys.float_info.max cast the bound to float32 and warned
    # of an overflow, which the suite's filterwarnings = error turns into a
    # failure.
    import numpy as np

    gate = Gate.rx(0, np.float32(1.0))
    assert gate.angle == 1.0
    assert type(gate.angle) is float

