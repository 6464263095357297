"""Circuit representation, canonical circuits, and the shared document format.

Bit-order convention used everywhere in this package: character ``i`` of a
result bitstring is the measured outcome of ``measured_qubits[i]``, and
position 0 is the leftmost character.  Measurement is terminal only; a
circuit is an ordered gate list followed by a single measurement of
``measured_qubits``.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
from collections.abc import Mapping
from dataclasses import dataclass
from enum import Enum
from typing import Any

from .errors import CircuitError, as_float, check_integer, check_real, check_tuple, check_type
from .fields import choice, decode, each, integer, integers, located, number, record


def _plain_num_bits(items: dict[str, int]) -> int | None:
    """The length shared by the keys of ``items`` when they are plain
    ``str`` strings of "0" and "1" of one length and its counts plain
    non-negative ``int`` values, checked in a few C-level passes; otherwise
    ``None``.  The empty key gives 0, which is no bitstring length either."""
    keys, values = items.keys(), items.values()
    if set(map(type, keys)) != {str} or set(map(type, values)) != {int}:
        return None
    lengths = set(map(len, keys))
    bits = "".join(keys)
    if len(lengths) != 1 or bits.count("0") + bits.count("1") != len(bits) or min(values) < 0:
        return None
    return lengths.pop()


def _checked_num_bits(items: dict[str, int]) -> int:
    """The length shared by the keys of ``items``; raises
    :class:`CircuitError` naming the first entry that is not a bitstring key
    with a non-negative integer count."""
    num_bits: int | None = None
    for key, value in items.items():
        if not isinstance(key, str) or not key or key.strip("01"):
            raise CircuitError(f"invalid bitstring key {key!r}")
        if num_bits is None:
            num_bits = len(key)
        elif len(key) != num_bits:
            raise CircuitError(f"mixed bitstring lengths: {key!r} vs expected length {num_bits}")
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            raise CircuitError(f"count for {key!r} must be a non-negative integer")
    if num_bits is None:
        raise CircuitError("counts must be non-empty")
    return num_bits


class BitstringCounts(Mapping):
    """An outcome histogram, built from a mapping: bitstring -> non-negative count.

    Keys all share one length (the number of measured qubits).  Instances
    are immutable and compare equal to any mapping with the same entries.
    """

    __slots__ = ("_counts", "num_bits")

    def __init__(self, counts: Mapping[str, int]):
        items = dict(check_type(counts, Mapping, "counts", CircuitError))
        # Only a mapping that fails the quick check is walked entry by entry,
        # which names its first bad entry or accepts str and int subclasses.
        self.num_bits = _plain_num_bits(items) or _checked_num_bits(items)
        self._counts = items

    @property
    def total(self) -> int:
        return sum(self._counts.values())

    def __getitem__(self, key: str) -> int:
        return self._counts[key]

    def __iter__(self):
        return iter(self._counts)

    def __len__(self) -> int:
        return len(self._counts)

    def __repr__(self) -> str:
        return f"BitstringCounts({self._counts!r})"

    def to_dict(self) -> dict[str, int]:
        return dict(self._counts)


class GateKind(Enum):
    H = "H"
    X = "X"
    Y = "Y"
    Z = "Z"
    S = "S"
    T = "T"
    RX = "RX"
    RY = "RY"
    RZ = "RZ"
    CNOT = "CNOT"


ROTATION_KINDS = frozenset({GateKind.RX, GateKind.RY, GateKind.RZ})
TWO_QUBIT_KINDS = frozenset({GateKind.CNOT})


@dataclass(frozen=True)
class Gate:
    """One gate application: a kind, its target qubits, and (for rotations) an angle.

    ``targets`` holds one index for single-qubit kinds and ``(control, target)``
    for CNOT.  ``angle`` is in radians and present exactly for RX/RY/RZ.
    """

    kind: GateKind
    targets: tuple[int, ...]
    angle: float | None = None

    def __post_init__(self):
        check_type(self.kind, GateKind, "gate kind", CircuitError)
        targets = check_tuple(self.targets, "targets", CircuitError)
        object.__setattr__(
            self, "targets", tuple(check_integer(t, "qubit index", CircuitError) for t in targets)
        )
        arity = 2 if self.kind in TWO_QUBIT_KINDS else 1
        if len(self.targets) != arity:
            raise CircuitError(
                f"{self.kind.value} takes {arity} target(s), got {len(self.targets)}"
            )
        if len(set(self.targets)) != len(self.targets):
            raise CircuitError(f"{self.kind.value} targets must be distinct: {self.targets}")
        if any(t < 0 for t in self.targets):
            raise CircuitError(f"negative qubit index in {self.targets}")
        if self.kind in ROTATION_KINDS:
            if self.angle is None:
                raise CircuitError(f"{self.kind.value} gate requires an angle")
            # A NaN angle would give a NaN unitary, and every shot outcome 0.
            check_real(self.angle, f"{self.kind.value} angle", CircuitError, finite=True)
            object.__setattr__(self, "angle", as_float(self.angle))
        elif self.angle is not None:
            raise CircuitError(f"{self.kind.value} gate takes no angle")

    @classmethod
    def h(cls, q: int) -> "Gate":
        return cls(GateKind.H, (q,))

    @classmethod
    def x(cls, q: int) -> "Gate":
        return cls(GateKind.X, (q,))

    @classmethod
    def y(cls, q: int) -> "Gate":
        return cls(GateKind.Y, (q,))

    @classmethod
    def z(cls, q: int) -> "Gate":
        return cls(GateKind.Z, (q,))

    @classmethod
    def s(cls, q: int) -> "Gate":
        return cls(GateKind.S, (q,))

    @classmethod
    def t(cls, q: int) -> "Gate":
        return cls(GateKind.T, (q,))

    @classmethod
    def rx(cls, q: int, angle: float) -> "Gate":
        return cls(GateKind.RX, (q,), angle)

    @classmethod
    def ry(cls, q: int, angle: float) -> "Gate":
        return cls(GateKind.RY, (q,), angle)

    @classmethod
    def rz(cls, q: int, angle: float) -> "Gate":
        return cls(GateKind.RZ, (q,), angle)

    @classmethod
    def cnot(cls, control: int, target: int) -> "Gate":
        return cls(GateKind.CNOT, (control, target))


@dataclass(frozen=True)
class Circuit:
    """An ordered gate list over ``num_qubits`` qubits with terminal measurement.

    Immutable after construction; safe to share between threads.
    """

    num_qubits: int
    gates: tuple[Gate, ...]
    measured_qubits: tuple[int, ...]

    def __post_init__(self):
        num_qubits = check_integer(self.num_qubits, "num_qubits", CircuitError)
        object.__setattr__(self, "num_qubits", num_qubits)
        object.__setattr__(self, "gates", check_tuple(self.gates, "gates", CircuitError, Gate))
        measured = check_tuple(self.measured_qubits, "measured_qubits", CircuitError)
        measured = tuple(check_integer(q, "qubit index", CircuitError) for q in measured)
        object.__setattr__(self, "measured_qubits", measured)
        if self.num_qubits < 1:
            raise CircuitError(f"num_qubits must be positive, got {self.num_qubits}")
        for i, gate in enumerate(self.gates):
            for t in gate.targets:
                if t >= self.num_qubits:
                    raise CircuitError(
                        f"gates[{i}]: target {t} out of range for {self.num_qubits} qubit(s)"
                    )
        if not self.measured_qubits:
            raise CircuitError("measured_qubits must be non-empty")
        if any(q < 0 or q >= self.num_qubits for q in self.measured_qubits):
            raise CircuitError(
                f"measured qubit out of range for {self.num_qubits} qubit(s): "
                f"{self.measured_qubits}"
            )
        if any(b <= a for a, b in zip(self.measured_qubits, self.measured_qubits[1:])):
            raise CircuitError(
                f"measured_qubits must be strictly increasing: {self.measured_qubits}"
            )

    @property
    def num_measured(self) -> int:
        return len(self.measured_qubits)


def check_circuit(circuit: Any) -> Circuit:
    """``circuit``; raises :class:`CircuitError` unless it is a ``Circuit``."""
    return check_type(circuit, Circuit, "circuit", CircuitError)


@dataclass(frozen=True)
class MeasurementSettings:
    """The four CHSH measurement angles, in radians.

    ``a0``/``a1`` are the first-qubit (Alice) settings, ``b0``/``b1`` the
    second-qubit (Bob) settings.  The defaults are the canonical angles for
    which a Bell pair reaches the quantum maximum ``S = 2*sqrt(2)``.
    """

    a0: float = 0.0
    a1: float = math.pi / 2
    b0: float = math.pi / 4
    b1: float = -math.pi / 4

    def __post_init__(self):
        for name in ("a0", "a1", "b0", "b1"):
            check_real(getattr(self, name), name, CircuitError)


def phi_plus() -> Circuit:
    """The Bell-pair circuit: H on qubit 0, CNOT 0->1, measure both qubits.

    Prepares (|00> + |11>)/sqrt(2), so a noiseless run yields only the
    outcomes "00" and "11".
    """
    return Circuit(
        num_qubits=2,
        gates=(Gate.h(0), Gate.cnot(0, 1)),
        measured_qubits=(0, 1),
    )


# Every probe asks for the circuit of the same few settings.
@functools.lru_cache(maxsize=8)
def packed_chsh_circuit(settings: MeasurementSettings = MeasurementSettings()) -> Circuit:
    """All four CHSH setting combinations packed into one 8-qubit circuit.

    Pair ``i`` lives on qubits ``(2i, 2i+1)`` and is prepared as a Bell pair;
    the measurement basis is then set by RY(-angle) on each qubit, with the
    pairs using the setting combinations (a0,b0), (a0,b1), (a1,b0), (a1,b1)
    in that order.  Pairs never interact, so one run estimates all four
    correlators at once: bits (0,1) give E00, (2,3) E01, (4,5) E10, (6,7) E11.

    Zero-angle rotations are emitted rather than elided so the circuit shape
    does not depend on the settings.  The circuit, immutable, is built once
    per settings (compared by value) and shared by every later call.
    """
    pair_settings = (
        (settings.a0, settings.b0),
        (settings.a0, settings.b1),
        (settings.a1, settings.b0),
        (settings.a1, settings.b1),
    )
    gates: list[Gate] = []
    for i in range(4):
        gates.append(Gate.h(2 * i))
        gates.append(Gate.cnot(2 * i, 2 * i + 1))
    for i, (alice, bob) in enumerate(pair_settings):
        gates.append(Gate.ry(2 * i, -alice))
        gates.append(Gate.ry(2 * i + 1, -bob))
    return Circuit(num_qubits=8, gates=tuple(gates), measured_qubits=tuple(range(8)))


def chsh_pair_circuit(alice_angle: float, bob_angle: float) -> Circuit:
    """One Bell pair measured at a single CHSH setting combination.

    The 2-qubit analogue of one pair of :func:`packed_chsh_circuit`: each
    correlator of the packed circuit equals that of this circuit at the
    pair's settings.
    """
    check_real(alice_angle, "alice_angle", CircuitError)
    check_real(bob_angle, "bob_angle", CircuitError)
    return Circuit(
        num_qubits=2,
        gates=(
            Gate.h(0),
            Gate.cnot(0, 1),
            Gate.ry(0, -alice_angle),
            Gate.ry(1, -bob_angle),
        ),
        measured_qubits=(0, 1),
    )


# --- document format -------------------------------------------------------
#
# { "num_qubits": int,
#   "gates": [{"kind": str, "targets": [int], "angle": float?}, ...],
#   "measure": [int] }


def circuit_to_dict(circuit: Circuit) -> dict[str, Any]:
    gates = []
    for gate in circuit.gates:
        entry: dict[str, Any] = {"kind": gate.kind.value, "targets": list(gate.targets)}
        if gate.angle is not None:
            entry["angle"] = gate.angle
        gates.append(entry)
    return {
        "num_qubits": circuit.num_qubits,
        "gates": gates,
        "measure": list(circuit.measured_qubits),
    }


@functools.lru_cache(maxsize=16)
def circuit_sha256(circuit: Circuit) -> str:
    """The sha256 of the circuit's compact document, which a recorded result
    carries as its ``circuit_sha256`` metadata.  Cached by circuit value, so
    equal circuits must share one digest: an angle of -0.0, equal to 0.0, is
    hashed as 0.0."""
    doc = circuit_to_dict(circuit)
    for gate in doc["gates"]:
        if "angle" in gate:
            gate["angle"] += 0.0
    return hashlib.sha256(json.dumps(doc, separators=(",", ":")).encode()).hexdigest()


_GATE_KIND = choice({kind.value: kind for kind in GateKind})
_GATE_FIELDS = {"kind": _GATE_KIND, "targets": integers, "angle": number}


def _gate(value: Any, path: str) -> Gate:
    fields = record(value, path, _GATE_FIELDS, optional=("angle",))
    with located(path):
        return Gate(**fields)


_CIRCUIT_FIELDS = {"num_qubits": integer, "gates": each(_gate), "measure": integers}


def circuit_from_dict(doc: Mapping[str, Any], path: str = "") -> Circuit:
    """Build a :class:`Circuit` from its document form.

    Raises :class:`DocumentError` naming the offending field for malformed
    documents, unknown fields, unknown gate kinds, out-of-range indices, and
    missing or surplus angles.
    """
    fields = record(doc, path, _CIRCUIT_FIELDS)
    with located(path):
        return Circuit(fields["num_qubits"], fields["gates"], fields["measure"])


def serialize_circuit(circuit: Circuit) -> str:
    """Render a circuit as its canonical JSON document."""
    return json.dumps(circuit_to_dict(circuit), indent=2)


def parse_circuit(text: str) -> Circuit:
    """Parse a JSON circuit document; inverse of :func:`serialize_circuit`."""
    return circuit_from_dict(decode(text))
