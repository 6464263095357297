"""Calibration snapshots: device properties at a point in time.

Snapshots are pure data.  They carry their own ``taken_at`` timestamp, and
staleness judgment lives entirely in the constraints layer, so everything
here is testable with synthetic clocks and files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from datetime import datetime
from typing import Any, Mapping

from .errors import CalibrationError, DocumentError, as_float, is_index, is_real
from .fields import decode, each, integer, integers, number, record, string
from .simulator import NoiseModel
from .timestamps import format_timestamp, parse_timestamp, utc_now


@dataclass(frozen=True)
class QubitCalibration:
    t1_us: float
    t2_us: float
    readout_error: float

    def __post_init__(self):
        if not (is_real(self.t1_us) and is_real(self.t2_us) and is_real(self.readout_error)):
            raise CalibrationError(
                f"qubit calibration fields must be numbers, got t1_us={self.t1_us!r}, "
                f"t2_us={self.t2_us!r}, readout_error={self.readout_error!r}"
            )
        t1, t2 = as_float(self.t1_us), as_float(self.t2_us)
        # Written so that NaN fails too.
        if not (0.0 < t1 < math.inf and 0.0 < t2 < math.inf):
            raise CalibrationError(
                f"relaxation times must be positive and finite, got t1={self.t1_us}, t2={self.t2_us}"
            )
        # physical bound: T2 can reach at most twice T1
        if t2 > 2.0 * t1:
            raise CalibrationError(f"t2 ({self.t2_us}) exceeds the physical bound 2*t1 ({2.0 * t1})")
        if not 0.0 <= self.readout_error <= 1.0:
            raise CalibrationError(
                f"readout_error must be in [0, 1], got {self.readout_error}"
            )


@dataclass(frozen=True)
class GateCalibration:
    name: str
    qubits: tuple[int, ...]
    error: float

    def __post_init__(self):
        try:
            qubits = tuple(self.qubits)
        except TypeError:
            qubits = None
        if qubits is None or not all(map(is_index, qubits)):
            raise CalibrationError(
                f"gate {self.name!r} qubits must be integers, got {self.qubits!r}"
            )
        if not is_real(self.error):
            raise CalibrationError(f"gate {self.name!r} error must be a number, got {self.error!r}")
        object.__setattr__(self, "qubits", tuple(map(int, qubits)))
        if not self.qubits:
            raise CalibrationError(f"gate {self.name!r} lists no qubits")
        if not 0.0 <= self.error <= 1.0:
            raise CalibrationError(
                f"gate {self.name!r} error must be in [0, 1], got {self.error}"
            )


@dataclass(frozen=True)
class CalibrationSnapshot:
    taken_at: datetime
    num_qubits: int
    qubits: tuple[QubitCalibration, ...]
    gates: tuple[GateCalibration, ...]
    coupling_map: tuple[tuple[int, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "qubits", tuple(self.qubits))
        object.__setattr__(self, "gates", tuple(self.gates))
        try:
            coupling = tuple(map(tuple, self.coupling_map))
        except TypeError:
            coupling = None
        if coupling is None or not all(len(p) == 2 and all(map(is_index, p)) for p in coupling):
            raise CalibrationError(
                f"coupling_map must be pairs of qubit indices, got {self.coupling_map!r}"
            )
        object.__setattr__(self, "coupling_map", tuple((int(a), int(b)) for a, b in coupling))
        if not isinstance(self.taken_at, datetime):
            raise CalibrationError(f"taken_at must be a datetime, got {self.taken_at!r}")
        if self.taken_at.tzinfo is None:
            raise CalibrationError("taken_at must be timezone-aware")
        if not is_index(self.num_qubits):
            raise CalibrationError(f"num_qubits must be an integer, got {self.num_qubits!r}")
        if self.num_qubits < 1:
            raise CalibrationError(f"num_qubits must be positive, got {self.num_qubits}")
        if len(self.qubits) != self.num_qubits:
            raise CalibrationError(
                f"{len(self.qubits)} qubit records for num_qubits={self.num_qubits}"
            )
        for gate in self.gates:
            for q in gate.qubits:
                if not 0 <= q < self.num_qubits:
                    raise CalibrationError(
                        f"gate {gate.name!r} references qubit {q} outside 0..{self.num_qubits - 1}"
                    )
        for a, b in self.coupling_map:
            if not (0 <= a < self.num_qubits and 0 <= b < self.num_qubits):
                raise CalibrationError(
                    f"coupling pair ({a}, {b}) outside 0..{self.num_qubits - 1}"
                )

    def with_taken_at(self, moment: datetime) -> "CalibrationSnapshot":
        return replace(self, taken_at=moment)


def synthetic_calibration_for(
    noise: NoiseModel, num_qubits: int = 8, taken_at: datetime | None = None
) -> CalibrationSnapshot:
    """A plausible snapshot whose error entries mirror a simulator noise model.

    Readout error equals ``readout_flip``, single-qubit gate errors ``p1``,
    CNOT errors ``p2``, so calibration-threshold constraints exercise the
    same numbers that drive the simulator.  T1/T2 are fixed mid-range values.
    """
    if taken_at is None:
        taken_at = utc_now()
    qubits = tuple(
        QubitCalibration(t1_us=120.0, t2_us=100.0, readout_error=noise.readout_flip)
        for _ in range(num_qubits)
    )
    gates = [
        GateCalibration(name="u", qubits=(q,), error=noise.p1) for q in range(num_qubits)
    ]
    coupling = []
    for q in range(num_qubits - 1):
        gates.append(GateCalibration(name="cnot", qubits=(q, q + 1), error=noise.p2))
        coupling.append((q, q + 1))
        coupling.append((q + 1, q))
    return CalibrationSnapshot(
        taken_at=taken_at,
        num_qubits=num_qubits,
        qubits=qubits,
        gates=tuple(gates),
        coupling_map=tuple(coupling),
    )


# --- document format -------------------------------------------------------


def calibration_to_dict(snapshot: CalibrationSnapshot) -> dict[str, Any]:
    return {
        "taken_at": format_timestamp(snapshot.taken_at),
        "num_qubits": snapshot.num_qubits,
        "qubits": [
            {"t1_us": q.t1_us, "t2_us": q.t2_us, "readout_error": q.readout_error}
            for q in snapshot.qubits
        ],
        "gates": [
            {"name": g.name, "qubits": list(g.qubits), "error": g.error}
            for g in snapshot.gates
        ],
        "coupling_map": [list(pair) for pair in snapshot.coupling_map],
    }


def _pair(value: Any, path: str) -> list[int]:
    if not isinstance(value, list) or len(value) != 2:
        raise DocumentError(path, f"expected a pair of qubit indices, got {value!r}")
    return integers(value, path)


_QUBIT_FIELDS = {"t1_us": number, "t2_us": number, "readout_error": number}
_GATE_FIELDS = {"name": string, "qubits": integers, "error": number}
_SNAPSHOT_FIELDS = {
    "taken_at": parse_timestamp,
    "num_qubits": integer,
    "qubits": each(lambda value, path: QubitCalibration(**record(value, path, _QUBIT_FIELDS))),
    "gates": each(lambda value, path: GateCalibration(**record(value, path, _GATE_FIELDS))),
    "coupling_map": each(_pair),
}


def calibration_from_dict(doc: Mapping[str, Any], path: str = "") -> CalibrationSnapshot:
    return CalibrationSnapshot(**record(doc, path, _SNAPSHOT_FIELDS))


def parse_calibration(document: str | Mapping[str, Any]) -> CalibrationSnapshot:
    """Parse a calibration document (JSON text or an already-decoded mapping).

    Schema violations raise :class:`DocumentError` naming the field;
    physical-bound violations raise :class:`CalibrationError`.
    """
    return calibration_from_dict(decode(document) if isinstance(document, str) else document)
