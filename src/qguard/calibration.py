"""The device model: the simulator's noise model, calibration snapshots
(device properties at a point in time) and their documents.

Both are pure data.  A snapshot carries its own ``taken_at`` timestamp, and
staleness judgment lives entirely in the constraints layer, so everything
here is testable with synthetic clocks and files.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, replace
from datetime import datetime
from typing import Any

from .errors import (
    CalibrationError, DocumentError, NoiseModelError, as_float, check_aware, check_integer,
    check_real, check_tuple, check_type, is_index, is_real,
)
from .fields import decode, each, integer, integers, items, number, record, string
from .timestamps import format_timestamp, parse_timestamp, utc_now


@dataclass(frozen=True)
class QubitCalibration:
    t1_us: float
    t2_us: float
    readout_error: float

    def __post_init__(self):
        for name in ("t1_us", "t2_us", "readout_error"):
            check_real(getattr(self, name), name, CalibrationError, finite=True)
        t1, t2 = as_float(self.t1_us), as_float(self.t2_us)
        if not (t1 > 0.0 and t2 > 0.0):
            raise CalibrationError(
                f"relaxation times must be positive, got t1={self.t1_us}, t2={self.t2_us}"
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
        check_type(self.name, str, "gate name", CalibrationError)
        qubits = check_tuple(self.qubits, "gate qubits", CalibrationError)
        object.__setattr__(
            self, "qubits", tuple([check_integer(q, "gate qubit", CalibrationError) for q in qubits])
        )
        check_real(self.error, "gate error", CalibrationError)
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
        for name, kind in (("qubits", QubitCalibration), ("gates", GateCalibration)):
            records = check_tuple(getattr(self, name), name, CalibrationError, kind)
            object.__setattr__(self, name, records)
        check_aware(self.taken_at, "taken_at", CalibrationError)
        check_integer(self.num_qubits, "num_qubits", CalibrationError)
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
        coupling = []
        for pair in check_tuple(self.coupling_map, "coupling_map", CalibrationError):
            pair = check_tuple(pair, "coupling pair", CalibrationError)
            if len(pair) != 2:
                raise CalibrationError(f"coupling pair must be two qubit indices, got {pair!r}")
            a = check_integer(pair[0], "coupling qubit", CalibrationError)
            b = check_integer(pair[1], "coupling qubit", CalibrationError)
            if not (0 <= a < self.num_qubits and 0 <= b < self.num_qubits):
                raise CalibrationError(f"coupling pair ({a}, {b}) outside 0..{self.num_qubits - 1}")
            coupling.append((a, b))
        object.__setattr__(self, "coupling_map", tuple(coupling))


@dataclass(frozen=True)
class NoiseModel:
    """Stochastic noise parameters plus the seed that fixes all randomness.

    The default magnitudes are placeholders sized for tests, not calibrated
    to any particular device.  ``ideal()`` gives the zero-noise model.
    """

    p1: float = 0.001
    p2: float = 0.01
    readout_flip: float = 0.02
    seed: int = 0

    def __post_init__(self):
        problems = {}
        for name in ("p1", "p2", "readout_flip"):
            value = getattr(self, name)
            if not is_real(value) or not 0 <= value <= 1:
                problems[name] = f"expected a probability in [0, 1], got {value!r}"
            else:
                object.__setattr__(self, name, float(value))
        seed = self.seed
        if not is_index(seed) or not 0 <= seed < 2**64:
            problems["seed"] = f"expected an unsigned 64-bit integer, got {seed!r}"
        if problems:
            raise NoiseModelError(problems)
        object.__setattr__(self, "seed", int(seed))

    @classmethod
    def ideal(cls, seed: int = 0) -> "NoiseModel":
        return cls(p1=0.0, p2=0.0, readout_flip=0.0, seed=seed)

    def with_seed(self, seed: int) -> "NoiseModel":
        return replace(self, seed=seed)


def check_noise(noise: Any) -> NoiseModel:
    """``noise``; raises :class:`NoiseModelError` unless it is a ``NoiseModel``."""
    if not isinstance(noise, NoiseModel):
        raise NoiseModelError({"noise": f"expected a NoiseModel, got {noise!r}"})
    return noise


def synthetic_calibration_for(
    noise: NoiseModel, num_qubits: int = 8, taken_at: datetime | None = None
) -> CalibrationSnapshot:
    """A plausible snapshot whose error entries mirror a simulator noise model.

    Readout error equals ``readout_flip``, single-qubit gate errors ``p1``,
    CNOT errors ``p2``, so calibration-threshold constraints exercise the
    same numbers that drive the simulator.  T1/T2 are fixed mid-range values.
    """
    check_noise(noise)
    check_integer(num_qubits, "num_qubits", CalibrationError)
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
    if len(items(value, path)) != 2:
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


def parse_calibration(text: str) -> CalibrationSnapshot:
    """A snapshot from its JSON text; :func:`calibration_from_dict` reads a decoded one.

    Schema violations raise :class:`DocumentError` naming the field;
    physical-bound violations raise :class:`CalibrationError`.
    """
    return calibration_from_dict(decode(text))
