"""Backend adapters: one uniform run/calibration interface over
interchangeable execution providers.

Three adapters live here.  ``SimulatorAdapter`` wraps the built-in
simulator.  ``ReplayAdapter`` replays a recorded session from a file, which
stands in for remote providers so queue-delay and stale-calibration
behavior can be tested offline.  ``RecordingAdapter`` wraps any
``BackendAdapter`` and captures its outputs into a recording for later
replay.

Adapters are not thread-safe; use one adapter from one logical thread at a
time.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Callable, Hashable, Mapping
from dataclasses import dataclass, field, replace
from datetime import datetime
from pathlib import Path
from typing import Any

from .calibration import (
    CalibrationSnapshot,
    NoiseModel,
    calibration_from_dict,
    calibration_to_dict,
    check_noise,
    synthetic_calibration_for,
)
from .circuits import BitstringCounts, Circuit, check_circuit, circuit_sha256
from .errors import (
    BackendError, CalibrationError, RecordingExhausted, check_aware, check_shots, check_tuple,
    check_type,
)
from .fields import decode, each, integer, join, located, obj, record, string, unreadable
from .simulator import run_shots
from .timestamps import format_timestamp, parse_timestamp, utc_now

_MASK64 = (1 << 64) - 1


def derive_seed(base: int, index: int) -> int:
    """Deterministic 64-bit sub-seed for run ``index`` of a session.

    The splitmix64 output function applied to base + (index+1) steps of the
    golden-ratio increment; distinct indices give uncorrelated streams while
    the whole session stays reproducible from ``base``.
    """
    z = (base + 0x9E3779B97F4A7C15 * (index + 1)) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


@dataclass(frozen=True)
class ExperimentResult:
    """One backend execution: counts plus provenance metadata."""

    counts: BitstringCounts
    shots: int
    backend_name: str
    submitted_at: datetime
    completed_at: datetime
    metadata: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self):
        if not isinstance(self.counts, BitstringCounts):
            object.__setattr__(self, "counts", BitstringCounts(self.counts))
        object.__setattr__(self, "shots", check_shots(self.shots, BackendError))
        check_type(self.backend_name, str, "backend_name", BackendError)
        check_aware(self.submitted_at, "submitted_at", BackendError)
        check_aware(self.completed_at, "completed_at", BackendError)
        # A record whose metadata is not all strings could not be replayed.
        for key, value in check_type(self.metadata, Mapping, "metadata", BackendError).items():
            check_type(key, str, "metadata key", BackendError)
            check_type(value, str, f"metadata[{key!r}]", BackendError)
        if self.counts.total != self.shots:
            raise BackendError(
                f"counts sum to {self.counts.total} but shots is {self.shots}"
            )
        if self.completed_at < self.submitted_at:
            raise BackendError("completed_at precedes submitted_at")

    def to_dict(self) -> dict[str, Any]:
        return {
            "counts": self.counts.to_dict(),
            "shots": self.shots,
            "backend_name": self.backend_name,
            "submitted_at": format_timestamp(self.submitted_at),
            "completed_at": format_timestamp(self.completed_at),
            "metadata": dict(self.metadata),
        }


class BackendAdapter(ABC):
    """The polymorphic execution boundary all runtime code talks to; the
    constraints and the executor accept no adapter that does not subclass it."""

    @abstractmethod
    def run(self, circuit: Circuit, shots: int) -> ExperimentResult:
        """Execute (or replay) a circuit and return its counts."""

    @abstractmethod
    def calibration(self) -> CalibrationSnapshot:
        """The backend's current device-properties snapshot."""

    @abstractmethod
    def name(self) -> str:
        """Stable identifier used in results and reports."""

    def cache_key(self) -> Hashable:
        """What this backend's results depend on besides the request: results
        of adapters with equal keys are interchangeable evidence.  Defaults
        to ``name()``."""
        return self.name()


class SimulatorAdapter(BackendAdapter):
    """Runs circuits on the built-in noisy simulator.

    Run ``i`` of a session uses the sub-seed ``derive_seed(noise.seed, i)``,
    so repeated runs are statistically independent while a whole session
    replays bit-identically from the base seed.  A calibration snapshot
    passed in is served as given, its own ``taken_at`` included.  Without
    one, each read serves the snapshot that follows from the noise model
    (:func:`synthetic_calibration_for`), stamped by the adapter's clock at
    that read.  It is always current: the age a constraint judges is the gap
    between that read and the constraint's clock, 0 when both read one
    frozen clock.
    """

    def __init__(
        self,
        noise: NoiseModel | None = None,
        synthetic_calibration: CalibrationSnapshot | None = None,
        clock: Callable[[], datetime] = utc_now,
    ):
        self._noise = check_noise(noise) if noise is not None else NoiseModel()
        if synthetic_calibration is not None:
            check_type(synthetic_calibration, CalibrationSnapshot, "synthetic_calibration", CalibrationError)
        self._supplied = synthetic_calibration
        self._clock = check_type(clock, Callable, "clock", BackendError)
        self._run_index = 0

    def run(self, circuit: Circuit, shots: int) -> ExperimentResult:
        submitted = self._clock()
        run_index = self._run_index
        self._run_index += 1
        seed = derive_seed(self._noise.seed, run_index)
        counts = run_shots(circuit, shots, self._noise.with_seed(seed))
        return ExperimentResult(
            counts=counts,
            shots=shots,
            backend_name=self.name(),
            submitted_at=submitted,
            completed_at=self._clock(),
            metadata={"run_index": str(run_index), "derived_seed": str(seed)},
        )

    def calibration(self) -> CalibrationSnapshot:
        if self._supplied is not None:
            return self._supplied
        return synthetic_calibration_for(self._noise, taken_at=self._clock())

    def name(self) -> str:
        return "simulator"

    def cache_key(self) -> Hashable:
        # Every simulator has one name; its noise and the snapshot that
        # constraints judge tell them apart.  The seed only picks the random
        # draws, so it is left out.  A supplied snapshot is judged by its own
        # taken_at too, so all of it is in the key; without one, the snapshot
        # follows from the noise, which the key already holds.
        return (self.name(), self._noise.with_seed(0), self._supplied)


@dataclass(frozen=True, eq=False)
class Recording:
    """A recorded backend session: one calibration and an ordered result list.

    Recordings compare and hash by identity, so a replay's cache key names
    the very recording it replays."""

    calibration: CalibrationSnapshot
    results: tuple[ExperimentResult, ...]

    def __post_init__(self):
        check_type(self.calibration, CalibrationSnapshot, "calibration", BackendError)
        results = check_tuple(self.results, "results", BackendError, ExperimentResult)
        object.__setattr__(self, "results", results)

    def to_dict(self) -> dict[str, Any]:
        return {
            "calibration": calibration_to_dict(self.calibration),
            "results": [r.to_dict() for r in self.results],
        }


def _strings(value: Any, path: str) -> dict[str, str]:
    return {key: string(item, join(path, key)) for key, item in obj(value, path).items()}


_RESULT_FIELDS = {
    "counts": obj,
    "shots": integer,
    "backend_name": string,
    "submitted_at": parse_timestamp,
    "completed_at": parse_timestamp,
    "metadata": _strings,
}


def _result(value: Any, path: str) -> ExperimentResult:
    fields = record(value, path, _RESULT_FIELDS, optional=("metadata",))
    with located(path):
        return ExperimentResult(**fields)


def recording_from_dict(doc: Mapping[str, Any]) -> Recording:
    # Built per call, so instrumentation that replaces calibration_from_dict sees every call.
    readers = {"calibration": calibration_from_dict, "results": each(_result)}
    return Recording(**record(doc, "", readers))


def parse_recording(text: str) -> Recording:
    """A recording from its JSON text; :func:`recording_from_dict` reads a decoded one."""
    return recording_from_dict(decode(text))


class ReplayAdapter(BackendAdapter):
    """Replays a recorded session: each run() returns the next recorded
    result, in order, exactly once.

    Provider results cannot be re-derived from circuits, so each one is
    checked against the request instead: a result whose bitstrings are not
    as wide as the submitted circuit's measured qubits, whose shots are not
    the requested shots, or whose ``circuit_sha256`` (which
    :class:`RecordingAdapter` stores, and older recordings lack) is not the
    submitted circuit's raises :class:`BackendError`.  A circuit that
    is not a ``Circuit`` raises :class:`CircuitError`, and shots that are
    not a positive integer :class:`BackendError`.  A refused request uses
    up no result: the next run is checked against the same one.
    """

    def __init__(self, recording: Recording):
        self._recording = check_type(recording, Recording, "recording", BackendError)
        self._cursor = 0

    @classmethod
    def from_file(cls, path: str | Path) -> "ReplayAdapter":
        """The replay of the recording in the file at ``path``; raises
        :class:`BackendError`, naming the path, when it cannot be read as
        text."""
        try:
            text = Path(path).read_text()
        except (OSError, UnicodeDecodeError) as exc:
            raise BackendError(f"cannot read recording {path}: {unreadable(exc)}") from exc
        return cls(parse_recording(text))

    def run(self, circuit: Circuit, shots: int) -> ExperimentResult:
        check_circuit(circuit)
        shots = check_shots(shots, BackendError)
        if self._cursor >= len(self._recording.results):
            raise RecordingExhausted(
                f"recording holds {len(self._recording.results)} result(s); "
                f"run call {self._cursor + 1} has nothing to replay"
            )
        result = self._recording.results[self._cursor]
        if result.counts.num_bits != circuit.num_measured:
            raise BackendError(
                f"recorded bitstrings have {result.counts.num_bits} bit(s) but the "
                f"submitted circuit measures {circuit.num_measured}"
            )
        if result.shots != shots:
            raise BackendError(f"recorded shots {result.shots} != requested shots {shots}")
        recorded = result.metadata.get("circuit_sha256")
        if recorded is not None and recorded != circuit_sha256(circuit):
            raise BackendError(
                f"recorded circuit_sha256 {recorded} is not the submitted circuit's "
                f"{circuit_sha256(circuit)}"
            )
        self._cursor += 1
        return result

    def calibration(self) -> CalibrationSnapshot:
        return self._recording.calibration

    def name(self) -> str:
        return "replay"

    def cache_key(self) -> Hashable:
        # Replays of one recording share evidence; replays of two never do.
        return (self.name(), self._recording)


class RecordingAdapter(BackendAdapter):
    """Pass-through wrapper that captures another adapter's outputs.

    ``recording()`` packages everything seen so far, suitable for feeding a
    :class:`ReplayAdapter`: every result, and the first calibration snapshot
    served, which is what a constraint judged.  Only if none was served does
    it ask the inner adapter for one.  Each result is recorded, and returned,
    with the submitted circuit's sha256 in its ``circuit_sha256`` metadata,
    so a replay can tell that it answers the same circuit.
    """

    def __init__(self, inner: BackendAdapter):
        self._inner = check_type(inner, BackendAdapter, "inner", BackendError)
        self._results: list[ExperimentResult] = []
        self._served: CalibrationSnapshot | None = None

    def run(self, circuit: Circuit, shots: int) -> ExperimentResult:
        digest = circuit_sha256(check_circuit(circuit))
        result = self._inner.run(circuit, shots)
        check_type(result, ExperimentResult, "run() result", BackendError)
        result = replace(result, metadata={**result.metadata, "circuit_sha256": digest})
        self._results.append(result)
        return result

    def calibration(self) -> CalibrationSnapshot:
        snapshot = self._inner.calibration()
        if self._served is None:
            self._served = snapshot
        return snapshot

    def name(self) -> str:
        return self._inner.name()

    def cache_key(self) -> Hashable:
        return self._inner.cache_key()

    def recording(self) -> Recording:
        served = self._served if self._served is not None else self._inner.calibration()
        return Recording(calibration=served, results=tuple(self._results))
