"""Backend adapters: one uniform run/calibration interface over
interchangeable execution providers.

Three adapters live here.  ``SimulatorAdapter`` wraps the built-in
simulator.  ``ReplayAdapter`` replays a recorded session from a file, which
stands in for remote providers so queue-delay and stale-calibration
behavior can be tested offline.  ``RecordingAdapter`` wraps any adapter and
captures its outputs into a recording for later replay.

Adapters are not thread-safe; use one adapter from one logical thread at a
time.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from datetime import datetime
from pathlib import Path
from typing import Any, Callable, Hashable, Mapping

from .calibration import (
    CalibrationSnapshot,
    calibration_from_dict,
    calibration_to_dict,
    synthetic_calibration_for,
)
from .circuits import BitstringCounts, Circuit
from .errors import (
    BackendError, CalibrationError, RecordingExhausted, check_aware, check_shots, check_tuple,
    check_type,
)
from .fields import decode, each, integer, join, located, obj, record, string
from .simulator import NoiseModel, check_noise, run_shots
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
    """The polymorphic execution boundary all runtime code talks to."""

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
    replays bit-identically from the base seed.  The calibration snapshot is
    synthetic; by default its error fields mirror the noise model.
    """

    def __init__(
        self,
        noise: NoiseModel | None = None,
        synthetic_calibration: CalibrationSnapshot | None = None,
        clock: Callable[[], datetime] = utc_now,
    ):
        self._noise = check_noise(noise) if noise is not None else NoiseModel()
        if synthetic_calibration is None:
            synthetic_calibration = synthetic_calibration_for(self._noise)
        self._calibration = check_type(
            synthetic_calibration, CalibrationSnapshot, "synthetic_calibration", CalibrationError
        )
        self._clock = check_type(clock, Callable, "clock", BackendError)
        self._run_index = 0

    @property
    def noise(self) -> NoiseModel:
        return self._noise

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
        return self._calibration.with_taken_at(self._clock())

    def name(self) -> str:
        return "simulator"

    def cache_key(self) -> Hashable:
        # Every simulator has one name; its noise and the snapshot that
        # constraints judge tell them apart.  The seed only picks the random
        # draws, and calibration() restamps taken_at, so both are left out.
        snapshot = self._calibration
        judged = (snapshot.num_qubits, snapshot.qubits, snapshot.gates, snapshot.coupling_map)
        return (self.name(), self._noise.with_seed(0), judged)


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


def parse_recording(document: str | Mapping[str, Any]) -> Recording:
    """Parse a recording document (JSON text or decoded mapping)."""
    return recording_from_dict(decode(document) if isinstance(document, str) else document)


class ReplayAdapter(BackendAdapter):
    """Replays a recorded session: each run() returns the next recorded
    result, in order, exactly once.

    The submitted circuit is logged, not interpreted, because provider
    recordings cannot be re-derived from circuits.  With ``strict=True``
    each replayed result must be shaped like an answer to the submitted
    request: bitstring width equal to the circuit's measured-qubit count and
    recorded shots equal to the requested shots.
    """

    def __init__(self, recording: Recording, strict: bool = False):
        self._recording = check_type(recording, Recording, "recording", BackendError)
        self._strict = check_type(strict, bool, "strict", BackendError)
        self._cursor = 0
        self.submitted: list[tuple[Circuit, int]] = []

    @classmethod
    def from_file(cls, path: str | Path, strict: bool = False) -> "ReplayAdapter":
        return cls(parse_recording(Path(path).read_text()), strict=strict)

    def run(self, circuit: Circuit, shots: int) -> ExperimentResult:
        self.submitted.append((circuit, shots))
        if self._cursor >= len(self._recording.results):
            raise RecordingExhausted(
                f"recording holds {len(self._recording.results)} result(s); "
                f"run call {self._cursor + 1} has nothing to replay"
            )
        result = self._recording.results[self._cursor]
        self._cursor += 1
        if self._strict:
            if result.counts.num_bits != circuit.num_measured:
                raise BackendError(
                    f"recorded bitstrings have {result.counts.num_bits} bit(s) but the "
                    f"submitted circuit measures {circuit.num_measured}"
                )
            if result.shots != shots:
                raise BackendError(
                    f"recorded shots {result.shots} != requested shots {shots}"
                )
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
    it ask the inner adapter for one.
    """

    def __init__(self, inner: BackendAdapter):
        self._inner = inner
        self._results: list[ExperimentResult] = []
        self._served: CalibrationSnapshot | None = None

    def run(self, circuit: Circuit, shots: int) -> ExperimentResult:
        result = self._inner.run(circuit, shots)
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
