"""Resource-aware conditional execution runtime for quantum circuits.

The shape of a typical use:

    from qguard import (
        SimulatorAdapter, NoiseModel, PackedCHSHTest,
        MinimumAcceptableValue, run_conditionally, phi_plus,
    )

    adapter = SimulatorAdapter(NoiseModel.ideal(seed=7))
    result = run_conditionally(
        adapter,
        constraint=PackedCHSHTest(policy=MinimumAcceptableValue(2.2)),
        on_pass=lambda backend, check: backend.run(phi_plus(), shots=1024),
        on_fail=lambda backend, check: print(f"skipping: S={check['CHSH_score']:.3f}"),
        shots=10_000,
    )
"""

from .backends import (
    BackendAdapter,
    ExperimentResult,
    Recording,
    RecordingAdapter,
    ReplayAdapter,
    SimulatorAdapter,
    derive_seed,
    parse_recording,
    recording_from_dict,
)
from .calibration import (
    CalibrationSnapshot,
    GateCalibration,
    QubitCalibration,
    calibration_from_dict,
    calibration_to_dict,
    parse_calibration,
    synthetic_calibration_for,
)
from .chsh import (
    chsh_score,
    compute_pair_correlator,
    correlator_standard_error,
    score_standard_error,
)
from .circuits import (
    BitstringCounts,
    Circuit,
    Gate,
    GateKind,
    MeasurementSettings,
    chsh_pair_circuit,
    circuit_from_dict,
    circuit_to_dict,
    packed_chsh_circuit,
    parse_circuit,
    phi_plus,
    serialize_circuit,
)
from .constraints import (
    AndConstraint,
    CalibrationConstraint,
    FreshWithin,
    IntrospectionResult,
    MaximumAcceptableValue,
    MinimumAcceptableValue,
    NotConstraint,
    OrConstraint,
    PackedCHSHTest,
    ResourceConstraint,
    constraint_from_dict,
)
from .density_oracle import ORACLE_MAX_QUBITS, density_matrix_oracle
from .errors import (
    BackendError,
    CalibrationError,
    CallbackError,
    CircuitError,
    ConstraintError,
    DocumentError,
    IntrospectionError,
    NoiseModelError,
    NormConservationError,
    OracleLimitError,
    QGuardError,
    RecordingExhausted,
)
from .executor import Branch, ConditionalResult, run_conditionally
from .simulator import SIMULATOR_MAX_QUBITS, NoiseModel, run_shots

__version__ = "0.1.0"

__all__ = [
    "AndConstraint",
    "BackendAdapter",
    "BackendError",
    "BitstringCounts",
    "Branch",
    "CalibrationConstraint",
    "CalibrationError",
    "CalibrationSnapshot",
    "CallbackError",
    "Circuit",
    "CircuitError",
    "ConditionalResult",
    "ConstraintError",
    "DocumentError",
    "ExperimentResult",
    "FreshWithin",
    "Gate",
    "GateCalibration",
    "GateKind",
    "IntrospectionError",
    "IntrospectionResult",
    "MaximumAcceptableValue",
    "MeasurementSettings",
    "MinimumAcceptableValue",
    "NoiseModel",
    "NoiseModelError",
    "NormConservationError",
    "NotConstraint",
    "ORACLE_MAX_QUBITS",
    "OracleLimitError",
    "OrConstraint",
    "PackedCHSHTest",
    "QGuardError",
    "QubitCalibration",
    "Recording",
    "RecordingAdapter",
    "RecordingExhausted",
    "ReplayAdapter",
    "ResourceConstraint",
    "SIMULATOR_MAX_QUBITS",
    "SimulatorAdapter",
    "calibration_from_dict",
    "calibration_to_dict",
    "chsh_pair_circuit",
    "chsh_score",
    "circuit_from_dict",
    "circuit_to_dict",
    "compute_pair_correlator",
    "constraint_from_dict",
    "correlator_standard_error",
    "density_matrix_oracle",
    "derive_seed",
    "packed_chsh_circuit",
    "parse_calibration",
    "parse_circuit",
    "parse_recording",
    "phi_plus",
    "recording_from_dict",
    "run_conditionally",
    "run_shots",
    "score_standard_error",
    "serialize_circuit",
    "synthetic_calibration_for",
    "__version__",
]
