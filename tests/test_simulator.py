import concurrent.futures
import hashlib
import json
import math
import os
import platform
import signal
import subprocess
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qguard import (
    SIMULATOR_MAX_QUBITS,
    BackendError,
    CalibrationError,
    Circuit,
    CircuitError,
    Gate,
    GateKind,
    MeasurementSettings,
    NoiseModel,
    NoiseModelError,
    NormConservationError,
    QGuardError,
    SimulatorAdapter,
    density_matrix_oracle,
    packed_chsh_circuit,
    phi_plus,
    run_shots,
    synthetic_calibration_for,
)
from qguard import simulator

INV_SQRT2 = 1.0 / math.sqrt(2.0)


@pytest.fixture(autouse=True)
def _cold_cache():
    # No test may see the compiled circuits and memos another test left.
    simulator._compile.cache_clear()
    yield
    simulator._compile.cache_clear()


def test_noise_model_validation():
    with pytest.raises(ValueError):
        NoiseModel(p1=-0.1)
    with pytest.raises(ValueError):
        NoiseModel(p2=1.5)
    with pytest.raises(ValueError):
        NoiseModel(seed=-1)
    with pytest.raises(ValueError):
        NoiseModel(seed=2**64)


@pytest.mark.parametrize(
    "kwargs, field",
    [({"p1": True}, "p1"), ({"seed": 1.5}, "seed"), ({"p1": "0.1"}, "p1")],
    ids=["bool_probability", "fractional_seed", "string_probability"],
)
def test_noise_model_rejects_wrong_types(kwargs, field):
    with pytest.raises(NoiseModelError) as excinfo:
        NoiseModel(**kwargs)
    assert isinstance(excinfo.value, QGuardError)
    assert isinstance(excinfo.value, ValueError)
    assert set(excinfo.value.problems) == {field}


def test_noise_model_reports_every_bad_field():
    with pytest.raises(NoiseModelError) as excinfo:
        NoiseModel(p1=1.5, readout_flip=-1, seed=-1)
    assert set(excinfo.value.problems) == {"p1", "readout_flip", "seed"}


def test_noise_model_defaults_and_ideal():
    placeholder = NoiseModel()
    assert placeholder.p1 == 0.001
    assert placeholder.p2 == 0.01
    assert placeholder.readout_flip == 0.02
    ideal = NoiseModel.ideal(seed=9)
    assert (ideal.p1, ideal.p2, ideal.readout_flip, ideal.seed) == (0.0, 0.0, 0.0, 9)
    assert ideal.with_seed(4).seed == 4


def _state(num_qubits: int, *gates: Gate) -> np.ndarray:
    """The (2,)*n state after ``gates`` from |0...0>, evolved noiselessly
    through the simulator's kernels."""
    circuit = Circuit(num_qubits, gates, (0,))
    codes = np.zeros((1, len(gates)), dtype=np.int8)
    return simulator._evolve(circuit, codes, tuple(range(num_qubits)))[..., 0]


def test_hadamard_on_zero():
    np.testing.assert_allclose(_state(1, Gate.h(0)), [INV_SQRT2, INV_SQRT2], atol=1e-12)


def test_cnot_completes_bell_pair():
    # After H alone the state is (|00> + |10>)/sqrt(2).
    np.testing.assert_allclose(
        _state(2, Gate.h(0)), [[INV_SQRT2, 0.0], [INV_SQRT2, 0.0]], atol=1e-12
    )
    np.testing.assert_allclose(
        _state(2, Gate.h(0), Gate.cnot(0, 1)), [[INV_SQRT2, 0.0], [0.0, INV_SQRT2]], atol=1e-12
    )


def test_ry_pi_flips_zero():
    probs = np.abs(_state(1, Gate.ry(0, math.pi))) ** 2
    np.testing.assert_allclose(probs, [0.0, 1.0], atol=1e-12)


def test_cnot_respects_control_order():
    # target-before-control exercises the axis bookkeeping
    probs = np.abs(_state(2, Gate.x(1), Gate.cnot(1, 0)).reshape(-1)) ** 2
    np.testing.assert_allclose(probs, [0.0, 0.0, 0.0, 1.0], atol=1e-12)


def test_apply_gate_leaves_input_untouched():
    amps = np.random.default_rng(0).normal(size=(2, 2, 3)).astype(np.complex128)
    before = amps.copy()
    for gate in (Gate.h(0), Gate.cnot(0, 1)):
        simulator._apply_gate(amps, gate, gate.targets)
        np.testing.assert_array_equal(amps, before)


_SELF_INVERSE = (Gate.h(0), Gate.x(0), Gate.y(0), Gate.z(0), Gate.h(1), Gate.cnot(0, 1))


@given(st.integers(0, 2**32), st.sampled_from(range(len(_SELF_INVERSE))))
@settings(max_examples=60, deadline=None)
def test_self_inverse_gates_twice_is_identity(seed, gate_index):
    gate = _SELF_INVERSE[gate_index]
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=4) + 1j * rng.normal(size=4)
    raw /= np.linalg.norm(raw)
    amps = raw.reshape(2, 2, 1)
    twice = simulator._apply_gate(simulator._apply_gate(amps, gate, gate.targets), gate, gate.targets)
    np.testing.assert_allclose(twice, amps, atol=1e-10)


@given(st.integers(0, 2**32))
@settings(max_examples=30, deadline=None)
def test_norm_preserved_through_random_gate_chain(seed):
    rng = np.random.default_rng(seed)
    gates = []
    for _ in range(15):
        kind = rng.choice(list(GateKind))
        if kind is GateKind.CNOT:
            control, target = rng.choice(3, size=2, replace=False)
            gates.append(Gate.cnot(int(control), int(target)))
        elif kind in (GateKind.RX, GateKind.RY, GateKind.RZ):
            gates.append(Gate(kind, (int(rng.integers(3)),), float(rng.uniform(-7, 7))))
        else:
            gates.append(Gate(kind, (int(rng.integers(3)),)))
        assert abs(np.linalg.norm(_state(3, *gates)) - 1.0) < 1e-10


# --- run_shots -------------------------------------------------------------


def test_run_shots_rejects_zero_shots():
    with pytest.raises(ValueError):
        run_shots(phi_plus(), 0, NoiseModel.ideal())


@pytest.mark.parametrize("shots", [0, -3, 2.5, True, "10"])
def test_run_shots_rejects_bad_shots_with_a_typed_error(shots):
    with pytest.raises(CircuitError, match="shots") as excinfo:
        run_shots(phi_plus(), shots, NoiseModel.ideal())
    assert isinstance(excinfo.value, QGuardError)
    assert isinstance(excinfo.value, ValueError)


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: run_shots(None, 10, NoiseModel()), CircuitError),
        (lambda: run_shots([], 10, NoiseModel()), CircuitError),
        (lambda: run_shots(phi_plus(), 10, None), NoiseModelError),
        (lambda: run_shots(phi_plus(), 10, {"p1": 0}), NoiseModelError),
        (lambda: density_matrix_oracle(None, NoiseModel()), CircuitError),
        (lambda: density_matrix_oracle(phi_plus(), None), NoiseModelError),
        (lambda: SimulatorAdapter(noise="x"), NoiseModelError),
        (lambda: SimulatorAdapter(synthetic_calibration="x"), CalibrationError),
        (lambda: synthetic_calibration_for("x"), NoiseModelError),
        (lambda: SimulatorAdapter(clock="x"), BackendError),
    ],
    ids=[
        "none_circuit", "list_circuit", "none_noise", "dict_noise",
        "oracle_circuit", "oracle_noise", "adapter_noise",
        "adapter_calibration", "synthetic_calibration_noise", "adapter_clock",
    ],
)
def test_entry_points_reject_arguments_of_the_wrong_type(call, error):
    # Each used to escape as a bare AttributeError, the adapter's calibration
    # only once calibration() was called.  The check comes before the
    # compile cache, which an unhashable argument would break.
    with pytest.raises(error):
        call()
    assert simulator._compile.cache_info().misses == 0


def test_run_shots_accepts_a_numpy_integer():
    assert run_shots(phi_plus(), np.int64(7), NoiseModel.ideal()).total == 7


def test_noiseless_bell_counts():
    counts = run_shots(phi_plus(), 4096, NoiseModel.ideal(seed=13))
    assert set(counts) <= {"00", "11"}
    assert counts.total == 4096
    # 5 sigma around the half split, sigma = sqrt(4096)/2 = 32
    assert abs(counts.get("00", 0) - 2048) <= 160


def test_fully_randomized_readout():
    counts = run_shots(
        phi_plus(), 40_000, NoiseModel(p1=0, p2=0, readout_flip=0.5, seed=5)
    )
    sigma = math.sqrt(40_000 * 0.25 * 0.75)
    for key in ("00", "01", "10", "11"):
        assert abs(counts.get(key, 0) - 10_000) <= 5 * sigma


def test_determinism_same_seed():
    noise = NoiseModel(p1=0.02, p2=0.05, readout_flip=0.03, seed=123)
    circuit = phi_plus()
    a = run_shots(circuit, 5000, noise)
    b = run_shots(circuit, 5000, noise)
    assert dict(a) == dict(b)


def test_different_seeds_differ():
    circuit = phi_plus()
    a = run_shots(circuit, 5000, NoiseModel(p1=0.05, p2=0.05, readout_flip=0.05, seed=1))
    b = run_shots(circuit, 5000, NoiseModel(p1=0.05, p2=0.05, readout_flip=0.05, seed=2))
    assert dict(a) != dict(b)


def test_bitstring_position_tracks_measured_qubits():
    # X on qubit 1 of 3: string position 1 reads qubit 1
    circuit = Circuit(3, (Gate.x(1),), (0, 1, 2))
    counts = run_shots(circuit, 100, NoiseModel.ideal())
    assert dict(counts) == {"010": 100}


def test_leftmost_bit_is_first_measured_qubit():
    circuit = Circuit(2, (Gate.x(0),), (0, 1))
    counts = run_shots(circuit, 50, NoiseModel.ideal())
    assert dict(counts) == {"10": 50}


def test_measured_subset_marginalizes():
    # measure only qubit 1 of a Bell pair: uniform single bit
    circuit = Circuit(2, (Gate.h(0), Gate.cnot(0, 1)), (1,))
    counts = run_shots(circuit, 10_000, NoiseModel.ideal(seed=3))
    assert set(counts) == {"0", "1"}
    assert abs(counts["0"] - 5000) <= 5 * 50


def test_measured_subset_selects_correct_qubit():
    circuit = Circuit(2, (Gate.x(0),), (1,))
    assert dict(run_shots(circuit, 20, NoiseModel.ideal())) == {"0": 20}
    circuit = Circuit(2, (Gate.x(0),), (0,))
    assert dict(run_shots(circuit, 20, NoiseModel.ideal())) == {"1": 20}


def test_gateless_circuit():
    circuit = Circuit(2, (), (0, 1))
    assert dict(run_shots(circuit, 10, NoiseModel.ideal())) == {"00": 10}


def test_counts_total_always_matches_shots():
    noise = NoiseModel(p1=0.1, p2=0.2, readout_flip=0.1, seed=7)
    counts = run_shots(phi_plus(), 777, noise)
    assert counts.total == 777
    assert counts.num_bits == 2


def test_certain_depolarizing_mixes_single_qubit():
    # p1=1 after H: the qubit ends maximally mixed
    circuit = Circuit(1, (Gate.h(0),), (0,))
    counts = run_shots(circuit, 40_000, NoiseModel(p1=1.0, p2=0, readout_flip=0, seed=2))
    assert abs(counts["0"] - 20_000) <= 5 * 100


def test_full_readout_flip_inverts_deterministic_outcome():
    circuit = Circuit(1, (Gate.x(0),), (0,))
    counts = run_shots(circuit, 30, NoiseModel(p1=0, p2=0, readout_flip=1.0, seed=0))
    assert dict(counts) == {"0": 30}


def test_qubit_cap_rejects_before_allocating():
    wide = SIMULATOR_MAX_QUBITS + 1
    with pytest.raises(CircuitError):
        run_shots(Circuit(wide, (Gate.h(0),), (0,)), 10, NoiseModel.ideal())


# --- determinism pins --------------------------------------------------------
# sha256 of the sorted-JSON counts.  The grid and the first two cases were
# recorded with the per-trajectory simulator that batched evolution replaced;
# the readout-only and ideal cases with the dense per-shot code matrix that
# the noisy-shot layout replaced.  The same (circuit, shots, noise) must keep
# giving byte-identical counts.


def _digest(counts) -> str:
    return hashlib.sha256(json.dumps(dict(counts), sort_keys=True).encode()).hexdigest()


_CIRCUITS = {"packed_chsh": packed_chsh_circuit, "phi_plus": phi_plus}

# (circuit, p2, seed) -> digest; 2000 shots, p1=0.001, readout_flip=0.02.
_PINNED_GRID = {
    ("packed_chsh", 0.0, 0): "b4ad02854a76477807ca4d99877f3b1b27018cd05668375ceb0eba98845363f4",
    ("packed_chsh", 0.0, 1): "fff6210337a194f74ba69099352e4c7a4bd9c84400d5cde8579ecbdc162c96fa",
    ("packed_chsh", 0.0, 2): "c98547d44271fe16b24d938f7df13bce7c7f03f9f5081df6ced8a412a13f5ae3",
    ("packed_chsh", 0.01, 0): "e4f99978846d470b6ab2ad343b5fbf3fee66fabac9b226ce17289ec5f6312176",
    ("packed_chsh", 0.01, 1): "2004a448b9c94d6dff35d0afde2d8d537686c426959971c664e79786ed3c7940",
    ("packed_chsh", 0.01, 2): "a71e577e51fd43fac66d1cb496d435b94c492bb3d07fd2026bb3e7d50ac246a0",
    ("packed_chsh", 0.3, 0): "39f0582bd560fed4d7b2b378bb715090e4653f9d231487b45ef27417f46501eb",
    ("packed_chsh", 0.3, 1): "55301a2f4b9494d00ab7d20c63cd4f722437fb813d6c3f18a9203113be4c2a99",
    ("packed_chsh", 0.3, 2): "f20a8d4741a288e1ed9fae77c81d2f1cd80ee7ff592e44c09abfe97928d00fd6",
    ("packed_chsh", 1.0, 0): "6dec4c7d154071de49d69307be2e00a4fade8703662f265c659834f289333a0f",
    ("packed_chsh", 1.0, 1): "3008505e722f32c491ede0e12903572fef189faed604fe9565783bae0491b16a",
    ("packed_chsh", 1.0, 2): "193ef3e31ebf01bd0ebc8180c4d739ef6c734cac26d18a91edba08b304c51c02",
    ("phi_plus", 0.0, 0): "7f473e986f66af90dc8b652bcdc859366620fde04f0d33fed1fabe26e5dca091",
    ("phi_plus", 0.0, 1): "37037816b9fb42ee4b3dec216c76487211e751cfbe9f95998f00167fac3be653",
    ("phi_plus", 0.0, 2): "cc9209d84f7ebe06f7bc42617fd4f83b65ac573d98d5df3cd9f29a48b58efb7f",
    ("phi_plus", 0.01, 0): "958671237fe23da5d2ea60ada879b89918823d8b9c9f96ad9a72b136cd3e6ebc",
    ("phi_plus", 0.01, 1): "10b58c1fdd8547deb0ef1654d4689b271e27d1b678eaed32371a5387ede9657a",
    ("phi_plus", 0.01, 2): "95f4af400a4bd11ec9b1f7a6e4b9d50e3bbaebb8f3aeb482b254a008c80e633c",
    ("phi_plus", 0.3, 0): "757f983a7cec7357627b83ad0b0a22fd5321e5b5ee5d21141b1bdb87666b918f",
    ("phi_plus", 0.3, 1): "40478ee99476a0242df2a5c2af6f59434de4cffb45d7ce3111dae588db85a6dc",
    ("phi_plus", 0.3, 2): "08463025b8cada3e04fdf6981d27765147439bc0f0f6723c4f60f0b797dbc7b4",
    ("phi_plus", 1.0, 0): "3a1bd2f4dba7a3bda7f5426ae7802dbb7cbaffcab1b0f9a8a2abd8393d435cef",
    ("phi_plus", 1.0, 1): "0b8ee8764ca2f74639c8c374997e02fa53dd30d82a73d5b7fa881101050aa2f9",
    ("phi_plus", 1.0, 2): "56d0ad8f2ab43166fbdd05dcb6f584357b836def5ee8e9641aa4976b0b4607c8",
}


def _unmeasured_circuit() -> Circuit:
    # Qubits 0 and 2 are summed out of the Born distribution.
    return Circuit(
        4,
        (Gate.h(0), Gate.cnot(0, 1), Gate.ry(2, 0.7), Gate.cnot(1, 2), Gate.cnot(2, 3), Gate.rx(3, -1.1)),
        (1, 3),
    )


def _one_measured_circuit() -> Circuit:
    # The packed CHSH gates with a single measured qubit: k = 1.
    return Circuit(8, packed_chsh_circuit().gates, (5,))


def _five_qubit_subset_circuit() -> Circuit:
    # Measures the non-contiguous subset (0, 2, 4); CNOTs run both ways.
    return Circuit(
        5,
        (
            Gate.h(0), Gate.cnot(0, 1), Gate.ry(2, 0.4), Gate.cnot(1, 3), Gate.cnot(3, 2), Gate.s(4),
            Gate.cnot(2, 4), Gate.rz(1, 0.9), Gate.cnot(4, 0), Gate.t(3), Gate.cnot(0, 3),
        ),
        (0, 2, 4),
    )


def _interleaved_circuit() -> Circuit:
    # Components {0, 3}, {1, 5} and {2, 4}: their gates alternate, CNOTs run
    # both ways, and every component's qubits are apart in measured order.
    return Circuit(
        6,
        (
            Gate.h(0), Gate.ry(5, 0.8), Gate.rx(4, 1.2), Gate.cnot(0, 3), Gate.cnot(5, 1),
            Gate.cnot(4, 2), Gate.rz(3, 0.5), Gate.cnot(3, 0), Gate.s(1), Gate.cnot(1, 5),
            Gate.ry(2, -0.6), Gate.t(4), Gate.rx(0, 0.9), Gate.cnot(2, 4),
        ),
        (0, 1, 2, 3, 4, 5),
    )


def _unmeasured_component_circuit() -> Circuit:
    # Component {2, 3} has gates but no measured qubit.
    return Circuit(
        5,
        (
            Gate.h(0), Gate.h(2), Gate.cnot(0, 1), Gate.cnot(2, 3), Gate.ry(4, 1.0),
            Gate.rx(3, 0.4), Gate.ry(1, 0.5),
        ),
        (0, 1, 4),
    )


def _idle_qubit_circuit() -> Circuit:
    # Qubit 1 has no gate and sits between the qubits of a Bell pair.
    return Circuit(3, (Gate.h(0), Gate.cnot(0, 2), Gate.ry(2, 0.3)), (0, 1, 2))


def _packed_partial_circuit() -> Circuit:
    # Pair (0, 1) and pair (4, 5) are measured on one qubit each.
    return Circuit(8, packed_chsh_circuit().gates, (1, 2, 5, 6, 7))


def _wide_component_circuit() -> Circuit:
    # A 10-qubit GHZ chain and a qubit of its own: the chain's marginal rows
    # take 8 KiB per trajectory.
    chain = (Gate.h(0),) + tuple(Gate.cnot(q, q + 1) for q in range(9))
    return Circuit(11, chain + (Gate.x(10),), tuple(range(11)))


def _singletons_circuit() -> Circuit:
    # 16 qubits that never interact, three one-qubit gates each.
    gates = [Gate.h(q) for q in range(16)]
    gates += [Gate.ry(q, 0.1 * q + 0.2) for q in range(16)]
    gates += [Gate.rx(q, 0.7 - 0.05 * q) for q in range(16)]
    return Circuit(16, tuple(gates), tuple(range(16)))


# name -> (circuit, shots, noise, digest)
_PINNED_CASES = {
    "unmeasured": (
        _unmeasured_circuit,
        3000,
        NoiseModel(p1=0.05, p2=0.2, readout_flip=0.03, seed=11),
        "77479853e67f39024dbea49e936a86f01baca1725397404ae2f8a4efd44ebcf5",
    ),
    # Nearly every shot has its own trajectory: many batches.
    "many_trajectories": (
        packed_chsh_circuit,
        3000,
        NoiseModel(p1=0.05, p2=1.0, readout_flip=0.02, seed=5),
        "dbe47a4b7dad77aa16a2761d0c82f617fbef2330e998a32fd06227ddd424c444",
    ),
    # No gate noise: every shot shares the noiseless trajectory.
    "readout_only": (
        packed_chsh_circuit,
        3000,
        NoiseModel(p1=0.0, p2=0.0, readout_flip=0.02, seed=3),
        "042b18cd1ace0cd140b87e8d75c8f1faecf3d1bdfb5213629b81009781ef4360",
    ),
    "ideal": (
        packed_chsh_circuit,
        3000,
        NoiseModel.ideal(seed=4),
        "d4ec807487bb2b5b945e4f92bec7ee96da43f7d4cdfe1d5aabe7a631c59d5651",
    ),
    # Enough shots to span several draw blocks.
    "readout_only_blocks": (
        packed_chsh_circuit,
        30_000,
        NoiseModel(p1=0.0, p2=0.0, readout_flip=0.02, seed=6),
        "778639fe92ac86a19c2cb4834fdca1abbe5ace37eb48cce31216ab8b29501bf7",
    ),
    # The two cases below span several batches.
    "one_measured": (
        _one_measured_circuit,
        3000,
        NoiseModel(p1=0.01, p2=0.3, readout_flip=0.02, seed=21),
        "66efc189c98bbf311e5c4da3f0b90677e62f22e077f52ae3e27135586d8bdddd",
    ),
    "five_qubit_subset": (
        _five_qubit_subset_circuit,
        4000,
        NoiseModel(p1=0.02, p2=0.3, readout_flip=0.02, seed=22),
        "4d415a782224a8e201889373b3deb12ed8aa7f5e479aee1012154fe653b51e4f",
    ),
    # The cases below have several components; they were recorded with the
    # simulator that evolved every circuit whole.
    "interleaved": (
        _interleaved_circuit,
        3000,
        NoiseModel(p1=0.02, p2=0.2, readout_flip=0.02, seed=31),
        "10a4ec71f50f793f50799541efb998b21c5a77cfa03a82dfb3a033a0049f5610",
    ),
    "unmeasured_component": (
        _unmeasured_component_circuit,
        3000,
        NoiseModel(p1=0.02, p2=0.2, readout_flip=0.02, seed=32),
        "63092b48004aadfbc3201c69bd021314d693c76e5fdf1cc2f95f6015f94b70dc",
    ),
    "idle_qubit": (
        _idle_qubit_circuit,
        3000,
        NoiseModel(p1=0.05, p2=0.3, readout_flip=0.02, seed=33),
        "412be58a2e5815c0c0f652eb58bc43b7d358384a86493b6aebddb14e0d0b5469",
    ),
    "packed_partial": (
        _packed_partial_circuit,
        3000,
        NoiseModel(p1=0.01, p2=0.3, readout_flip=0.02, seed=34),
        "fc5380ecaa17c6a8941484656b0fa3919cde69d0a8c2cb3fbc910fab97695b5a",
    ),
    # Unique tuples of pair trajectories span several joint-row batches.
    "packed_keys_span_batches": (
        packed_chsh_circuit,
        4000,
        NoiseModel(p1=0.01, p2=1.0, readout_flip=0.02, seed=35),
        "21dedfe23d8f8b325f1fc363be2bc328aacd2e25a8e79caa2c13de79d07114ef",
    ),
    "wide_component": (
        _wide_component_circuit,
        1000,
        NoiseModel(p1=0.01, p2=0.3, readout_flip=0.02, seed=37),
        "94f41f835df294369f01e2248c50f430030fb1ce8845f9ca376676a7c251a328",
    ),
    # More tuples are possible than an int64 mixed-radix key can count.
    "singletons": (
        _singletons_circuit,
        500,
        NoiseModel(p1=1.0, p2=0.0, readout_flip=0.02, seed=36),
        "0ba6b6ab1fa201cb5afa2f7d9b78778761fa2efde4eb6c861c99ece6ef69dff6",
    ),
    # The 10k-shot probe at p2 = 0.3, recorded with the simulator that built
    # one joint row per joint trajectory.
    "werner_probe": (
        packed_chsh_circuit,
        10_000,
        NoiseModel(p1=0.001, p2=0.3, readout_flip=0.02, seed=12345),
        "6422b75807ded8c633900c2359635430dafa57786568247790408cef43f410f3",
    ),
}


@pytest.mark.parametrize("name, p2, seed", sorted(_PINNED_GRID))
def test_counts_match_pinned_digest(name, p2, seed):
    noise = NoiseModel(p1=0.001, p2=p2, readout_flip=0.02, seed=seed)
    counts = run_shots(_CIRCUITS[name](), 2000, noise)
    assert _digest(counts) == _PINNED_GRID[(name, p2, seed)]


@pytest.mark.parametrize("case", sorted(_PINNED_CASES))
def test_special_counts_match_pinned_digest(case):
    build, shots, noise, digest = _PINNED_CASES[case]
    assert _digest(run_shots(build(), shots, noise)) == digest


def _noisy_codes(circuit: Circuit, shots: int, noise: NoiseModel) -> np.ndarray:
    """The code rows of a run's noisy shots, in shot order: what the draw
    hands each block's noisy shots to be sampled with, on one worker."""
    with pytest.MonkeyPatch.context() as patch:
        seen = _spy(patch, "_noisy_outcomes", position=2)
        patch.setattr(simulator, "_cpu_count", lambda: 1)
        simulator._draw(circuit, shots, noise, simulator._compile(circuit))
    return np.concatenate([np.zeros((0, len(circuit.gates)), dtype=np.int8), *seen])


def _marginal_rows(circuit: Circuit, qubits: tuple, trajectories: np.ndarray):
    (component,) = [c for c in simulator._compile(circuit).components if c.qubits == qubits]
    return simulator._marginal_rows(circuit, component, trajectories)


def test_many_trajectories_case_spans_batches():
    build, shots, noise, _ = _PINNED_CASES["many_trajectories"]
    circuit = build()
    trajectories, _ = simulator._group(_noisy_codes(circuit, shots, noise))
    per_batch = simulator._BATCH_BYTES // (16 << circuit.num_qubits)
    assert len(trajectories) > 2 * per_batch


@pytest.mark.parametrize("case", ["one_measured", "five_qubit_subset"])
def test_sampling_cases_span_batches(case):
    build, shots, noise, _ = _PINNED_CASES[case]
    circuit = build()
    trajectories, _ = simulator._group(_noisy_codes(circuit, shots, noise))
    assert len(trajectories) > 2 * (simulator._BATCH_BYTES // (16 << circuit.num_qubits))


def test_readout_only_blocks_case_spans_draw_blocks():
    build, shots, _, _ = _PINNED_CASES["readout_only_blocks"]
    circuit = build()
    width = 2 * len(circuit.gates) + 1 + circuit.num_measured
    assert shots > 2 * (simulator._DRAW_BYTES // (8 * width))


@pytest.mark.parametrize("case", sorted(_PINNED_CASES))
def test_counts_independent_of_batch_and_draw_block_sizes(monkeypatch, case):
    build, shots, noise, digest = _PINNED_CASES[case]
    circuit = build()
    width = 2 * len(circuit.gates) + 1 + circuit.num_measured
    monkeypatch.setattr(simulator, "_BATCH_BYTES", 3 * (16 << circuit.num_qubits))
    monkeypatch.setattr(simulator, "_DRAW_BYTES", 7 * 8 * width)
    assert _digest(run_shots(circuit, shots, noise)) == digest


@pytest.mark.parametrize(
    "shots, noise, draw_rows",
    [
        (2999, NoiseModel(p1=0.05, p2=1.0, readout_flip=0.02, seed=5), 7),
        (1_000_000, NoiseModel(p1=0.0, p2=0.0, readout_flip=0.02, seed=6), None),
    ],
    ids=["odd_block_rows", "default_budget_1m"],
)
def test_draw_is_independent_of_worker_count(monkeypatch, shots, noise, draw_rows):
    circuit = packed_chsh_circuit()
    width = 2 * len(circuit.gates) + 1 + circuit.num_measured
    if draw_rows is not None:
        monkeypatch.setattr(simulator, "_DRAW_BYTES", draw_rows * 8 * width)
    pooled = []
    pool = concurrent.futures.ThreadPoolExecutor
    monkeypatch.setattr(
        concurrent.futures, "ThreadPoolExecutor", lambda *a, **k: pooled.append(1) or pool(*a, **k)
    )
    noisy = _spy(monkeypatch, "_noisy_outcomes", position=2)
    compiled = simulator._compile(circuit)
    tallies = {}
    for workers in (1, 2, 3):
        monkeypatch.setattr(simulator, "_cpu_count", lambda: workers)
        tallies[workers] = simulator._draw(circuit, shots, noise, compiled)
    assert len(pooled) == 2
    assert tallies[1].sum() == shots
    for workers in (2, 3):
        assert tallies[1].dtype == tallies[workers].dtype
        np.testing.assert_array_equal(tallies[1], tallies[workers])
    if draw_rows is not None:
        # Blocks have draw_rows // workers rows, so here the second block of
        # every worker count starts mid-way through one Philox counter's four
        # words, and the draws sample noisy shots in hundreds of blocks.
        assert all(draw_rows // workers * width % 4 for workers in (1, 2, 3))
        assert len(noisy) > 300


def test_one_cpu_draws_inline(monkeypatch):
    build, shots, noise, digest = _PINNED_CASES["readout_only_blocks"]

    def no_pool(*args, **kwargs):
        raise AssertionError("a one-CPU draw must not use a pool")

    monkeypatch.setattr(simulator, "_cpu_count", lambda: 1)
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
    assert _digest(run_shots(build(), shots, noise)) == digest


def test_no_draw_thread_outlives_the_draw(monkeypatch):
    build, shots, noise, digest = _PINNED_CASES["readout_only_blocks"]
    monkeypatch.setattr(simulator, "_cpu_count", lambda: 2)
    assert _digest(run_shots(build(), shots, noise)) == digest
    assert [t.name for t in threading.enumerate() if t.name.startswith("qguard-draw")] == []


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_draws_on_a_pool_of_its_own(monkeypatch):
    # A forked child gets none of its parent's threads; a draw there on a
    # pool inherited from the parent would wait forever.
    build, shots, noise, digest = _PINNED_CASES["readout_only_blocks"]
    monkeypatch.setattr(simulator, "_cpu_count", lambda: 2)
    assert _digest(run_shots(build(), shots, noise)) == digest
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            status = 0 if _digest(run_shots(build(), shots, noise)) == digest else 2
        finally:
            os._exit(status)
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            break
        time.sleep(0.05)
    else:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        pytest.fail("the forked child's draw did not finish")
    assert os.waitstatus_to_exitcode(status) == 0


@pytest.mark.parametrize(
    "case", ["many_trajectories", "one_measured", "five_qubit_subset", "werner_probe", "singletons"]
)
def test_evolve_is_independent_of_batch(case):
    # Counts must not depend on which batch a trajectory lands in, so each
    # state of a batch must come out bit for bit as it would alone.
    build, shots, noise, _ = _PINNED_CASES[case]
    circuit = build()
    trajectories, _ = simulator._group(_noisy_codes(circuit, shots, noise))
    trajectories = trajectories[:9]
    qubits = tuple(range(circuit.num_qubits))

    def cdfs_of(amps):
        return simulator._cdfs(simulator._born_probs(amps, circuit.measured_qubits))

    amps = simulator._evolve(circuit, trajectories, qubits)
    cdfs = cdfs_of(amps)
    for i in range(len(trajectories)):
        alone = simulator._evolve(circuit, trajectories[i : i + 1], qubits)
        np.testing.assert_array_equal(np.abs(amps[..., i]) ** 2, np.abs(alone[..., 0]) ** 2)
        np.testing.assert_array_equal(cdfs[i], cdfs_of(alone)[0])


def _held_rows_digest() -> str:
    """sha256 over every trajectory's Born marginal row, per component, of
    three pinned cases."""
    digest = hashlib.sha256()
    for case in ("werner_probe", "five_qubit_subset", "singletons"):
        circuit, _, (parts, _, _) = _split_case(case)
        for qubits, trajectories in parts:
            rows_of, index = _marginal_rows(circuit, qubits, trajectories)
            digest.update(rows_of(index).tobytes())
    return digest.hexdigest()


def _numpy_blas() -> str:
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):  # numpy before 1.25 has no mode="dicts"
        return ""


@pytest.mark.skipif(
    platform.machine().lower() not in ("x86_64", "amd64") or "openblas" not in _numpy_blas(),
    reason="needs numpy on x86-64 OpenBLAS, whose core type can be forced",
)
def test_held_rows_do_not_depend_on_the_blas_core_type():
    # OpenBLAS picks a kernel per CPU at load time, and its FMA-era kernels
    # round differently from the pre-FMA ones.  No row may go through BLAS.
    tests_dir = os.path.dirname(os.path.abspath(__file__))
    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(simulator.__file__)))
    env = dict(
        os.environ,
        OPENBLAS_CORETYPE="Prescott",
        PYTHONPATH=os.pathsep.join([tests_dir, src_dir]),
    )
    child = subprocess.run(
        [sys.executable, "-c", "import test_simulator as t; print(t._held_rows_digest())"],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert child.returncode == 0, child.stderr
    assert child.stdout.strip() == _held_rows_digest()


def test_components():
    assert simulator._components(packed_chsh_circuit()) == [(0, 1), (2, 3), (4, 5), (6, 7)]
    assert simulator._components(phi_plus()) == [(0, 1)]
    assert simulator._components(_idle_qubit_circuit()) == [(0, 2), (1,)]
    assert simulator._components(_interleaved_circuit()) == [(0, 3), (1, 5), (2, 4)]
    assert simulator._components(_five_qubit_subset_circuit()) == [(0, 1, 2, 3, 4)]


def _split_case(case):
    """A pinned case's circuit, noisy code rows, and their split."""
    build, shots, noise, _ = _PINNED_CASES[case]
    circuit = build()
    codes = _noisy_codes(circuit, shots, noise)
    components = simulator._compile(circuit).components
    parts, tuples, inverse = simulator._split(components, codes)
    return circuit, codes, ([(c.qubits, t) for c, t in zip(components, parts)], tuples, inverse)


def _trajectory_counts(case):
    circuit, _, (parts, tuples, _) = _split_case(case)
    return circuit, [len(trajectories) for _, trajectories in parts], tuples


def test_split_skips_a_component_without_measured_qubits():
    _, _, (parts, _, _) = _split_case("unmeasured_component")
    assert [qubits for qubits, _ in parts] == [(0, 1), (4,)]


def test_split_gives_a_gateless_component_its_noiseless_trajectory():
    _, _, (parts, tuples, _) = _split_case("idle_qubit")
    assert [qubits for qubits, _ in parts] == [(0, 2), (1,)]
    assert parts[1][1].shape == (1, 0)
    assert not tuples[:, 1].any()


@pytest.mark.parametrize("case", ["interleaved", "unmeasured_component", "idle_qubit", "singletons"])
def test_split_recovers_every_shots_component_codes(case):
    circuit, codes, (parts, tuples, inverse) = _split_case(case)
    assert not tuples[0].any()
    for (qubits, trajectories), column in zip(parts, tuples.T):
        np.testing.assert_array_equal(
            trajectories[column[inverse]], codes[:, simulator._gates_on(circuit, qubits)]
        )


def test_keys_case_spans_joint_row_batches():
    circuit, _, tuples = _trajectory_counts("packed_keys_span_batches")
    assert len(tuples) > 2 * (simulator._BATCH_BYTES // (8 << circuit.num_measured))


def test_tuple_key_does_not_overflow():
    # A mixed-radix int64 key over all components could not count these
    # tuples; splitting the joint trajectories keeps every tuple distinct.
    _, counts, tuples = _trajectory_counts("singletons")
    assert len(counts) == 16
    assert math.prod(counts) > 2**63
    assert len(np.unique(tuples, axis=0)) == len(tuples)
    assert not tuples[0].any()


def _spy(monkeypatch, name, position=0):
    """Patch simulator function ``name`` to record its argument at
    ``position`` on every call."""
    seen = []
    real = getattr(simulator, name)

    def spy(*args):
        seen.append(args[position])
        return real(*args)

    monkeypatch.setattr(simulator, name, spy)
    return seen


def test_werner_probe_builds_a_joint_row_per_distinct_distribution(monkeypatch):
    # A Pauli such as XX or ZZ after a Bell pair's CNOT leaves the pair's
    # marginal unchanged bit for bit, so most joint trajectories share their
    # distribution with others.
    build, shots, noise, digest = _PINNED_CASES["werner_probe"]
    _, _, tuples = _trajectory_counts("werner_probe")
    built = _spy(monkeypatch, "_cdfs")
    assert _digest(run_shots(build(), shots, noise)) == digest
    assert len(tuples) > 1500
    assert 10 * sum(map(len, built)) < len(tuples)


@pytest.mark.parametrize("case", sorted(_PINNED_CASES))
def test_held_marginals_are_distinct_and_exact(case):
    circuit, _, (parts, _, _) = _split_case(case)
    for qubits, trajectories in parts:
        rows_of, index = _marginal_rows(circuit, qubits, trajectories)
        measured = tuple(i for i, q in enumerate(qubits) if q in circuit.measured_qubits)
        if len(trajectories) * (8 << len(measured)) > simulator._BATCH_BYTES:
            # Not held: every trajectory stays its own distribution.
            np.testing.assert_array_equal(index, np.arange(len(trajectories)))
            continue
        assert index[0] == 0
        distinct = rows_of(np.arange(index.max() + 1))
        blobs = distinct.view(np.dtype((np.void, distinct.itemsize * distinct.shape[1])))
        assert len(np.unique(blobs)) == len(distinct)
        each = simulator._born_probs(simulator._evolve(circuit, trajectories, qubits), measured)
        assert distinct[index].tobytes() == each.tobytes()


def test_singletons_regroup_keeps_the_noiseless_distribution_first(monkeypatch):
    # The joint trajectories of this case could not be keyed by one int64;
    # grouping their distributions must not need such a key either.
    build, shots, noise, digest = _PINNED_CASES["singletons"]
    seen = _spy(monkeypatch, "_joint_cdfs", position=1)
    assert _digest(run_shots(build(), shots, noise)) == digest
    distributions = np.concatenate(seen)
    assert len(seen) > 1
    assert distributions.shape[1] == 16
    assert not distributions[0].any()
    assert len(np.unique(distributions, axis=0)) == len(distributions)


@pytest.mark.parametrize("case", ["singletons", "wide_component"])
def test_memory_stays_bounded(case):
    # Holding every joint row of the singletons case would take 250 MiB,
    # and every marginal row of the wide chain 7 MiB.
    build, shots, noise, digest = _PINNED_CASES[case]
    circuit = build()
    tracemalloc.start()
    try:
        counts = run_shots(circuit, shots, noise)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert _digest(counts) == digest
    assert peak < 4 * 2**20


def _traced_peaks(noise: NoiseModel) -> list[int]:
    """The traced peak of a 100k-shot and of an 800k-shot packed probe, each
    after a warm-up run has compiled the circuit."""
    circuit = packed_chsh_circuit()
    run_shots(circuit, 100_000, noise)
    peaks = []
    for shots in (100_000, 800_000):
        tracemalloc.start()
        try:
            run_shots(circuit, shots, noise)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return peaks


def test_memory_does_not_grow_with_shots():
    # A noiseless shot is tallied as it is drawn: no outcome draw, flip mask
    # or outcome index is kept for it, so 8x the shots needs no more memory.
    peaks = _traced_peaks(NoiseModel(p1=0.0, p2=0.0, readout_flip=0.02, seed=8))
    assert abs(peaks[1] - peaks[0]) < 2**20


def test_memory_does_not_grow_with_noisy_shots():
    # A block's noisy shots are sampled before the next block is drawn, so no
    # code row, outcome draw or flip mask outlives its block.  Keeping them
    # for the whole run held 54 MB more at 800k shots than at 100k.
    peaks = _traced_peaks(NoiseModel(p1=0.001, p2=0.3, readout_flip=0.02, seed=8))
    assert abs(peaks[1] - peaks[0]) < 2 * 2**20


def test_draw_memory_does_not_grow_with_cpus(monkeypatch):
    # All workers add into one tally of 2**18 outcomes (2 MiB); a tally per
    # worker would hold 14 MiB more on eight workers than on one.  Eight
    # workers, more than this host may have CPUs, switching threads often,
    # must lose no update to the shared tally.
    circuit = Circuit(18, tuple(Gate.x(q) for q in range(18)), tuple(range(18)))
    noise = NoiseModel(p1=0.0, p2=0.0, readout_flip=0.001, seed=3)
    shots = 100_000
    width = 2 * len(circuit.gates) + 1 + circuit.num_measured
    assert shots > 8 * (simulator._DRAW_BYTES // (8 * width))
    # Compiled first, so that neither run pays for the noiseless tables.
    simulator._compile(circuit)
    peaks, digests = [], []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for cpus in (1, 8):
            monkeypatch.setattr(simulator, "_cpu_count", lambda: cpus)
            tracemalloc.start()
            try:
                digests.append(_digest(run_shots(circuit, shots, noise)))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
    finally:
        sys.setswitchinterval(interval)
    assert digests[0] == digests[1]
    # One worker's blocks, and so their temporaries, are eight times larger.
    assert peaks[1] - peaks[0] < 2**20


def test_wide_component_marginals_exceed_the_memory_bound():
    _, counts, _ = _trajectory_counts("wide_component")
    assert counts[0] * (8 << 10) > 4 * 2**20


@pytest.mark.parametrize(
    "case", ["interleaved", "unmeasured_component", "idle_qubit", "packed_partial", "one_measured"]
)
def test_components_counts_with_batches_of_one(monkeypatch, case):
    # No component's marginals fit the budget: every joint row is built
    # alone, from component trajectories evolved alone.
    build, shots, noise, digest = _PINNED_CASES[case]
    monkeypatch.setattr(simulator, "_BATCH_BYTES", 1)
    assert _digest(run_shots(build(), shots, noise)) == digest


@pytest.mark.parametrize("k", [1, 2, 3, 6])
def test_row_search_matches_searchsorted(k):
    # Zero-probability outcomes give tied CDF entries, and some draws equal
    # an entry exactly; rounding may leave an entry just above the final 1.0.
    rng = np.random.default_rng(k)
    probs = rng.integers(0, 3, size=(5, 1 << k)).astype(float)
    probs[:, 0] += 1.0
    cdfs = np.cumsum(probs / probs.sum(axis=1, keepdims=True), axis=1)
    if k > 1:
        cdfs[0, -2] = np.nextafter(1.0, 2.0)
    cdfs[:, -1] = 1.0
    rows = rng.integers(0, len(cdfs), size=400)
    u = rng.random(400)
    u[::2] = cdfs[rows[::2], rng.integers(0, (1 << k) - 1, size=200)] % 1.0
    u[1] = 0.0
    expected = [np.searchsorted(cdfs[row], x, side="right") for row, x in zip(rows, u)]
    # Each draw's window is its row of the flattened CDFs.
    start = rows << k
    found = simulator._search(cdfs.reshape(-1), start, k, u)
    np.testing.assert_array_equal(found - start, expected)


@given(
    st.integers(0, 6).flatmap(
        lambda k: st.tuples(
            st.lists(st.integers(0, 3), min_size=1 << k, max_size=1 << k).filter(any),
            st.booleans(),
            st.lists(st.tuples(st.integers(0, 2), st.integers(0, 1 << k), st.floats(0, 1)), max_size=40),
        )
    )
)
@settings(max_examples=200, deadline=None)
def test_guided_search_matches_searchsorted(case):
    # Weights of 0 give zero-probability outcomes and flat runs of the CDF;
    # draws sit on cell edges, on CDF entries, just below either, or
    # anywhere.  Rounding may lift an entry just above the final 1.0.
    weights, lifted, picks = case
    probs = np.array(weights, dtype=float)
    cdf = simulator._cdfs((probs / probs.sum())[np.newaxis])[0]
    if lifted and len(cdf) > 1:
        cdf[-2] = np.nextafter(1.0, 2.0)
    cells = len(cdf)
    u = []
    for kind, j, x in picks:
        point = (j / cells, cdf[min(j, cells - 1)], x)[kind] % 1.0
        u += [point, np.nextafter(point, 0.0)]
    u = np.array(u + [0.0, np.nextafter(1.0, 0.0)])
    guide, steps = simulator._guide(cdf)
    # Each draw's window starts at its guide cell's entry; u * cells is
    # exact.  The window must lie inside the CDF.
    assert guide.max() + (1 << steps) - 1 <= cells
    expected = [np.searchsorted(cdf, x, side="right") for x in u]
    found = simulator._search(cdf, guide[(u * cells).astype(np.intp)], steps, u)
    np.testing.assert_array_equal(found, expected)


@pytest.mark.parametrize("k", [1, 8, 9, 16, 17, 20])
def test_flip_masks_put_the_first_bit_highest(k):
    draws = np.random.default_rng(k).random((300, k))
    bits = draws < 0.4
    expected = bits @ (1 << np.arange(k - 1, -1, -1))
    np.testing.assert_array_equal(simulator._flip_masks(draws, 0.4), expected)


@pytest.mark.parametrize("case", sorted(_PINNED_CASES))
def test_warm_counts_match_cold_counts(case):
    # The memo filled by another seed's run, and then by this run itself,
    # must give the counts of a cold cache.
    build, shots, noise, digest = _PINNED_CASES[case]
    run_shots(build(), shots, noise.with_seed(noise.seed + 1))
    assert simulator._compile.cache_info().currsize == 1
    assert _digest(run_shots(build(), shots, noise)) == digest
    assert _digest(run_shots(build(), shots, noise)) == digest


def test_cached_arrays_are_read_only():
    compiled = simulator._compile(packed_chsh_circuit())
    for array in (compiled.cdf, compiled.guide, simulator.PAULIS):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[(0,) * array.ndim] = 0.5
    assert all(type(row) is bytes for c in compiled.components for row in c.memo.values())


def test_cache_keeps_the_most_recently_used_circuits():
    circuits = [packed_chsh_circuit(MeasurementSettings(a0=0.1 * i)) for i in range(6)]
    compiled = [simulator._compile(circuit) for circuit in circuits]
    # A circuit is found by value, and a hit makes it the most recent: the
    # cache now holds circuits 3, 4, 5 and 2, least recently used first.
    assert simulator._compile(packed_chsh_circuit(MeasurementSettings(a0=0.2))) is compiled[2]
    simulator._compile(circuits[0])
    # Circuit 0 evicted circuit 3 alone.
    assert all(simulator._compile(circuits[i]) is compiled[i] for i in (2, 4, 5))
    assert simulator._compile(circuits[3]) is not compiled[3]
    info = simulator._compile.cache_info()
    assert (info.hits, info.misses, info.currsize) == (4, 8, simulator._CACHED_CIRCUITS)


def test_memo_stays_within_its_budget():
    # A Bell pair with twelve noisy gates: nearly every shot has its own
    # trajectory, about 1000 per run, all held; twelve seeds offer more
    # trajectories than the memo has room for.
    gates = (Gate.h(0), Gate.cnot(0, 1)) + tuple(Gate.ry(q % 2, 0.3 * q) for q in range(10))
    circuit = Circuit(2, gates, (0, 1))
    capacity = simulator._BATCH_BYTES // (8 << 2)
    for seed in range(12):
        counts = run_shots(circuit, 1000, NoiseModel(p1=0.5, p2=0.5, seed=seed))
        (component,) = simulator._compile(circuit).components
        assert len(component.memo) <= capacity
    assert len(component.memo) == capacity
    assert simulator._compile.cache_info().misses == 1
    simulator._compile.cache_clear()
    assert dict(run_shots(circuit, 1000, NoiseModel(p1=0.5, p2=0.5, seed=11))) == dict(counts)


def test_threads_share_the_cache_safely(monkeypatch):
    # Eight threads, switching often, run six circuits, more than the cache
    # keeps, so compiles, evictions and memo updates interleave.  Every run
    # must give the counts of a cold cache, and the bounds must hold for
    # every compiled circuit a run used.
    circuits = [packed_chsh_circuit(MeasurementSettings(b0=0.2 * i)) for i in range(6)]
    noise = NoiseModel(p1=0.01, p2=0.3, seed=9)
    expected = []
    for circuit in circuits:
        simulator._compile.cache_clear()
        expected.append(dict(run_shots(circuit, 500, noise)))
    compile_, used = simulator._compile, []
    compile_.cache_clear()

    def recorded(circuit):
        compiled = compile_(circuit)
        used.append(compiled)
        return compiled

    monkeypatch.setattr(simulator, "_compile", recorded)
    jobs = [i % len(circuits) for i in range(48)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with concurrent.futures.ThreadPoolExecutor(8) as pool:
            results = list(pool.map(lambda i: dict(run_shots(circuits[i], 500, noise)), jobs, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert results == [expected[i] for i in jobs]
    assert len(used) == len(jobs)
    assert compile_.cache_info().currsize == simulator._CACHED_CIRCUITS
    capacity = simulator._BATCH_BYTES // (8 << 2)
    assert all(len(c.memo) <= capacity for compiled in used for c in compiled.components)


def test_draw_memory_does_not_grow_with_readout_bits(monkeypatch):
    # Readout flips are packed from one byte per bit, never widened to 8:
    # one worker's 9532-row blocks of 18 readout bits would otherwise need
    # 1.3 MiB for the widened bits alone, against 0.2 MiB for one-eighth
    # blocks.
    circuit = Circuit(18, tuple(Gate.x(q) for q in range(18)), tuple(range(18)))
    noise = NoiseModel(p1=0.0, p2=0.0, readout_flip=0.001, seed=3)
    compiled = simulator._compile(circuit)
    # An untraced draw first, so that the first traced one does not pay the
    # one-time allocations of the first draw in the process.
    simulator._draw(circuit, 100_000, noise, compiled)
    peaks = []
    for cpus in (1, 8):
        monkeypatch.setattr(simulator, "_cpu_count", lambda: cpus)
        tracemalloc.start()
        try:
            simulator._draw(circuit, 100_000, noise, compiled)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] - peaks[1] <= 2**19


@pytest.mark.parametrize("dtype, width", [(np.int8, 1), (np.int8, 13), (np.intp, 3), (np.uint64, 4)])
def test_group_matches_unique_rows(dtype, width):
    # Rows are padded to whole 8-byte words; the numbering of the unique rows
    # is free, but the all-zero row must be index 0.
    rng = np.random.default_rng(width)
    rows = rng.integers(0, 3, size=(500, width)).astype(dtype)
    rows[rng.random(500) < 0.3] = 0
    unique, inverse = simulator._group(rows)
    assert unique.dtype == rows.dtype and unique.flags.c_contiguous
    assert not unique[0].any()
    np.testing.assert_array_equal(unique[inverse], rows)
    assert len(unique) == len(np.unique(np.vstack([np.zeros((1, width), dtype), rows]), axis=0))


def test_norm_check_covers_every_trajectory_in_a_batch(monkeypatch):
    # All trajectories of this run fit in one batch.  Only those with an X
    # injection see the leaky matrix; the first, which has no injection at
    # all, stays normalised.
    leaky = simulator.PAULIS.copy()
    leaky[1] *= 1.001
    monkeypatch.setattr(simulator, "PAULIS", leaky)
    with pytest.raises(NormConservationError):
        run_shots(phi_plus(), 2000, NoiseModel(p1=0.001, p2=0.3, seed=1))


def test_norm_check_on_a_non_unitary_gate(monkeypatch):
    real = simulator.gate_unitary

    def leaky(gate):
        u = real(gate)
        return 1.001 * u if gate.targets == (7,) else u

    monkeypatch.setattr(simulator, "gate_unitary", leaky)
    with pytest.raises(NormConservationError):
        run_shots(packed_chsh_circuit(), 2000, NoiseModel(p1=0.001, p2=0.3, seed=1))


def test_norm_check_catches_a_nan_state(monkeypatch):
    # |nan - 1| >= tol is False, so a plain comparison would let NaN through.
    monkeypatch.setattr(simulator, "gate_unitary", lambda gate: np.full((2, 2), np.nan, complex))
    with pytest.raises(NormConservationError):
        run_shots(Circuit(1, (Gate.rx(0, 0.5),), (0,)), 100, NoiseModel.ideal())
