"""Exact density-matrix reference.

This is a test oracle, not a backend.  rho is held as a (2,)*2n tensor with
a trailing batch axis of one: row qubit q is axis q and column qubit q is
axis n+q.  So the simulator's own gate kernels evolve it, rho -> U rho U^dag
being U on axis q and conj(U) on axis n+q (a CNOT on the row axes and again
on the column axes).  Each depolarizing step is the channel's closed form,
(1-p)*rho + p*(I/d (x) Tr_targets rho): each target's row and column axes
are traced out and I/2 put back in their place, so no Pauli matrix is used
and the oracle does not share the simulator's Pauli table.  Readout error
is an exact per-bit convolution of the outcome distribution.  rho takes
16 * 4**n bytes (16 MiB at the 10-qubit cap), and a depolarizing step holds
up to four arrays of that size.
"""

from __future__ import annotations

import numpy as np

from .calibration import NoiseModel, check_noise
from .circuits import Circuit, Gate, GateKind, check_circuit
from .errors import OracleLimitError
from .simulator import _apply_1q, _apply_cnot, _zero_states, gate_unitary

ORACLE_MAX_QUBITS = 10


def _apply(rho: np.ndarray, gate: Gate, num_qubits: int) -> np.ndarray:
    if gate.kind is GateKind.CNOT:
        control, target = gate.targets
        rho = _apply_cnot(rho, control, target)
        return _apply_cnot(rho, num_qubits + control, num_qubits + target)
    u, qubit = gate_unitary(gate), gate.targets[0]
    return _apply_1q(_apply_1q(rho, u, qubit), u.conj(), num_qubits + qubit)


def _depolarize(rho: np.ndarray, targets: tuple[int, ...], p: float, num_qubits: int) -> np.ndarray:
    # Replacing each target by I/2 in turn leaves I/d (x) Tr_targets(rho).
    mixed = rho
    for q in targets:
        half = 0.5 * np.diagonal(mixed, axis1=q, axis2=num_qubits + q).sum(-1)
        mixed = np.zeros_like(rho)
        index = [slice(None)] * rho.ndim
        for bit in (0, 1):
            index[q] = index[num_qubits + q] = bit
            mixed[tuple(index)] = half
    return (1.0 - p) * rho + p * mixed


def density_matrix_oracle(circuit: Circuit, noise: NoiseModel) -> dict[str, float]:
    """Exact outcome probability for every measured bitstring.

    Returns all 2^k bitstrings over the measured qubits, including those
    with probability zero.  The seed is irrelevant here; only the channel
    parameters matter.  Raises :class:`CircuitError` for a circuit that is
    not a ``Circuit`` and :class:`NoiseModelError` for noise that is not a
    ``NoiseModel``.
    """
    if check_circuit(circuit).num_qubits > ORACLE_MAX_QUBITS:
        raise OracleLimitError(
            f"oracle supports at most {ORACLE_MAX_QUBITS} qubits, "
            f"got {circuit.num_qubits}"
        )
    check_noise(noise)
    n = circuit.num_qubits
    rho = _zero_states(1, 2 * n)
    for gate in circuit.gates:
        rho = _apply(rho, gate, n)
        p = noise.p2 if gate.kind is GateKind.CNOT else noise.p1
        if p > 0.0:
            rho = _depolarize(rho, gate.targets, p, n)

    probs = np.real(np.diagonal(rho.reshape(1 << n, 1 << n))).reshape((2,) * n)
    measured = set(circuit.measured_qubits)
    unmeasured = tuple(q for q in range(n) if q not in measured)
    if unmeasured:
        probs = probs.sum(axis=unmeasured)

    k = circuit.num_measured
    if noise.readout_flip > 0.0:
        f = noise.readout_flip
        for axis in range(k):
            probs = (1.0 - f) * probs + f * np.flip(probs, axis=axis)

    flat = np.clip(probs.reshape(-1), 0.0, None)
    return {format(j, f"0{k}b"): float(flat[j]) for j in range(1 << k)}
