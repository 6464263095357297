"""Dense statevector simulator with stochastic Pauli noise and readout error.

Noise semantics: after every gate, with probability ``p1`` (single-qubit
gates) or ``p2`` (CNOT), one element of the full Pauli set on the involved
qubits is applied, drawn uniformly with identity included (4 options for one
qubit, 16 for two).  Averaged over shots this realizes the exact
depolarizing channel rho -> (1-p)*rho + p*(I/d (x) rest) on those qubits.

Determinism: every random draw for a run comes from one counter-based
(Philox) stream keyed by ``noise.seed``.  Shot ``i`` owns row ``i`` of a
uniform matrix with one column per gate event, one per Pauli choice, one
outcome draw and one per readout bit.  The matrix is streamed in blocks of
rows; a counter-based stream yields the same numbers in blocks as in one
draw.  Each block is reduced at once: every shot keeps its outcome draw and
readout flip mask, and only a noisy shot, one where some event drew a
non-identity Pauli, keeps its row of per-gate Pauli codes and its index.
So memory stays bounded as shots grow, and the codes cost per noisy shot.
A matrix of several blocks is drawn in contiguous stripes of rows, one per
usable CPU, on a thread pool that lives only for that draw, so no thread
outlives ``run_shots``.  A stripe starting at row r jumps its own
Philox stream straight to the word r * width: the counter r * width // 4
(each counter step yields four 64-bit words, one per uniform double), then
r * width % 4 words skipped.  The stripes' results are joined in row order,
so the counts do not depend on the number of CPUs.  The mapping from
(circuit, shots, noise) to counts is fixed no matter how the work is split.

Evolution: shots sharing a noise trajectory (the per-gate Pauli codes) are
evolved once and sampled from the same distribution.  Distribution 0 is the
noiseless one: every shot is first sampled from it in one search, and then
the shots of every other distribution are sampled again, each from its own,
in one vectorised binary search per batch of distributions, so grouping and
sampling beyond that first search cost per noisy shot.  The unique
trajectories are evolved together in batches, each held as one
``(2, ..., 2, B)`` array whose size is capped by an amplitude byte budget:
each qubit is one axis and the state is the last axis.  A one-qubit gate is
one matmul on a contiguous reshaped view and a CNOT a flip in its control=1
slice; the Pauli injections after a gate apply each state's own Pauli,
broadcast over the batch axis, in place.  A run with a single trajectory
evolves a batch of one.

Components: qubits that no chain of CNOTs links never interact, so a
circuit splits into connected components, and each is simulated as a small
circuit of its own.  The noisy shots' code rows, cut to the gate columns of
the components with a measured qubit (one without is skipped), are grouped
once into unique joint trajectories.  These few rows are then split
column-wise and grouped again per component, which gives each component's
own trajectories and each joint trajectory's tuple of component trajectory
indices.  A component evolves its trajectories, in batches, into each one's
Born marginal over its measured qubits.  When all of a component's
marginals fit the byte budget they are held, and trajectories whose rows
are byte-identical (a Pauli such as ZZ after a Bell pair's CNOT leaves the
pair's marginal unchanged, bit for bit) are merged into one distribution.
A wider component keeps one distribution per trajectory and evolves, for
each batch of joint rows, just the trajectories the batch needs, so memory
stays bounded.  Mapped through these, the tuples are grouped once more into
distinct joint distributions, each the outer product of its component
marginals with axes put in ``measured_qubits`` order.  Their CDF rows are
built in batches under the same budget and sampled as above.  Byte-equal
marginals multiply and sum into byte-equal CDF rows, and each shot still
searches its own outcome draw, so merging leaves every count unchanged.  A
circuit of one component takes the same path: its joint rows are its
marginals.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace

import numpy as np

from .circuits import BitstringCounts, Circuit, Gate, GateKind
from .errors import (
    CircuitError, NoiseModelError, NormConservationError, check_shots, is_index, is_real
)

_NORM_TOL = 1e-10
_INV_SQRT2 = 1.0 / math.sqrt(2.0)

_FIXED_1Q = {
    GateKind.H: np.array([[_INV_SQRT2, _INV_SQRT2], [_INV_SQRT2, -_INV_SQRT2]]).astype(np.complex128),
    GateKind.X: np.array([[0, 1], [1, 0]], dtype=np.complex128),
    GateKind.Y: np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    GateKind.Z: np.array([[1, 0], [0, -1]], dtype=np.complex128),
    GateKind.S: np.array([[1, 0], [0, 1j]], dtype=np.complex128),
    GateKind.T: np.array([[1, 0], [0, np.exp(1j * math.pi / 4)]], dtype=np.complex128),
}

# Order fixed: index 0 is identity, so "no depolarizing event" and "event
# drew the identity" coincide and trajectories can be grouped on the code.
PAULIS = (
    np.eye(2, dtype=np.complex128),
    _FIXED_1Q[GateKind.X],
    _FIXED_1Q[GateKind.Y],
    _FIXED_1Q[GateKind.Z],
)


def gate_unitary(gate: Gate) -> np.ndarray:
    """The 2x2 matrix of a single-qubit gate.  CNOT has no dense form here;
    it is applied structurally as an index permutation."""
    if gate.kind in _FIXED_1Q:
        return _FIXED_1Q[gate.kind]
    half = 0.5 * float(gate.angle)
    c, s = math.cos(half), math.sin(half)
    if gate.kind is GateKind.RX:
        return np.array([[c, -1j * s], [-1j * s, c]], dtype=np.complex128)
    if gate.kind is GateKind.RY:
        return np.array([[c, -s], [s, c]], dtype=np.complex128)
    if gate.kind is GateKind.RZ:
        return np.array(
            [[np.exp(-1j * half), 0], [0, np.exp(1j * half)]], dtype=np.complex128
        )
    raise CircuitError(f"{gate.kind.value} has no single-qubit unitary")


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


# Widest circuit accepted.  One state takes 16 * 2**n bytes (16 MiB at 20
# qubits), and a run also holds a few temporaries of that size.
SIMULATOR_MAX_QUBITS = 20

# Amplitude bytes evolved at once: 64 trajectories of the 8-qubit packed
# CHSH circuit.  Larger batches bought little speed and raised peak memory.
_BATCH_BYTES = 256 * 1024
# Bytes of the uniform matrix drawn at once.
_DRAW_BYTES = 4 * 1024 * 1024


def _check_width(num_qubits: int):
    if num_qubits > SIMULATOR_MAX_QUBITS:
        raise CircuitError(
            f"simulator supports at most {SIMULATOR_MAX_QUBITS} qubits, got {num_qubits}"
        )


# Batched kernels: ``amps`` has shape (2, ..., 2, B); qubit q lives on axis
# q and the trailing axis indexes the state; to the gate kernels, any axes
# after the qubits act as batch.
# Every kernel works on a contiguous reshaped view and returns a C-contiguous
# array: no gate transposes the batch, and the Pauli injections write in
# place through a view.


def _zero_states(count: int, num_qubits: int) -> np.ndarray:
    amps = np.zeros((2,) * num_qubits + (count,), dtype=np.complex128)
    amps.reshape(-1, count)[0] = 1.0
    return amps


def _apply_unitary(amps: np.ndarray, u: np.ndarray, qubit: int) -> np.ndarray:
    view = amps.reshape(1 << qubit, 2, -1)
    if view.shape[-1] == 1:
        # numpy sends a lone column down its matrix-vector path, which rounds
        # differently from the matrix-matrix one; a copied second column keeps
        # every state's amplitudes independent of the batch it is evolved in.
        return np.matmul(u, np.repeat(view, 2, axis=-1))[..., :1].reshape(amps.shape)
    return np.matmul(u, view).reshape(amps.shape)


def _apply_cnot(amps: np.ndarray, control: int, target: int) -> np.ndarray:
    out = amps.copy()
    index = [slice(None)] * amps.ndim
    index[control] = 1
    # In the control=1 slice the target axis shifts down if it sat above the
    # control axis.
    axis = target if target < control else target - 1
    out[tuple(index)] = np.flip(out[tuple(index)], axis=axis)
    return out


def _apply_gate(amps: np.ndarray, gate: Gate, axes: tuple[int, ...]) -> np.ndarray:
    """Apply ``gate`` with its targets on ``axes``."""
    if gate.kind is GateKind.CNOT:
        return _apply_cnot(amps, axes[0], axes[1])
    return _apply_unitary(amps, gate_unitary(gate), axes[0])


def _apply_pauli_codes(
    amps: np.ndarray, targets: tuple[int, ...], codes: np.ndarray, paulis: np.ndarray
):
    """Apply, in place, to state ``i`` the Pauli selected by ``codes[i]``: an
    index into ``paulis`` ({I,X,Y,Z}, stacked) for one qubit, or 4a+b for the
    pair (a on targets[0], b on targets[1]).  Each state's 2x2 entries
    broadcast over the trailing batch axis; Pauli entries are 0, +-1 and
    +-i, so the identity leaves a state exact."""
    digits = (codes,) if len(targets) == 1 else divmod(codes, 4)
    for qubit, digit in zip(targets, digits):
        if digit.any():
            (p00, p01), (p10, p11) = paulis[digit].transpose(1, 2, 0)
            view = amps.reshape(1 << qubit, 2, -1, amps.shape[-1])
            zero, one = view[:, 0], view[:, 1]
            new_one = p10 * zero + p11 * one
            view[:, 0] = p00 * zero + p01 * one
            view[:, 1] = new_one


def _check_norms(amps: np.ndarray):
    flat = amps.reshape(-1, amps.shape[-1]).view(np.float64)
    norms = np.sqrt(np.einsum("ij,ij->j", flat, flat).reshape(-1, 2).sum(axis=1))
    # Written so that a NaN norm counts as drift.
    drifted = ~(np.abs(norms - 1.0) < _NORM_TOL)
    if drifted.any():
        raise NormConservationError(
            f"statevector norm drifted to {float(norms[drifted][0])!r}"
        )


def _gates_on(circuit: Circuit, qubits) -> list[int]:
    """The indices of the gates that act on ``qubits``, a component."""
    return [i for i, gate in enumerate(circuit.gates) if gate.targets[0] in qubits]


def _evolve(circuit: Circuit, trajectories: np.ndarray, qubits: tuple[int, ...]) -> np.ndarray:
    """Run the gates on ``qubits``, a component, from |0...0> once per row
    of ``trajectories``, a (B, gates) array of Pauli-injection codes
    (0 = none).  Returns the (2, ..., 2, B) amplitudes, with qubit
    ``qubits[i]`` on axis i."""
    axis = {q: i for i, q in enumerate(qubits)}
    amps = _zero_states(len(trajectories), len(qubits))
    paulis = np.stack(PAULIS)
    for i, codes in zip(_gates_on(circuit, axis), trajectories.T):
        gate = circuit.gates[i]
        axes = tuple(axis[t] for t in gate.targets)
        amps = _apply_gate(amps, gate, axes)
        if codes.any():
            _apply_pauli_codes(amps, axes, codes, paulis)
        _check_norms(amps)
    return amps


def _born_probs(amps: np.ndarray, measured: tuple[int, ...]) -> np.ndarray:
    """Per-state Born probabilities over the ascending ``measured`` axes,
    one row per state, flattened with the first as the most significant
    bit."""
    # One transpose to a row per state: summed in that layout, each state's
    # probabilities add up in the same order whatever batch it is in.
    probs = np.ascontiguousarray(np.moveaxis(np.abs(amps) ** 2, -1, 0))
    unmeasured = tuple(a for a in range(1, probs.ndim) if a - 1 not in measured)
    return probs.sum(axis=unmeasured).reshape(len(probs), -1)


def _cdfs(probs: np.ndarray) -> np.ndarray:
    """Cumulative sums of probability rows; the last column is exactly 1."""
    cdfs = np.cumsum(probs, axis=1)
    cdfs[:, -1] = 1.0
    return cdfs


def _search_rows(cdfs: np.ndarray, rows: np.ndarray, u: np.ndarray) -> np.ndarray:
    """For each draw ``u[i]``, the number of entries of ``cdfs[rows[i]]`` that
    are <= it: one binary search over all draws at once.  Equals
    ``searchsorted(cdfs[rows[i]], u[i], side="right")``, since each row
    rises up to its last entry, 1.0, and every draw is below 1."""
    width = cdfs.shape[1]
    flat = cdfs.reshape(-1)
    base = rows * width - 1
    found = np.zeros(len(u), dtype=np.intp)
    step = width >> 1
    while step:
        probe = found + step
        found = np.where(flat[base + probe] <= u, probe, found)
        step >>= 1
    return found


def _cpu_count() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _draw(circuit: Circuit, shots: int, noise: NoiseModel):
    """The Pauli codes of the noisy shots, the shot each code row belongs
    to, and every shot's outcome draw and readout flip mask.

    The uniform matrix has columns, in order: per-gate event draws, per-gate
    Pauli choices, the outcome draw, per-bit readout draws.  Row i belongs
    to shot i.  It is drawn in blocks of rows and reduced block by block.
    A shot is noisy if some event fired and drew a non-identity Pauli; only
    noisy shots get a code row (int8, one column per gate), in shot order.

    A draw of several blocks is split into contiguous stripes of rows, one
    per CPU, drawn and reduced on a pool of one thread per stripe, which is
    shut down before this returns.  Each stripe jumps its own Philox stream
    to its first row and reuses one buffer, and the stripes' buffers
    together hold the bytes of one block.
    """
    num_gates = len(circuit.gates)
    k = circuit.num_measured
    width = 2 * num_gates + 1 + k
    event_p = np.array(
        [noise.p2 if g.kind is GateKind.CNOT else noise.p1 for g in circuit.gates]
    )
    # A uniform draw is never below 0, so gates with p = 0 never fire.
    live = np.flatnonzero(event_p)
    choices = np.array([16 if g.kind is GateKind.CNOT else 4 for g in circuit.gates])
    bit_values = (1 << np.arange(k - 1, -1, -1)).astype(np.int64)
    outcome_u = np.empty(shots)
    flip_masks = np.empty(shots, dtype=np.int64)

    def reduce(block: np.ndarray, start: int):
        """Store the outcome draws and flip masks of the rows of ``block``,
        shots ``start`` on; return its noisy shots' code rows and indices."""
        stop = start + len(block)
        hit_rows = np.flatnonzero((block[:, live] < event_p[live]).any(axis=1))
        hit_codes = np.where(
            block[hit_rows, :num_gates] < event_p,
            (block[hit_rows, num_gates : 2 * num_gates] * choices).astype(np.int8),
            0,
        )
        noisy = hit_codes.any(axis=1)
        outcome_u[start:stop] = block[:, 2 * num_gates]
        flip_masks[start:stop] = (block[:, 2 * num_gates + 1 :] < noise.readout_flip) @ bit_values
        return hit_codes[noisy], start + hit_rows[noisy]

    block_rows = max(1, _DRAW_BYTES // (8 * width))
    stripes = min(_cpu_count(), -(-shots // block_rows))
    bounds = [shots * i // stripes for i in range(stripes + 1)]
    stripe_rows = min(max(1, _DRAW_BYTES // stripes // (8 * width)), -(-shots // stripes))
    buffers = np.empty((stripes, stripe_rows, width))

    def stripe(i: int):
        first, last = bounds[i], bounds[i + 1]
        # Philox yields four 64-bit words per counter step and random()
        # takes one word per double: row ``first`` starts at word
        # first * width of the stream.
        bit_generator = np.random.Philox(key=noise.seed, counter=first * width // 4)
        bit_generator.random_raw(first * width % 4)
        rng = np.random.Generator(bit_generator)
        out = []
        for start in range(first, last, stripe_rows):
            block = buffers[i, : min(stripe_rows, last - start)]
            rng.random(out=block)
            out.append(reduce(block, start))
        return out

    if stripes == 1:
        # One stripe, such as a draw of one block, runs inline.
        outs = [stripe(0)]
    else:
        # Imported here: concurrent.futures loads logging, about 0.7 MB of
        # resident memory that a process drawing no large matrix never needs.
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(stripes, thread_name_prefix="qguard-draw") as pool:
            outs = list(pool.map(stripe, range(stripes)))
    parts = [part for out in outs for part in out]
    codes, rows = zip(*parts)
    return np.concatenate(codes), np.concatenate(rows), outcome_u, flip_masks


def _group(rows: np.ndarray):
    """The unique rows, compared as bytes, and per row the index of its
    unique row.  Index 0 is always the all-zero row (for Pauli codes, the
    noiseless trajectory), and every all-zero row maps to it."""
    count, width = rows.shape
    if not width:
        # Zero-width rows viewed as blobs would be an empty array.
        return np.zeros((1, 0), dtype=rows.dtype), np.zeros(count, dtype=np.intp)
    # A leading all-zero row takes index 0: as bytes it sorts before every
    # other row.  Comparing rows as opaque byte blobs is much faster than
    # unique(axis=0).
    padded = np.zeros((count + 1, width), dtype=rows.dtype)
    padded[1:] = rows
    blobs = padded.view(np.dtype((np.void, width * rows.itemsize))).reshape(-1)
    unique, inverse = np.unique(blobs, return_inverse=True)
    return unique.view(rows.dtype).reshape(len(unique), width), inverse[1:]


def _slices(count: int, item_bytes: int):
    """Consecutive slices of ``count`` items, each within the batch budget."""
    step = max(1, _BATCH_BYTES // item_bytes)
    return (slice(first, first + step) for first in range(0, count, step))


def _components(circuit: Circuit) -> list[tuple[int, ...]]:
    """The qubits of each connected component under the two-qubit gates,
    each ascending, in the order of their lowest qubit.  A qubit that no
    two-qubit gate touches is a component of its own."""
    root = list(range(circuit.num_qubits))

    def find(q: int) -> int:
        while root[q] != q:
            root[q] = root[root[q]]
            q = root[q]
        return q

    for gate in circuit.gates:
        if len(gate.targets) == 2:
            low, high = sorted(find(t) for t in gate.targets)
            root[high] = low
    blocks: dict[int, list[int]] = {}
    for q in range(circuit.num_qubits):
        blocks.setdefault(find(q), []).append(q)
    return [tuple(qubits) for qubits in blocks.values()]


def _split(circuit: Circuit, codes: np.ndarray):
    """Group the rows of ``codes`` once over the gates of the components
    with a measured qubit, then split the unique rows by component.
    Returns, per such component, its qubits and unique trajectories; per
    joint trajectory, its tuple of component trajectory indices; and per
    row of ``codes``, the index of its joint trajectory.  Index 0 is the
    noiseless trajectory at both levels."""
    measured = set(circuit.measured_qubits)
    components = [qubits for qubits in _components(circuit) if not measured.isdisjoint(qubits)]
    gates = [_gates_on(circuit, qubits) for qubits in components]
    joint, inverse = _group(codes[:, [i for part in gates for i in part]])
    parts, columns, start = [], [], 0
    for qubits, part in zip(components, gates):
        trajectories, index = _group(joint[:, start : start + len(part)])
        parts.append((qubits, trajectories))
        columns.append(index)
        start += len(part)
    return parts, np.column_stack(columns), inverse


def _marginal_rows(circuit: Circuit, qubits: tuple[int, ...], trajectories: np.ndarray):
    """The Born marginals of the component ``qubits`` over its measured
    qubits: a function from distribution indices to their rows, and per
    trajectory the index of its distribution.

    The rows of all its trajectories are evolved once and held when they
    fit the batch budget.  Trajectories whose rows are byte-identical then
    share one distribution, and the noiseless trajectory's is index 0.
    Otherwise each trajectory is its own distribution, and each call evolves
    just the trajectories asked for, so memory stays bounded however many
    trajectories a wide component has."""
    measured = tuple(i for i, q in enumerate(qubits) if q in circuit.measured_qubits)

    def evolve(indices: np.ndarray) -> np.ndarray:
        needed, local = np.unique(indices, return_inverse=True)
        rows = np.concatenate([
            _born_probs(_evolve(circuit, trajectories[needed[part]], qubits), measured)
            for part in _slices(len(needed), 16 << len(qubits))
        ])
        return rows[local]

    index = np.arange(len(trajectories))
    if len(trajectories) * (8 << len(measured)) > _BATCH_BYTES:
        return evolve, index
    held = evolve(index)
    if len(held) > 1:
        # XOR with the noiseless row maps exactly the rows equal to it, byte
        # for byte, to the all-zero row that _group numbers 0.
        noiseless = held[0].view(np.uint64)
        distinct, index = _group(held.view(np.uint64) ^ noiseless)
        held = (distinct ^ noiseless).view(np.float64)
    return (lambda indices: held[indices]), index


def _joint_cdfs(marginal_rows: tuple, tuples: np.ndarray, axes: tuple[int, ...]):
    """The CDF rows of the given tuples of component distribution indices:
    each the outer product of its component marginals, its outcome axes
    taken in the order ``axes``."""
    joint = marginal_rows[0](tuples[:, 0])
    for rows_of, column in zip(marginal_rows[1:], tuples.T[1:]):
        joint = joint[:, :, np.newaxis] * rows_of(column)[:, np.newaxis, :]
        joint = joint.reshape(len(tuples), -1)
    joint = joint.reshape((len(tuples),) + (2,) * len(axes))
    return _cdfs(joint.transpose((0,) + tuple(a + 1 for a in axes)).reshape(len(tuples), -1))


def _sample(cdf_batches, rows: np.ndarray, inverse: np.ndarray, outcome_u: np.ndarray):
    """Every shot's outcome index.  ``cdf_batches`` yields the CDF rows of
    consecutive distributions, the noiseless one first; shot ``rows[i]``
    draws from distribution ``inverse[i]``, every other shot from the
    noiseless one."""
    order = np.argsort(inverse, kind="stable")
    members_by_row = rows[order]
    row_of_member = inverse[order]
    first = 0
    for cdfs in cdf_batches:
        stop = first + len(cdfs)
        if not first:
            # Every shot starts on the noiseless row; the noisy ones are
            # overwritten below.
            outcomes = np.searchsorted(cdfs[0], outcome_u, side="right")
        lo, hi = np.searchsorted(row_of_member, (first, stop))
        members = members_by_row[lo:hi]
        outcomes[members] = _search_rows(cdfs, row_of_member[lo:hi] - first, outcome_u[members])
        first = stop
    return outcomes


def run_shots(circuit: Circuit, shots: int, noise: NoiseModel) -> BitstringCounts:
    """Sample ``shots`` measurement outcomes under the given noise model.

    Per shot: evolve |0...0> through the gate list with per-gate depolarizing
    events, sample one outcome from the joint Born distribution over
    ``measured_qubits`` (measurement is terminal, so a single joint sample is
    exact), then flip each readout bit independently with probability
    ``readout_flip``.  Output depends only on (circuit, shots, noise).

    Raises :class:`CircuitError` for circuits wider than
    ``SIMULATOR_MAX_QUBITS`` and for a shot count that is not a positive
    integer.
    """
    shots = check_shots(shots, CircuitError)
    _check_width(circuit.num_qubits)
    codes, rows, outcome_u, flip_masks = _draw(circuit, shots, noise)
    k = circuit.num_measured
    parts, tuples, inverse = _split(circuit, codes)
    marginal_rows, indices = zip(*(_marginal_rows(circuit, qubits, t) for qubits, t in parts))
    # Joint trajectories whose component distributions all match share one
    # joint distribution; the noiseless one stays index 0.
    if len(tuples) > 1:
        tuples, which = _group(np.column_stack([i[c] for i, c in zip(indices, tuples.T)]))
        inverse = which[inverse]
    # The measured qubits in the order the marginals multiply out, and where
    # each of measured_qubits sits in that order.
    product = [q for qubits, _ in parts for q in qubits if q in circuit.measured_qubits]
    axes = tuple(map(product.index, circuit.measured_qubits))
    cdf_batches = (
        _joint_cdfs(marginal_rows, tuples[part], axes) for part in _slices(len(tuples), 8 << k)
    )
    # Shots of the noiseless distribution keep their first search.
    moved = np.flatnonzero(inverse)
    outcomes = _sample(cdf_batches, rows[moved], inverse[moved], outcome_u)
    outcomes ^= flip_masks

    tallies = np.bincount(outcomes, minlength=1 << k)
    return BitstringCounts(
        {format(int(v), f"0{k}b"): int(tallies[v]) for v in np.flatnonzero(tallies)}
    )
