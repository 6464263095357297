"""Dense statevector simulator with stochastic Pauli noise and readout error.

Noise semantics: after every gate, with probability ``p1`` (single-qubit
gates) or ``p2`` (CNOT), one element of the full Pauli set on the involved
qubits is applied, drawn uniformly with identity included (4 options for one
qubit, 16 for two).  Averaged over shots this realizes the exact
depolarizing channel rho -> (1-p)*rho + p*(I/d (x) rest) on those qubits.

Determinism: every random draw for a run comes from one counter-based
(Philox) stream keyed by ``noise.seed``.  Shot ``i`` owns row ``i`` of a
matrix of the stream's 64-bit words, with one column per gate event, one
per Pauli choice, one outcome word and one per readout bit.  A word w
stands for the uniform draw (w >> 11) * 2**-53 that ``Generator.random()``
would make of it, and every decision is made on w with an exact integer
rule that gives the same answer as that draw would (see ``_draw``): an
event or a readout flip is one comparison of w with the last word whose
draw is below p, made once per word, a Pauli choice is w's top bits, and
only the outcome word becomes a double.  The matrix is drawn in blocks of
rows, and each block is sampled whole as it is drawn: a noisy shot, one
where some gate's event fired, is sampled from its trajectory's
distribution (see below), every other shot from the noiseless
distribution, and all of the block's outcomes get their readout flips and
go into one tally.  So a run keeps nothing per shot beyond its block, and
memory does not grow with the shots, noisy or not.
A draw of several blocks runs on a thread pool of one worker per usable
CPU that lives only for that draw, so no thread outlives ``run_shots``.
Worker j takes blocks j, j + workers, and so on.  A block starting at row
r jumps its own Philox stream straight to the word r * width: the counter
r * width // 4 (each counter step yields four 64-bit words), then
r * width % 4 words skipped.  A shot's outcome depends only on its own
row, and the tally is a sum, so the counts do not depend on the block size
or the number of CPUs.  The mapping from (circuit, shots, noise) to counts
is fixed no matter how the work is split.

Evolution: the noiseless distribution depends on the circuit alone, so a
circuit is compiled once: its components, each one's noiseless Born
marginal, and their joint CDF.  A component's noise trajectory (the
per-gate Pauli codes) is evolved once, and shots whose components' rows
all match are sampled from one distribution.  Every outcome is found by
one binary search in a window of a CDF, run at once for all the shots it
serves: a noiseless shot's window comes from a guide table of 2**k cells
over [0, 1), by the cell its draw falls in, a noisy shot's is the CDF row
of its distribution.  So grouping and sampling cost per noisy shot.
Unique trajectories are evolved together in batches, each held as one
``(2, ..., 2, B)`` array whose size is capped by an amplitude byte
budget: each qubit is one axis and the state is the last axis.  Every
one-qubit matrix, a gate's or the Pauli injections after it (each state's
own, broadcast over the batch axis), goes through one elementwise 2x2
kernel, and a CNOT is a flip in its control=1 slice.  No amplitude goes
through BLAS, so a state rounds the same way in any batch and whatever
BLAS kernel numpy picks for the CPU.  A run with a single trajectory
evolves a batch of one.

Cache: ``_compile`` keeps the four most recently used circuits in a
``functools.lru_cache``, keyed by the ``Circuit``, a frozen dataclass
compared by value; ``run_shots`` checks its arguments' types first.  A
compiled circuit holds the component layout, the noiseless CDF and its
guide table, and a table per component whose trajectories fit one batch
(see below).  All are built when the circuit is compiled and read-only
after, so threads share them with no lock.  Since a state rounds the same
way in any batch, a held row is the row evolution would give, and the
counts do not depend on what the cache holds.  So the cache holds at most
four CDFs and guide tables of 2**k entries each, and per component less
than a batch budget of rows and ids.

Components: qubits that no chain of CNOTs links never interact, so a
circuit splits into connected components, and each is simulated as a small
circuit of its own; one without a measured qubit is skipped.  A
component's trajectory, its gates' Pauli codes, packs into a key of 2 bits
per one-qubit gate and 4 per CNOT, and the component gets a table when all
2**bits of its trajectories fit one batch: 2**bits states of 16 * 2**n
bytes, on its n qubits.  The packed probe's Bell pairs have 10-bit keys
and 64 KiB batches.  ``_compile`` evolves every key's trajectory in that
one batch, and the table maps each key to the id of its trajectory's Born
marginal row and holds only byte-distinct rows: a Pauli such as ZZ after a
Bell pair's CNOT leaves the pair's marginal unchanged, bit for bit, so
such trajectories share a row.  A block looks its shots' rows up by key
and evolves nothing for such a component.  A wider component has no table:
a block groups its code columns into unique trajectories, and evolves, for
each batch of joint rows, just the trajectories the batch needs, the
noiseless one like any other, so memory stays bounded.  Per noisy shot,
the tuple of its components' row ids (table ids or trajectory indices) is
grouped once into the block's distinct joint distributions, each the outer
product of its component marginals with axes put in ``measured_qubits``
order.  That one sort also orders the shots by distribution, so their CDF
rows are built in batches under the same budget, and each batch's shots, a
run of that order, search their rows before the next batch is built.
Byte-equal marginals multiply and sum into byte-equal CDF rows, and each
shot still searches its own outcome draw, so the ids and the grouping
leave every count unchanged.  A circuit of one component takes the same
path: its joint rows are its marginals.
"""

from __future__ import annotations

import functools
import math
import os
import threading
from typing import NamedTuple

import numpy as np

from .calibration import NoiseModel, check_noise
from .circuits import BitstringCounts, Circuit, Gate, GateKind, check_circuit
from .errors import CircuitError, NormConservationError, check_shots

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
# One (4, 2, 2) read-only stack, indexed by a batch's codes.
PAULIS = np.stack(
    [np.eye(2, dtype=np.complex128)] + [_FIXED_1Q[kind] for kind in (GateKind.X, GateKind.Y, GateKind.Z)]
)
PAULIS.flags.writeable = False


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


# Widest circuit accepted.  One state takes 16 * 2**n bytes (16 MiB at 20
# qubits), and a run also holds a few temporaries of that size.
SIMULATOR_MAX_QUBITS = 20

# Amplitude bytes evolved at once: 64 trajectories of the 8-qubit packed
# CHSH circuit.  Larger batches bought little speed and raised peak memory.
_BATCH_BYTES = 256 * 1024
# Bytes of the word matrix drawn at once.
_DRAW_BYTES = 4 * 1024 * 1024
# Words taken from Philox per call: 128 KiB, which stays in a core's cache
# until it is copied into its block.
_CHUNK_WORDS = 1 << 14


# Batched kernels: ``amps`` has shape (2, ..., 2, B); qubit q lives on axis
# q and the trailing axis indexes the state; to the gate kernels, any axes
# after the qubits act as batch.
# Every kernel works on a contiguous reshaped view and returns a new
# C-contiguous array, so no gate transposes the batch.


def _zero_states(count: int, num_qubits: int) -> np.ndarray:
    amps = np.zeros((2,) * num_qubits + (count,), dtype=np.complex128)
    amps.reshape(-1, count)[0] = 1.0
    return amps


def _apply_1q(amps: np.ndarray, m: np.ndarray, qubit: int) -> np.ndarray:
    """Apply ``m`` to ``qubit``: one 2x2 matrix for every state, or a
    (2, 2, B) stack of one per state, broadcast over the trailing batch
    axis.  Elementwise, so each state's amplitudes round the same way
    whatever its batch and whatever BLAS numpy links."""
    view = amps.reshape(1 << qubit, 2, -1, amps.shape[-1])
    zero, one = view[:, 0], view[:, 1]
    out = np.empty_like(view)
    # Each half is the sum of its two products, added in either order, as
    # IEEE addition commutes; the products go straight into the halves.
    np.multiply(m[0, 0], zero, out=out[:, 0])
    np.multiply(m[1, 1], one, out=out[:, 1])
    other = np.multiply(m[0, 1], one)
    out[:, 0] += other
    out[:, 1] += np.multiply(m[1, 0], zero, out=other)
    return out.reshape(amps.shape)


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
    return _apply_1q(amps, gate_unitary(gate), axes[0])


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
    for i, codes in zip(_gates_on(circuit, axis), trajectories.T):
        gate = circuit.gates[i]
        axes = tuple(axis[t] for t in gate.targets)
        amps = _apply_gate(amps, gate, axes)
        # Each state gets the Pauli its code selects: an index into
        # ``PAULIS`` for one qubit, or 4a+b for the pair (a on axes[0], b
        # on axes[1]).  Pauli entries are 0, +-1 and +-i, so the identity
        # leaves a state exact.
        digits = (codes,) if len(axes) == 1 else divmod(codes, 4)
        for target, digit in zip(axes, digits):
            if digit.any():
                amps = _apply_1q(amps, PAULIS[digit].transpose(1, 2, 0), target)
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


def _guide(cdf: np.ndarray) -> tuple[np.ndarray, int]:
    """The guide table of ``cdf``, a CDF row whose last entry is 1.0, and
    its search steps.  With c = len(cdf) cells [j/c, (j+1)/c) of [0, 1), a
    draw in cell j has ``searchsorted(cdf, u, side="right")`` between the
    number of entries <= j/c and that of cell j+1 (c - 1 for the last
    cell); the steps cover the widest such range.  Entry j starts cell j's
    ``_search`` window, moved back where it would end past ``cdf``: the
    entries that adds are <= j/c, so they leave the answer as it is."""
    cells = len(cdf)
    bounds = np.searchsorted(cdf, np.arange(cells + 1) / cells, side="right")
    bounds[-1] = cells - 1
    steps = int(np.diff(bounds).max()).bit_length()
    return np.minimum(bounds[:-1], cells + 1 - (1 << steps)), steps


def _search(cdf: np.ndarray, first: np.ndarray, steps: int, u: np.ndarray) -> np.ndarray:
    """Per draw ``u[i]``, ``first[i]`` plus the number of entries <= u[i] in
    the window ``cdf[first[i] : first[i] + 2**steps - 1]``: one binary
    search per draw, at once for all draws.  A CDF row's entries before the
    last are cumulative sums and the last is 1.0, above any draw, so the
    entries <= a draw are a prefix of the row, even where rounding lifted
    an entry just above 1.0.  So the result is ``searchsorted(row, u[i],
    side="right")`` wherever that lies in the window or just past it."""
    found = first - 1
    for step in (1 << e for e in reversed(range(steps))):
        probe = found + step
        found = np.where(cdf[probe] <= u, probe, found)
    return found + 1


def _threshold(p: float) -> int:
    """ceil(p * 2**53): the uniform draw (w >> 11) * 2**-53 that
    ``Generator.random()`` makes of a 64-bit word w is below ``p`` iff
    w >> 11 is below this, as p * 2**53 is exact.  0 for p = 0, so no
    word is below it, and 2**53 for p = 1, so every word is."""
    return math.ceil(p * 2**53)


def _last_word(p: float) -> int:
    """The greatest 64-bit word whose uniform draw is below ``p``, so a
    word's draw is below p iff the word is at most this:
    (_threshold(p) << 11) - 1, from 2047 for the least p > 0 to 2**64 - 1
    for p = 1, and -1 for p = 0."""
    return (_threshold(p) << 11) - 1


def _uniforms(words: np.ndarray) -> np.ndarray:
    """The uniform draws ``Generator.random()`` makes of 64-bit ``words``:
    (w >> 11) * 2**-53, exact, as w >> 11 has 53 bits."""
    return (words >> 11) * 2.0**-53


def _choice_shift(gate: Gate) -> int:
    """The shift that takes a word w to the Pauli its draw u picks after
    ``gate``: int(u * 4) is w >> 62 for a one-qubit gate, and int(u * 16)
    is w >> 60 for a CNOT, as u * 2**b is (w >> 11) * 2**(b - 53), exact."""
    return 60 if gate.kind is GateKind.CNOT else 62


def _flip_masks(words: np.ndarray, p: float) -> np.ndarray:
    """Per row of ``words``, an (n, k) block of readout words with k <= 32,
    the mask with bit k-1-j set where word j's draw is below ``p`` > 0, that
    is where the word is at most ``_last_word(p)``.  The bools are packed
    eight to a byte, into masks of 1, 2 or 4 bytes, and never widened to
    integers."""
    n, k = words.shape
    size = 1 << max(0, (k - 1).bit_length() - 3)
    bits = np.zeros((n, 8 * size), dtype=bool)
    np.less_equal(words, np.uint64(_last_word(p)), out=bits[:, 8 * size - k :])
    return np.packbits(bits).view(f">u{size}")


def _cpu_count() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _fill(words: np.ndarray, seed: int, first: int):
    """Fill the 1-d ``words`` with the words of the Philox stream keyed by
    ``seed``, from word ``first`` on.  Each counter step yields four 64-bit
    words, so the stream jumps to the counter first // 4 and skips
    first % 4 words.  ``random_raw`` cannot fill an array in place, so the
    words come ``_CHUNK_WORDS`` at a time and are copied in."""
    bit_generator = np.random.Philox(key=seed, counter=first // 4)
    bit_generator.random_raw(first % 4)
    for start in range(0, len(words), _CHUNK_WORDS):
        chunk = words[start : start + _CHUNK_WORDS]
        chunk[:] = bit_generator.random_raw(len(chunk))


def _draw(circuit: Circuit, shots: int, noise: NoiseModel, compiled: _Compiled) -> np.ndarray:
    """The tally of ``shots`` outcomes, readout flips applied, by outcome.

    The word matrix has columns, in order: per-gate event words, per-gate
    Pauli-choice words, the outcome word, per-bit readout words.  Row i
    belongs to shot i.  Each word w stands for the uniform draw
    u = (w >> 11) * 2**-53, and each decision is made on w exactly as on u,
    by one rule each: an event or readout flip with probability p > 0 fires
    iff w is at most ``_last_word(p)`` (so iff u < p, with no shift), the
    Pauli choice int(u * 4) or int(u * 16) is w's top two or four bits
    (``_choice_shift``), and only the outcome word is turned into u, which
    the CDFs are searched with.  The matrix is drawn in blocks of rows, each
    sampled as it is drawn.  A block's event words of the gates with p > 0
    are compared once, and that one bool matrix both finds the noisy shots,
    where some gate's event fired, and picks which of their Pauli choices
    apply.  A noisy shot is sampled by ``_noisy_outcomes`` from its code row
    (int8, one column per gate) and outcome draw, every other shot in the
    noiseless CDF of ``compiled``.  A noisy shot whose events all drew the
    identity gets every component's noiseless row, and so the outcome the
    noiseless CDF would give.
    Then all of the block's outcomes get their flips and go into the one
    tally, so nothing is kept per shot beyond its block.

    A draw of several blocks runs on a pool of one thread per CPU, shut down
    before this returns.  Worker j takes blocks j, j + workers, and so on,
    fills one buffer with each from its first row's word in the stream, and
    samples it there.  Blocks shrink as workers are added, so the buffers
    together hold the words of one block, and all workers add into the one
    tally, so memory does not grow with the number of CPUs.
    """
    num_gates = len(circuit.gates)
    k = circuit.num_measured
    width = 2 * num_gates + 1 + k
    event_p = [noise.p2 if g.kind is GateKind.CNOT else noise.p1 for g in circuit.gates]
    # Only the gates with p > 0 can fire: each event word is compared, as it
    # is, with its gate's last word, once.
    live = np.flatnonzero(event_p)
    last = np.array([_last_word(event_p[i]) for i in live], dtype=np.uint64)
    shifts = np.array([_choice_shift(g) for g in circuit.gates], dtype=np.uint64)
    tally = np.zeros(1 << k, dtype=np.int64)
    adding = threading.Lock()

    def sample(block: np.ndarray):
        """Add the outcomes of the rows of ``block`` to ``tally``."""
        fired = block[:, live] <= last
        clean = ~fired.any(axis=1)
        rows = np.flatnonzero(~clean)
        # A hit row's code, one column per gate, is its Pauli choice where
        # its event fired and 0 elsewhere.
        codes = np.zeros((len(rows), num_gates), dtype=np.int8)
        codes[:, live] = fired[rows]
        del fired  # freed before the hit rows' choice words are gathered
        codes *= (block[rows, num_gates : 2 * num_gates] >> shifts).astype(np.int8)
        outcome_u = _uniforms(block[:, 2 * num_gates])
        u = outcome_u[clean]
        outcomes = np.empty(len(block), dtype=np.intp)
        # u * c is exact, as the guide's c cells are a power of two.
        first = compiled.guide[(u * len(compiled.guide)).astype(np.intp)]
        outcomes[clean] = _search(compiled.cdf, first, compiled.steps, u)
        if len(rows):
            outcomes[rows] = _noisy_outcomes(circuit, compiled, codes, outcome_u[rows])
        if noise.readout_flip:
            outcomes ^= _flip_masks(block[:, 2 * num_gates + 1 :], noise.readout_flip)
        # Unlike bincount(minlength=), this costs nothing per possible outcome.
        with adding:
            np.add.at(tally, outcomes, 1)

    workers = min(_cpu_count(), -(-shots // max(1, _DRAW_BYTES // (8 * width))))
    block_rows = min(max(1, _DRAW_BYTES // workers // (8 * width)), shots)
    starts = range(0, shots, block_rows)
    buffers = np.empty((workers, block_rows, width), dtype=np.uint64)

    def work(j: int):
        for start in starts[j::workers]:
            block = buffers[j, : shots - start]
            _fill(block.reshape(-1), noise.seed, start * width)
            sample(block)

    if workers == 1:
        # One worker, such as a draw of one block, runs inline.
        work(0)
    else:
        # Imported here: concurrent.futures loads logging, about 0.7 MB of
        # resident memory that a process drawing no large matrix never needs.
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(workers, thread_name_prefix="qguard-draw") as pool:
            list(pool.map(work, range(workers)))
    return tally


def _group(rows: np.ndarray):
    """The unique rows, compared as bytes, per row the index of its unique
    row, and the order that sorts the rows by that index.  Index 0 is always
    the all-zero row (for Pauli codes, the noiseless trajectory), and every
    all-zero row maps to it."""
    count, width = rows.shape
    # Each row, zero-padded to whole 8-byte words, and to one word if it has
    # none, is sorted as a key of uint64 words, the first most significant:
    # by lexsort, or by a plain argsort where one word holds it.  A leading
    # all-zero row is the smallest key, so it takes index 0.
    words = max(1, -(-width * rows.itemsize // 8))
    padded = np.zeros((count + 1, words * 8 // rows.itemsize), dtype=rows.dtype)
    padded[1:, :width] = rows
    keys = padded.view(np.uint64)
    order = np.argsort(keys[:, 0]) if words == 1 else np.lexsort(keys.T[::-1])
    ranked = keys[order]
    first = np.ones(count + 1, dtype=bool)
    first[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    inverse = np.empty(count + 1, dtype=np.intp)
    inverse[order] = np.cumsum(first) - 1
    # The padding row, index 0 of ``padded``, is dropped from the order.
    return padded[order[first], :width], inverse[1:], order[order > 0] - 1


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


def _born_rows(circuit: Circuit, qubits: tuple[int, ...], trajectories: np.ndarray):
    """Yield, batch by batch, the Born marginal of each row of
    ``trajectories`` of the component ``qubits`` over its measured qubits."""
    measured = tuple(i for i, q in enumerate(qubits) if q in circuit.measured_qubits)
    for part in _slices(len(trajectories), 16 << len(qubits)):
        yield _born_probs(_evolve(circuit, trajectories[part], qubits), measured)


class _Table(NamedTuple):
    """The Born marginal rows of every trajectory of a component, found by
    key; built by ``_table`` and read-only.  A trajectory's key packs its
    Pauli codes in gate order, the first gate lowest, 2 bits after a
    one-qubit gate and 4 after a CNOT, so key 0 is the noiseless
    trajectory."""

    # Per gate, where its code sits in a key.
    shifts: np.ndarray
    # Per key, the index of its trajectory's row in ``rows``; key 0 has 0.
    ids: np.ndarray
    # The byte-distinct rows, the noiseless one first.
    rows: np.ndarray

    def keys(self, codes: np.ndarray) -> np.ndarray:
        """The key of each row of ``codes``, the component's code rows."""
        return (codes.astype(np.intp) << self.shifts).sum(axis=1)


def _table(circuit: Circuit, qubits: tuple[int, ...], widths: list[int]) -> _Table:
    """The table of the component ``qubits``, whose gates' codes take
    ``widths`` bits in a key: every key's trajectory evolved in one batch,
    and a row byte-identical to an earlier key's (a Pauli such as ZZ after
    a Bell pair's CNOT leaves the pair's marginal unchanged, bit for bit)
    given that key's id, so key 0 has id 0 and the rows are byte-distinct."""
    shifts = np.cumsum([0] + widths, dtype=np.intp)[:-1]
    keys = np.arange(1 << sum(widths))[:, np.newaxis]
    masks = (1 << np.array(widths, dtype=np.intp)) - 1
    (evolved,) = _born_rows(circuit, qubits, (keys >> shifts & masks).astype(np.int8))
    # Each distinct row's bytes, in the order of their ids.
    seen: dict[bytes, int] = {}
    ids = np.array([seen.setdefault(row.tobytes(), len(seen)) for row in evolved], dtype=np.intp)
    rows = np.frombuffer(b"".join(seen), dtype=evolved.dtype).reshape(len(seen), -1)
    ids.flags.writeable = shifts.flags.writeable = False
    return _Table(shifts, ids, rows)


class _Component(NamedTuple):
    """A connected component with a measured qubit, as run_shots sees it."""

    qubits: tuple[int, ...]
    # The indices of the circuit's gates that act on it.
    gates: list[int]
    # Its table, or None where its trajectories would not fit one batch.
    table: _Table | None


class _Compiled(NamedTuple):
    """What run_shots needs of a circuit that does not depend on the noise."""

    # In the order of _components.
    components: tuple[_Component, ...]
    # Where each of measured_qubits sits in the order of the marginals.
    axes: tuple[int, ...]
    # The noiseless CDF over the measured outcomes, its guide table and the
    # table's number of search steps; read-only.
    cdf: np.ndarray
    guide: np.ndarray
    steps: int


# The most circuits _compile keeps, each with its components' tables.
_CACHED_CIRCUITS = 4


@functools.lru_cache(maxsize=_CACHED_CIRCUITS)
def _compile(circuit: Circuit) -> _Compiled:
    """Give each component with a measured qubit a table if its 2**bits
    trajectories fit one batch, else evolve just its noiseless trajectory,
    and build the joint CDF of the noiseless marginals and the CDF's guide.
    Cached by the Circuit, a frozen dataclass compared by value."""
    measured = set(circuit.measured_qubits)
    components, rows = [], []
    for qubits in _components(circuit):
        if not measured.isdisjoint(qubits):
            gates = _gates_on(circuit, qubits)
            widths = [4 if circuit.gates[i].kind is GateKind.CNOT else 2 for i in gates]
            if (16 << len(qubits)) << sum(widths) <= _BATCH_BYTES:
                table = _table(circuit, qubits, widths)
                row = table.rows[:1]
            else:
                table = None
                (row,) = _born_rows(circuit, qubits, np.zeros((1, len(gates)), dtype=np.int8))
            components.append(_Component(qubits, gates, table))
            rows.append(row)
    product = [q for c in components for q in c.qubits if q in measured]
    axes = tuple(map(product.index, circuit.measured_qubits))
    cdf = _product_cdfs(rows, axes)[0]
    guide, steps = _guide(cdf)
    cdf.flags.writeable = guide.flags.writeable = False
    return _Compiled(tuple(components), axes, cdf, guide, steps)


def _grouped_rows(circuit: Circuit, component: _Component, codes: np.ndarray):
    """For a component without a table: a function from trajectory indices
    to their Born marginal rows, and per row of ``codes`` (the component's
    code rows) the index of its trajectory.  Each call evolves just the
    trajectories asked for, so memory stays bounded however many a wide
    component has."""
    trajectories, index, _ = _group(codes)

    def evolve(indices: np.ndarray) -> np.ndarray:
        needed, local = np.unique(indices, return_inverse=True)
        rows = _born_rows(circuit, component.qubits, trajectories[needed])
        return np.concatenate(list(rows))[local]

    return evolve, index


def _product_cdfs(rows: list, axes: tuple[int, ...]) -> np.ndarray:
    """The CDF rows of the outer products, row by row, of ``rows``, one
    (B, 2**m) array of marginal rows per component, with the outcome axes
    taken in the order ``axes``."""
    joint = rows[0]
    for part in rows[1:]:
        joint = joint[:, :, np.newaxis] * part[:, np.newaxis, :]
        joint = joint.reshape(len(joint), -1)
    joint = joint.reshape((len(joint),) + (2,) * len(axes))
    return _cdfs(joint.transpose((0,) + tuple(a + 1 for a in axes)).reshape(len(joint), -1))


def _noisy_outcomes(
    circuit: Circuit, compiled: _Compiled, codes: np.ndarray, outcome_u: np.ndarray
) -> np.ndarray:
    """The outcome index of each noisy shot, before its readout flips: the
    shot with code row ``codes[i]`` draws ``outcome_u[i]`` from its joint
    trajectory's distribution.  The joint CDF rows are built a batch at a
    time, and each batch's shots search their rows before the next batch is
    built; a shot's search window is its row."""
    k = circuit.num_measured
    marginal_rows, columns = [], []
    for component in compiled.components:
        own = codes[:, component.gates]
        table = component.table
        if table is None:
            rows_of, index = _grouped_rows(circuit, component, own)
        else:
            rows_of, index = table.rows.__getitem__, table.ids[table.keys(own)]
        marginal_rows.append(rows_of)
        columns.append(index)
    # Shots whose component distributions all match share one joint
    # distribution; the noiseless one is index 0.  Narrow columns fill fewer
    # of the 8-byte words _group sorts by.
    columns = np.column_stack(columns)
    tuples, which, order = _group(columns.astype(np.min_scalar_type(columns.max())))
    ranked = which[order]
    outcomes = np.empty(len(which), dtype=np.intp)
    for part in _slices(len(tuples), 8 << k):
        cdfs = _product_cdfs(
            [rows_of(c) for rows_of, c in zip(marginal_rows, tuples[part].T)], compiled.axes
        )
        lo, hi = np.searchsorted(ranked, (part.start, part.start + len(cdfs)))
        members = order[lo:hi]
        start = (ranked[lo:hi] - part.start) << k
        outcomes[members] = _search(cdfs.reshape(-1), start, k, outcome_u[members]) - start
        # Freed before the next batch is built: two are never held at once.
        del cdfs
    return outcomes


def run_shots(circuit: Circuit, shots: int, noise: NoiseModel) -> BitstringCounts:
    """Sample ``shots`` measurement outcomes under the given noise model.

    Per shot: evolve |0...0> through the gate list with per-gate depolarizing
    events, sample one outcome from the joint Born distribution over
    ``measured_qubits`` (measurement is terminal, so a single joint sample is
    exact), then flip each readout bit independently with probability
    ``readout_flip``.  Output depends only on (circuit, shots, noise).

    Raises :class:`CircuitError` for a circuit that is not a ``Circuit`` or
    is wider than ``SIMULATOR_MAX_QUBITS``, and for a shot count that is not
    a positive integer; raises :class:`NoiseModelError` for noise that is
    not a ``NoiseModel``.
    """
    shots = check_shots(shots, CircuitError)
    check_noise(noise)
    if check_circuit(circuit).num_qubits > SIMULATOR_MAX_QUBITS:
        raise CircuitError(
            f"simulator supports at most {SIMULATOR_MAX_QUBITS} qubits, got {circuit.num_qubits}"
        )
    tally = _draw(circuit, shots, noise, _compile(circuit))
    seen = np.flatnonzero(tally)
    key = f"{{:0{circuit.num_measured}b}}".format
    return BitstringCounts(dict(zip(map(key, seen.tolist()), tally[seen].tolist())))
