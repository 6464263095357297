import itertools
import math
import random

import numpy as np
import pytest

from qguard import (
    Circuit,
    Gate,
    NoiseModel,
    ORACLE_MAX_QUBITS,
    OracleLimitError,
    chsh_pair_circuit,
    density_matrix_oracle,
    phi_plus,
    run_shots,
)
from qguard import density_oracle, simulator

CHSH_MAX = 2.0 * math.sqrt(2.0)
DEFAULT_ANGLES = (
    (0.0, math.pi / 4),
    (0.0, -math.pi / 4),
    (math.pi / 2, math.pi / 4),
    (math.pi / 2, -math.pi / 4),
)


def oracle_correlator(alice: float, bob: float, noise: NoiseModel) -> float:
    probs = density_matrix_oracle(chsh_pair_circuit(alice, bob), noise)
    return probs["00"] + probs["11"] - probs["01"] - probs["10"]


def oracle_chsh(noise: NoiseModel) -> float:
    es = [oracle_correlator(a, b, noise) for a, b in DEFAULT_ANGLES]
    return es[0] + es[1] + es[2] - es[3]


def test_phi_plus_exact():
    probs = density_matrix_oracle(phi_plus(), NoiseModel.ideal())
    assert probs["00"] == pytest.approx(0.5, abs=1e-12)
    assert probs["11"] == pytest.approx(0.5, abs=1e-12)
    assert probs["01"] == pytest.approx(0.0, abs=1e-12)
    assert probs["10"] == pytest.approx(0.0, abs=1e-12)


def test_qubit_cap():
    circuit = Circuit(ORACLE_MAX_QUBITS + 1, (), (0,))
    with pytest.raises(OracleLimitError):
        density_matrix_oracle(circuit, NoiseModel.ideal())


def test_certain_depolarizing_gives_maximally_mixed():
    circuit = Circuit(1, (Gate.h(0),), (0,))
    probs = density_matrix_oracle(circuit, NoiseModel(p1=1.0, p2=0, readout_flip=0))
    assert probs["0"] == pytest.approx(0.5, abs=1e-12)
    assert probs["1"] == pytest.approx(0.5, abs=1e-12)


def test_correlator_follows_cosine_rule():
    for alice, bob in ((0.0, 0.0), (0.3, -0.9), (1.2, 0.4), *DEFAULT_ANGLES):
        e = oracle_correlator(alice, bob, NoiseModel.ideal())
        assert e == pytest.approx(math.cos(alice - bob), abs=1e-12)


def test_bell_stage_depolarizing_scales_correlators():
    # p2 = lambda after the Bell CNOT leaves (1-l)|phi+><phi+| + l*I/4,
    # whose correlator at any settings is (1-l)cos(a-b)
    for lam in (0.1, 0.25, 0.6):
        noise = NoiseModel(p1=0, p2=lam, readout_flip=0)
        for alice, bob in DEFAULT_ANGLES:
            e = oracle_correlator(alice, bob, noise)
            assert e == pytest.approx((1 - lam) * math.cos(alice - bob), abs=1e-12)


def test_werner_chsh_scaling():
    for lam in (0.0, 0.05, 0.15, 0.3, 0.5, 0.9):
        s = oracle_chsh(NoiseModel(p1=0, p2=lam, readout_flip=0))
        assert abs(s - CHSH_MAX * (1 - lam)) < 1e-9


def test_readout_convolution_exact():
    f = 0.07
    probs = density_matrix_oracle(phi_plus(), NoiseModel(p1=0, p2=0, readout_flip=f))
    # hand-convolved from the ideal {00: 1/2, 11: 1/2}
    same = 0.5 * ((1 - f) ** 2 + f**2)
    cross = 0.5 * 2 * f * (1 - f)
    assert probs["00"] == pytest.approx(same, abs=1e-12)
    assert probs["11"] == pytest.approx(same, abs=1e-12)
    assert probs["01"] == pytest.approx(cross, abs=1e-12)
    assert probs["10"] == pytest.approx(cross, abs=1e-12)


def test_distribution_is_normalized_and_complete():
    rng = np.random.default_rng(31)
    for _ in range(20):
        n = int(rng.integers(1, 4))
        gates = []
        for _ in range(int(rng.integers(0, 8))):
            roll = rng.random()
            if roll < 0.3 and n >= 2:
                control, target = rng.choice(n, size=2, replace=False)
                gates.append(Gate.cnot(int(control), int(target)))
            elif roll < 0.6:
                gates.append(Gate.ry(int(rng.integers(n)), float(rng.uniform(-3, 3))))
            else:
                gates.append(Gate.h(int(rng.integers(n))))
        measured = tuple(sorted(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)))
        circuit = Circuit(n, tuple(gates), tuple(int(q) for q in measured))
        noise = NoiseModel(
            p1=float(rng.uniform(0, 0.3)),
            p2=float(rng.uniform(0, 0.3)),
            readout_flip=float(rng.uniform(0, 0.3)),
        )
        probs = density_matrix_oracle(circuit, noise)
        k = len(measured)
        assert set(probs) == {
            "".join(bits) for bits in itertools.product("01", repeat=k)
        }
        assert sum(probs.values()) == pytest.approx(1.0, abs=1e-12)
        assert all(p >= 0 for p in probs.values())


def test_marginal_consistency():
    # measuring a subset must equal marginalizing the full distribution
    gates = (Gate.h(0), Gate.cnot(0, 1), Gate.cnot(1, 2), Gate.ry(2, 0.7))
    noise = NoiseModel(p1=0.05, p2=0.1, readout_flip=0.03)
    full = density_matrix_oracle(Circuit(3, gates, (0, 1, 2)), noise)
    partial = density_matrix_oracle(Circuit(3, gates, (0, 2)), noise)
    for a in "01":
        for c in "01":
            marginal = sum(full[a + b + c] for b in "01")
            assert partial[a + c] == pytest.approx(marginal, abs=1e-12)


def test_cap_is_checked_before_allocation(monkeypatch):
    def refuse(*args):
        raise AssertionError("the oracle allocated rho for a circuit over the cap")

    monkeypatch.setattr("qguard.density_oracle._zero_states", refuse)
    circuit = Circuit(ORACLE_MAX_QUBITS + 1, (Gate.h(0),), (0,))
    with pytest.raises(OracleLimitError):
        density_matrix_oracle(circuit, NoiseModel())


def test_widest_circuit_runs():
    n = ORACLE_MAX_QUBITS
    gates = (Gate.h(0),) + tuple(Gate.cnot(q, q + 1) for q in range(n - 1))
    probs = density_matrix_oracle(Circuit(n, gates, (0, n - 1)), NoiseModel.ideal())
    assert probs == pytest.approx({"00": 0.5, "01": 0.0, "10": 0.0, "11": 0.5}, abs=1e-12)


def test_oracle_is_independent_of_the_pauli_table(monkeypatch):
    # The oracle is the reference for the simulator's Pauli unraveling, so a
    # wrong entry in the simulator's table must move the simulator alone.
    gates = (Gate.h(0), Gate.h(0), Gate.h(1), Gate.cnot(0, 1), Gate.h(1))
    circuit = Circuit(2, gates, (0, 1))
    noise = NoiseModel(p1=0.2, p2=0.3, readout_flip=0.0, seed=7)
    expected = density_matrix_oracle(circuit, noise)
    shots = 20_000

    def worst_pull():
        counts = run_shots(circuit, shots, noise)
        return max(
            abs(counts.get(outcome, 0) / shots - p) / math.sqrt(p * (1.0 - p) / shots)
            for outcome, p in expected.items()
        )

    assert worst_pull() <= 5.0
    identity, x, _, z = simulator.PAULIS
    wrong = np.stack((identity, x, x, z))
    monkeypatch.setattr(simulator, "PAULIS", wrong)
    monkeypatch.setattr(density_oracle, "PAULIS", wrong, raising=False)
    # A cold cache, so no row evolved with the right table is reused, and
    # none evolved with the wrong one outlives this test.
    simulator._compile.cache_clear()
    try:
        assert density_matrix_oracle(circuit, noise) == expected
        assert worst_pull() > 5.0
    finally:
        simulator._compile.cache_clear()


# --- distributions pinned from the Kronecker-matrix oracle ------------------
#
# The oracle used to build full 2^n x 2^n gate matrices with np.kron.  These
# distributions were computed by that implementation for the seeded circuits
# of ``pinned_case``; the tensor-kernel oracle must reproduce them.

PINNED_GATE_KINDS = ("h", "x", "y", "z", "s", "t", "rx", "ry", "rz", "cnot")


def pinned_case(seed):
    """A seeded noisy circuit of 1-3 qubits over every gate kind, measuring
    a random subset of its qubits."""
    rng = random.Random(seed)
    n = (1, 2, 3, 3)[seed % 4]
    gates = []
    for _ in range(rng.randint(2, 12)):
        kind = rng.choice(PINNED_GATE_KINDS)
        if kind == "cnot":
            if n < 2:
                continue
            control, target = rng.sample(range(n), 2)
            gates.append(Gate.cnot(control, target))
        elif kind in ("rx", "ry", "rz"):
            gates.append(getattr(Gate, kind)(rng.randrange(n), rng.uniform(-math.pi, math.pi)))
        else:
            gates.append(getattr(Gate, kind)(rng.randrange(n)))
    measured = tuple(sorted(rng.sample(range(n), rng.randint(1, n))))
    noise = NoiseModel(
        p1=rng.uniform(0, 0.3), p2=rng.uniform(0, 0.3), readout_flip=rng.uniform(0, 0.2)
    )
    return Circuit(n, tuple(gates), measured), noise


PINNED_DISTRIBUTIONS = {
    0: {  # n=1, 8 gates, measured (0,)
        '0': 0.5084872980570768,
        '1': 0.49151270194292324,
    },
    1: {  # n=2, 4 gates, measured (0, 1)
        '00': 0.25956515927272156,
        '01': 0.5757400989391392,
        '10': 0.07130639808579932,
        '11': 0.09338834370233981,
    },
    2: {  # n=3, 2 gates, measured (0, 1, 2)
        '000': 0.189853951597987,
        '001': 0.02497148086507046,
        '010': 0.02497148086507046,
        '011': 0.003284497643298945,
        '100': 0.5911763659374969,
        '101': 0.07775739817704497,
        '110': 0.07775739817704497,
        '111': 0.010227426736986237,
    },
    3: {  # n=3, 5 gates, measured (0,)
        '0': 0.745453514028312,
        '1': 0.25454648597168794,
    },
    4: {  # n=1, 5 gates, measured (0,)
        '0': 0.4999999999999999,
        '1': 0.4999999999999999,
    },
    5: {  # n=2, 11 gates, measured (0, 1)
        '00': 0.15538636207493178,
        '01': 0.3446136379250685,
        '10': 0.15538636207493178,
        '11': 0.3446136379250685,
    },
    6: {  # n=3, 11 gates, measured (0, 1)
        '00': 0.368827600497056,
        '01': 0.13117239950294368,
        '10': 0.368827600497056,
        '11': 0.13117239950294368,
    },
    7: {  # n=3, 7 gates, measured (0, 1, 2)
        '000': 0.14796676134584175,
        '001': 0.14796676134584175,
        '010': 0.06449982528591339,
        '011': 0.06449982528591339,
        '100': 0.20024507678731424,
        '101': 0.20024507678731424,
        '110': 0.08728833658093069,
        '111': 0.08728833658093069,
    },
    8: {  # n=1, 5 gates, measured (0,)
        '0': 0.4999999999999999,
        '1': 0.4999999999999999,
    },
    9: {  # n=2, 9 gates, measured (0,)
        '0': 0.49999999999999967,
        '1': 0.49999999999999967,
    },
    10: {  # n=3, 11 gates, measured (1, 2)
        '00': 0.2748838950640038,
        '01': 0.08329133360325508,
        '10': 0.49257257055151227,
        '11': 0.14925220078122875,
    },
    11: {  # n=3, 9 gates, measured (0,)
        '0': 0.671263953876859,
        '1': 0.3287360461231405,
    },
    12: {  # n=1, 8 gates, measured (0,)
        '0': 0.15562102023720348,
        '1': 0.8443789797627965,
    },
    13: {  # n=2, 6 gates, measured (0,)
        '0': 0.4175911411707821,
        '1': 0.5824088588292176,
    },
    14: {  # n=3, 3 gates, measured (0, 1, 2)
        '000': 0.5620443358017173,
        '001': 0.13720414014086024,
        '010': 0.08977444622168182,
        '011': 0.021915398689852112,
        '100': 0.09967219942735675,
        '101': 0.0633501755205529,
        '110': 0.015920481601374492,
        '111': 0.010118822596604493,
    },
    15: {  # n=3, 5 gates, measured (0, 2)
        '00': 0.08897081844755923,
        '01': 0.41102918155244067,
        '10': 0.08897081844755923,
        '11': 0.41102918155244067,
    },
    16: {  # n=1, 7 gates, measured (0,)
        '0': 0.5661555487192586,
        '1': 0.43384445128074123,
    },
    17: {  # n=2, 10 gates, measured (0,)
        '0': 0.6740004939624976,
        '1': 0.32599950603750183,
    },
    18: {  # n=3, 4 gates, measured (0, 1)
        '00': 0.3869657704179481,
        '01': 0.5086130480898114,
        '10': 0.045118779172809285,
        '11': 0.05930240231943075,
    },
    19: {  # n=3, 12 gates, measured (0,)
        '0': 0.4999999999999997,
        '1': 0.4999999999999997,
    },
}


@pytest.mark.parametrize("seed", sorted(PINNED_DISTRIBUTIONS))
def test_matches_pinned_distribution(seed):
    circuit, noise = pinned_case(seed)
    probs = density_matrix_oracle(circuit, noise)
    assert probs == pytest.approx(PINNED_DISTRIBUTIONS[seed], abs=1e-12)


def test_pinned_cases_cover_every_gate_kind():
    kinds = {gate.kind.value for seed in PINNED_DISTRIBUTIONS for gate in pinned_case(seed)[0].gates}
    assert kinds == {kind.upper() for kind in PINNED_GATE_KINDS}
