"""End-to-end acceptance checks.

Each test covers one headline property of the package and prints a single
PASS line with the measured numbers when it succeeds:

  1. noiseless packed CHSH statistics (score near the quantum bound, fast)
  2. Werner scaling of the score under Bell-stage depolarizing noise
  3. the conditional Bell-pair flow on a clean simulator
  4. sampling agreement between the simulator and the density-matrix oracle
  5. the callback dispatch contract of the conditional executor
  6. composite constraint logic and TTL freshness caching
  7. the CLI on a passing and a failing workflow, with reproducible reports
  8. the real 8-qubit packed probe against the density-matrix oracle: the
     exact Werner score, and sampled outcomes and S at typical and heavy noise

Tolerances are 5-standard-error bands unless the quantity is exact, so a
correct implementation fails any single check with probability well under
1e-5.  Everything is seeded; reruns are deterministic.
"""

import itertools
import json
import math
import random
import time
from datetime import datetime, timedelta, timezone

import pytest

from qguard import (
    AndConstraint,
    BackendAdapter,
    BitstringCounts,
    Branch,
    Circuit,
    ExperimentResult,
    Gate,
    IntrospectionError,
    IntrospectionResult,
    MeasurementSettings,
    MinimumAcceptableValue,
    NoiseModel,
    NotConstraint,
    OrConstraint,
    PackedCHSHTest,
    ResourceConstraint,
    SimulatorAdapter,
    chsh_pair_circuit,
    density_matrix_oracle,
    packed_chsh_circuit,
    phi_plus,
    run_conditionally,
    run_shots,
)
from qguard.cli import EXIT_FAILED, EXIT_PASSED, main

CHSH_MAX = 2.0 * math.sqrt(2.0)
T0 = datetime(2026, 8, 21, 0, 0, 0, tzinfo=timezone.utc)


def report(line):
    print(line)


# --- 1: noiseless CHSH statistics ------------------------------------------


def test_noiseless_chsh_statistics():
    shots = 10_000
    repetitions = 20
    started = time.perf_counter()
    scores = []
    for seed in range(repetitions):
        adapter = SimulatorAdapter(NoiseModel.ideal(seed=seed))
        result = PackedCHSHTest(MinimumAcceptableValue(2.2)).evaluate(adapter, shots)
        scores.append(result["CHSH_score"])
    elapsed = time.perf_counter() - started

    mean = sum(scores) / len(scores)
    worst = max(abs(s - CHSH_MAX) for s in scores)
    assert abs(mean - CHSH_MAX) <= 0.02, f"mean {mean:.4f} vs {CHSH_MAX:.4f}"
    assert worst <= 0.07, f"worst deviation {worst:.4f}"
    assert elapsed < 5.0, f"{repetitions} repetitions took {elapsed:.2f}s"
    report(
        f"PASS noiseless CHSH: mean S={mean:.4f} (bound {CHSH_MAX:.4f}, tol 0.02), "
        f"worst |dS|={worst:.4f} (tol 0.07), {repetitions}x{shots} shots in {elapsed:.2f}s"
    )


# --- 2: Werner scaling -----------------------------------------------------


def pair_angles(settings=MeasurementSettings()):
    return (
        (settings.a0, settings.b0),
        (settings.a0, settings.b1),
        (settings.a1, settings.b0),
        (settings.a1, settings.b1),
    )


def oracle_chsh_score(noise):
    correlators = []
    for alice, bob in pair_angles():
        probs = density_matrix_oracle(chsh_pair_circuit(alice, bob), noise)
        correlators.append(probs["00"] + probs["11"] - probs["01"] - probs["10"])
    return correlators[0] + correlators[1] + correlators[2] - correlators[3]


def test_werner_scaling():
    shots = 10_000
    for lam in (0.0, 0.15, 0.3):
        noise = NoiseModel(p1=0.0, p2=lam, readout_flip=0.0, seed=101)
        expected = CHSH_MAX * (1.0 - lam)

        oracle_s = oracle_chsh_score(noise)
        assert abs(oracle_s - expected) <= 1e-9, (
            f"oracle S {oracle_s!r} vs {expected!r} at lam={lam}"
        )

        probe = PackedCHSHTest(MinimumAcceptableValue(2.2))
        scores = probe.evaluate(SimulatorAdapter(noise), shots).scores
        deviation = abs(scores["CHSH_score"] - expected)
        assert deviation <= 5 * scores["se_S"], (
            f"empirical S {scores['CHSH_score']:.4f} is {deviation / scores['se_S']:.1f}"
            f" se from {expected:.4f} at lam={lam}"
        )

    # lam=0.3 sits ~12 se below the 2.2 threshold: the fail branch must win.
    failed = 0
    for seed in range(20):
        noise = NoiseModel(p1=0.0, p2=0.3, readout_flip=0.0, seed=1000 + seed)
        outcome = run_conditionally(
            SimulatorAdapter(noise),
            PackedCHSHTest(MinimumAcceptableValue(2.2)),
            on_pass=lambda a, i: "ran",
            on_fail=lambda a, i: None,
            shots=shots,
        )
        failed += outcome.branch is Branch.FAILED
    assert failed >= 19, f"only {failed}/20 repetitions took the fail branch"
    report(
        f"PASS Werner scaling: oracle S=2.83/2.40/1.98 at lam=0/0.15/0.3 (tol 1e-9), "
        f"empirical within 5 se, fail branch {failed}/20 at lam=0.3"
    )


# --- 3: conditional Bell-pair flow -----------------------------------------


def test_conditional_bell_flow():
    main_shots = 1024
    adapter = SimulatorAdapter(NoiseModel.ideal(seed=40))

    outcome = run_conditionally(
        adapter,
        PackedCHSHTest(MinimumAcceptableValue(2.2)),
        on_pass=lambda backend, introspection: backend.run(phi_plus(), main_shots),
        on_fail=lambda backend, introspection: None,
        shots=10_000,
    )

    assert outcome.branch is Branch.PASSED
    counts = outcome.main_result.counts
    assert set(counts) <= {"00", "11"}, f"unexpected outcomes {sorted(counts)}"
    sigma = math.sqrt(main_shots * 0.25)
    for key in ("00", "11"):
        assert abs(counts.get(key, 0) - main_shots / 2) <= 5 * sigma
    report(
        f"PASS conditional Bell flow: branch=passed, S={outcome.introspection['CHSH_score']:.4f}, "
        f"counts {dict(counts)} (each within 5 sigma of {main_shots // 2})"
    )


# --- 4: simulator vs density oracle ----------------------------------------

GATE_POOL = ("h", "x", "y", "z", "s", "t", "rx", "ry", "rz", "cnot")


def random_circuit(rng):
    num_qubits = rng.randint(1, 3)
    gates = []
    for _ in range(rng.randint(0, 10)):
        kind = rng.choice(GATE_POOL)
        if kind == "cnot":
            if num_qubits < 2:
                continue
            control, target = rng.sample(range(num_qubits), 2)
            gates.append(Gate.cnot(control, target))
        elif kind in ("rx", "ry", "rz"):
            target = rng.randrange(num_qubits)
            gates.append(getattr(Gate, kind)(target, rng.uniform(0.0, 2.0 * math.pi)))
        else:
            gates.append(getattr(Gate, kind)(rng.randrange(num_qubits)))
    num_measured = rng.randint(1, num_qubits)
    measured = tuple(sorted(rng.sample(range(num_qubits), num_measured)))
    return Circuit(num_qubits=num_qubits, gates=tuple(gates), measured_qubits=measured)


def random_noise(rng):
    return NoiseModel(
        p1=rng.uniform(0.003, 0.04),
        p2=rng.uniform(0.005, 0.08),
        readout_flip=rng.uniform(0.003, 0.05),
        seed=rng.getrandbits(64),
    )


def test_simulator_matches_density_oracle():
    shots = 100_000
    num_circuits = 50
    rng = random.Random(20260821)
    checked_outcomes = 0
    worst_pull = 0.0

    for index in range(num_circuits):
        circuit = random_circuit(rng)
        noise = random_noise(rng)
        # NormConservationError from run_shots would fail the test outright.
        counts = run_shots(circuit, shots, noise)
        probabilities = density_matrix_oracle(circuit, noise)
        assert abs(sum(probabilities.values()) - 1.0) < 1e-12

        for outcome, probability in probabilities.items():
            observed = counts.get(outcome, 0)
            if probability < 1e-15:
                assert observed == 0, (
                    f"circuit {index}: impossible outcome {outcome} seen {observed}x"
                )
                continue
            if probability > 1.0 - 1e-15:
                assert observed == shots
                continue
            se = math.sqrt(probability * (1.0 - probability) / shots)
            pull = abs(observed / shots - probability) / se
            worst_pull = max(worst_pull, pull)
            assert pull <= 5.0, (
                f"circuit {index}: outcome {outcome} frequency {observed / shots:.5f} "
                f"is {pull:.2f} se from oracle {probability:.5f}"
            )
            checked_outcomes += 1

    report(
        f"PASS simulator vs oracle: {num_circuits} random circuits x {shots} shots, "
        f"{checked_outcomes} outcome frequencies within 5 se (worst pull {worst_pull:.2f}), "
        f"0 norm violations"
    )


# --- 5: executor callback contract -----------------------------------------


class ScriptedConstraint(ResourceConstraint):
    """Follows a script: passes, fails, or raises; burns adapter runs."""

    def __init__(self, action, probe_runs):
        self._action = action
        self._probe_runs = probe_runs

    def name(self):
        return "scripted"

    def evaluate(self, adapter, shots, clock=None):
        for _ in range(self._probe_runs):
            adapter.run(_ONE_QUBIT, shots)
        if self._action == "error":
            raise RuntimeError("scripted failure")
        return IntrospectionResult("scripted", self._action == "pass", {}, T0)


_ONE_QUBIT = Circuit(num_qubits=1, gates=(Gate.h(0),), measured_qubits=(0,))


class TalliedAdapter(BackendAdapter):
    def __init__(self, inner):
        self._inner = inner
        self.run_calls = 0

    def run(self, circuit, shots):
        self.run_calls += 1
        return self._inner.run(circuit, shots)

    def calibration(self):
        return self._inner.calibration()

    def name(self):
        return self._inner.name()


def test_executor_callback_contract():
    rng = random.Random(5)
    iterations = 1000
    branch_tally = {"pass": 0, "fail": 0, "error": 0}

    for _ in range(iterations):
        action = rng.choice(("pass", "pass", "fail", "fail", "error"))
        probe_runs = rng.randint(0, 2)
        callback_runs = rng.randint(0, 1)
        adapter = TalliedAdapter(SimulatorAdapter(NoiseModel.ideal(seed=7)))
        calls = []

        def touch(label, backend, introspection):
            calls.append((label, introspection))
            for _ in range(callback_runs):
                backend.run(_ONE_QUBIT, 8)
            return label

        constraint = ScriptedConstraint(action, probe_runs)
        if action == "error":
            with pytest.raises(IntrospectionError):
                run_conditionally(
                    adapter,
                    constraint,
                    on_pass=lambda a, i: touch("pass", a, i),
                    on_fail=lambda a, i: touch("fail", a, i),
                    shots=8,
                )
            assert calls == []  # zero callbacks when evaluation errors
            assert adapter.run_calls == probe_runs
        else:
            outcome = run_conditionally(
                adapter,
                constraint,
                on_pass=lambda a, i: touch("pass", a, i),
                on_fail=lambda a, i: touch("fail", a, i),
                shots=8,
            )
            assert len(calls) == 1  # exactly one callback
            label, seen_introspection = calls[0]
            assert label == action
            assert seen_introspection is outcome.introspection  # pass-through
            assert outcome.main_result == action
            assert adapter.run_calls == probe_runs + callback_runs  # no hidden runs
        branch_tally[action] += 1

    assert sum(branch_tally.values()) == iterations
    report(
        f"PASS executor contract: {iterations} randomized outcomes "
        f"({branch_tally['pass']} pass / {branch_tally['fail']} fail / "
        f"{branch_tally['error']} error), exactly-one-callback, pass-through, "
        f"and run accounting all held"
    )


# --- 6: composite and freshness logic --------------------------------------


class FixedOutcome(ResourceConstraint):
    def __init__(self, passed):
        self._passed = passed
        self.evaluations = 0

    def name(self):
        return "fixed"

    def evaluate(self, adapter, shots, clock):
        self.evaluations += 1
        return IntrospectionResult("fixed", self._passed, {}, clock())


class IdleAdapter(BackendAdapter):
    def __init__(self):
        self.run_calls = 0

    def run(self, circuit, shots):
        self.run_calls += 1
        return ExperimentResult(
            counts=BitstringCounts({"0" * circuit.num_measured: shots}),
            shots=shots,
            backend_name="idle",
            submitted_at=T0,
            completed_at=T0,
        )

    def calibration(self):
        raise AssertionError("composite logic should not touch calibration")

    def name(self):
        return "idle"


def test_composite_and_freshness_logic():
    tables = 0
    for arity in (1, 2, 3):
        for flags in itertools.product([False, True], repeat=arity):
            and_result = AndConstraint([FixedOutcome(f) for f in flags]).evaluate(IdleAdapter(), 1)
            assert and_result.passed == all(flags)
            or_result = OrConstraint([FixedOutcome(f) for f in flags]).evaluate(IdleAdapter(), 1)
            assert or_result.passed == any(flags)
            tables += 2
    for flag in (False, True):
        assert NotConstraint(FixedOutcome(flag)).evaluate(IdleAdapter(), 1).passed == (not flag)
        tables += 1

    # Short-circuit, proven by adapter run count: the CHSH probe behind a
    # failed AND child (or a passed OR child) must never execute.
    adapter = IdleAdapter()
    probe = PackedCHSHTest(MinimumAcceptableValue(0.0))
    assert not AndConstraint([FixedOutcome(False), probe]).evaluate(adapter, 64).passed
    assert adapter.run_calls == 0
    assert OrConstraint([FixedOutcome(True), probe]).evaluate(adapter, 64).passed
    assert adapter.run_calls == 0
    assert AndConstraint([FixedOutcome(True), probe]).evaluate(adapter, 64).passed
    assert adapter.run_calls == 1  # now the probe had to run

    # Freshness: drive the TTL cache with a synthetic clock.
    from qguard import FreshWithin

    now = [T0]
    clock = lambda: now[0]
    child = FixedOutcome(True)
    fresh = FreshWithin(child, ttl=timedelta(seconds=60))
    adapter = IdleAdapter()
    first = fresh.evaluate(adapter, 1, clock)
    now[0] = T0 + timedelta(seconds=30)
    assert fresh.evaluate(adapter, 1, clock) is first  # cache hit inside ttl
    assert child.evaluations == 1
    now[0] = T0 + timedelta(seconds=90)
    second = fresh.evaluate(adapter, 1, clock)  # expired: re-evaluate
    assert child.evaluations == 2
    assert second.evaluated_at == T0 + timedelta(seconds=90)

    report(
        f"PASS composite logic: {tables} truth-table rows for AND/OR/NOT up to 3 "
        f"children, short-circuit confirmed by run counts, TTL cache hit at 30s "
        f"and refresh at 90s of a 60s ttl"
    )


# --- 7: CLI end to end -----------------------------------------------------


def bell_workflow(p2=0.0):
    return {
        "backend": {
            "type": "simulator",
            "noise": {"p1": 0.0, "p2": p2, "readout_flip": 0.0},
            "seed": 17,
        },
        "constraint": {"type": "packed_chsh", "policy": {"kind": "min", "threshold": 2.2}},
        "main_circuit": {
            "num_qubits": 2,
            "gates": [
                {"kind": "H", "targets": [0]},
                {"kind": "CNOT", "targets": [0, 1]},
            ],
            "measure": [0, 1],
        },
        "constraint_shots": 10_000,
        "main_shots": 1024,
        "report_path": "report.json",
    }


def check_report_schema(report_doc):
    for key in ("branch", "introspection", "config", "started_at", "finished_at", "version"):
        assert key in report_doc, f"report is missing {key}"
    assert report_doc["branch"] in ("passed", "failed")

    def check_introspection(node):
        for key in ("constraint_name", "passed", "scores", "evaluated_at"):
            assert key in node
        datetime.fromisoformat(node["evaluated_at"].replace("Z", "+00:00"))
        for child in node.get("children", ()):
            check_introspection(child)

    check_introspection(report_doc["introspection"])
    for key in ("started_at", "finished_at"):
        datetime.fromisoformat(report_doc[key].replace("Z", "+00:00"))
    for key in ("backend", "constraint", "main_circuit", "constraint_shots", "main_shots"):
        assert key in report_doc["config"]


def scrub_timestamps(node):
    if isinstance(node, dict):
        return {
            key: ("<ts>" if key.endswith("_at") else scrub_timestamps(value))
            for key, value in node.items()
        }
    if isinstance(node, list):
        return [scrub_timestamps(value) for value in node]
    return node


def run_cli_workflow(directory, doc):
    directory.mkdir()
    config = directory / "workflow.json"
    config.write_text(json.dumps(doc))
    status = main(["run", str(config)])
    return status, json.loads((directory / "report.json").read_text())


def test_cli_end_to_end(tmp_path):
    status, passing = run_cli_workflow(tmp_path / "pass_a", bell_workflow())
    assert status == EXIT_PASSED
    check_report_schema(passing)
    assert passing["branch"] == "passed"
    assert set(passing["main_result"]["counts"]) <= {"00", "11"}

    status, failing = run_cli_workflow(tmp_path / "fail_a", bell_workflow(p2=0.3))
    assert status == EXIT_FAILED
    check_report_schema(failing)
    assert failing["branch"] == "failed"
    assert "main_result" not in failing
    assert abs(failing["introspection"]["scores"]["CHSH_score"] - 1.98) < 0.09

    # Determinism: identical config and seed, fresh directory, same report
    # byte for byte once timestamps are scrubbed.
    _, passing_again = run_cli_workflow(tmp_path / "pass_b", bell_workflow())
    _, failing_again = run_cli_workflow(tmp_path / "fail_b", bell_workflow(p2=0.3))
    passing_bytes = json.dumps(scrub_timestamps(passing), sort_keys=True)
    failing_bytes = json.dumps(scrub_timestamps(failing), sort_keys=True)
    assert json.dumps(scrub_timestamps(passing_again), sort_keys=True) == passing_bytes
    assert json.dumps(scrub_timestamps(failing_again), sort_keys=True) == failing_bytes

    report(
        f"PASS CLI end to end: passing workflow exit 0 (S="
        f"{passing['introspection']['scores']['CHSH_score']:.4f}), failing workflow "
        f"exit 3 (S={failing['introspection']['scores']['CHSH_score']:.4f}), reports "
        f"schema-valid and rerun-identical modulo timestamps"
    )


# --- 8: the packed probe against the density oracle -------------------------


def oracle_packed_score(probabilities):
    signs = [
        sum(p if bits[2 * pair] == bits[2 * pair + 1] else -p for bits, p in probabilities.items())
        for pair in range(4)
    ]
    return signs[0] + signs[1] + signs[2] - signs[3]


def test_packed_probe_oracle_werner_score():
    for lam in (0.0, 0.15, 0.3):
        noise = NoiseModel(p1=0.0, p2=lam, readout_flip=0.0)
        s = oracle_packed_score(density_matrix_oracle(packed_chsh_circuit(), noise))
        assert abs(s - CHSH_MAX * (1.0 - lam)) <= 1e-12, f"oracle S {s!r} at lam={lam}"
    report("PASS packed probe oracle: S = 2*sqrt(2)*(1-lam) to 1e-12 at lam=0/0.15/0.3")


@pytest.mark.parametrize(
    "noise",
    [
        NoiseModel(p1=0.001, p2=0.01, readout_flip=0.02, seed=71),
        NoiseModel(p1=0.001, p2=0.3, readout_flip=0.02, seed=72),
    ],
    ids=["readme", "werner_heavy"],
)
def test_packed_probe_matches_oracle(noise):
    shots = 100_000
    probabilities = density_matrix_oracle(packed_chsh_circuit(), noise)
    result = PackedCHSHTest(MinimumAcceptableValue(2.2)).evaluate(SimulatorAdapter(noise), shots)
    counts = result.evidence.counts

    worst_pull = 0.0
    for outcome, probability in probabilities.items():
        se = math.sqrt(probability * (1.0 - probability) / shots)
        pull = abs(counts.get(outcome, 0) / shots - probability) / se
        worst_pull = max(worst_pull, pull)
        assert pull <= 5.0, f"outcome {outcome} is {pull:.2f} se from oracle {probability:.6f}"

    exact = oracle_packed_score(probabilities)
    deviation = abs(result["CHSH_score"] - exact)
    assert deviation <= 5 * result["se_S"], (
        f"sampled S {result['CHSH_score']:.4f} is {deviation / result['se_S']:.1f} se "
        f"from oracle S {exact:.4f}"
    )
    report(
        f"PASS packed probe vs oracle: {len(probabilities)} outcomes of {shots} shots "
        f"within 5 se (worst pull {worst_pull:.2f}), S {result['CHSH_score']:.4f} vs "
        f"exact {exact:.4f} ({deviation / result['se_S']:.2f} se)"
    )
