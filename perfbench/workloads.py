"""The four decision workloads: inputs, one decision, and its verification.

Every workload is a closed loop of single decisions.  A decision is one
``run_conditionally`` call on a fresh simulator adapter, or one in-process
``qguard run`` on a strict replay backend.  Inputs (noise seeds, the replay
recording, the workflow files) are derived from the benchmark seed only.

qguard is looked up through its module attributes at call time
(``executor.run_conditionally``, ``circuits.phi_plus``, ...), so the tracer
in ``tracer.py`` can wrap exactly the callables the library's own callers use.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, replace
from datetime import datetime, timedelta, timezone
from pathlib import Path
from time import perf_counter

import qguard.backends as backends
import qguard.circuits as circuits
import qguard.cli as cli
import qguard.constraints as constraints
import qguard.density_oracle as density_oracle
import qguard.executor as executor
import qguard.simulator as simulator

THRESHOLD = 2.2
README_NOISE = {"p1": 0.001, "p2": 0.01, "readout_flip": 0.02}
# Allowed distance of the sampled CHSH score from the exact one, in units of
# the probe's own reported standard error.
SCORE_SIGMAS = 5.0
# Root span a Runner opens around each timed decision when a tracer is attached.
DECISION_SPAN = "decision"


@dataclass(frozen=True)
class Workload:
    name: str
    noise: dict
    probe_shots: int
    main_shots: int
    expect_pass: bool
    replay: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload("readme_typical", README_NOISE, 10_000, 4096, expect_pass=True),
        Workload(
            "werner_heavy", {**README_NOISE, "p2": 0.3}, 10_000, 4096, expect_pass=False
        ),
        Workload(
            "bulk_shots",
            {"p1": 0.0, "p2": 0.0, "readout_flip": 0.02},
            1_000_000,
            4096,
            expect_pass=True,
        ),
        Workload("replay_workflow", README_NOISE, 10_000, 4096, expect_pass=True, replay=True),
    )
}

# Shot counts for the self-test: large enough that every branch is still
# decided far from the threshold, small enough to run in well under a second.
TINY_PROBE_SHOTS = 2000
TINY_MAIN_SHOTS = 256


def workload(name: str, tiny: bool = False) -> Workload:
    spec = WORKLOADS[name]
    if tiny:
        spec = replace(spec, probe_shots=TINY_PROBE_SHOTS, main_shots=TINY_MAIN_SHOTS)
    return spec


def noise_seed(name: str, seed: int, decision: int) -> int:
    """64-bit noise seed of one decision, derived from the benchmark seed."""
    digest = hashlib.sha256(f"{name}/{seed}/{decision}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def counts_digest(probe_counts, main_counts) -> str:
    """Digest of the canonical (sorted) counts a decision produced."""
    canonical = [dict(sorted(probe_counts.items()))]
    if main_counts is not None:
        canonical.append(dict(sorted(main_counts.items())))
    text = json.dumps(canonical, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def exact_chsh_score(noise: dict) -> float:
    """S of the packed probe from the density-matrix oracle.

    The four pairs of the packed circuit never interact, so each correlator
    is exactly that of the 2-qubit ``chsh_pair_circuit`` stand-in.
    """
    s = circuits.MeasurementSettings()
    model = simulator.NoiseModel(**noise)
    correlators = []
    for alice, bob in ((s.a0, s.b0), (s.a0, s.b1), (s.a1, s.b0), (s.a1, s.b1)):
        p = density_oracle.density_matrix_oracle(circuits.chsh_pair_circuit(alice, bob), model)
        correlators.append(p["00"] + p["11"] - p["01"] - p["10"])
    return correlators[0] + correlators[1] + correlators[2] - correlators[3]


def recount_scores(probe_counts) -> dict:
    """Correlators and S recomputed from raw 8-bit counts, independently of qguard."""
    total = sum(probe_counts.values())
    scores = {}
    for pair in range(4):
        same = sum(c for bits, c in probe_counts.items() if bits[2 * pair] == bits[2 * pair + 1])
        scores[f"E{pair >> 1}{pair & 1}"] = (2 * same - total) / total
    scores["CHSH_score"] = scores["E00"] + scores["E01"] + scores["E10"] - scores["E11"]
    return scores


@dataclass
class Outcome:
    """What one decision left behind, as seen by the verifier."""

    passed: bool
    probe_counts: dict
    probe_shots: int
    scores: dict
    main_counts: dict | None
    report_bytes: int = 0


class DecisionError(Exception):
    """A decision completed but its output failed verification."""


class Runner:
    """Set-up and decisions of one workload at one seed."""

    def __init__(self, spec: Workload, seed: int, workdir: Path):
        self.spec = spec
        self.seed = seed
        self.exact_score = exact_chsh_score(spec.noise)
        self.tracer = None
        if spec.replay:
            self._prepare_replay(workdir)

    # -- inputs ---------------------------------------------------------------

    def _prepare_replay(self, workdir: Path):
        """Record one probe + main session on the simulator and write the
        recording, the main circuit document and the workflow file."""
        base = datetime(2026, 1, 1, tzinfo=timezone.utc)
        ticks = itertools.count()

        def clock():
            return base + timedelta(microseconds=next(ticks))

        noise = simulator.NoiseModel(seed=noise_seed(self.spec.name, self.seed, 0), **self.spec.noise)
        recorder = backends.RecordingAdapter(backends.SimulatorAdapter(noise, clock=clock))
        probe = recorder.run(circuits.packed_chsh_circuit(), self.spec.probe_shots)
        main = recorder.run(circuits.phi_plus(), self.spec.main_shots)
        self.recorded_probe = probe.counts.to_dict()
        self.recorded_main = main.counts.to_dict()

        workdir.mkdir(parents=True, exist_ok=True)
        (workdir / "recording.json").write_text(json.dumps(recorder.recording().to_dict()))
        (workdir / "main_circuit.json").write_text(
            json.dumps(circuits.circuit_to_dict(circuits.phi_plus()))
        )
        workflow = {
            "backend": {"type": "replay", "recording_file": "recording.json", "strict": True},
            "constraint": {
                "type": "and",
                "children": [
                    {
                        "type": "calibration",
                        "criteria": {"min_qubits": 8, "min_t1_us": 50.0, "max_readout_error": 0.05},
                    },
                    {
                        "type": "fresh_within",
                        "ttl_seconds": 300,
                        "children": [
                            {"type": "packed_chsh", "policy": {"kind": "min", "threshold": THRESHOLD}}
                        ],
                    },
                ],
            },
            "main_circuit": "main_circuit.json",
            "constraint_shots": self.spec.probe_shots,
            "main_shots": self.spec.main_shots,
            "report_path": "report.json",
        }
        self.workflow_path = workdir / "workflow.json"
        self.workflow_path.write_text(json.dumps(workflow, indent=2))
        self.report_path = workdir / "report.json"

    # -- one decision -----------------------------------------------------------

    def _timed(self, call):
        """``call()`` and its wall time: the decision proper, from the call to
        its return.  With a tracer attached it is also the decision's root span."""
        span = self.tracer.begin(DECISION_SPAN) if self.tracer is not None else None
        try:
            start = perf_counter()
            result = call()
            return result, perf_counter() - start
        finally:
            if span is not None:
                self.tracer.end(span)

    def decide(self, decision: int) -> tuple[float, Outcome]:
        """Run decision ``decision``; returns its wall time and its outcome."""
        if self.spec.replay:
            return self._replay_decision()
        return self._simulator_decision(decision)

    def _simulator_decision(self, decision: int) -> tuple[float, Outcome]:
        spec = self.spec
        noise = simulator.NoiseModel(seed=noise_seed(spec.name, self.seed, decision), **spec.noise)
        adapter = backends.SimulatorAdapter(noise)
        constraint = constraints.PackedCHSHTest(constraints.MinimumAcceptableValue(THRESHOLD))
        main_shots = spec.main_shots
        result, elapsed = self._timed(
            lambda: executor.run_conditionally(
                adapter,
                constraint,
                on_pass=lambda backend, check: backend.run(circuits.phi_plus(), main_shots),
                on_fail=lambda backend, check: f"skipping main circuit, score was {check['CHSH_score']:.3f}",
                shots=spec.probe_shots,
            )
        )
        check = result.introspection
        main = result.main_result
        return elapsed, Outcome(
            passed=result.branch is executor.Branch.PASSED,
            probe_counts=check.evidence.counts.to_dict(),
            probe_shots=check.evidence.shots,
            scores=dict(check.scores),
            main_counts=main.counts.to_dict() if isinstance(main, backends.ExperimentResult) else None,
        )

    def _replay_decision(self) -> tuple[float, Outcome]:
        self.report_path.unlink(missing_ok=True)
        status, elapsed = self._timed(lambda: cli.main(["run", str(self.workflow_path)]))
        if status not in (cli.EXIT_PASSED, cli.EXIT_FAILED):
            raise DecisionError(f"qguard run exited with status {status}")
        text = self.report_path.read_text()
        report = json.loads(text)
        probe = _packed_chsh_node(report["introspection"])
        main = report.get("main_result")
        return elapsed, Outcome(
            passed=status == cli.EXIT_PASSED and report["branch"] == "passed",
            probe_counts=probe["evidence"]["counts"],
            probe_shots=probe["evidence"]["shots"],
            scores=probe["scores"],
            main_counts=main["counts"] if main is not None else None,
            report_bytes=len(text.encode()),
        )

    # -- verification -----------------------------------------------------------

    def verify(self, outcome: Outcome) -> str:
        """Check one outcome; returns its counts digest or raises DecisionError."""
        spec = self.spec
        if outcome.passed != spec.expect_pass:
            raise DecisionError(f"took the {'pass' if outcome.passed else 'fail'} branch")
        if sum(outcome.probe_counts.values()) != spec.probe_shots or outcome.probe_shots != spec.probe_shots:
            raise DecisionError("probe counts do not sum to the requested shots")
        if spec.expect_pass:
            if outcome.main_counts is None or sum(outcome.main_counts.values()) != spec.main_shots:
                raise DecisionError("main counts do not sum to the requested shots")
        elif outcome.main_counts is not None:
            raise DecisionError("fail branch produced a main result")
        score, se = outcome.scores["CHSH_score"], outcome.scores["se_S"]
        if not abs(score - self.exact_score) <= SCORE_SIGMAS * se:
            raise DecisionError(
                f"CHSH_score {score:.4f} is more than {SCORE_SIGMAS} se ({se:.4f}) "
                f"from the exact {self.exact_score:.4f}"
            )
        if spec.replay and (
            outcome.probe_counts != self.recorded_probe or outcome.main_counts != self.recorded_main
        ):
            raise DecisionError("report counts differ from the recorded session")
        expected = recount_scores(outcome.probe_counts)
        if any(outcome.scores[key] != value for key, value in expected.items()):
            raise DecisionError("scores differ from those recomputed from the probe counts")
        return counts_digest(outcome.probe_counts, outcome.main_counts)


def _packed_chsh_node(node: dict) -> dict:
    """The PackedCHSHTest result inside a report's introspection tree."""
    if node["constraint_name"] == "PackedCHSHTest":
        return node
    for child in node.get("children", ()):
        try:
            return _packed_chsh_node(child)
        except DecisionError:
            pass
    raise DecisionError("report holds no PackedCHSHTest result")
