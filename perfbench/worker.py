"""One workload in its own process: set up, then a closed loop of decisions.

Started by ``run.py``; not meant to be run by hand.  Prints JSON lines on
standard output: ``{"ready": ...}`` once set-up is done, then
``{"setup_reference_s": ...}``, the host's speed right after set-up (see
hostspeed.py), then ``{"result": ...}`` after the measured loop.
``--mode setup`` stops after the reference line; ``timed`` runs one
untraced loop; ``traced`` runs every decision twice, untraced and then
traced, so that slow drifts of the machine's speed do not bias the tracing
overhead.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# The library under test is the checkout's own source tree.
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import hostspeed  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

# The tail is p95, or a lower percentile when p95 has fewer than TAIL_BEYOND
# samples beyond it.  Above p95 the tail of a few-millisecond decision is
# mostly host stalls: p99 spread by 0.08-0.11 between runs, p95 by 0.04, and
# p99.8 by 0.60.  Fewer than MIN_DECISIONS samples leave no percentile with
# ten beyond it, so a loop runs past its deadline until it has them.
TAIL_PERCENTILE = 95.0
TAIL_BEYOND = 10
MIN_DECISIONS = TAIL_BEYOND + 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "timed", "traced"), required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)

    spec = workloads.workload(args.workload, args.tiny)
    workdir = args.out / f"work-{args.workload}-{args.mode}-{args.seed}"
    try:
        runner = workloads.Runner(spec, args.seed, workdir)
        checker = Determinism(args.workload, args.seed, None if args.tiny else load_digests())
        # Warm-up: decision 0, verified, whose digest later runs must reproduce.
        _, outcome = runner.decide(0)
        checker.check(0, runner.verify(outcome))
        setup_s = time.monotonic() - args.spawned_at
        emit({"ready": {"setup_s": setup_s}})
        reference_s = max(hostspeed.SHARE * setup_s, hostspeed.SETUP_SECONDS)
        emit({"setup_reference_s": hostspeed.measure(reference_s)})
        if args.mode == "setup":
            return 0
        if args.mode == "timed":
            result = timed_run(runner, checker, args.seconds)
        else:
            span_file = args.out / "spans" / f"{args.workload}-seed{args.seed}.jsonl"
            result = traced_run(runner, checker, args.seconds, span_file)
        emit({"result": result})
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def emit(doc: dict):
    print(json.dumps(doc), flush=True)


def load_digests() -> dict:
    return json.loads((HERE / "digests.json").read_text())


def timed_run(runner, checker, seconds: float) -> dict:
    loop = Loop(reference=True)
    deadline = time.monotonic() + seconds
    for decision in itertools.count():
        if time.monotonic() >= deadline and loop.attempted >= MIN_DECISIONS:
            break
        loop.run(runner, checker, decision)
    loop.require_completions()
    if loop.pending:
        loop.measure_host()
    return {
        **loop.outcome(),
        **loop.summary(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def traced_run(runner, checker, seconds: float, span_file: Path) -> dict:
    untraced, traced = Loop(), Loop()
    tracer = tracing.Tracer()
    deadline = time.monotonic() + seconds
    for decision in itertools.count():
        if time.monotonic() >= deadline and traced.attempted >= MIN_DECISIONS:
            break
        untraced.run(runner, checker, decision)
        tracer.install()
        try:
            traced.run(runner, checker, decision, tracer)
        finally:
            tracer.uninstall()
    untraced.require_completions()
    traced.require_completions()
    tracer.write(span_file)
    layers = tracing.layer_metrics(
        tracer.spans, untraced.rate(), traced.rate(), statistics.median(traced.report_bytes)
    )
    outcome = untraced.outcome()
    for key, value in traced.outcome().items():
        outcome[key] += value
    return {
        **outcome,
        "layers": {name: {"value": layers[name], "unit": unit} for name, unit in tracing.LAYER_METRICS},
        "traced_decision_ms": layers["decision_ms"],
        "span_file": str(span_file.relative_to(ROOT)),
    }


class Determinism:
    """Counts must repeat: a decision re-run on a fresh adapter must
    reproduce its first digest, and at the stored seed the first decisions
    must match the stored digests."""

    def __init__(self, workload: str, seed: int, stored: dict | None):
        self.expected: dict[int, str] = {}
        if stored is not None and stored["seed"] == seed:
            self.expected = dict(enumerate(stored["workloads"][workload]))

    def check(self, decision: int, digest: str):
        expected = self.expected.setdefault(decision, digest)
        if digest != expected:
            raise workloads.DecisionError(
                f"decision {decision} counts digest {digest} != expected {expected}"
            )


class Loop:
    """Latencies and failures of one closed loop of decisions.  With
    ``reference`` the host's speed is measured between decisions (see
    hostspeed.py), and ``summary`` reports times at the nominal host speed."""

    def __init__(self, reference: bool = False):
        self.reference = reference
        self.latencies: list[float] = []
        # Reference times, one per run of the reference task, and for each
        # completed decision the index of the run that followed it.
        self.references: list[float] = []
        self.blocks: list[int] = []
        self.pending = 0.0  # decision time since the reference task last ran
        self.report_bytes: list[int] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def run(self, runner, checker, decision: int, tracer=None):
        """One decision, verified; verification is not timed."""
        self.attempted += 1
        runner.tracer = tracer
        if tracer is not None:
            tracer.decision = decision
        try:
            elapsed, outcome = runner.decide(decision)
            checker.check(decision, runner.verify(outcome))
            self.latencies.append(elapsed)
            self.report_bytes.append(outcome.report_bytes)
            if self.reference:
                self.blocks.append(len(self.references))
                self.pending += elapsed
                if self.pending >= hostspeed.BLOCK_S:
                    self.measure_host()
        except Exception as exc:  # a failed decision is counted, the loop goes on
            self.failed += 1
            self.errors.append(f"decision {decision}: {type(exc).__name__}: {exc}")
        finally:
            runner.tracer = None

    def measure_host(self):
        """Run the reference task for the decisions since it last ran."""
        self.references.append(hostspeed.measure(hostspeed.SHARE * self.pending))
        self.pending = 0.0

    def require_completions(self):
        if not self.latencies:
            raise workloads.DecisionError(f"no decision completed: {self.errors[:3]}")

    def outcome(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed, "errors": self.errors[:5]}

    def rate(self) -> float:
        """Decisions per second of time spent inside decisions."""
        return len(self.latencies) / sum(self.latencies)

    def normalised(self) -> list[float]:
        """Each latency at the nominal host speed, scaled by the mean of the
        reference times measured right before and right after it."""
        before = self.references[:1] + self.references[:-1]
        return [
            latency * hostspeed.scale((before[block] + self.references[block]) / 2)
            for latency, block in zip(self.latencies, self.blocks)
        ]

    def summary(self) -> dict:
        """Timings at the nominal host speed; ``raw_*`` as measured."""
        n = len(self.latencies)
        nearest_rank = math.ceil(n * TAIL_PERCENTILE / 100) - 1
        index = max(min(nearest_rank, n - TAIL_BEYOND - 1), 0)
        ordered = sorted(self.normalised())
        raw = sorted(self.latencies)
        return {
            "decision_p50_ms": statistics.median(ordered) * 1e3,
            "decision_tail_ms": ordered[index] * 1e3,
            "decisions_per_s": n / sum(ordered),
            "raw_decision_p50_ms": statistics.median(raw) * 1e3,
            "raw_decision_tail_ms": raw[index] * 1e3,
            "raw_decisions_per_s": self.rate(),
            "reference_ms": statistics.median(self.references) * 1e3,
            "tail_percentile": 100.0 * (index + 1) / n,
            "tail_beyond": n - index - 1,
            "decisions": n,
        }


if __name__ == "__main__":
    sys.exit(main())
