"""Compose calibration thresholds, a CHSH probe, and a TTL cache into one
constraint tree, then read the structured result back.

Tree: AND( calibration gate, FreshWithin(60s, CHSH probe) ).  The cheap
calibration check runs first; a failing snapshot short-circuits the tree
before the probe spends any shots.  Within the TTL, repeated evaluations
reuse the cached probe result and the tree costs nothing; the demo exits
non-zero if the second evaluation does not return the first one's probe.
"""

from datetime import timedelta

from qguard import (
    AndConstraint,
    CalibrationConstraint,
    FreshWithin,
    MinimumAcceptableValue,
    NoiseModel,
    PackedCHSHTest,
    SimulatorAdapter,
)


def describe(result, indent=0):
    pad = "  " * indent
    scores = {k: round(v, 4) for k, v in result.scores.items()}
    print(f"{pad}{result.constraint_name}: passed={result.passed} {scores}")
    for child in result.children:
        describe(child, indent + 1)


def main():
    adapter = SimulatorAdapter(NoiseModel(p1=0.002, p2=0.01, readout_flip=0.01, seed=6))
    tree = AndConstraint([
        CalibrationConstraint(min_qubits=8, min_t1_us=50.0, max_readout_error=0.05),
        FreshWithin(PackedCHSHTest(MinimumAcceptableValue(2.2)), ttl=timedelta(seconds=60)),
    ])

    print("first evaluation (probe runs):")
    first = tree.evaluate(adapter, 10_000)
    describe(first)

    print("\nsecond evaluation (probe cached, same evaluated_at):")
    second = tree.evaluate(adapter, 10_000)
    describe(second)
    # The cache serves only the adapter object that produced its result.
    if second.children[1] is not first.children[1]:
        raise SystemExit("the second evaluation re-ran the probe instead of reusing it")

    print("\ndemanding more qubits than the device has (probe never runs):")
    strict = AndConstraint([
        CalibrationConstraint(min_qubits=100),
        PackedCHSHTest(MinimumAcceptableValue(2.2)),
    ])
    describe(strict.evaluate(adapter, 10_000))


if __name__ == "__main__":
    main()
