"""Gate a main computation on live entanglement quality.

The packed CHSH probe runs first; the Bell-pair "main computation" is
dispatched only when the score clears 2.2.  Running the same flow on a
clean and on a degraded backend exercises both branches.
"""

from qguard import (
    MinimumAcceptableValue,
    NoiseModel,
    PackedCHSHTest,
    SimulatorAdapter,
    phi_plus,
    run_conditionally,
)


def run_main(backend, introspection):
    print(f"  score {introspection['CHSH_score']:.4f} cleared the bar; running main circuit")
    return backend.run(phi_plus(), 4096)


def skip_main(backend, introspection):
    print(f"  score {introspection['CHSH_score']:.4f} below threshold; skipping main circuit")


def demonstrate(label, noise):
    print(f"{label}:")
    outcome = run_conditionally(
        SimulatorAdapter(noise),
        PackedCHSHTest(MinimumAcceptableValue(2.2)),
        on_pass=run_main,
        on_fail=skip_main,
        shots=10_000,
    )
    print(f"  branch={outcome.branch.value}", end="")
    if outcome.main_result is not None:
        print(f", main counts={dict(outcome.main_result.counts)}", end="")
    print(f", window={(outcome.finished_at - outcome.started_at).total_seconds():.3f}s")


def main():
    demonstrate("healthy backend", NoiseModel.ideal(seed=12))
    demonstrate("degraded backend", NoiseModel(p2=0.3, seed=12))


if __name__ == "__main__":
    main()
