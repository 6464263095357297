"""Sweep Bell-stage depolarizing noise and watch the CHSH score decay.

One packed circuit per noise level measures all four correlators at once.
The sampled score tracks the analytic Werner line 2*sqrt(2)*(1 - lam), and
the Min(2.2) policy flips from pass to fail a bit above lam = 0.22.
"""

import math

from qguard import (
    MinimumAcceptableValue,
    NoiseModel,
    PackedCHSHTest,
    SimulatorAdapter,
)

SHOTS = 20_000
THRESHOLD = 2.2


def main():
    probe = PackedCHSHTest(MinimumAcceptableValue(THRESHOLD))
    print(f"{'lam':>5}  {'S sampled':>9}  {'S exact':>8}  {'se':>6}  decision")
    for step in range(7):
        lam = 0.05 * step
        adapter = SimulatorAdapter(NoiseModel(p2=lam, seed=3))
        result = probe.evaluate(adapter, SHOTS)
        exact = 2.0 * math.sqrt(2.0) * (1.0 - lam)
        decision = "pass" if result.passed else "FAIL"
        print(
            f"{lam:5.2f}  {result['CHSH_score']:9.4f}  {exact:8.4f}"
            f"  {result['se_S']:6.4f}  {decision}"
        )
    print(f"\npolicy: CHSH_score >= {THRESHOLD}")


if __name__ == "__main__":
    main()
