"""Record a backend session to JSON, then replay it bit for bit.

A RecordingAdapter wraps the live simulator and captures every result plus
the calibration snapshot.  A ReplayAdapter reconstructed from the JSON then
stands in for the backend: the same conditional flow replays the recorded
session without touching a simulator, which is how provider runs become
offline test fixtures.  The replay checks that each recorded result
answers the circuit and shot count it is asked for.
"""

import json
import tempfile
from pathlib import Path

from qguard import (
    MinimumAcceptableValue,
    NoiseModel,
    PackedCHSHTest,
    RecordingAdapter,
    ReplayAdapter,
    SimulatorAdapter,
    phi_plus,
    run_conditionally,
)


def conditional_bell(adapter):
    return run_conditionally(
        adapter,
        PackedCHSHTest(MinimumAcceptableValue(2.2)),
        on_pass=lambda backend, introspection: backend.run(phi_plus(), 2048),
        on_fail=lambda backend, introspection: None,
        shots=10_000,
    )


def main():
    recorder = RecordingAdapter(SimulatorAdapter(NoiseModel(p2=0.05, seed=2)))
    live = conditional_bell(recorder)
    print(f"live run:   branch={live.branch.value}, "
          f"S={live.introspection['CHSH_score']:.4f}, "
          f"main counts={dict(live.main_result.counts)}")

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "session.json"
        path.write_text(json.dumps(recorder.recording().to_dict(), indent=2))
        print(f"recorded {path.stat().st_size} bytes "
              f"({len(recorder.recording().results)} results + calibration)")

        replay = conditional_bell(ReplayAdapter.from_file(path))

    print(f"replayed:   branch={replay.branch.value}, "
          f"S={replay.introspection['CHSH_score']:.4f}, "
          f"main counts={dict(replay.main_result.counts)}")
    match = replay.main_result.counts == live.main_result.counts
    print(f"counts identical: {match}")


if __name__ == "__main__":
    main()
