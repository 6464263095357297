"""Fast self-test of the benchmark itself, at tiny sizes.

    python3 perfbench/selftest.py                  # run the checks
    python3 perfbench/selftest.py --write-digests  # re-record digests.json

Checks that every workload emits every metric BENCHMARK.json names, with
its unit, in both trace modes, and that a replay recording with one
corrupted bitstring, or counts that do not reproduce a stored digest, are
counted as failed decisions rather than passed silently.

``--write-digests`` re-records the counts digests of the first decisions of
every workload at the stored seed and full size.  Do that only when the
counts are meant to change; the determinism contract says they do not.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import worker  # puts the checkout's src/ on sys.path
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = ROOT / ".perfbench_out" / "selftest"
DIGEST_SEED = 0
DIGEST_DECISIONS = 3


class SelfTestFailure(Exception):
    pass


def expect(condition: bool, message: str):
    if not condition:
        raise SelfTestFailure(message)


def check_metric_names():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        wanted = {m["name"]: m["unit"] for m in spec[section]}
        for name in workloads.WORKLOADS:
            command = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "3",
                       "--seconds", "1", "--trace", str(trace), "--tiny"]
            done = subprocess.run(command, capture_output=True, text=True, timeout=170, cwd=ROOT)
            expect(done.returncode == 0, f"{name} trace {trace}: exit {done.returncode}\n{done.stderr}")
            result = json.loads(done.stdout.splitlines()[-1])
            expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{name}: keys {set(result)}")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{name} trace {trace}: {result['failed']} of {result['attempted']} failed")
            got = {key: metric["unit"] for key, metric in result["metrics"].items()}
            expect(got == wanted, f"{name} trace {trace}: metrics {got} != {wanted}")
            if trace == 0:
                expect("error_rate" in done.stdout, f"{name}: error_rate not printed")
            print(f"ok  {name} trace {trace}: {len(got)} metrics with units")


def corrupt_one_bitstring(recording: Path):
    """Flip the first bit of one probe outcome in the recorded counts."""
    doc = json.loads(recording.read_text())
    counts = doc["results"][0]["counts"]
    key = min(counts)
    flipped = ("1" if key[0] == "0" else "0") + key[1:]
    counts[flipped] = counts.get(flipped, 0) + counts.pop(key)
    recording.write_text(json.dumps(doc))


def run_decisions(seed: int, stored: dict | None = None, corrupt: bool = False) -> worker.Loop:
    """Three replay decisions at tiny size, verified as in a real run."""
    runner = workloads.Runner(workloads.workload("replay_workflow", tiny=True), seed, WORKDIR / str(seed))
    if corrupt:
        corrupt_one_bitstring(runner.workflow_path.parent / "recording.json")
    checker = worker.Determinism("replay_workflow", seed, stored)
    loop = worker.Loop()
    for decision in range(3):
        loop.run(runner, checker, decision)
    return loop


def check_failures_are_counted():
    clean = run_decisions(5)
    expect(clean.failed == 0, f"clean recording: {clean.errors}")

    corrupted = run_decisions(6, corrupt=True)
    expect(corrupted.failed == corrupted.attempted, "a corrupted recording passed verification")
    expect(any("differ from the recorded session" in e for e in corrupted.errors), str(corrupted.errors))
    print(f"ok  corrupted bitstring: error_rate {corrupted.failed / corrupted.attempted:.0%} "
          f"({corrupted.errors[0]})")

    drifted = run_decisions(7, stored={"seed": 7, "workloads": {"replay_workflow": ["0" * 16]}})
    expect(drifted.failed == 1 and "digest" in drifted.errors[0], str(drifted.errors))
    print("ok  counts that miss the stored digest count as a failed decision")


def write_digests():
    digests = {}
    for name in workloads.WORKLOADS:
        runner = workloads.Runner(workloads.workload(name), DIGEST_SEED, WORKDIR / name)
        digests[name] = [runner.verify(runner.decide(i)[1]) for i in range(DIGEST_DECISIONS)]
        print(name, digests[name])
    doc = {"seed": DIGEST_SEED, "decisions": DIGEST_DECISIONS, "workloads": digests}
    (HERE / "digests.json").write_text(json.dumps(doc, indent=2) + "\n")


def main(argv: list[str]) -> int:
    try:
        if argv == ["--write-digests"]:
            write_digests()
            return 0
        if argv:
            print(__doc__, file=sys.stderr)
            return 2
        check_failures_are_counted()
        check_metric_names()
    except SelfTestFailure as exc:
        print(f"FAIL {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)
    print("self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
