"""qguard decision benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see workloads.py and README.md) as a closed loop: one
client issues one decision and the next only after it returns.  The
workload runs in its own worker process, so its peak memory is its own.

``--trace 0`` prints the end-to-end metrics, taken with tracing off and
reported at a nominal host speed (see hostspeed.py): set-up is repeated in
SETUP_RUNS fresh processes and ``setup_s`` is their median.  ``--trace 1``
runs every decision twice, untraced then traced, writes the spans to
``.perfbench_out/spans/`` and prints the per-layer metrics.
The last line of standard output is one JSON object with the result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

WORKLOADS = ("readme_typical", "werner_heavy", "bulk_shots", "replay_workflow")
SETUP_RUNS = 5
# Every run, its set-ups included, ends within this many seconds.
TIME_LIMIT_S = 170

# The metrics the JSON line carries.  error_rate is printed but not
# carried: see README.md.
END_TO_END_UNITS = {
    "decision_p50_ms": "ms",
    "decision_tail_ms": "ms",
    "decisions_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


class BenchError(Exception):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    threads = str(len(os.sched_getaffinity(0)))
    for var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
    ):
        env[var] = threads
    return env


def spawn(args, mode: str, deadline: float) -> dict:
    """Run one worker process to completion; returns its JSON lines merged."""
    command = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--mode", mode,
        "--out", str(OUT),
    ]
    if args.tiny:
        command.append("--tiny")
    spawned_at = time.monotonic()
    command += ["--spawned-at", repr(spawned_at)]
    with subprocess.Popen(command, stdout=subprocess.PIPE, text=True, env=worker_env(), cwd=ROOT) as proc:
        try:
            stdout, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise BenchError(f"{mode} worker did not finish in time") from None
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker exited with status {proc.returncode}")
    merged = {}
    for line in stdout.splitlines():
        merged.update(json.loads(line))
    return merged


def spawn_setup(args, mode: str, deadline: float) -> tuple[dict, float, float]:
    """One worker, with the host's speed measured right before its set-up and
    right after; returns its output, its set-up time and that time at the
    nominal host speed."""
    before = hostspeed.measure(hostspeed.SETUP_SECONDS)
    out = spawn(args, mode, deadline)
    raw = out["ready"]["setup_s"]
    reference = statistics.mean([before, out["setup_reference_s"]])
    return out, raw, raw * hostspeed.scale(reference)


def run_untraced(args, deadline: float) -> tuple[dict, dict]:
    setups = [spawn_setup(args, "setup", deadline)[1:] for _ in range(SETUP_RUNS - 1)]
    timed, *setup = spawn_setup(args, "timed", deadline)
    setups.append(setup)
    result = {
        **timed["result"],
        "setup_s": statistics.median(norm for _, norm in setups),
        "raw_setup_s": statistics.median(raw for raw, _ in setups),
    }

    print(f"workload {args.workload}  seed {args.seed}  closed loop, 1 client, "
          f"{args.seconds:g} s, untraced")
    print(f"  times at the nominal host speed (reference task {hostspeed.REFERENCE_MS} ms); "
          f"as measured in brackets")
    print(f"  decision_p50_ms   {result['decision_p50_ms']:12.3f} ms   "
          f"({result['raw_decision_p50_ms']:.3f})")
    print(f"  decision_tail_ms  {result['decision_tail_ms']:12.3f} ms   "
          f"({result['raw_decision_tail_ms']:.3f}; p{result['tail_percentile']:.1f}, "
          f"{result['tail_beyond']} of {result['decisions']} decisions beyond it)")
    print(f"  decisions_per_s   {result['decisions_per_s']:12.3f} 1/s  "
          f"({result['raw_decisions_per_s']:.3f})")
    print(f"  peak_rss_mb       {result['peak_rss_mb']:12.1f} MB")
    print(f"  error_rate        {result['failed'] / result['attempted']:12.4f} frac "
          f"({result['failed']} failed of {result['attempted']} attempted)")
    print(f"  setup_s           {result['setup_s']:12.3f} s    "
          f"({result['raw_setup_s']:.3f}; median of {len(setups)} set-ups)")
    print(f"  reference task    {result['reference_ms']:12.4f} ms   (median over the run)")
    return result, {name: {"value": result[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}


def run_traced(args, deadline: float) -> tuple[dict, dict]:
    result = spawn(args, "traced", deadline)["result"]
    layers = result["layers"]
    print(f"workload {args.workload}  seed {args.seed}  closed loop, 1 client, "
          f"{args.seconds:g} s, each decision untraced then traced")
    print(f"  spans written to {result['span_file']}")
    for name, metric in layers.items():
        print(f"  {name:32} {metric['value']:14.4f} {metric['unit']}")
    decision_ms = result["traced_decision_ms"]
    share = layers["simulator.run_shots_ms"]["value"] / decision_ms
    print(f"  (traced decision median {decision_ms:.3f} ms; simulator.run_shots is {share:.1%} of it)")
    return result, layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true", help="self-test sizes, not for measurement")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "qguard" / "__init__.py").is_file():
        print(f"error: no qguard source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    try:
        result, metrics = (run_traced if args.trace else run_untraced)(args, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for error in result["errors"]:
        print(f"failed: {error}", file=sys.stderr)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
