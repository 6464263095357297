"""The host's current speed, measured with a fixed reference task.

The benchmark runs on a shared host whose speed swings by up to 1.8x for
seconds at a time: a 3-ms decision runs at about 2.5 ms in the host's fast
periods and about 4.4 ms in its slow ones.  Raw wall times of one run then
depend on the mix of periods the run happened to fall in more than on the
program.  The reference task below is fixed code that does not touch qguard.
Timed between decisions, it slows down with the host, so a decision's
wall time divided by the reference task's time is steady while the program
stays the same.  The timed end-to-end metrics are reported at a fixed
nominal host speed: wall time x REFERENCE_MS / reference time.  A change to
qguard moves them as it moves wall time; a change of host speed does not.

The task mixes the kinds of work a decision does: a pure-Python loop, a JSON
round trip, ``np.unique`` on a small array, array arithmetic over a few
hundred kilobytes and page faults on 1 MB of fresh memory.  It holds under
2 MB at a time, so it leaves peak RSS alone.
"""

from __future__ import annotations

import json
import mmap
import statistics
from time import perf_counter

import numpy as np

# About the reference task's time, in milliseconds, on the 2-CPU Xeon host
# named in README.md.  It only fixes the scale of the reported times; any
# constant would do, as long as it never changes.
REFERENCE_MS = 2.0
# Reference time spent between decisions, as a share of the decisions' time.
SHARE = 0.25
# The reference task runs once at least this much decision time has passed
# since it last ran, and at least MIN_REPS times, so that a median of its
# repetitions leaves out the first one, run with caches the decision left cold.
BLOCK_S = 0.04
MIN_REPS = 3
# Reference time measured right before and right after each set-up.
SETUP_SECONDS = 0.05

_DOC = {f"k{i}": [i, str(i) * 3, {"x": i * 0.5}] for i in range(100)}
_SMALL = np.random.default_rng(1).integers(0, 16, size=4000)
_PAGES = 256


def reference_task():
    acc = 0
    for i in range(1000):
        acc += i * i % 7
    json.loads(json.dumps(_DOC, sort_keys=True))
    np.unique(_SMALL, return_counts=True)
    draws = np.random.default_rng(5).random((12_500, 4))
    (draws < 0.3).sum(axis=1)
    # Fault in fresh pages, as a decision that allocates large arrays does.
    with mmap.mmap(-1, _PAGES * mmap.PAGESIZE) as pages:
        view = np.frombuffer(pages, dtype=np.uint8)
        view[:: mmap.PAGESIZE] = 1
        del view
    return acc


def measure(seconds: float) -> float:
    """Median seconds of one reference task, over at least ``seconds`` of
    repetitions and at least MIN_REPS of them."""
    times = []
    spent = 0.0
    while len(times) < MIN_REPS or spent < seconds:
        start = perf_counter()
        reference_task()
        times.append(perf_counter() - start)
        spent += times[-1]
    return statistics.median(times)


def scale(reference_s: float) -> float:
    """Factor that takes a wall time measured while one reference task took
    ``reference_s`` to the nominal host speed."""
    return REFERENCE_MS / 1e3 / reference_s
