"""Correlator and score arithmetic for the packed Bell-inequality probe.

Pair ``i`` of the packed circuit occupies bitstring positions (2i, 2i+1).
Its correlator is estimated as (same-parity counts - different-parity
counts) / total, an exact rational that always lands in [-1, 1].
"""

from __future__ import annotations

import functools
import math
from collections.abc import Mapping
from itertools import product, repeat

from .circuits import BitstringCounts
from .errors import (
    CircuitError, ScoreError, as_float, check_real, check_shots, check_tuple, is_index,
)

PACKED_BITS = 8


def compute_pair_correlator(counts: Mapping[str, int], pair_index: int) -> float:
    """Parity correlator of bits (2i, 2i+1) over an 8-bit counts map.

    A plain mapping is checked by building :class:`BitstringCounts` from it."""
    if not is_index(pair_index) or not 0 <= pair_index <= 3:
        raise ScoreError(f"pair_index must be an integer in 0..3, got {pair_index!r}")
    if not isinstance(counts, BitstringCounts):
        counts = BitstringCounts(counts)
    if counts.num_bits != PACKED_BITS:
        raise CircuitError(f"expected {PACKED_BITS}-bit strings, got {next(iter(counts))!r}")
    total = counts.total
    # The counts' own dict, read in one C-level pass over the pair's 128 keys.
    same = sum(map(counts._counts.get, _agreeing_keys(pair_index), repeat(0)))
    if total == 0:
        raise ScoreError("counts total is zero")
    return (2 * same - total) / total


@functools.cache
def _agreeing_keys(pair_index: int) -> tuple[str, ...]:
    """The 8-bit strings whose bits (2i, 2i+1) agree."""
    left = 2 * pair_index
    return tuple(
        "".join(bits) for bits in product("01", repeat=PACKED_BITS) if bits[left] == bits[left + 1]
    )


def _correlator(value: float, name: str) -> float:
    """``value`` as a float; raises ScoreError unless it is a real number in [-1, 1]."""
    correlator = as_float(check_real(value, name, ScoreError))
    if not -1.0 <= correlator <= 1.0:
        raise ScoreError(f"{name} out of range [-1, 1]: {value}")
    return correlator


def chsh_score(e00: float, e01: float, e10: float, e11: float) -> float:
    """S = E00 + E01 + E10 - E11.  Each correlator must lie in [-1, 1]."""
    for name, value in (("E00", e00), ("E01", e01), ("E10", e10), ("E11", e11)):
        _correlator(value, name)
    return e00 + e01 + e10 - e11


def correlator_standard_error(correlator: float, shots: int) -> float:
    """Standard error of a single correlator in [-1, 1] estimated from ``shots`` samples."""
    shots = check_shots(shots, ScoreError)
    correlator = _correlator(correlator, "correlator")
    return math.sqrt((1.0 - correlator * correlator) / shots)


def score_standard_error(correlators: tuple[float, float, float, float], shots: int) -> float:
    """Standard error of S; the four correlators, each in [-1, 1], come from
    independent pairs."""
    shots = check_shots(shots, ScoreError)
    correlators = check_tuple(correlators, "correlators", ScoreError)
    if len(correlators) != 4:
        raise ScoreError(f"expected 4 correlators, got {len(correlators)}")
    values = [_correlator(e, f"correlators[{i}]") for i, e in enumerate(correlators)]
    return math.sqrt(sum(1.0 - e * e for e in values) / shots)
