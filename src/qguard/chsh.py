"""Correlator and score arithmetic for the packed Bell-inequality probe.

Pair ``i`` of the packed circuit occupies bitstring positions (2i, 2i+1).
Its correlator is estimated as (same-parity counts - different-parity
counts) / total, an exact rational that always lands in [-1, 1].
"""

from __future__ import annotations

import math
from typing import Mapping

from .circuits import BitstringCounts
from .errors import CircuitError, ScoreError, as_float, check_real, check_shots, is_index

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
    left = 2 * pair_index
    total = counts.total
    same = sum(count for bits, count in counts.items() if bits[left] == bits[left + 1])
    if total == 0:
        raise ScoreError("counts total is zero")
    return (2 * same - total) / total


def chsh_score(e00: float, e01: float, e10: float, e11: float) -> float:
    """S = E00 + E01 + E10 - E11.  Each correlator must lie in [-1, 1]."""
    for name, value in (("E00", e00), ("E01", e01), ("E10", e10), ("E11", e11)):
        if not -1.0 <= as_float(check_real(value, name, ScoreError)) <= 1.0:
            raise ScoreError(f"{name} out of range [-1, 1]: {value}")
    return e00 + e01 + e10 - e11


def correlator_standard_error(correlator: float, shots: int) -> float:
    """Standard error of a single correlator estimated from ``shots`` samples."""
    shots = check_shots(shots, ScoreError)
    variance = max(0.0, 1.0 - correlator * correlator)
    return math.sqrt(variance / shots)


def score_standard_error(correlators: tuple[float, float, float, float], shots: int) -> float:
    """Standard error of S; the four correlators come from independent pairs."""
    shots = check_shots(shots, ScoreError)
    variance = sum(max(0.0, 1.0 - e * e) for e in correlators)
    return math.sqrt(variance / shots)
