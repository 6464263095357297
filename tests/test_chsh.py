import math

import pytest
from hypothesis import given, strategies as st

from qguard import (
    BitstringCounts,
    CircuitError,
    QGuardError,
    ScoreError,
    chsh_score,
    compute_pair_correlator,
    correlator_standard_error,
    score_standard_error,
)


def test_all_equal_bits_give_plus_one():
    counts = {"00000000": 500, "11000000": 500}
    assert compute_pair_correlator(counts, 0) == 1.0


def test_all_unequal_bits_give_minus_one():
    counts = {"01000000": 500, "10000000": 500}
    assert compute_pair_correlator(counts, 0) == -1.0


def test_uniform_pair_bits_give_zero():
    counts = {"00000000": 250, "01000000": 250, "10000000": 250, "11000000": 250}
    assert compute_pair_correlator(counts, 0) == 0.0


def test_pair_index_selects_bit_positions():
    counts = {"00110000": 100}
    assert compute_pair_correlator(counts, 0) == 1.0
    assert compute_pair_correlator(counts, 1) == 1.0
    assert compute_pair_correlator(counts, 2) == 1.0
    counts = {"00010000": 100}
    assert compute_pair_correlator(counts, 1) == -1.0


def test_rejects_wrong_length():
    with pytest.raises(CircuitError, match="8-bit"):
        compute_pair_correlator({"00": 5}, 0)


@pytest.mark.parametrize(
    "counts",
    [{"00000000": "5"}, {0: 3}, {"00000000": 1.5, "01000000": 1}, {"00000000": True}],
    ids=["string_count", "integer_key", "float_count", "bool_count"],
)
def test_rejects_counts_that_are_not_a_histogram(counts):
    # These used to raise a bare TypeError or give a correlator of 0.2 or 1.0.
    with pytest.raises(CircuitError):
        compute_pair_correlator(counts, 0)


def test_rejects_zero_total():
    with pytest.raises(ValueError, match="zero"):
        compute_pair_correlator({"00000000": 0}, 0)


def test_rejects_bad_pair_index():
    with pytest.raises(ValueError):
        compute_pair_correlator({"00000000": 1}, 4)
    with pytest.raises(ValueError):
        compute_pair_correlator({"00000000": 1}, -1)


@pytest.mark.parametrize("pair_index", ["1", 1.5, True, None], ids=["string", "float", "bool", "none"])
def test_rejects_a_pair_index_that_is_not_an_integer(pair_index):
    # "1" and 1.5 used to raise a bare TypeError, and True was read as pair 1.
    with pytest.raises(ScoreError, match="pair_index"):
        compute_pair_correlator({"00000000": 1}, pair_index)


def test_score_algebraic_extremes():
    assert chsh_score(1, 1, 1, -1) == 4.0
    assert chsh_score(0, 0, 0, 0) == 0.0
    assert chsh_score(-1, -1, -1, 1) == -4.0


def test_score_at_canonical_correlators():
    h = math.sqrt(2) / 2
    assert chsh_score(h, h, h, -h) == pytest.approx(2 * math.sqrt(2), abs=1e-12)


def test_score_rejects_out_of_range():
    with pytest.raises(ValueError, match="E01"):
        chsh_score(0.5, 1.2, 0.0, 0.0)


_counts_maps = st.dictionaries(
    keys=st.text(alphabet="01", min_size=8, max_size=8),
    values=st.integers(min_value=0, max_value=10_000),
    min_size=1,
).filter(lambda m: sum(m.values()) > 0)


@given(_counts_maps, st.integers(0, 3))
def test_correlator_bounded(counts, pair):
    e = compute_pair_correlator(counts, pair)
    assert -1.0 <= e <= 1.0


@given(_counts_maps, st.integers(0, 3))
def test_correlator_matches_per_shot_enumeration(counts, pair):
    # expand the histogram into individual shots and average the parities
    parities = []
    for bits, count in counts.items():
        parity = 1 if bits[2 * pair] == bits[2 * pair + 1] else -1
        parities.extend([parity] * count)
    expected = sum(parities) / len(parities)
    assert compute_pair_correlator(counts, pair) == expected


@given(
    st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1)
)
def test_score_bounded_by_four(e00, e01, e10, e11):
    assert abs(chsh_score(e00, e01, e10, e11)) <= 4.0


def test_standard_errors():
    assert correlator_standard_error(0.0, 100) == pytest.approx(0.1)
    assert correlator_standard_error(1.0, 100) == 0.0
    assert score_standard_error((0.0, 0.0, 0.0, 0.0), 100) == pytest.approx(0.2)
    # the canonical zero-noise magnitude at 1e4 shots
    h = math.sqrt(2) / 2
    assert score_standard_error((h, h, h, -h), 10_000) == pytest.approx(
        math.sqrt(2.0) / 100.0
    )


def test_standard_errors_reject_bad_shots():
    with pytest.raises(ValueError):
        correlator_standard_error(0.0, 0)
    with pytest.raises(ValueError):
        score_standard_error((0, 0, 0, 0), 0)


# Each used to raise a bare ValueError; ScoreError is still a ValueError.
@pytest.mark.parametrize(
    "call",
    [
        lambda: compute_pair_correlator({"00000000": 1}, 4),
        lambda: compute_pair_correlator({"00000000": 0}, 0),
        lambda: chsh_score(0.5, 1.2, 0.0, 0.0),
        lambda: chsh_score(float("nan"), 0.0, 0.0, 0.0),
        lambda: correlator_standard_error(0.0, 0),
        lambda: score_standard_error((0, 0, 0, 0), 0),
    ],
    ids=["pair_index", "zero_total", "range", "nan", "correlator_shots", "score_shots"],
)
def test_score_errors_are_typed(call):
    with pytest.raises(ScoreError) as excinfo:
        call()
    assert isinstance(excinfo.value, QGuardError)
    assert isinstance(excinfo.value, ValueError)


@pytest.mark.parametrize("shots", ["10", 2.5, True, -1])
def test_standard_errors_reject_a_shot_count_that_is_not_a_positive_integer(shots):
    # "10" used to escape as a bare TypeError, and 2.5 and True were taken.
    with pytest.raises(ScoreError, match="positive integer"):
        correlator_standard_error(0.0, shots)
    with pytest.raises(ScoreError, match="positive integer"):
        score_standard_error((0, 0, 0, 0), shots)


def test_standard_errors_take_a_numpy_integer_shot_count():
    import numpy as np

    assert score_standard_error((0, 0, 0, 0), np.int64(100)) == pytest.approx(0.2)


@pytest.mark.parametrize("value", ["a", None, [0.5]], ids=["string", "none", "list"])
def test_score_rejects_a_correlator_that_is_not_a_number(value):
    # "a" used to escape as a bare TypeError from -1.0 <= "a".
    with pytest.raises(ScoreError, match="E00"):
        chsh_score(value, 0, 0, 0)


def per_key_correlator(counts, pair_index):
    """The rule the correlator is defined by, one key at a time."""
    left = 2 * pair_index
    total = sum(counts.values())
    same = sum(count for bits, count in counts.items() if bits[left] == bits[left + 1])
    return (2 * same - total) / total


@given(
    st.dictionaries(
        st.integers(0, 255).map(lambda value: format(value, "08b")),
        st.integers(0, 2**70),
        min_size=1,
        max_size=256,
    ).filter(lambda counts: any(counts.values()))
)
def test_correlator_equals_the_per_key_rule_bit_for_bit(counts):
    for pair in range(4):
        expected = per_key_correlator(counts, pair)
        assert compute_pair_correlator(counts, pair) == expected
        assert compute_pair_correlator(BitstringCounts(counts), pair) == expected
