"""Exception types shared across the package, and the argument checks every
constructor and entry point validates with.

Each ``check_*`` returns the value it was given (a tuple or an int where
it says so) or raises the caller's error type with a message that names the
argument and shows the value: ``"ttl must be a timedelta, got 5"``.
"""

from __future__ import annotations

import math
import numbers
from datetime import datetime
from typing import Any


class QGuardError(Exception):
    """Base class for every error raised by this package."""


class CircuitError(QGuardError, ValueError):
    """A gate or circuit violates a structural invariant, or a circuit is run
    with a shot count that is not a positive integer."""


class DocumentError(QGuardError, ValueError):
    """A serialized document is malformed; ``path`` locates the offending field."""

    def __init__(self, path: str, message: str):
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}" if path else message)


class NoiseModelError(QGuardError, ValueError):
    """Noise-model parameters are out of range or of the wrong type.

    ``problems`` maps each offending field (``p1``, ``p2``, ``readout_flip``,
    ``seed``) to what is wrong with it, or ``noise`` to why a value given as
    a noise model is not a ``NoiseModel``.
    """

    def __init__(self, problems: dict[str, str]):
        self.problems = problems
        super().__init__("; ".join(f"{name}: {problem}" for name, problem in problems.items()))


class ConstraintError(QGuardError, ValueError):
    """A constraint was built with missing or ill-typed parameters, or was
    evaluated against a non-adapter or a shot count that is not a positive
    integer."""


class ScoreError(QGuardError, ValueError):
    """Correlator or score arithmetic got an input outside its domain: a pair
    index, counts that total zero, a correlator outside [-1, 1], or a shot
    count that is not a positive integer."""


class NormConservationError(QGuardError):
    """A statevector lost unit norm beyond tolerance; indicates a simulator bug."""


class CalibrationError(QGuardError, ValueError):
    """Calibration data violates a range or physical bound."""


class BackendError(QGuardError):
    """A backend adapter could not produce a result."""


class RecordingExhausted(BackendError):
    """A replay adapter ran out of recorded results."""


class OracleLimitError(QGuardError, ValueError):
    """The density-matrix oracle was asked for more qubits than it supports."""


class IntrospectionError(QGuardError):
    """Constraint evaluation failed; no callback was invoked.

    Carries the partial execution record (timestamps and constraint name);
    the underlying failure is chained as ``__cause__``.
    """

    def __init__(self, message: str, *, constraint_name: str, started_at, failed_at):
        super().__init__(message)
        self.constraint_name = constraint_name
        self.started_at = started_at
        self.failed_at = failed_at


class CallbackError(QGuardError):
    """A pass/fail callback raised after the branch decision was made.

    ``branch`` and ``introspection`` record the decision that was reached;
    the underlying failure is chained as ``__cause__``.
    """

    def __init__(self, message: str, *, branch, introspection, started_at, failed_at):
        super().__init__(message)
        self.branch = branch
        self.introspection = introspection
        self.started_at = started_at
        self.failed_at = failed_at


def is_real(value: Any) -> bool:
    """A real number and not a bool; plain floats take the first test."""
    return type(value) is float or (not isinstance(value, bool) and isinstance(value, numbers.Real))


def as_float(value: Any) -> float:
    """The real ``value`` as a float; an integer too large for one becomes ±inf."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def is_index(value: Any) -> bool:
    """An integer and not a bool; plain ints take the first test."""
    return type(value) is int or (not isinstance(value, bool) and isinstance(value, numbers.Integral))


def check_shots(shots: Any, error: type[QGuardError]) -> int:
    """``shots`` as an int; raises ``error`` unless it is a positive integer
    (a bool is not one, a numpy integer is)."""
    if not is_index(shots) or shots < 1:
        raise error(f"shots must be a positive integer, got {shots!r}")
    return int(shots)


def _named(kind: type | tuple[type, ...]) -> str:
    """``kind``'s name with its article, or its names joined by "or"."""
    names = [k.__name__ for k in (kind if isinstance(kind, tuple) else (kind,))]
    return " or ".join(("an " if name[0] in "AEIOU" else "a ") + name for name in names)


def check_type(value: Any, kind: type | tuple[type, ...], what: str, error: type[QGuardError]) -> Any:
    """``value``; raises ``error`` unless it is an instance of ``kind``."""
    if not isinstance(value, kind):
        raise error(f"{what} must be {_named(kind)}, got {value!r}")
    return value


def check_real(value: Any, what: str, error: type[QGuardError], finite: bool = False) -> Any:
    """``value``; raises ``error`` unless it is a real number, and a finite
    one if ``finite``."""
    if not is_real(value) or (finite and not math.isfinite(as_float(value))):
        raise error(f"{what} must be a {'finite ' if finite else ''}number, got {value!r}")
    return value


def check_integer(value: Any, what: str, error: type[QGuardError]) -> int:
    """``value`` as an int; raises ``error`` unless it is an integer."""
    if not is_index(value):
        raise error(f"{what} must be an integer, got {value!r}")
    return int(value)


def check_tuple(value: Any, what: str, error: type[QGuardError], kind: type | None = None) -> tuple:
    """``value`` as a tuple; raises ``error`` unless it is an iterable, and,
    if ``kind`` is given, unless each of its items is a ``kind`` instance."""
    try:
        items = tuple(value)
    except TypeError:
        raise error(f"{what} must be an iterable, got {value!r}") from None
    if kind is not None:
        for i, item in enumerate(items):
            if not isinstance(item, kind):
                raise error(f"{what}[{i}] must be {_named(kind)}, got {item!r}")
    return items


def check_aware(moment: Any, what: str, error: type[QGuardError]) -> datetime:
    """``moment``; raises ``error`` unless it is a timezone-aware datetime."""
    if not isinstance(moment, datetime) or moment.tzinfo is None:
        raise error(f"{what} must be a timezone-aware datetime, got {moment!r}")
    return moment
