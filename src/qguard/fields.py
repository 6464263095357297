"""Typed readers for the fields of decoded JSON documents.

Every document parser in the package reads its input through these
helpers.  Each one checks the JSON shape of one value and raises
:class:`DocumentError` naming the value's path (``backend.noise.p1``,
``gates[2].targets[0]``).  A number must also be finite.  Ranges and
invariants are not checked here: the constructors of the objects being
built own them, and :func:`located`
re-raises a constructor's error at the document path it was built from.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from typing import Any, Callable, Iterable, Iterator, Mapping

from .errors import DocumentError, QGuardError


def join(path: str, key: str) -> str:
    """The path of field ``key`` inside the value at ``path``."""
    return f"{path}.{key}" if path else key


def decode(text: str) -> Any:
    """The document a JSON text encodes."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError("", f"invalid JSON: {exc}") from None


def obj(value: Any, path: str) -> Mapping[str, Any]:
    if not isinstance(value, Mapping):
        raise DocumentError(path, f"expected an object, got {type(value).__name__}")
    return value


def required(doc: Any, key: str, path: str, read: Callable[[Any, str], Any] | None = None) -> Any:
    """The required field ``key`` of the object at ``path``, checked by ``read`` if given."""
    if key not in obj(doc, path):
        raise DocumentError(join(path, key), "required field missing")
    return doc[key] if read is None else read(doc[key], join(path, key))


def items(value: Any, path: str) -> list:
    if not isinstance(value, list):
        raise DocumentError(path, f"expected a list, got {type(value).__name__}")
    return value


def number(value: Any, path: str) -> float:
    """A finite number, as a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise DocumentError(path, f"expected a number, got {value!r}")
    try:
        result = float(value)
    except OverflowError:  # an integer too large for a float
        result = math.inf
    # json decodes NaN and Infinity too.
    if not math.isfinite(result):
        raise DocumentError(path, f"expected a finite number, got {value!r}")
    return result


def integer(value: Any, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise DocumentError(path, f"expected an integer, got {value!r}")
    return value


def integers(value: Any, path: str) -> list[int]:
    """A list of integers."""
    return [integer(item, f"{path}[{i}]") for i, item in enumerate(items(value, path))]


def string(value: Any, path: str) -> str:
    if not isinstance(value, str):
        raise DocumentError(path, f"expected a string, got {value!r}")
    return value


def boolean(value: Any, path: str) -> bool:
    if not isinstance(value, bool):
        raise DocumentError(path, f"expected a boolean, got {value!r}")
    return value


def no_unknown(doc: Mapping[str, Any], allowed: Iterable[str], path: str):
    unknown = set(doc) - set(allowed)
    if unknown:
        raise DocumentError(path, f"unknown field(s): {sorted(unknown)}")


@contextmanager
def located(path: str) -> Iterator[None]:
    """Re-raise an error from building the value at ``path`` as a DocumentError there.

    A DocumentError raised inside already names its own path and passes through.
    """
    try:
        yield
    except DocumentError:
        raise
    except (QGuardError, ValueError, OverflowError) as exc:
        raise DocumentError(path, str(exc)) from None
