"""Typed readers for the fields of decoded JSON documents.

Every document parser in the package reads its input through these
helpers.  A reader ``read(value, path)`` checks the JSON shape of one value
and returns it, or raises :class:`DocumentError` naming the value's path
(``backend.noise.p1``, ``gates[2].targets[0]``); a number must also be
finite.  :func:`record` reads an object through one ``key -> reader``
table, which is both the object's allowed keys and the reads of their
values; :func:`each` reads a list item by item; :func:`choice` reads a
string naming one of a fixed set of options.  Ranges and invariants are not
checked here: the constructors of the objects being built own them, and
:func:`located` re-raises a constructor's error at the document path it was
built from.
"""

from __future__ import annotations

import json
import math
from collections.abc import Callable, Collection, Iterator, Mapping
from contextlib import contextmanager
from typing import Any

from .errors import DocumentError, QGuardError, as_float, is_real

Reader = Callable[[Any, str], Any]


def join(path: str, key: str) -> str:
    """The path of field ``key`` inside the value at ``path``."""
    return f"{path}.{key}" if path else key


def decode(text: str) -> Any:
    """The document a JSON text encodes; anything but a string is not text."""
    if not isinstance(text, str):
        raise DocumentError("", f"expected JSON text, got {type(text).__name__}")
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError("", f"invalid JSON: {exc}") from None


def unreadable(exc: OSError | UnicodeDecodeError) -> str:
    """Why a file could not be read, without the path an OSError's ``str`` repeats."""
    return (exc.strerror or str(exc)) if isinstance(exc, OSError) else str(exc)


def obj(value: Any, path: str) -> Mapping[str, Any]:
    if not isinstance(value, Mapping):
        raise DocumentError(path, f"expected an object, got {type(value).__name__}")
    return value


def required(doc: Any, key: str, path: str, read: Reader) -> Any:
    """The required field ``key`` of the object at ``path``, read by ``read``."""
    if key not in obj(doc, path):
        raise DocumentError(join(path, key), "required field missing")
    return read(doc[key], join(path, key))


def record(
    doc: Any, path: str, readers: Mapping[str, Reader], optional: Collection[str] = ()
) -> dict[str, Any]:
    """The fields of the object at ``path``, each read by its entry in ``readers``.

    A key outside ``readers`` is an error, and so is a missing key unless it
    is in ``optional``; a missing optional key is absent from the result.
    """
    no_unknown(obj(doc, path), readers, path)
    fields = {}
    for key, read in readers.items():
        if key in doc:
            fields[key] = read(doc[key], join(path, key))
        elif key not in optional:
            raise DocumentError(join(path, key), "required field missing")
    return fields


def items(value: Any, path: str) -> list:
    if not isinstance(value, list):
        raise DocumentError(path, f"expected a list, got {type(value).__name__}")
    return value


def each(read: Reader) -> Reader:
    """A reader of a list whose every item is read by ``read``."""
    return lambda value, path: [read(v, f"{path}[{i}]") for i, v in enumerate(items(value, path))]


def choice(options: Mapping[str, Any]) -> Reader:
    """A reader of a string naming one of ``options``; it returns the option named."""

    def read(value: Any, path: str) -> Any:
        # The type is checked first: a list or object is not hashable.
        if not isinstance(value, str) or value not in options:
            raise DocumentError(path, f"expected one of {list(options)}, got {value!r}")
        return options[value]

    return read


def number(value: Any, path: str) -> float:
    """A finite number, as a float."""
    # json decodes NaN and Infinity too.
    if not is_real(value) or not math.isfinite(result := as_float(value)):
        raise DocumentError(path, f"expected a finite number, got {value!r}")
    return result


def integer(value: Any, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise DocumentError(path, f"expected an integer, got {value!r}")
    return value


integers = each(integer)


def string(value: Any, path: str) -> str:
    if not isinstance(value, str):
        raise DocumentError(path, f"expected a string, got {value!r}")
    return value


def no_unknown(doc: Mapping[str, Any], allowed: Mapping[str, Any], path: str):
    if not doc.keys() <= allowed.keys():
        raise DocumentError(path, f"unknown field(s): {sorted(doc.keys() - allowed.keys())}")


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
