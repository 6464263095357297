"""UTC timestamp helpers shared by calibration data, adapters, and reports.

All timestamps in this package are timezone-aware UTC datetimes; the wire
form is RFC3339 with a trailing "Z".
"""

from __future__ import annotations

from datetime import datetime, timezone

from .errors import DocumentError
from .fields import string


def utc_now() -> datetime:
    return datetime.now(timezone.utc)


def parse_timestamp(value: object, path: str) -> datetime:
    """Parse an RFC3339 string into an aware UTC datetime.

    Accepts a "Z" suffix as well as explicit offsets; naive timestamps are
    rejected because the freshness logic compares across sources.
    """
    text = string(value, path)
    try:
        parsed = datetime.fromisoformat(text.replace("Z", "+00:00"))
    except ValueError:
        raise DocumentError(path, f"not an RFC3339 timestamp: {value!r}") from None
    if parsed.tzinfo is None:
        raise DocumentError(path, f"timestamp lacks a UTC offset: {value!r}")
    try:
        return parsed.astimezone(timezone.utc)
    except OverflowError:
        raise DocumentError(path, f"timestamp outside years 1..9999 in UTC: {value!r}") from None


def format_timestamp(moment: datetime) -> str:
    """Render an aware datetime as RFC3339 UTC with a "Z" suffix."""
    if moment.tzinfo is None:
        raise ValueError("naive datetime cannot be formatted as a UTC timestamp")
    return moment.astimezone(timezone.utc).isoformat().replace("+00:00", "Z")
