"""Reading JSON documents that must be objects with known keys.

Every JSON file the package reads (instances, trajectory sidecars, stage-1
results, label files, generator specs, sweep configs) goes through
``read_object``, and every object given inline or nested in one through
``require_keys``, and their fields are converted through ``field``. A
document of the wrong shape, or a field of the wrong type, fails with
``InputError`` naming the file (or the object) and the key, never with a
``KeyError``, ``TypeError`` or ``ValueError`` from deep inside a loader.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import InputError

_REQUIRED = object()


def require_keys(doc, keys, where: str) -> dict:
    """Return ``doc`` if it is a JSON object holding every key in ``keys``."""
    if not isinstance(doc, dict):
        raise InputError(f"{where} must hold a JSON object, not {type(doc).__name__}")
    missing = [k for k in keys if k not in doc]
    if missing:
        raise InputError(f"{where} lacks key(s) {missing}")
    return doc


def read_object(path: str | Path, keys=()) -> dict:
    """Parse the JSON file at ``path``; it must hold an object with every key in ``keys``."""
    try:
        doc = json.loads(Path(path).read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from exc
    return require_keys(doc, keys, str(path))


def field(doc: dict, key: str, convert, where: str, default=_REQUIRED):
    """``convert(doc[key])``; ``default``, unconverted, when a default is given
    and the key is absent or null. A value that ``convert`` rejects with a
    ``TypeError``, ``ValueError`` or ``OverflowError`` raises ``InputError``
    naming both."""
    if default is not _REQUIRED and doc.get(key) is None:
        return default
    if key not in doc:
        raise InputError(f"{where} lacks key(s) {[key]}")
    try:
        return convert(doc[key])
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"{where}: field {key!r} has the wrong type ({exc})") from exc


def integer(value) -> int:
    """A JSON integer (a numpy integer, or a float with no fraction such as
    200.0) as an int; a bool, a string or a fraction is rejected, not truncated."""
    if isinstance(value, float) and value.is_integer() or \
            isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    raise TypeError(f"expected an integer, not {value!r}")


def boolean(value) -> bool:
    """A JSON ``true`` or ``false``; no other value is read as a flag."""
    if isinstance(value, bool):
        return value
    raise TypeError(f"expected true or false, not {value!r}")


def int_vector(value) -> np.ndarray:
    """A JSON list of integers as a 1-D int64 array."""
    return np.array(int_list(value), dtype=np.int64)


def number(value) -> float:
    """A JSON number (an integer or a float, or a numpy scalar of either) as a
    float; a bool, a string or null is rejected, not parsed."""
    if isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool):
        return float(value)
    raise TypeError(f"expected a number, not {value!r}")


def float_array(value) -> np.ndarray:
    """A JSON number or (nested) list of numbers as a float64 array."""
    return np.asarray(_numbers(value), dtype=np.float64)


def _numbers(value):
    """``value`` with every leaf read by ``number``."""
    return [_numbers(x) for x in value] if isinstance(value, (list, tuple)) else number(value)


def _sequence(value, kind) -> list:
    if not isinstance(value, (list, tuple)):
        raise TypeError(f"expected a list, not {type(value).__name__}")
    return [kind(x) for x in value]


def int_list(value) -> list[int]:
    return _sequence(value, integer)


def float_list(value) -> list[float]:
    return _sequence(value, number)
