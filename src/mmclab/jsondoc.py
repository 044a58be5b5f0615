"""Reading JSON documents that must be objects with known keys.

Every JSON file the package reads (instances, trajectory sidecars, stage-1
results, label files, generator specs, sweep configs) goes through
``read_object``, and every object given inline or nested in one through
``require_keys``. A document of the wrong shape fails with ``InvalidSpec``
naming the file (or the object) and the missing key, never with a
``KeyError`` or ``TypeError`` from deep inside a loader.
"""

from __future__ import annotations

import json
from pathlib import Path

from .errors import InvalidSpec


def require_keys(doc, keys, where: str) -> dict:
    """Return ``doc`` if it is a JSON object holding every key in ``keys``."""
    if not isinstance(doc, dict):
        raise InvalidSpec(f"{where} must hold a JSON object, not {type(doc).__name__}")
    missing = [k for k in keys if k not in doc]
    if missing:
        raise InvalidSpec(f"{where} lacks key(s) {missing}")
    return doc


def read_object(path: str | Path, keys=()) -> dict:
    """Parse the JSON file at ``path``; it must hold an object with every key in ``keys``."""
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise InvalidSpec(f"{path} is not valid JSON: {exc}") from exc
    return require_keys(doc, keys, str(path))
