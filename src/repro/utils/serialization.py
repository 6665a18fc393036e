"""JSON serialization for experiment configurations and results.

Experiment artifacts are persisted as JSON so EXPERIMENTS.md entries can
be regenerated and diffed.  Numpy scalars/arrays, dataclasses and named
tuples are converted to plain Python containers transparently.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Any, Union

import numpy as np

__all__ = ["to_jsonable", "dump_json", "load_json"]


def to_jsonable(value: Any) -> Any:
    """Recursively convert *value* into JSON-serializable containers."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, np.ndarray):
        return [to_jsonable(item) for item in value.tolist()]
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            field.name: to_jsonable(getattr(value, field.name))
            for field in dataclasses.fields(value)
        }
    if isinstance(value, tuple) and hasattr(value, "_asdict"):  # NamedTuple
        value = value._asdict()
    if isinstance(value, dict):
        return {str(key): to_jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [to_jsonable(item) for item in value]
    if isinstance(value, Path):
        return str(value)
    raise TypeError(f"cannot serialize value of type {type(value).__name__}")


def dump_json(value: Any, path: Union[str, Path], *, indent: int = 2) -> Path:
    """Serialize *value* to *path* as pretty-printed JSON; return the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(to_jsonable(value), indent=indent) + "\n")
    return path


def load_json(path: Union[str, Path]) -> Any:
    """Load a JSON document written by :func:`dump_json`."""
    return json.loads(Path(path).read_text())
