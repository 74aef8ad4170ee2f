"""The unified result protocol: every experiment/scenario report is one
:class:`Report` — an object with ``to_dict()`` returning plain JSON-able
data (str/int/float/bool/None, lists, string-keyed dicts).

Result dataclasses get the behaviour for free by inheriting
:class:`ReportBase`; anything reachable from their fields (nested
dataclasses, enums, numpy scalars/arrays, tuples) is converted by
:func:`to_jsonable`. The CLI's ``--json`` flag and the benchmark harness
consume this instead of scraping printed tables.
"""

from __future__ import annotations

import dataclasses
import json
from enum import Enum
from typing import Any, Protocol, runtime_checkable

import numpy as np

__all__ = ["Report", "ReportBase", "to_jsonable", "dumps_canonical"]


#: exact scalar types the fast path of :func:`to_jsonable` passes through;
#: their subclasses (``np.float64``, ``IntEnum``) take the ``isinstance`` chain
_PLAIN = frozenset({str, int, float, bool, type(None)})


def to_jsonable(obj: Any) -> Any:
    """Recursively convert ``obj`` to plain JSON-able Python data.

    Exact plain scalars, lists, tuples and dicts take a fast path: a
    container is rebuilt in one comprehension that keeps its plain items
    inline and recurses only into the rest, so a metrics series of N
    floats costs one call, not N + 1. Every other object (subclasses
    included) goes through the ``isinstance`` chain below; both paths give
    the same data."""
    kind = type(obj)
    if kind in _PLAIN:
        return obj
    if kind is list or kind is tuple:
        return [
            item if type(item) in _PLAIN else to_jsonable(item) for item in obj
        ]
    if kind is dict:
        return {
            key if type(key) is str else str(key):
            value if type(value) in _PLAIN else to_jsonable(value)
            for key, value in obj.items()
        }
    if isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, Enum):
        return obj.value
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: to_jsonable(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
    if isinstance(obj, dict):
        return {str(key): to_jsonable(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset)):
        return [to_jsonable(item) for item in obj]
    raise TypeError(f"cannot convert {type(obj).__name__} to JSON-able data")


def dumps_canonical(obj: Any) -> str:
    """Serialise ``obj`` (a report, dict, or anything :func:`to_jsonable`
    accepts) as canonical JSON: keys sorted, fixed separators, no trailing
    whitespace. The CLI's ``--json`` output, the sweep runner's merged
    reports and the sweep manifest all use this one encoder, which is what
    makes "``--workers N`` output is byte-identical to ``--workers 1``" a
    checkable contract rather than an accident."""
    return json.dumps(to_jsonable(obj), sort_keys=True)


class ReportBase:
    """Mixin giving a (data)class the :class:`Report` protocol."""

    def to_dict(self) -> dict:
        """This report as plain JSON-able data."""
        converted = to_jsonable(self)
        if not isinstance(converted, dict):
            raise TypeError(
                f"{type(self).__name__}.to_dict needs a dataclass (or a "
                "to_dict override)"
            )
        return converted


@runtime_checkable
class Report(Protocol):
    """What every experiment/scenario result promises."""

    def to_dict(self) -> dict: ...
