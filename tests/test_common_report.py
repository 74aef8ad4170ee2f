"""Tests for the report conversion in :mod:`repro.common.report`.

``to_jsonable`` has an exact-type fast path for plain scalars, lists,
tuples and dicts; everything else takes the ``isinstance`` chain. The
contracts pinned here:

* equivalence: on any nested value the converter gives the same data, the
  same ``type()`` tree and the same canonical JSON bytes as the plain
  recursive converter it replaced (kept below as the reference);
* cost: a metrics block of S series x N samples converts in O(S) calls,
  whatever N is;
* plain results: sweep points hold ``Report.to_dict()`` output unconverted,
  so that output must already be a fixed point of ``to_jsonable``.
"""

from __future__ import annotations

import dataclasses
import json
import math
from collections import Counter, OrderedDict, defaultdict
from enum import Enum
from typing import Any

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.common.report as report
from repro.common.report import to_jsonable
from repro.metrics import MetricsRegistry, metrics_block
from repro.metrics.store import TimeSeriesStore
from repro.sweep import SweepSpec, run_sweep
from repro.vmi.content import ContentClass


def reference_to_jsonable(obj: Any) -> Any:
    """The converter before the fast path: one ``isinstance`` chain."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return obj
    if isinstance(obj, Enum):
        return obj.value
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: reference_to_jsonable(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
    if isinstance(obj, dict):
        return {
            str(key): reference_to_jsonable(value) for key, value in obj.items()
        }
    if isinstance(obj, (list, tuple, set, frozenset)):
        return [reference_to_jsonable(item) for item in obj]
    raise TypeError(f"cannot convert {type(obj).__name__} to JSON-able data")


def assert_same_tree(got: Any, want: Any) -> None:
    """Equal values with identical ``type()``s at every node; NaN equals
    NaN and the sign of a zero counts."""
    assert type(got) is type(want), (got, want)
    if isinstance(want, dict):
        assert [(type(k), k) for k in got] == [(type(k), k) for k in want]
        for key in want:
            assert_same_tree(got[key], want[key])
    elif isinstance(want, (list, tuple)):
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert_same_tree(a, b)
    elif isinstance(want, float) and math.isnan(want):
        assert math.isnan(got)
    else:
        assert got == want
        if isinstance(want, float):
            assert math.copysign(1.0, got) == math.copysign(1.0, want)


class Mood(str, Enum):
    CALM = "calm"
    STORMY = "stormy"


class Shape(Enum):
    SQUARE = 4
    NAMED = "named"
    PAIR = (1, 2.5)


@dataclasses.dataclass(frozen=True)
class Leaf:
    name: str
    value: Any


@dataclasses.dataclass(frozen=True)
class Pair:
    left: Any
    right: Any


NUMPY_DTYPES = (np.int8, np.int32, np.int64, np.uint16, np.float32,
                np.float64, np.bool_)

floats = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, 0.0, math.nan, math.inf, -math.inf]),
)
hashable_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    floats,
    st.text(max_size=6),
    floats.map(np.float64),
    st.sampled_from(list(ContentClass)),
    st.sampled_from(list(Mood)),
    st.sampled_from(list(Shape)),
)
numpy_values = st.one_of(
    st.tuples(st.sampled_from(NUMPY_DTYPES), st.integers(0, 100)).map(
        lambda pair: pair[0](pair[1])
    ),
    st.lists(floats, max_size=4).map(np.array),
    st.lists(st.integers(-1000, 1000), max_size=4).map(
        lambda values: np.array(values, dtype=np.int64)
    ),
    st.just(np.arange(6).reshape(2, 3)),
)
scalars = st.one_of(hashable_scalars, numpy_values)
keys = st.one_of(
    st.text(max_size=6),
    st.integers(),
    floats,
    st.booleans(),
    st.none(),
    st.sampled_from(list(ContentClass)),
    st.sampled_from(list(Mood)),
    st.sampled_from(list(Shape)),
)
DICT_KINDS = (dict, OrderedDict, Counter, lambda d: defaultdict(list, d))


def _containers(children):
    dicts = st.dictionaries(keys, children, max_size=4)
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.tuples(st.sampled_from(DICT_KINDS), dicts).map(
            lambda pair: pair[0](pair[1])
        ),
        st.sets(hashable_scalars, max_size=4),
        st.frozensets(hashable_scalars, max_size=4),
        st.builds(Leaf, st.text(max_size=4), children),
        st.builds(Pair, children, children),
    )


nested = st.recursive(scalars, _containers, max_leaves=24)


class TestEquivalence:
    @settings(max_examples=400, deadline=None)
    @given(nested)
    def test_matches_the_reference_converter(self, value):
        got = to_jsonable(value)
        want = reference_to_jsonable(value)
        assert_same_tree(got, want)
        assert json.dumps(got, sort_keys=True) == json.dumps(
            want, sort_keys=True
        )

    def test_containers_are_copies(self):
        series = [1.0, 2.0]
        payload = {"v": series}
        converted = to_jsonable(payload)
        assert converted == payload
        assert converted is not payload and converted["v"] is not series

    def test_unknown_objects_still_rejected(self):
        with pytest.raises(TypeError, match="object"):
            to_jsonable({"bad": [object()]})


class TestConversionCost:
    def test_metrics_block_converts_in_calls_per_series(self, monkeypatch):
        """One call per container, none per sample: S=8 series of N=1,000
        samples each take O(S) calls (the per-float recursion took 2SN)."""
        n_series, n_samples = 8, 1_000
        labels = tuple(((("node", f"compute{i}"),) for i in range(n_series)))
        store = TimeSeriesStore(capacity=n_samples)
        for step in range(n_samples):
            store.append("queue_depth", labels, float(step),
                         [step * 0.5 + i for i in range(n_series)])
        block = metrics_block(MetricsRegistry(), store, interval_s=1.0,
                              scrapes=n_samples)

        calls = 0
        original = report.to_jsonable

        def counting(obj):
            nonlocal calls
            calls += 1
            return original(obj)

        monkeypatch.setattr(report, "to_jsonable", counting)
        converted = report.to_jsonable(block)
        assert_same_tree(converted, reference_to_jsonable(block))
        assert calls <= 4 * n_series + 8, calls
        assert calls < n_samples // 10


def _assert_plain_points(spec: SweepSpec) -> None:
    result = run_sweep(spec, workers=1, scale=4096.0)
    assert len(result.points) == 2
    for point in result.points:
        assert_same_tree(to_jsonable(point["result"]), point["result"])


class TestPointResultsArePlain:
    """The runner stores ``Report.to_dict()`` as it comes; ``_aggregate``
    reads metrics from it by dotted path and skips non-numbers, so a
    result that was not plain data would silently drop out of the
    summary."""

    def test_churn_points(self):
        _assert_plain_points(SweepSpec.from_grid(
            "churn", "seed=0,1",
            {"nodes": 4, "days": 0.25, "registrations_per_day": 8.0},
        ))

    def test_storm_points(self):
        _assert_plain_points(SweepSpec.from_grid(
            "storm", "seed=0,1", {"nodes": 2, "vms_per_node": 1}
        ))
