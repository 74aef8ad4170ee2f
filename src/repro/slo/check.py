"""Evaluate SLO specs against canonical JSON payloads.

Works on anything the repo's tooling emits: a ``--json`` experiment
report, a stored sweep ``report.json`` (dotted metrics aggregate across
every point), a ``--metrics`` run directory's ``report.json``, or a
``BENCH_*.json`` benchmark file. Instrument selectors
(``family{label=value}``) additionally reach into every embedded
canonical metrics block (see
:func:`repro.metrics.collect_metric_blocks`).

A missing metric is a **failed** verdict, not a skipped one: an SLO gate
that silently passes because a rename emptied its selector is worse than
no gate at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from ..common.errors import ConfigError
from ..common.report import lookup_path
from ..metrics import collect_metric_blocks
from .spec import SLORule, SLOSpec

__all__ = ["Verdict", "evaluate", "render_verdicts", "resolve_metric"]


@dataclass(frozen=True)
class Verdict:
    """One checked bound of one rule: the machine-readable outcome."""

    rule: str  #: the rule's display name
    metric: str  #: the metric selector
    bound: str  #: ``"min"`` or ``"max"``
    threshold: float
    agg: str  #: the aggregation actually applied (``worst`` resolved)
    value: float | None  #: the aggregate that was compared (None: no match)
    n: int  #: values matched by the selector
    ok: bool
    source: str  #: which payload was checked (file name / label)

    def render(self) -> str:
        """One human-readable verdict line."""
        status = "PASS" if self.ok else "FAIL"
        op = ">=" if self.bound == "min" else "<="
        shown = "n/a" if self.value is None else f"{self.value:g}"
        label = f"{self.rule}: {self.agg}={shown} {op} {self.threshold:g}"
        suffix = f" [{self.source}]" if self.source else ""
        note = "" if self.n else " (no value matched)"
        return f"{status} {label} (n={self.n}){note}{suffix}"


def _parse_selector(selector: str) -> tuple[str, dict[str, str]]:
    """Split ``family{k=v,...}`` into (family, label matchers)."""
    family, brace, rest = selector.partition("{")
    if not brace:
        return selector, {}
    if not rest.endswith("}"):
        raise ConfigError(f"bad instrument selector {selector!r}: missing '}}'")
    labels: dict[str, str] = {}
    body = rest[:-1].strip()
    if body:
        for clause in body.split(","):
            key, eq, value = clause.partition("=")
            if not eq:
                raise ConfigError(
                    f"bad instrument selector {selector!r}: expected k=v, "
                    f"got {clause!r}"
                )
            labels[key.strip()] = value.strip().strip('"')
    return family.strip(), labels


def _instrument_values(
    payload: Any, rule: SLORule
) -> list[tuple[str, float]]:
    """Matches of an instrument selector across embedded metrics blocks."""
    family_name, want = _parse_selector(rule.metric)
    found: list[tuple[str, float]] = []
    for block_path, block in collect_metric_blocks(payload).items():
        if rule.block is not None and rule.block not in block_path:
            continue
        for family in block["instruments"]:
            if family["name"] != family_name:
                continue
            if family["kind"] == "histogram":
                raise ConfigError(
                    f"SLO rule {rule.display_name!r}: {family_name!r} is a "
                    "histogram family; target a stats path (e.g. "
                    "report.squirrel.latency.p99) instead"
                )
            for sample in family["samples"]:
                labels = dict(sample["labels"])
                if any(labels.get(k) != v for k, v in want.items()):
                    continue
                where = block_path + "::" + family_name + (
                    "{" + ",".join(
                        f"{k}={v}" for k, v in sorted(labels.items())
                    ) + "}" if labels else ""
                )
                found.append((where, float(sample["value"])))
    return found


def _numeric(value: Any) -> float | None:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    return float(value)


def resolve_metric(payload: Any, rule: SLORule) -> list[tuple[str, float]]:
    """Every value ``rule.metric`` selects inside ``payload``.

    Resolution order: instrument selector (when braces are present or the
    bare name matches an embedded metric family), then a direct dotted
    path, then the dotted path inside each sweep point's ``result``.
    Returns ``(where, value)`` pairs; empty when nothing matched.
    """
    if "{" in rule.metric:
        return _instrument_values(payload, rule)
    direct = _numeric(lookup_path(payload, rule.metric))
    if direct is not None:
        return [(rule.metric, direct)]
    if "." not in rule.metric:
        matches = _instrument_values(payload, rule)
        if matches:
            return matches
    points = payload.get("points") if isinstance(payload, dict) else None
    found: list[tuple[str, float]] = []
    if isinstance(points, (list, tuple)):
        for index, point in enumerate(points):
            result = point.get("result") if isinstance(point, dict) else None
            value = _numeric(lookup_path(result, rule.metric))
            if value is not None:
                found.append((f"points.{index}.result.{rule.metric}", value))
    return found


def _aggregate(values: list[float], agg: str, bound: str) -> tuple[str, float]:
    """Collapse matched values per the rule's aggregation (resolving
    ``worst`` to the bound's conservative side); returns (agg used, value)."""
    if agg == "worst":
        agg = "min" if bound == "min" else "max"
    if agg == "count":
        return agg, float(len(values))
    array = np.asarray(values, dtype=float)
    if agg == "min":
        return agg, float(array.min())
    if agg == "max":
        return agg, float(array.max())
    if agg == "mean":
        return agg, float(array.mean())
    if agg == "sum":
        return agg, float(array.sum())
    return agg, float(np.percentile(array, int(agg[1:])))


def evaluate(
    spec: SLOSpec | SLORule, payload: Any, *, source: str = ""
) -> list[Verdict]:
    """Check every rule bound of ``spec`` against ``payload``.

    Returns one :class:`Verdict` per declared bound (a rule with both
    ``min`` and ``max`` yields two). A selector that matches nothing
    produces failing verdicts.
    """
    rules = (spec,) if isinstance(spec, SLORule) else spec.rules
    verdicts: list[Verdict] = []
    for rule in rules:
        matched = resolve_metric(payload, rule)
        values = [value for _where, value in matched]
        for bound, threshold in (("min", rule.min), ("max", rule.max)):
            if threshold is None:
                continue
            if not values:
                verdicts.append(
                    Verdict(
                        rule=rule.display_name, metric=rule.metric,
                        bound=bound, threshold=float(threshold),
                        agg=rule.agg, value=None, n=0, ok=False,
                        source=source,
                    )
                )
                continue
            agg, value = _aggregate(values, rule.agg, bound)
            ok = value >= threshold if bound == "min" else value <= threshold
            verdicts.append(
                Verdict(
                    rule=rule.display_name, metric=rule.metric, bound=bound,
                    threshold=float(threshold), agg=agg, value=value,
                    n=len(values), ok=ok, source=source,
                )
            )
    return verdicts


def render_verdicts(verdicts: list[Verdict]) -> str:
    """The human-readable verdict table plus a one-line summary."""
    lines = [verdict.render() for verdict in verdicts]
    failed = sum(1 for verdict in verdicts if not verdict.ok)
    lines.append(
        f"slo: {len(verdicts) - failed}/{len(verdicts)} checks passed"
        + (f", {failed} FAILED" if failed else "")
    )
    return "\n".join(lines)
