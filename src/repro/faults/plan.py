"""Fault schedules: what breaks, when, for how long.

A :class:`FaultPlan` is an immutable, fully deterministic list of
:class:`FaultSpec` entries. Three ways to build one:

* :meth:`FaultPlan.fixed` — explicit specs (tests, acceptance scenarios),
* :meth:`FaultPlan.parse` — the CLI's compact DSL, e.g.
  ``"crash:compute1@40+30,flap:compute2@50+10,brick:storage0@60+20"``
  (``kind:target@start+duration`` in seconds, comma-separated),
* :meth:`FaultPlan.exponential` — seeded exponential MTBF/MTTR draws per
  target, the classic availability model; the same seed always yields the
  same schedule.

The plan is pure data — :class:`~repro.faults.injector.FaultInjector` turns
it into engine processes.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

from ..common.errors import ConfigError
from ..common.rng import stream as rng_stream

__all__ = ["FaultKind", "FaultSpec", "FaultPlan"]


class FaultKind(Enum):
    """The three fault classes of the paper's availability argument."""

    NODE_CRASH = "crash"  #: compute node dies, reboots, rejoins via resync
    LINK_FLAP = "flap"  #: a NIC/uplink's bandwidth drops to zero and back
    BRICK_FAIL = "brick"  #: a storage brick fails; reads degrade onto survivors


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault: ``target`` breaks at ``at_s`` for ``duration_s``."""

    kind: FaultKind
    target: str  #: node name ("compute3", "storage0")
    at_s: float
    duration_s: float

    def __post_init__(self) -> None:
        if self.at_s < 0:
            raise ConfigError("fault start must be >= 0")
        if self.duration_s <= 0:
            raise ConfigError("fault duration must be positive")

    def render(self) -> str:
        """The parseable form (round-trips through :meth:`FaultPlan.parse`)."""
        return f"{self.kind.value}:{self.target}@{self.at_s:g}+{self.duration_s:g}"


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic schedule of faults, sorted by start time."""

    faults: tuple[FaultSpec, ...] = ()

    def __post_init__(self) -> None:
        ordered = tuple(
            sorted(self.faults, key=lambda f: (f.at_s, f.kind.value, f.target))
        )
        object.__setattr__(self, "faults", ordered)

    def __len__(self) -> int:
        return len(self.faults)

    def __iter__(self):
        return iter(self.faults)

    def render(self) -> str:
        return ",".join(f.render() for f in self.faults)

    # -- constructors -------------------------------------------------------------

    @classmethod
    def fixed(cls, specs: Iterable[FaultSpec]) -> "FaultPlan":
        return cls(faults=tuple(specs))

    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        """Parse the CLI DSL: ``kind:target@start+duration`` entries joined
        by commas; kinds are ``crash``, ``flap``, ``brick``."""
        specs = []
        for raw in text.split(","):
            entry = raw.strip()
            if not entry:
                continue
            try:
                kind_s, rest = entry.split(":", 1)
                target, when = rest.split("@", 1)
                at_s, duration_s = when.split("+", 1)
                spec = FaultSpec(
                    kind=FaultKind(kind_s.strip()),
                    target=target.strip(),
                    at_s=float(at_s),
                    duration_s=float(duration_s),
                )
            except (ValueError, ConfigError) as exc:
                raise ConfigError(
                    f"bad fault spec {entry!r} (want kind:target@start+duration, "
                    f"kinds: {', '.join(k.value for k in FaultKind)}): {exc}"
                ) from None
            specs.append(spec)
        if not specs:
            raise ConfigError("empty fault plan")
        return cls.fixed(specs)

    @classmethod
    def exponential(
        cls,
        *,
        seed: int | str,
        horizon_s: float,
        targets: Sequence[str],
        mtbf_s: float,
        mttr_s: float,
        kind: FaultKind = FaultKind.NODE_CRASH,
    ) -> "FaultPlan":
        """Seeded exponential failure/repair schedule per target.

        Each target alternates up (Exp(mtbf)) and down (Exp(mttr)) phases
        from its own named RNG stream; faults whose repair would cross the
        horizon are dropped, so every scheduled fault also recovers inside
        the scenario. Deterministic per ``(seed, target)``.
        """
        if horizon_s <= 0 or mtbf_s <= 0 or mttr_s <= 0:
            raise ConfigError("horizon, MTBF and MTTR must all be positive")
        specs = []
        for target in targets:
            rng = rng_stream("fault-plan", seed, kind.value, target)
            t = float(rng.exponential(mtbf_s))
            while t < horizon_s:
                duration = float(rng.exponential(mttr_s))
                if t + duration >= horizon_s:
                    break
                specs.append(
                    FaultSpec(kind=kind, target=target, at_s=t, duration_s=duration)
                )
                t += duration + float(rng.exponential(mtbf_s))
        return cls.fixed(specs)
