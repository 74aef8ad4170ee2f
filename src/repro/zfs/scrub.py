"""Pool scrubbing — on-demand consistency verification.

Like ``zpool scrub``, but for the simulator's invariants instead of media
errors: walks every dataset, snapshot, and deadlist of a pool, recomputes
reference counts from scratch, and cross-checks them against the DDTs and
space map. Squirrel deployments run it in tests and after failure-injection
sequences; any discrepancy is a bug in the write/free paths, never
expected operational state.

Every dedup domain of the pool (the global one and each named shard domain)
keeps its own DDT, so references are counted per domain: the same checksum
may live in two domains with independent refcounts. Checked invariants:

1. every reachable checksum (live files + snapshots) has an entry in the
   DDT of its dataset's domain;
2. every DDT entry's refcount equals the reachable references plus deferred
   frees parked on deadlists of the datasets in its domain;
3. allocated space equals the sector-aligned sum of live DDT entries over
   every domain.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..common.errors import StorageError
from ..common.units import align_up
from .pool import ZPool
from .spa import SECTOR_SIZE

__all__ = ["ScrubReport", "scrub"]


@dataclass
class ScrubReport:
    """Outcome of one scrub pass."""

    datasets: int = 0
    blocks_checked: int = 0
    errors: list[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.errors

    def raise_if_dirty(self) -> None:
        if self.errors:
            raise StorageError(
                f"scrub found {len(self.errors)} inconsistencies: "
                + "; ".join(self.errors[:5])
            )


@dataclass
class _DomainTally:
    """References one dedup domain's datasets hold, recounted from scratch."""

    label: str
    live: dict[str, int] = field(default_factory=dict)  #: held by live heads
    deferred: dict[str, int] = field(default_factory=dict)  #: parked on deadlists
    snapshot_reachable: set[str] = field(default_factory=set)


def scrub(pool: ZPool) -> ScrubReport:
    """Verify a pool's reference/space accounting (see module docstring)."""
    report = ScrubReport()
    tallies = {pool.zio: _DomainTally("global")}
    for name in pool.domain_names():
        tallies[pool.domain_zio(name)] = _DomainTally(f"domain {name}")

    for name in pool.dataset_names():
        dataset = pool.dataset(name)
        report.datasets += 1
        tally = tallies[dataset.zio]
        for bp in dataset.iter_live_blocks():
            if bp.is_hole:
                continue
            tally.live[bp.checksum] = tally.live.get(bp.checksum, 0) + 1
            report.blocks_checked += 1
        for snap in dataset.snapshots():
            for blocks in snap.files.values():
                for bp in blocks:
                    if not bp.is_hole:
                        tally.snapshot_reachable.add(bp.checksum)
                        report.blocks_checked += 1
        deadlists = [dataset._head_deadlist]  # noqa: SLF001 - scrub is privileged
        deadlists += [snap.deadlist for snap in dataset.snapshots()]
        for deadlist in deadlists:
            for bp in deadlist:
                if not bp.is_hole:
                    tally.deferred[bp.checksum] = tally.deferred.get(bp.checksum, 0) + 1

    # 1 + 2: reference counts, per domain. Snapshots do NOT hold refcounts
    # (ZFS semantics): a reference is either live in a head or deferred on a
    # deadlist; snapshot-only visibility is always backed by a deadlist entry.
    for zio, tally in tallies.items():
        for entry in zio.ddt:
            expected = tally.live.get(entry.checksum, 0) + tally.deferred.get(
                entry.checksum, 0
            )
            if entry.refcount != expected:
                report.errors.append(
                    f"{tally.label} {entry.checksum}: refcount {entry.refcount}, "
                    f"live+deferred {expected}"
                )
        for checksum in sorted(tally.live.keys() | tally.snapshot_reachable):
            if zio.ddt.lookup(checksum) is None:
                report.errors.append(
                    f"{tally.label}: reachable block {checksum} missing from its DDT"
                )

    # 3: space accounting over every domain
    expected_alloc = sum(
        align_up(entry.psize, SECTOR_SIZE) for zio in tallies for entry in zio.ddt
    )
    if expected_alloc != pool.space.allocated_bytes:
        report.errors.append(
            f"space map reports {pool.space.allocated_bytes} allocated, "
            f"DDTs imply {expected_alloc}"
        )
    return report
