"""Registration cost scales with what changed, not with the catalog.

Over one small flash crowd (8 nodes × 4 VMs, both sides), two counts are
checked against what each step touched:

* every ``Dataset.snapshot`` builds a view only for a file whose view was
  invalidated since it was last built — a file created, written, deleted
  or truncated since the previous snapshot — so the views built over the
  registrations grow linearly with them, not quadratically;
* every sampler scrape writes one column per gauge family that has
  children, not one sample per child;
* the catalog builds each release's master window once: ``master_grains``
  runs at most once per distinct ``(release, pool kind)`` it is asked for,
  not once per registered image.

A faulted churn splits replicas with ``ZPool.clone``, never with a
generic deep copy.
"""

import copy

import pytest

import repro.vmi.catalog
import repro.vmi.image

from repro.core.squirrel import Squirrel
from repro.experiments import registry
from repro.metrics import Sampler, TimeSeriesStore
from repro.vmi import LazyImageCatalog, master_grains
from repro.workload import StormConfig, boot_storm
from repro.zfs import Dataset, ZPool
from repro.zfs.dmu import FileObject


@pytest.mark.usefixtures("cold_catalogs")
def test_snapshot_views_and_scrape_appends_follow_what_changed(monkeypatch):
    counts = {"views": 0, "dirty": 0, "snapshots": 0, "registrations": 0,
              "appends": 0, "scrapes": 0, "columns": 0}
    raw_view = FileObject.snapshot_view
    raw_snapshot = Dataset.snapshot
    raw_register = Squirrel.register
    raw_scrape = Sampler.scrape
    raw_append = TimeSeriesStore.append

    def snapshot_view(self):
        counts["views"] += 1
        return raw_view(self)

    def snapshot(self, name):
        # files whose memoised view was dropped since it was last built
        counts["dirty"] += sum(
            1 for obj in self._files.values() if obj._view is None  # noqa: SLF001
        )
        counts["snapshots"] += 1
        return raw_snapshot(self, name)

    def register(self, *args, **kwargs):
        counts["registrations"] += 1
        return raw_register(self, *args, **kwargs)

    def append(self, *args, **kwargs):
        counts["appends"] += 1
        return raw_append(self, *args, **kwargs)

    def scrape(self):
        before = counts["appends"]
        raw_scrape(self)
        families = [
            family for family in self.registry.families()
            if family.kind == "gauge" and family.samples()
        ]
        assert counts["appends"] - before == len(families)
        counts["scrapes"] += 1
        counts["columns"] += len(families)

    monkeypatch.setattr(FileObject, "snapshot_view", snapshot_view)
    monkeypatch.setattr(Dataset, "snapshot", snapshot)
    monkeypatch.setattr(Squirrel, "register", register)
    monkeypatch.setattr(Sampler, "scrape", scrape)
    monkeypatch.setattr(TimeSeriesStore, "append", append)
    masters = _count_masters(monkeypatch)

    report = boot_storm(StormConfig(n_nodes=8, vms_per_node=4))

    assert report.squirrel.boots == 32
    assert counts["registrations"] >= 8
    assert counts["scrapes"] > 0
    assert counts["views"] <= counts["dirty"]
    # one registration touches one cache file on the scVolume and on the
    # one interned replica its fleet shares
    assert counts["dirty"] <= 2 * counts["registrations"]
    assert masters["catalogs"] == 1
    assert 0 < masters["calls"] <= len(masters["pairs"])


def _count_masters(monkeypatch) -> dict:
    """Count catalogs built and ``master_grains`` calls, wherever the
    stream builders reach it from."""
    masters = {"catalogs": 0, "calls": 0, "pairs": set()}
    raw_init = LazyImageCatalog.__init__

    def init(self, *args, **kwargs):
        masters["catalogs"] += 1
        raw_init(self, *args, **kwargs)

    def counted(release, start, length, *, kind):
        masters["calls"] += 1
        masters["pairs"].add((release, kind))
        return master_grains(release, start, length, kind=kind)

    monkeypatch.setattr(LazyImageCatalog, "__init__", init)
    for module in (repro.vmi.image, repro.vmi.catalog):
        monkeypatch.setattr(module, "master_grains", counted, raising=False)
    return masters


def test_replica_splits_clone_pools_without_deepcopy(monkeypatch):
    clones = 0
    raw_clone = ZPool.clone

    def clone(self):
        nonlocal clones
        clones += 1
        return raw_clone(self)

    def deepcopy(*args, **kwargs):
        raise AssertionError("copy.deepcopy called")

    monkeypatch.setattr(ZPool, "clone", clone)
    monkeypatch.setattr(copy, "deepcopy", deepcopy)
    exp = registry.get("churn")
    exp.run(None, **exp.validate(
        {"nodes": 4, "days": 1.0, "faults": "crash:compute1@3600+7200"}
    ))
    assert clones >= 1
