"""Shared fixtures."""

import pytest

from repro.vmi import catalog_at


@pytest.fixture
def cold_catalogs():
    """Empty the process-wide catalog memo, so a test that counts
    synthesis counts its own and not what an earlier test left warm."""
    catalog_at.cache_clear()
