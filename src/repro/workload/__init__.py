"""Multi-tenant workload engine: who boots what, when — and how long it takes."""

from .arrivals import (
    DAY_S,
    diurnal_arrivals,
    flash_crowd_arrivals,
    poisson_arrivals,
)
from .scenarios import (
    ChurnConfig,
    ChurnReport,
    DayConfig,
    DayReport,
    StormArrivals,
    StormConfig,
    StormReport,
    StormSide,
    boot_storm,
    placement_context,
    register_churn,
    steady_state_day,
    storm_arrivals,
    storm_image_count,
)
from .sharding import ShardStormOutcome, shard_storm
from .tenants import Tenant, TenantPopulation
from .timed import TimedSquirrel

__all__ = [
    "DAY_S",
    "ChurnConfig",
    "ChurnReport",
    "DayConfig",
    "DayReport",
    "StormArrivals",
    "StormConfig",
    "ShardStormOutcome",
    "StormReport",
    "StormSide",
    "Tenant",
    "TenantPopulation",
    "TimedSquirrel",
    "boot_storm",
    "shard_storm",
    "diurnal_arrivals",
    "flash_crowd_arrivals",
    "placement_context",
    "poisson_arrivals",
    "register_churn",
    "steady_state_day",
    "storm_arrivals",
    "storm_image_count",
]
