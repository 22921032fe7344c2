"""Coded caching with delayed requests: simulator and load analytics."""

from .analytics import (
    FixedLConfig,
    Q_count,
    b_count,
    brute_force_Q,
    closed_form_load,
    load_bounds,
    mn_sync_load,
    q_count,
    schedule_load,
    uncoded_load,
)
from .core import (
    CacheLayout,
    Library,
    RequestSchedule,
    SubfileRecordTable,
    SystemParams,
    analytic_subfile_table,
    generate_library,
    make_fixed_L_schedule,
    make_random_schedule,
    partition_into_subfiles,
    place_caches,
)
from .delivery import (
    DeliveryResult,
    LoadReport,
    Transmissions,
    decode_fap,
    measured_load,
    run_delivery,
)
from .errors import (
    DeadlineViolation,
    DecodeFailure,
    FogcodedError,
    InvalidParams,
    OutOfRange,
    TooLarge,
)
from .partition import eta

__all__ = [
    "CacheLayout",
    "DeadlineViolation",
    "DecodeFailure",
    "DeliveryResult",
    "FixedLConfig",
    "FogcodedError",
    "InvalidParams",
    "Library",
    "LoadReport",
    "OutOfRange",
    "Q_count",
    "RequestSchedule",
    "SubfileRecordTable",
    "SystemParams",
    "TooLarge",
    "Transmissions",
    "analytic_subfile_table",
    "b_count",
    "brute_force_Q",
    "closed_form_load",
    "decode_fap",
    "eta",
    "generate_library",
    "load_bounds",
    "make_fixed_L_schedule",
    "make_random_schedule",
    "measured_load",
    "mn_sync_load",
    "partition_into_subfiles",
    "place_caches",
    "q_count",
    "run_delivery",
    "schedule_load",
    "uncoded_load",
]

__version__ = "0.1.0"
