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

__version__ = "0.1.0"
