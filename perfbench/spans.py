"""Layer spans recorded from outside the package.

A Tracer replaces public functions of ``fogcoded.core``, ``partition``,
``delivery``, ``analytics`` and ``cli`` with transparent wrappers, on the
module attributes that the package itself calls through, so a traced run
follows exactly the path of an untraced one.  Nothing inside ``src/``
changes.  Each wrapped call becomes a span (name, start, end, parent,
trial); spans stay in memory and are written out when the run ends.

With ``record=False`` only the functions whose results the bit-exact
correctness gate needs (library, caches, delivery result) are wrapped, and
no spans or counters are kept.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter
from contextlib import contextmanager, nullcontext

import numpy as np

# Every wrapped call is a span, except the hot ones here, which are only
# counted and timed in aggregate (about 10^5 calls of eta under verify).
AGGREGATE = {"partition.eta"}

# (name reported, module, attribute).  partition.eta is reached through
# the name analytics imported it under.
TARGETS = [
    ("core.generate_library", "core", "generate_library"),
    ("core.place_caches", "core", "place_caches"),
    ("core.partition_into_subfiles", "core", "partition_into_subfiles"),
    ("core.analytic_subfile_table", "core", "analytic_subfile_table"),
    ("core.make_random_schedule", "core", "make_random_schedule"),
    ("core.make_fixed_L_schedule", "core", "make_fixed_L_schedule"),
    ("partition.eta", "partition", "eta"),
    ("partition.eta", "analytics", "partition_eta"),
    ("delivery.run_delivery", "delivery", "run_delivery"),
    ("delivery.decode_fap", "delivery", "decode_fap"),
    ("analytics.closed_form_load", "analytics", "closed_form_load"),
    ("analytics.Q_count", "analytics", "Q_count"),
    ("analytics.brute_force_Q", "analytics", "brute_force_Q"),
    ("analytics.load_bounds", "analytics", "load_bounds"),
    ("cli.run_sweep", "cli", "run_sweep"),
    ("cli.write_csv", "cli", "write_csv"),
    ("cli.run_single", "cli", "run_single"),
    ("cli._one_trial", "cli", "_one_trial"),
    ("cli.run_verification", "cli", "run_verification"),
    ("cli.check_counting_oracle", "cli", "check_counting_oracle"),
    ("cli.check_b_count", "cli", "check_b_count"),
    ("cli.check_sync_equality", "cli", "check_sync_equality"),
    ("cli.check_bounds_sandwich", "cli", "check_bounds_sandwich"),
    ("cli.check_delivery_closed_form", "cli", "check_delivery_closed_form"),
    ("cli.check_decodability", "cli", "check_decodability"),
    ("cli.check_delay_monotonicity", "cli", "check_delay_monotonicity"),
]

# What an untraced run wraps: only what the bit-exact gate must capture.
CAPTURE = {"core.generate_library", "core.place_caches", "delivery.run_delivery"}

TRIAL_SPAN = "cli._one_trial"
GATE_SPAN = "bench.gate"

# Spans whose summed duration is reported as "<name>.s".
TIMED = [
    "delivery.run_delivery",
    "delivery.decode_fap",
    "core.generate_library",
    "core.place_caches",
    "core.partition_into_subfiles",
    "core.make_random_schedule",
    "core.make_fixed_L_schedule",
    "analytics.closed_form_load",
    "analytics.Q_count",
    "analytics.brute_force_Q",
    "cli.check_counting_oracle",
    "cli.check_b_count",
    "cli.check_decodability",
    "cli.check_delay_monotonicity",
    "cli.check_delivery_closed_form",
]

# Every per-layer metric, in report order, with its unit.  cache_mb and
# library_mb are computed from array sizes (nbytes), not measured.
PER_LAYER = [
    ("delivery.run_delivery.s", "s"),
    ("delivery.candidates", "count"),
    ("delivery.sent", "count"),
    ("delivery.sent_ratio", "ratio"),
    ("delivery.candidates_per_s", "1/s"),
    ("delivery.payload_mbit", "Mbit"),
    ("delivery.decode_fap.s", "s"),
    ("delivery.decoded_mbit", "Mbit"),
    ("core.generate_library.s", "s"),
    ("core.place_caches.s", "s"),
    ("core.partition_into_subfiles.s", "s"),
    ("core.records", "count"),
    ("core.cache_mb", "MB-computed"),
    ("core.library_mb", "MB-computed"),
    ("core.make_random_schedule.s", "s"),
    ("core.make_fixed_L_schedule.s", "s"),
    ("analytics.closed_form_load.s", "s"),
    ("analytics.Q_count.s", "s"),
    ("analytics.brute_force_Q.s", "s"),
    ("analytics.brute_force_Q.calls", "count"),
    ("partition.eta.calls", "count"),
    ("cli.check_counting_oracle.s", "s"),
    ("cli.check_b_count.s", "s"),
    ("cli.check_decodability.s", "s"),
    ("cli.check_delay_monotonicity.s", "s"),
    ("cli.check_delivery_closed_form.s", "s"),
    ("cli.run_single.self_s", "s"),
    ("cli.run_sweep.self_s", "s"),
    ("trace.overhead_frac", "ratio"),
]


def array_mb(obj) -> float:
    """Computed size in MB of the numpy arrays an object holds directly."""
    return sum(v.nbytes for v in vars(obj).values() if isinstance(v, np.ndarray)) / 1e6


class Tracer:
    """Wraps package functions; records spans and counters when asked."""

    def __init__(self, record: bool, after_delivery=None):
        self.record = record
        # after_delivery(schedule, records, params, result, library, caches)
        # runs the bit-exact gate; its time is kept out of run_s.
        self.after_delivery = after_delivery
        self.spans: list[list] = []  # [name, start, end, parent, trial]
        self.stack: list[int] = []
        self.trial: int | None = None
        self.trials = 0
        self.counts: Counter = Counter()
        self.agg_s: Counter = Counter()
        self.gate_s = 0.0
        self.library = None
        self.caches = None

    @contextmanager
    def installed(self):
        """Wrap the targets for the duration of the block, then restore."""
        saved = []
        try:
            for name, mod, attr in TARGETS:
                module = importlib.import_module(f"fogcoded.{mod}")
                if not self.record and (self.after_delivery is None or name not in CAPTURE):
                    continue
                fn = getattr(module, attr, None)
                if fn is None:
                    continue
                saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(fn, name))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def _wrap(self, fn, name):
        if name in AGGREGATE:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                t0 = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.agg_s[name] += time.perf_counter() - t0
                    self.counts[name + ".calls"] += 1
            return counted

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outer = self.trial
            if name == TRIAL_SPAN:
                self.trials += 1
                self.trial = self.trials
            try:
                if not self.record:
                    result = fn(*args, **kwargs)
                else:
                    with self.span(name):
                        result = fn(*args, **kwargs)
                self._after(name, args, result)
            finally:
                self.trial = outer
            return result
        return wrapper

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self.stack[-1] if self.stack else None,
                           self.trial])
        self.stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self.stack.pop()
            self.spans[sid][1:3] = [start, end]

    def _after(self, name: str, args, result) -> None:
        if name == "core.generate_library":
            self.library = result
            if self.record:
                self.counts["core.library_mb"] = max(
                    self.counts["core.library_mb"], array_mb(result))
        elif name == "core.place_caches":
            self.caches = result
            if self.record:
                self.counts["core.cache_mb"] = max(
                    self.counts["core.cache_mb"], array_mb(result))
        elif name == "core.partition_into_subfiles" and self.record:
            self.counts["core.records"] += len(getattr(result, "positions", None) or ())
        elif name == "delivery.decode_fap" and self.record:
            self.counts["delivery.decoded_bits"] += int(np.size(result))
        elif name == "delivery.run_delivery":
            if self.record:
                self.counts["delivery.candidates"] += len(result.events)
                self.counts["delivery.sent"] += result.report.transmission_count
                self.counts["delivery.payload_bits"] += result.report.total_bits
            # drop the references so no trial outlives its own _one_trial call
            library, caches = self.library, self.caches
            self.library = self.caches = None
            if self.after_delivery is not None:
                t0 = time.perf_counter()
                try:
                    with self.span(GATE_SPAN) if self.record else nullcontext():
                        self.after_delivery(*args[:3], result, library, caches)
                finally:
                    self.gate_s += time.perf_counter() - t0

    def span_seconds(self, name: str) -> float:
        return sum(end - start for n, start, end, _, _ in self.spans if n == name)

    def self_seconds(self, name: str) -> float:
        """Duration of the named spans minus that of their direct children."""
        own = {i for i, s in enumerate(self.spans) if s[0] == name}
        total = sum(self.spans[i][2] - self.spans[i][1] for i in own)
        children = sum(end - start for _, start, end, parent, _ in self.spans
                       if parent in own)
        return total - children

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer figures of one traced run (overhead_frac is set by the
        caller, which alone knows the untraced time)."""
        out = {f"{name}.s": self.span_seconds(name) for name in TIMED}
        candidates = self.counts["delivery.candidates"]
        deliver_s = out["delivery.run_delivery.s"]
        out.update({
            "delivery.candidates": candidates,
            "delivery.sent": self.counts["delivery.sent"],
            "delivery.sent_ratio": self.counts["delivery.sent"] / candidates if candidates else 0.0,
            "delivery.candidates_per_s": candidates / deliver_s if deliver_s else 0.0,
            "delivery.payload_mbit": self.counts["delivery.payload_bits"] / 1e6,
            "delivery.decoded_mbit": self.counts["delivery.decoded_bits"] / 1e6,
            "core.records": self.counts["core.records"],
            "core.cache_mb": self.counts["core.cache_mb"],
            "core.library_mb": self.counts["core.library_mb"],
            "analytics.brute_force_Q.calls": sum(
                1 for s in self.spans if s[0] == "analytics.brute_force_Q"),
            "partition.eta.calls": self.counts["partition.eta.calls"],
            "cli.run_single.self_s": self.self_seconds("cli.run_single"),
            "cli.run_sweep.self_s": self.self_seconds("cli.run_sweep"),
        })
        return out

    def dump(self) -> dict:
        """Spans and aggregate counters in a JSON-ready form."""
        return {
            "spans": [
                {"id": i, "name": n, "start": start, "end": end,
                 "parent": parent, "trial": trial}
                for i, (n, start, end, parent, trial) in enumerate(self.spans)
            ],
            "aggregate_s": dict(self.agg_s),
            "counts": dict(self.counts),
        }
