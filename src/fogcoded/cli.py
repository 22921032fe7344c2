"""Command-line experiment driver: single runs, sweeps, verification, tables.

Subcommands:
  simulate   one placement+delivery+measurement cycle, worst case over trials
  sweep      CSV over an axis (l, m or deltab), one row per value per delta_b
  verify     run the oracle/invariant suite and report pass/fail per check
  tables     dump the per-slot transmission table of a configuration

Flags may also be supplied through a flat key=value config file
(--config): explicit flags override file entries, which override the
subcommand's defaults.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import analytics, core, delivery
from .analytics import FixedLConfig
from .errors import FogcodedError, InvalidParams

CSV_COLUMNS = [
    "K", "N", "M", "F", "B", "deltaB", "L", "mode", "trials", "seed",
    "measured_load", "closed_form_load", "lower_bound", "upper_bound",
    "uncoded_load", "mn_sync_load", "transmission_count", "error",
]

BITEXACT_MAX_F = 2_000_000  # larger files are analytic-mode only


@dataclass(frozen=True)
class ExperimentConfig:
    K: int = 10
    N: int = 20
    M: float = 5.0
    F: int = 10_000
    B: int = 5
    delta_b: int = 2
    L: int | None = None  # None selects random schedules
    mode: str = "analytic"
    trials: int = 50
    seed: int = 0
    sweep: str | None = None
    values: tuple[float, ...] = ()
    delta_b_list: tuple[int, ...] = ()
    out: str | None = None

    @property
    def random_schedule(self) -> bool:
        return self.L is None

    def system_params(self) -> core.SystemParams:
        """Validated system parameters; a FixedLConfig when L is set."""
        common = dict(
            K=self.K, N=self.N, M=self.M, F=self.F, B=self.B, delta_b=self.delta_b
        )
        if self.random_schedule:
            return core.SystemParams(**common)
        return FixedLConfig(**common, L=self.L)


@dataclass
class ResultRow:
    config: ExperimentConfig
    measured_load: float | None = None
    mean_load: float | None = None
    closed_form_load: float | None = None
    lower_bound: float | None = None
    upper_bound: float | None = None
    uncoded_load: float | None = None
    mn_sync_load: float | None = None
    transmission_count: int | None = None
    error: str = ""

    def csv_values(self) -> list[str]:
        c = self.config
        def fmt(x):
            return "" if x is None else str(x)
        return [
            str(c.K), str(c.N), str(c.M), str(c.F), str(c.B), str(c.delta_b),
            "" if c.L is None else str(c.L), c.mode, str(c.trials), str(c.seed),
            fmt(self.measured_load), fmt(self.closed_form_load),
            fmt(self.lower_bound), fmt(self.upper_bound),
            fmt(self.uncoded_load), fmt(self.mn_sync_load),
            fmt(self.transmission_count), self.error,
        ]


def _trial_seeds(seed: int, trial: int) -> tuple[int, int, int]:
    # One root seed split into independent library/placement/schedule streams.
    ss = np.random.SeedSequence([seed, trial])
    lib, place, sched = (int(x) for x in ss.generate_state(3))
    return lib, place, sched


def _bitexact_delivery(
    params: core.SystemParams, schedule: core.RequestSchedule, seed: int, trial: int
) -> tuple[core.Library, core.CacheLayout, core.SubfileRecordTable, delivery.DeliveryResult]:
    """The bit-exact pipeline of one seeded trial: library, caches and
    subfile records from the trial's seed streams, then delivery."""
    lib_seed, place_seed, _ = _trial_seeds(seed, trial)
    library = core.generate_library(params, lib_seed)
    files = set(schedule.demand.values())
    caches = core.place_caches(library, params, place_seed, files)
    records = core.partition_into_subfiles(library, caches, schedule)
    return library, caches, records, delivery.run_delivery(schedule, records, params)


def _one_trial(config: ExperimentConfig, trial: int) -> tuple[float, int]:
    """(normalized load, transmission count) of one seeded trial."""
    params = config.system_params()
    sched_seed = _trial_seeds(config.seed, trial)[2]
    if config.random_schedule:
        schedule = core.make_random_schedule(config.K, config.B, sched_seed)
    else:
        schedule = core.make_fixed_L_schedule(config.K, config.B, config.L, sched_seed)
    if config.mode == "analytic":
        Q = analytics.schedule_Q(schedule, params.delta_b)
        return analytics.load_of(params, Q), sum(Q)
    report = _bitexact_delivery(params, schedule, config.seed, trial)[-1].report
    return report.normalized_load, report.transmission_count


def _check_seed(seed: int) -> None:
    # numpy's seed sequences take no negative entropy
    if seed < 0:
        raise InvalidParams(f"seed must be >= 0, got {seed}")


def _checked_params(config: ExperimentConfig) -> core.SystemParams:
    """Validated system parameters, checked against the delivery engine's
    K cap and the bit-exact file-size cap before anything is built."""
    if config.mode not in ("analytic", "bitexact"):
        raise InvalidParams(f"unknown mode {config.mode!r}")
    _check_seed(config.seed)
    params = config.system_params()
    delivery.check_delivery_size(params.K)
    if config.mode == "bitexact" and config.F > BITEXACT_MAX_F:
        raise InvalidParams(
            f"bit-exact mode is limited to F <= {BITEXACT_MAX_F}; "
            "use --mode analytic for larger files"
        )
    return params


def run_single(config: ExperimentConfig) -> ResultRow:
    """Full cycle; with trials > 1 the measured load is the worst case."""
    if config.trials < 1:
        raise InvalidParams("trials must be >= 1")
    params = _checked_params(config)
    trials = [_one_trial(config, t) for t in range(config.trials)]
    row = ResultRow(config)
    # max() keeps the first of several equal worst loads
    row.measured_load, row.transmission_count = max(trials, key=lambda lc: lc[0])
    row.mean_load = float(np.mean([load for load, _ in trials]))
    lower, upper = analytics.load_bounds(
        config.M, config.N, config.K, config.B, config.delta_b
    )
    row.lower_bound = lower
    row.upper_bound = upper
    row.uncoded_load = analytics.uncoded_load(config.M, config.N, config.K)
    row.mn_sync_load = analytics.mn_sync_load(config.M, config.N, config.K)
    if not config.random_schedule:
        if config.mode == "bitexact" and params.rounding_error() > 1e-6:
            row.error = "closed-form comparison skipped: M*F/N too far from integer"
        else:
            row.closed_form_load = analytics.closed_form_load(params)
    return row


def _sweep_configs(config: ExperimentConfig) -> list[ExperimentConfig]:
    if config.sweep not in ("l", "m", "deltab"):
        raise InvalidParams(f"sweep axis must be l, m or deltab, got {config.sweep!r}")
    if not config.values:
        raise InvalidParams("sweep needs --values")
    if config.sweep == "deltab" and config.delta_b_list:
        raise InvalidParams("--sweep deltab takes its delays from --values, not --delta-b")
    delta_bs = config.delta_b_list or (config.delta_b,)
    cells = []
    for v in config.values:
        if config.sweep != "m" and not float(v).is_integer():
            raise InvalidParams(f"--sweep {config.sweep} needs integer values, got {v}")
        if config.sweep == "deltab":
            cells.append(replace(config, delta_b=int(v)))
            continue
        if config.sweep == "l":
            base = replace(config, L=int(v), K=config.B * int(v))
        else:
            base = replace(config, M=float(v))
        cells.extend(replace(base, delta_b=db) for db in delta_bs)
    return cells


def run_sweep(config: ExperimentConfig) -> list[ResultRow]:
    """One ResultRow per sweep value per delta_b; failures become error rows."""
    rows = []
    for cell in _sweep_configs(config):
        try:
            rows.append(run_single(cell))
        except FogcodedError as exc:
            rows.append(ResultRow(cell, error=str(exc)))
    return rows


def write_csv(rows: list[ResultRow], path: str | None) -> str:
    out = sys.stdout if path in (None, "-") else open(path, "w", newline="")
    try:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for row in rows:
            writer.writerow(row.csv_values())
    finally:
        if out is not sys.stdout:
            out.close()
    return path or "-"


# ---------------------------------------------------------------------------
# verification suite


@dataclass
class CheckResult:
    name: str
    ok: bool | None  # None means skipped
    detail: str = ""

    @property
    def failed(self) -> bool:
        return self.ok is False


def _verdict(name: str, bad: list, what: str) -> CheckResult:
    """PASS when nothing is in `bad`, else FAIL naming the first five."""
    return CheckResult(name, not bad, f"{what}: {bad[:5]}" if bad else "")


def _fixed_l_shapes(max_k: int) -> list[tuple[int, int]]:
    shapes = []
    for b in range(2, max_k + 1):
        for l in range(1, max_k // b + 1):
            shapes.append((b, l))
    return shapes


def check_counting_oracle(
    max_k: int = 8, shapes: list[tuple[int, int]] | None = None
) -> list[CheckResult]:
    """Q_count and every q_count against exhaustive enumeration, plus
    sum_Y q = C(K, s)."""
    results = []
    for b, l in shapes if shapes is not None else _fixed_l_shapes(max_k):
        k = b * l
        if k > analytics.BRUTE_FORCE_MAX_K:
            results.append(CheckResult(
                f"q-count oracle B={b} L={l}", None,
                f"skipped: K={k} exceeds brute-force limit (TooLarge)",
            ))
            continue
        schedule = core.make_fixed_L_schedule(k, b, l)
        histogram = analytics.brute_force_eta_histogram(schedule)
        bad = []
        for delta_b, counts in enumerate(histogram, 1):
            cfg = FixedLConfig(K=k, N=k, M=k / 2, F=1, B=b, L=l, delta_b=delta_b)
            Q = counts @ np.arange(k + 1)
            for s in range(1, k + 1):
                if analytics.Q_count(s, cfg) != Q[s]:
                    bad.append(("Q", s, delta_b))
                q = {y: analytics.q_count(s, y, cfg) for y in analytics.y_range(s, cfg)}
                if any(q[y] != counts[s, y] for y in q):
                    bad.append(("q", s, delta_b))
                if sum(q.values()) != math.comb(k, s):
                    bad.append(("sum_q", s, delta_b))
        results.append(_verdict(
            f"q-count oracle B={b} L={l}", bad, "mismatches at (kind, s, delta_b)"
        ))
    return results


def check_schedule_Q(max_k: int = 8, seed: int = 0) -> CheckResult:
    """schedule_Q, which gives every analytic random-schedule load, against
    exhaustive enumeration on seeded random schedules."""
    bad = []
    for k in range(2, min(max_k, 10) + 1):
        for b in range(2, k + 1):
            schedule = core.make_random_schedule(k, b, seed)
            for delta_b, Q in enumerate(analytics.brute_force_Q(schedule), 1):
                if analytics.schedule_Q(schedule, delta_b) != Q:
                    bad.append((k, b, delta_b))
    return _verdict("schedule-Q oracle", bad, "mismatches at (K, B, delta_b)")


def check_b_count(max_y: int = 4, max_l: int = 4) -> CheckResult:
    bad = []
    for y in range(1, max_y + 1):
        for l in range(1, max_l + 1):
            counts = analytics.brute_force_b(y, l)
            for alpha in range(y, y * l + 1):
                if analytics.b_count(y, alpha, l) != counts[alpha]:
                    bad.append((y, alpha, l))
    return _verdict("b-count oracle", bad, "mismatches at (Y, alpha, L)")


def check_sync_equality(max_k: int = 8) -> CheckResult:
    bad = []
    for b, l in _fixed_l_shapes(max_k):
        k = b * l
        for ratio in (0.25, 0.5, 0.75):
            cfg = FixedLConfig(K=k, N=k, M=ratio * k, F=1, B=b, L=l, delta_b=b)
            cf = analytics.closed_form_load(cfg)
            sync = analytics.mn_sync_load(cfg.M, cfg.N, cfg.K)
            if abs(cf - sync) > 1e-12 * max(abs(sync), 1e-300):
                bad.append((b, l, ratio))
    return _verdict("synchronous-limit equality", bad, "mismatches at (B, L, M/N)")


def check_bounds_sandwich(max_k: int = 8) -> CheckResult:
    bad = []
    slack = 1e-9
    for b, l in _fixed_l_shapes(max_k):
        k = b * l
        for ratio in (0.25, 0.5, 0.75):
            for delta_b in range(1, b + 1):
                cfg = FixedLConfig(K=k, N=k, M=ratio * k, F=1, B=b, L=l, delta_b=delta_b)
                cf = analytics.closed_form_load(cfg)
                lower, upper = analytics.load_bounds(cfg.M, cfg.N, k, b, delta_b)
                windows = -(-b // delta_b)
                ratio_ok = 1 - slack <= cf / lower <= windows + slack
                if not (lower * (1 - slack) <= cf <= upper * (1 + slack) and ratio_ok):
                    bad.append((b, l, ratio, delta_b))
    return _verdict("load-bound sandwich", bad, "violations at (B, L, M/N, delta_b)")


def check_delivery_closed_form(seed: int = 0) -> CheckResult:
    """The delivery engine on expected subfile lengths against the fixed-L
    closed form, on seeded fixed-L schedules."""
    bad = []
    for b, l in ((3, 1), (4, 1), (5, 1), (3, 2)):
        k = b * l
        schedule = core.make_fixed_L_schedule(k, b, l, _trial_seeds(seed, 0)[2])
        for delta_b in range(1, b + 1):
            cfg = FixedLConfig(K=k, N=k, M=k / 4, F=1000, B=b, L=l, delta_b=delta_b)
            records = core.analytic_subfile_table(cfg, schedule)
            load = delivery.run_delivery(schedule, records, cfg).report.normalized_load
            closed = analytics.closed_form_load(cfg)
            if abs(load - closed) > 1e-9 * max(closed, 1e-300):
                bad.append((b, l, delta_b))
    return _verdict("delivery matches closed form", bad, "mismatches at (B, L, delta_b)")


def check_decodability(seed: int = 0) -> CheckResult:
    bad = []
    for k, b in ((4, 2), (5, 3), (6, 4)):
        for delta_b in range(1, b + 1):
            params = core.SystemParams(K=k, N=k, M=k / 2, F=512, B=b, delta_b=delta_b)
            schedule = core.make_random_schedule(k, b, _trial_seeds(seed, delta_b)[2])
            try:
                library, caches, records, result = _bitexact_delivery(
                    params, schedule, seed, delta_b
                )
                for fap in range(1, k + 1):
                    deadline = schedule.deadline_slot(fap, delta_b)
                    decoded = delivery.decode_fap(
                        fap, result.events, library, caches, records,
                        upto_slot=deadline,
                    )
                    if not np.array_equal(decoded, library.file(schedule.demand[fap])):
                        bad.append((k, b, delta_b, fap))
            except FogcodedError as exc:
                bad.append((k, b, delta_b, str(exc)))
    return _verdict("decodability at deadline", bad, "failures")


def check_delay_monotonicity(seed: int = 0) -> CheckResult:
    bad = []
    for trial in range(5):
        schedule = core.make_random_schedule(8, 4, seed * 100 + trial)
        prev = None
        for delta_b in range(1, 5):
            params = core.SystemParams(K=8, N=8, M=2, F=1000, B=4, delta_b=delta_b)
            records = core.analytic_subfile_table(params, schedule)
            load = delivery.run_delivery(schedule, records, params).report.normalized_load
            if prev is not None and load > prev + 1e-9:
                bad.append((trial, delta_b))
            prev = load
    return _verdict("load non-increasing in delta_b", bad, "violations at (trial, delta_b)")


def run_verification(max_k: int = 8, seed: int = 0) -> list[CheckResult]:
    if max_k < 2:
        # below 2 the oracle checks vanish and the grids are empty
        raise InvalidParams(f"verify needs max_k >= 2, got {max_k}")
    _check_seed(seed)
    checks: list[CheckResult] = []
    checks.extend(check_counting_oracle(max_k))
    checks.append(check_schedule_Q(max_k, seed))
    checks.append(check_b_count())
    checks.append(check_sync_equality(min(max_k, 8)))
    checks.append(check_bounds_sandwich(min(max_k, 8)))
    checks.append(check_delivery_closed_form(seed))
    checks.append(check_decodability(seed))
    checks.append(check_delay_monotonicity(seed))
    return checks


# ---------------------------------------------------------------------------
# transmission tables


def format_fap_set(mask: int) -> str:
    return "{" + ",".join(str(k) for k in core.iter_ids(mask)) + "}"


def render_tables(config: ExperimentConfig) -> list[str]:
    """Tab-separated transmission table, one line per enumerated candidate."""
    if config.random_schedule:
        raise InvalidParams("tables need a fixed-L schedule (--l)")
    params = _checked_params(config)
    schedule = core.make_fixed_L_schedule(config.K, config.B, config.L)
    if config.mode == "bitexact":
        result = _bitexact_delivery(params, schedule, config.seed, 0)[-1]
    else:
        records = core.analytic_subfile_table(params, schedule)
        result = delivery.run_delivery(schedule, records, params)
    e = result.events
    lines = ["slot\ts\tchi\tS1\tS2\tcollapsed\tpayload_bits\tcontent"]
    for slot, S, s1, collapsed, included, bits in zip(
        e.slot.tolist(), e.S.tolist(), e.s1.tolist(), e.collapsed.tolist(),
        e.included.tolist(), e.bits.tolist(),
    ):
        content = "^".join(
            f"W[{k},{format_fap_set(S & ~(1 << (k - 1)))}]" for k in core.iter_ids(included)
        )
        lines.append("\t".join([
            str(slot), str(S.bit_count()), str(s1.bit_count()), format_fap_set(s1),
            format_fap_set(S ^ s1), format_fap_set(collapsed),
            str(bits) if included else "0", content or "-",
        ]))
    return lines


# ---------------------------------------------------------------------------
# argument handling


def _read_config_file(path: str) -> dict[str, str]:
    entries: dict[str, str] = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise InvalidParams(f"bad config line (want key=value): {line!r}")
        key, value = line.split("=", 1)
        entries[key.strip().lower().replace("-", "_")] = value.strip()
    return entries


def _comma_list(cast):
    """argparse type for a comma-separated list of `cast` values."""
    def parse(text: str) -> tuple:
        items = tuple(cast(x) for x in text.split(",") if x != "")
        if not items:
            raise argparse.ArgumentTypeError("needs at least one value")
        return items
    parse.__name__ = f"comma-separated {cast.__name__}"
    return parse


# Bare `fogcoded tables` dumps the canonical four-F-AP demo configuration.
TABLES_DEFAULTS = ExperimentConfig(
    K=4, N=4, M=2.0, F=16, B=4, delta_b=2, L=1, mode="analytic", trials=1
)


def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and its subcommand parsers by name.  Each flag
    stores into the ExperimentConfig field of its `dest`."""
    parser = argparse.ArgumentParser(
        prog="fogcoded",
        description="Coded-caching delivery simulator for delayed requests",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, defaults: ExperimentConfig) -> None:
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--k", dest="K", type=int, help="number of F-APs")
        p.add_argument("--n", dest="N", type=int, help="number of files")
        p.add_argument("--m", dest="M", type=float, help="normalized cache size")
        p.add_argument("--f", dest="F", type=int, help="file size in bits")
        p.add_argument("--b", dest="B", type=int, help="number of time slots")
        p.add_argument("--delta-b", dest="delta_b_list", type=_comma_list(int),
                       metavar="DELTA_B",
                       help="maximum request delay in slots (comma list allowed in sweeps)")
        group = p.add_mutually_exclusive_group()
        group.add_argument("--l", dest="L", type=int, help="requesters per slot (fixed-L)")
        group.add_argument("--random", dest="L", action="store_const", const=None,
                           help="random request schedule (default)")
        p.add_argument("--trials", type=int, help="trials per cell")
        p.add_argument("--seed", type=int, help="root seed")
        p.add_argument("--mode", choices=["bitexact", "analytic"])
        p.add_argument("--out", help="output path (- for stdout)")
        p.set_defaults(**asdict(defaults))

    p_sim = sub.add_parser("simulate", help="run one configuration")
    add_common(p_sim, ExperimentConfig())

    p_sweep = sub.add_parser("sweep", help="sweep one axis and emit CSV")
    add_common(p_sweep, ExperimentConfig())
    p_sweep.add_argument("--sweep", choices=["l", "m", "deltab"])
    p_sweep.add_argument("--values", type=_comma_list(float),
                         help="comma-separated sweep values")

    p_verify = sub.add_parser("verify", help="run the invariant suite")
    p_verify.add_argument("--max-k", type=int, default=8)
    p_verify.add_argument("--seed", type=int, default=0)

    p_tables = sub.add_parser("tables", help="dump per-slot transmission tables")
    add_common(p_tables, TABLES_DEFAULTS)
    return parser, sub.choices


def _config_file_defaults(parser: argparse.ArgumentParser, path: str) -> dict:
    """The entries of a config file as defaults of `parser`, keyed by the
    flags' dests; argparse converts them with each flag's own type.  A true
    `random` entry selects a random schedule unless the file also sets `l`."""
    defaults = {}
    for key, value in _read_config_file(path).items():
        action = parser._option_string_actions.get("--" + key.replace("_", "-"))
        if action is None or action.dest in ("help", "config"):
            raise InvalidParams(f"config key {key!r} names no flag of {parser.prog}")
        if key != "random":
            defaults[action.dest] = value
        elif value.lower() in ("1", "true", "yes"):
            defaults.setdefault("L", None)
        elif value.lower() not in ("0", "false", "no"):
            raise InvalidParams(f"config key 'random' wants true or false, got {value!r}")
    return defaults


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    """Flags over config-file entries over the subcommand's defaults."""
    parser, commands = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "config", None):
        command = commands[args.command]
        command.set_defaults(**_config_file_defaults(command, args.config))
        args = parser.parse_args(argv)
    return args


def _experiment_config(args: argparse.Namespace) -> ExperimentConfig:
    """The run configuration of simulate, sweep or tables flags; delta_b is
    the first --delta-b value, or the subcommand's default when none was
    given.  Only sweep takes a list of them."""
    if args.command != "sweep" and len(args.delta_b_list) > 1:
        raise InvalidParams(f"{args.command} takes one --delta-b value, not a list")
    values = {f.name: getattr(args, f.name) for f in fields(ExperimentConfig)}
    if args.delta_b_list:
        values["delta_b"] = args.delta_b_list[0]
    return ExperimentConfig(**values)


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parse_args(argv)
        if args.command == "verify":
            checks = run_verification(max_k=args.max_k, seed=args.seed)
            failed = 0
            for check in checks:
                status = "PASS" if check.ok else ("SKIP" if check.ok is None else "FAIL")
                failed += check.failed
                line = f"{status}  {check.name}"
                if check.detail:
                    line += f"  ({check.detail})"
                print(line)
            print(f"{len(checks) - failed}/{len(checks)} checks passed")
            return 1 if failed else 0
        config = _experiment_config(args)
        if args.command == "simulate":
            row = run_single(config)
            schedule_desc = "random" if config.random_schedule else f"fixed L={config.L}"
            print(
                f"K={config.K} N={config.N} M={config.M} F={config.F} "
                f"B={config.B} delta_b={config.delta_b} schedule={schedule_desc} "
                f"mode={config.mode} trials={config.trials} seed={config.seed}"
            )
            print(f"measured load (worst case): {row.measured_load}")
            print(f"measured load (mean):       {row.mean_load}")
            if row.closed_form_load is not None:
                print(f"closed-form load:           {row.closed_form_load}")
            print(f"bounds:                     [{row.lower_bound}, {row.upper_bound}]")
            print(f"uncoded / synchronous:      {row.uncoded_load} / {row.mn_sync_load}")
            print(f"transmissions:              {row.transmission_count}")
            if row.error:
                print(f"note: {row.error}")
            if config.out:
                write_csv([row], config.out)
            return 0
        if args.command == "sweep":
            write_csv(run_sweep(config), config.out)
            return 0
        lines = render_tables(config)
        if config.out and config.out != "-":
            Path(config.out).write_text("\n".join(lines) + "\n")
        else:
            for line in lines:
                print(line)
        return 0
    except FogcodedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
