"""CLI surface tests: subcommands, config files, CSV contract, verify."""

import csv
import io
import subprocess
import sys
from dataclasses import replace

import pytest

from fogcoded import analytics, cli, core, delivery
from fogcoded.cli import CSV_COLUMNS, ExperimentConfig
from fogcoded.errors import InvalidParams, TooLarge


def read_csv(path):
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


# Byte-for-byte outputs of two bit-exact runs.  Both depend on which bits
# each F-AP caches, through the class lengths, so they pin the
# seed-to-bits mapping of place_caches.
BITEXACT_SIMULATE = (
    "K=8 N=20 M=5.0 F=4096 B=4 delta_b=2 schedule=fixed L=2 mode=bitexact trials=3 seed=5\n"
    "measured load (worst case): 4.141357421875\n"
    "measured load (mean):       4.128092447916667\n"
    "closed-form load:           3.9198760986328125\n"
    "bounds:                     [2.6996612548828125, 5.399322509765625]\n"
    "uncoded / synchronous:      6.0 / 2.6996612548828125\n"
    "transmissions:              465\n"
)

BITEXACT_TABLES = (
    "slot\ts\tchi\tS1\tS2\tcollapsed\tpayload_bits\tcontent\n"
    "2\t4\t1\t{1}\t{2,3,4}\t{1,2}\t0\t-\n"
    "2\t3\t1\t{1}\t{2,3}\t{1,2}\t1\tW[1,{2,3}]^W[2,{1,3}]\n"
    "2\t3\t1\t{1}\t{2,4}\t{1,2}\t0\t-\n"
    "2\t3\t1\t{1}\t{3,4}\t{1}\t0\t-\n"
    "2\t2\t1\t{1}\t{2}\t{1,2}\t1\tW[1,{2}]^W[2,{1}]\n"
    "2\t2\t1\t{1}\t{3}\t{1}\t2\tW[1,{3}]\n"
    "2\t2\t1\t{1}\t{4}\t{1}\t4\tW[1,{4}]\n"
    "2\t1\t1\t{1}\t{}\t{1}\t0\t-\n"
    "3\t4\t1\t{2}\t{1,3,4}\t{2,3}\t0\t-\n"
    "3\t3\t1\t{2}\t{1,3}\t{2,3}\t0\t-\n"
    "3\t3\t1\t{2}\t{1,4}\t{2}\t3\tW[2,{1,4}]\n"
    "3\t3\t1\t{2}\t{3,4}\t{2,3}\t2\tW[2,{3,4}]^W[3,{2,4}]\n"
    "3\t2\t1\t{2}\t{1}\t{2}\t0\t-\n"
    "3\t2\t1\t{2}\t{3}\t{2,3}\t1\tW[2,{3}]\n"
    "3\t2\t1\t{2}\t{4}\t{2}\t0\t-\n"
    "3\t1\t1\t{2}\t{}\t{2}\t0\t-\n"
    "4\t4\t2\t{3,4}\t{1,2}\t{3,4}\t2\tW[3,{1,2,4}]^W[4,{1,2,3}]\n"
    "4\t3\t1\t{3}\t{1,2}\t{3}\t3\tW[3,{1,2}]\n"
    "4\t3\t1\t{4}\t{1,2}\t{4}\t2\tW[4,{1,2}]\n"
    "4\t3\t2\t{3,4}\t{1}\t{3,4}\t1\tW[3,{1,4}]\n"
    "4\t3\t2\t{3,4}\t{2}\t{3,4}\t1\tW[4,{2,3}]\n"
    "4\t2\t1\t{3}\t{1}\t{3}\t1\tW[3,{1}]\n"
    "4\t2\t1\t{3}\t{2}\t{3}\t0\t-\n"
    "4\t2\t1\t{4}\t{1}\t{4}\t0\t-\n"
    "4\t2\t1\t{4}\t{2}\t{4}\t0\t-\n"
    "4\t2\t2\t{3,4}\t{}\t{3,4}\t1\tW[4,{3}]\n"
    "4\t1\t1\t{3}\t{}\t{3}\t1\tW[3,{}]\n"
    "4\t1\t1\t{4}\t{}\t{4}\t2\tW[4,{}]\n"
)


class TestSimulate:
    def test_demo_run(self, capsys):
        rc = cli.main([
            "simulate", "--k", "4", "--n", "4", "--m", "2", "--f", "16",
            "--b", "4", "--delta-b", "2", "--l", "1",
            "--mode", "analytic", "--trials", "2", "--seed", "0",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "measured load (worst case): 1.4375" in out
        assert "closed-form load:           1.4375" in out

    def test_bitexact_output_pinned(self, capsys):
        assert cli.main([
            "simulate", "--mode", "bitexact", "--k", "8", "--b", "4", "--l", "2",
            "--f", "4096", "--trials", "3", "--seed", "5",
        ]) == 0
        assert capsys.readouterr().out == BITEXACT_SIMULATE

    def test_full_delay_matches_sync_baseline(self):
        row = cli.run_single(ExperimentConfig(
            K=4, N=4, M=2.0, F=16, B=4, delta_b=4, L=1,
            mode="analytic", trials=1, seed=0,
        ))
        assert row.measured_load == pytest.approx(row.mn_sync_load, rel=1e-12)

    def test_shape_error_exit_code(self, capsys):
        rc = cli.main([
            "simulate", "--k", "5", "--b", "3", "--l", "2", "--n", "20",
            "--m", "5", "--delta-b", "1",
        ])
        assert rc == 2
        assert "K = B*L" in capsys.readouterr().err

    def test_bitexact_file_size_guard(self, capsys):
        rc = cli.main([
            "simulate", "--k", "4", "--n", "4", "--m", "2", "--b", "4",
            "--delta-b", "2", "--l", "1", "--mode", "bitexact",
            "--f", "1000000000", "--trials", "1",
        ])
        assert rc == 2
        assert "analytic" in capsys.readouterr().err

    def test_delivery_size_checked_before_placement(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("placement ran before the size check")

        monkeypatch.setattr(core, "place_caches", fail)
        with pytest.raises(TooLarge):
            cli.run_single(ExperimentConfig(
                K=17, N=17, M=4.0, F=200_000, B=5, delta_b=2, L=None,
                mode="bitexact", trials=1, seed=0,
            ))

    def test_negative_seed_rejected_before_any_trial(self, monkeypatch, capsys):
        def fail(*args, **kwargs):
            raise AssertionError("a schedule was drawn before the seed check")

        monkeypatch.setattr(core, "make_random_schedule", fail)
        with pytest.raises(InvalidParams, match="seed"):
            cli.run_single(ExperimentConfig(seed=-1))
        assert cli.main(["simulate", "--seed", "-1"]) == 2
        assert "error: seed must be >= 0" in capsys.readouterr().err

    def test_analytic_load_is_counted_not_simulated(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("analytic trial ran the delivery engine")

        monkeypatch.setattr(delivery, "run_delivery", fail)
        monkeypatch.setattr(core, "analytic_subfile_table", fail)
        for b, l, delta_b in ((4, 2, 2), (5, 3, 3), (6, 2, 1)):
            row = cli.run_single(ExperimentConfig(
                K=b * l, N=20, M=5.0, F=10_000, B=b, delta_b=delta_b, L=l,
                mode="analytic", trials=3, seed=1,
            ))
            assert row.measured_load == row.closed_form_load

    def test_worst_case_at_least_mean(self):
        row = cli.run_single(ExperimentConfig(
            K=8, N=16, M=4.0, F=1000, B=4, delta_b=2, L=None,
            mode="analytic", trials=10, seed=3,
        ))
        assert row.measured_load >= row.mean_load


class TestSweep:
    def test_csv_contract_and_determinism(self, tmp_path):
        args = [
            "sweep", "--sweep", "m", "--values", "5,10,15",
            "--delta-b", "1,3", "--trials", "2", "--seed", "7",
        ]
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.main(args + ["--out", str(p1)]) == 0
        assert cli.main(args + ["--out", str(p2)]) == 0
        assert p1.read_bytes() == p2.read_bytes()
        text = p1.read_text()
        assert "\r" not in text
        rows = read_csv(p1)
        assert list(rows[0].keys()) == CSV_COLUMNS
        assert len(rows) == 6  # 3 values x 2 delta_b
        for row in rows:
            assert float(row["lower_bound"]) <= float(row["upper_bound"])
            measured = float(row["measured_load"])
            assert float(row["lower_bound"]) <= measured * (1 + 1e-9)
            assert measured <= float(row["upper_bound"]) * (1 + 1e-9)

    def test_load_decreases_with_cache_size(self, tmp_path):
        out = tmp_path / "m.csv"
        cli.main([
            "sweep", "--sweep", "m", "--values", "4,8,12,16",
            "--delta-b", "2", "--trials", "5", "--seed", "0",
            "--out", str(out),
        ])
        loads = [float(r["measured_load"]) for r in read_csv(out)]
        assert all(a >= b for a, b in zip(loads, loads[1:]))

    def test_load_non_increasing_in_delay(self, tmp_path):
        out = tmp_path / "d.csv"
        cli.main([
            "sweep", "--sweep", "deltab", "--values", "1,2,3,4,5",
            "--trials", "4", "--seed", "2", "--out", str(out),
        ])
        loads = [float(r["measured_load"]) for r in read_csv(out)]
        assert all(a >= b - 1e-9 for a, b in zip(loads, loads[1:]))

    def test_sublinear_growth_in_l(self, tmp_path):
        out = tmp_path / "l.csv"
        cli.main([
            "sweep", "--sweep", "l", "--values", "1,2,3", "--b", "3",
            "--n", "100", "--m", "30", "--delta-b", "2",
            "--mode", "analytic", "--trials", "2", "--seed", "0",
            "--out", str(out),
        ])
        rows = read_csv(out)
        measured = [float(r["measured_load"]) for r in rows]
        uncoded = [float(r["uncoded_load"]) for r in rows]
        # coded load climbs by less than the uncoded load as L grows
        assert measured[-1] - measured[0] < uncoded[-1] - uncoded[0]
        assert all(m <= u * (1 + 1e-9) for m, u in zip(measured, uncoded))

    def test_partial_failure_row(self, tmp_path):
        # An M value at the cache-capacity boundary cannot run; the row is
        # kept with its error note and the sweep continues.
        out = tmp_path / "err.csv"
        rc = cli.main([
            "sweep", "--sweep", "m", "--values", "5,20", "--delta-b", "1",
            "--trials", "1", "--seed", "0", "--out", str(out),
        ])
        assert rc == 0
        rows = read_csv(out)
        assert rows[0]["error"] == "" and rows[0]["measured_load"] != ""
        assert rows[1]["error"] != "" and rows[1]["measured_load"] == ""

    def test_needs_axis_and_values(self, capsys):
        assert cli.main(["sweep", "--values", "1,2"]) == 2
        assert cli.main(["sweep", "--sweep", "m"]) == 2

    @pytest.mark.parametrize("axis, values, bad", [
        ("deltab", (1.7, 2.2), "1.7"), ("l", (1.0, 2.5), "2.5"),
    ])
    def test_non_integer_values_rejected_before_any_cell(
        self, monkeypatch, axis, values, bad
    ):
        def fail(*args, **kwargs):
            raise AssertionError("a sweep cell ran")

        monkeypatch.setattr(cli, "run_single", fail)
        config = ExperimentConfig(B=3, sweep=axis, values=values)
        with pytest.raises(InvalidParams, match=bad):
            cli.run_sweep(config)

    def test_non_integer_values_exit_2(self, capsys):
        args = ["sweep", "--sweep", "deltab", "--values", "1.7,2.2"]
        assert cli.main(args) == 2
        assert "1.7" in capsys.readouterr().err


class TestConfigFile:
    def test_file_plus_override(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# demo configuration\n"
            "k=4\nn=4\nm=2\nf=16\nb=4\ndelta-b=4\nl=1\n"
            "mode=analytic\ntrials=1\nseed=0\n"
        )
        rc = cli.main(["simulate", "--config", str(cfg)])
        assert rc == 0
        assert "0.9375" in capsys.readouterr().out
        # flags override file entries
        rc = cli.main(["simulate", "--config", str(cfg), "--delta-b", "2"])
        assert rc == 0
        assert "1.4375" in capsys.readouterr().out

    def test_random_toggle(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("random=true\nk=6\nb=3\nn=6\nm=3\ntrials=2\nseed=1\n")
        merged = cli._experiment_config(
            cli._parse_args(["simulate", "--config", str(cfg)])
        )
        assert merged.random_schedule

    def test_bad_line_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("k 4\n")
        assert cli.main(["simulate", "--config", str(cfg)]) == 2

    def test_precedence(self, tmp_path):
        # flags over file entries over the subcommand's defaults
        cfg = tmp_path / "run.cfg"
        cfg.write_text("k=6\nb=3\nl=2\ndelta-b=1,3\n")
        config = cli._experiment_config(cli._parse_args(
            ["sweep", "--config", str(cfg), "--b", "2", "--random"]
        ))
        assert (config.K, config.B, config.L) == (6, 2, None)
        assert (config.delta_b, config.delta_b_list) == (1, (1, 3))
        assert (config.N, config.trials) == (20, 50)
        cfg.write_text("random=true\nk=8\nb=4\n")
        config = cli._experiment_config(cli._parse_args(
            ["tables", "--config", str(cfg), "--l", "2"]
        ))
        assert (config.K, config.B, config.L, config.N) == (8, 4, 2, 4)

    @pytest.mark.parametrize("line, key", [("delta=3", "'delta'"), ("random=maybe", "'maybe'")])
    def test_unknown_key_or_random_value_rejected(self, tmp_path, capsys, line, key):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        assert cli.main(["simulate", "--config", str(cfg)]) == 2
        assert key in capsys.readouterr().err


class TestMalformedInput:
    @pytest.mark.parametrize("argv, flag", [
        (["simulate", "--delta-b", "x"], "--delta-b"),
        (["sweep", "--sweep", "m", "--values", "a,b"], "--values"),
        (["simulate", "--delta-b", ","], "--delta-b"),
    ])
    def test_bad_flag_value_exits_2(self, capsys, argv, flag):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "error:" in err and flag in err

    def test_bad_config_value_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("k=abc\n")
        with pytest.raises(SystemExit) as exc:
            cli.main(["simulate", "--config", str(cfg)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "error:" in err and "'abc'" in err


class TestDelayLists:
    # Only the l and m sweeps run one cell per --delta-b value; everywhere
    # else a list would be cut to its first value.
    @pytest.fixture
    def no_schedule(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("a schedule was drawn before the --delta-b check")

        monkeypatch.setattr(core, "make_random_schedule", fail)
        monkeypatch.setattr(core, "make_fixed_L_schedule", fail)

    @pytest.mark.parametrize("command", ["simulate", "tables"])
    def test_flag_list_outside_sweep_exits_2(self, no_schedule, capsys, command):
        assert cli.main([command, "--delta-b", "1,3"]) == 2
        assert f"error: {command} takes one --delta-b value" in capsys.readouterr().err

    def test_config_file_list_outside_sweep_exits_2(self, no_schedule, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("delta_b=1,3\n")
        assert cli.main(["simulate", "--config", str(cfg)]) == 2
        assert "error: simulate takes one --delta-b value" in capsys.readouterr().err

    def test_list_on_deltab_axis_exits_2(self, no_schedule, capsys):
        args = ["sweep", "--sweep", "deltab", "--values", "1,2", "--delta-b", "1,2"]
        assert cli.main(args) == 2
        assert "--sweep deltab takes its delays from --values" in capsys.readouterr().err
        with pytest.raises(InvalidParams, match="--values"):
            cli.run_sweep(ExperimentConfig(sweep="deltab", values=(1, 2), delta_b_list=(1, 2)))

    def test_single_value_on_deltab_axis_exits_2(self, no_schedule, tmp_path, capsys):
        # one explicit value, by flag or config line, is not silently dropped
        cfg = tmp_path / "run.cfg"
        cfg.write_text("delta_b=3\n")
        for extra in (["--delta-b", "3"], ["--config", str(cfg)]):
            assert cli.main(["sweep", "--sweep", "deltab", "--values", "1,2", *extra]) == 2
            assert "--sweep deltab takes its delays from --values" in capsys.readouterr().err


class TestTables:
    def test_default_demo_counts(self, capsys):
        assert cli.main(["tables"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].split("\t") == [
            "slot", "s", "chi", "S1", "S2", "collapsed", "payload_bits", "content",
        ]
        body = [line.split("\t") for line in lines[1:]]
        sent = [row for row in body if row[7] != "-"]
        assert len(body) == 28
        assert len(sent) == 23
        assert lines[1] == (
            "2\t4\t1\t{1}\t{2,3,4}\t{1,2}\t1.0\tW[1,{2,3,4}]^W[2,{1,3,4}]"
        )

    def test_underflowed_entries_are_still_sent(self, capsys):
        # At M=1e-120 the type-4 sizes underflow to 0.0, yet those entries
        # exist: every send decision is the demo's and only the payload
        # lengths change.
        assert cli.main(["tables"]) == 0
        demo = capsys.readouterr().out.strip().splitlines()
        assert cli.main([
            "tables", "--k", "4", "--n", "4", "--m", "1e-120", "--f", "16",
            "--b", "4", "--l", "1", "--delta-b", "2",
        ]) == 0
        tiny = capsys.readouterr().out.strip().splitlines()
        assert len(tiny) == len(demo)
        payloads = []
        for got, want in zip(tiny, demo):
            got, want = got.split("\t"), want.split("\t")
            assert got[:6] + got[7:] == want[:6] + want[7:]
            payloads.append(got[6])
        assert payloads[1:] == [
            "0.0", "1e-240", "1e-240", "1e-240", "4e-120", "4e-120", "4e-120", "16.0",
            "0", "0", "0", "1e-240", "0", "4e-120", "4e-120", "16.0",
            "0.0", "1e-240", "1e-240", "1e-240", "1e-240", "4e-120", "0", "4e-120",
            "4e-120", "4e-120", "16.0", "16.0",
        ]

    def test_bitexact_number_formats(self, capsys):
        # bit-exact payload lengths are bit counts: a sent row prints an
        # integer, a skipped row 0 and no content
        assert cli.main(["tables", "--mode", "bitexact"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        body = [line.split("\t") for line in lines[1:]]
        sent = [row[6] for row in body if row[7] != "-"]
        skipped = [row[6] for row in body if row[7] == "-"]
        assert sent and skipped
        assert all(bits.isdigit() and bits != "0" for bits in sent)
        assert set(skipped) == {"0"}

    def test_bitexact_output_pinned(self, capsys):
        assert cli.main(["tables", "--mode", "bitexact"]) == 0
        assert capsys.readouterr().out == BITEXACT_TABLES

    def test_random_schedule_rejected(self, capsys):
        assert cli.main(["tables", "--random"]) == 2

    def test_bitexact_file_size_guard(self, monkeypatch, capsys):
        def fail(*args, **kwargs):
            raise AssertionError("library generated before the size check")

        monkeypatch.setattr(core, "generate_library", fail)
        assert cli.main(["tables", "--mode", "bitexact", "--f", "1000000000"]) == 2
        assert "analytic" in capsys.readouterr().err


    def test_negative_seed_rejected_before_library(self, monkeypatch, capsys):
        def fail(*args, **kwargs):
            raise AssertionError("library generated before the seed check")

        monkeypatch.setattr(core, "generate_library", fail)
        with pytest.raises(InvalidParams, match="seed"):
            cli.render_tables(replace(cli.TABLES_DEFAULTS, mode="bitexact", seed=-1))
        assert cli.main(["tables", "--mode", "bitexact", "--seed", "-1"]) == 2
        assert "error: seed must be >= 0" in capsys.readouterr().err


class TestVerify:
    def test_all_checks_pass(self, capsys):
        rc = cli.main(["verify", "--max-k", "6"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "FAIL" not in out
        assert "checks passed" in out

    @pytest.mark.parametrize("max_k", [1, 0, -3])
    def test_max_k_below_two_rejected(self, capsys, max_k):
        with pytest.raises(InvalidParams, match="max_k"):
            cli.run_verification(max_k=max_k)
        assert cli.main(["verify", "--max-k", str(max_k)]) == 2
        assert "checks passed" not in capsys.readouterr().out

    def test_negative_seed_rejected_before_any_check(self, monkeypatch, capsys):
        def fail(*args, **kwargs):
            raise AssertionError("a check ran before the seed check")

        monkeypatch.setattr(cli, "check_counting_oracle", fail)
        with pytest.raises(InvalidParams, match="seed"):
            cli.run_verification(seed=-1)
        assert cli.main(["verify", "--seed", "-1"]) == 2
        assert "error: seed must be >= 0" in capsys.readouterr().err

    def test_too_large_request_is_skipped_and_reported(self):
        results = cli.check_counting_oracle(shapes=[(25, 1)])
        assert len(results) == 1
        assert results[0].ok is None
        assert "TooLarge" in results[0].detail

    def test_moved_q_split_fails_counting_oracle(self, monkeypatch):
        # moving sets between two subset counts keeps sum_Y q = C(K, s)
        original = analytics.q_count

        def moved(s, Y, config):
            shift = {1: -1, 2: 1}.get(Y, 0) if (s, config.delta_b) == (2, 2) else 0
            return original(s, Y, config) + shift

        monkeypatch.setattr(analytics, "q_count", moved)
        [result] = cli.check_counting_oracle(shapes=[(4, 1)])
        assert result.ok is False
        assert "('q', 2, 2)" in result.detail and "sum_q" not in result.detail

    def test_off_by_one_schedule_Q_fails_its_check(self, monkeypatch, capsys):
        original = analytics.schedule_Q

        def off_by_one(schedule, delta_b):
            Q = original(schedule, delta_b)
            return Q[:-1] + [Q[-1] + 1]

        monkeypatch.setattr(analytics, "schedule_Q", off_by_one)
        assert cli.check_schedule_Q(max_k=4).ok is False
        assert cli.main(["verify", "--max-k", "4"]) == 1
        assert "FAIL  schedule-Q oracle" in capsys.readouterr().out

    def test_halved_delivery_load_fails_closed_form_check(self, monkeypatch):
        original = delivery.run_delivery

        def halved(*args):
            result = original(*args)
            result.report.normalized_load /= 2
            return result

        monkeypatch.setattr(delivery, "run_delivery", halved)
        result = cli.check_delivery_closed_form(seed=0)
        assert result.ok is False
        assert "(3, 1, 1)" in result.detail

    def test_inverted_skip_rule_fails_decodability_check(self, monkeypatch):
        from fogcoded import delivery

        original = delivery.should_transmit
        monkeypatch.setattr(
            delivery, "should_transmit", lambda *a: ~original(*a)
        )
        result = cli.check_decodability(seed=0)
        assert result.ok is False

    def test_console_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "fogcoded.cli", "simulate", "--k", "4",
             "--n", "4", "--m", "2", "--f", "16", "--b", "4", "--delta-b", "2",
             "--l", "1", "--trials", "1", "--mode", "analytic"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "1.4375" in proc.stdout

    def test_no_masked_array_import(self):
        # numpy.ma is slow to import, and no command needs it
        code = (
            "import sys\n"
            "from fogcoded import cli\n"
            "assert cli.main(['verify', '--max-k', '4']) == 0\n"
            "for mode in ('analytic', 'bitexact'):\n"
            "    assert cli.main(['simulate', '--k', '6', '--b', '3', '--random',"
            " '--trials', '3', '--mode', mode, '--f', '64']) == 0\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "False"
