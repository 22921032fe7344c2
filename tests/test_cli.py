"""CLI surface tests: subcommands, config files, CSV contract, verify."""

import csv
import io
import subprocess
import sys

import pytest

from fogcoded import cli, core, delivery
from fogcoded.cli import CSV_COLUMNS, ExperimentConfig
from fogcoded.errors import TooLarge


def read_csv(path):
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


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
        merged = cli._merge_config(
            cli._build_parser().parse_args(["simulate", "--config", str(cfg)])
        )
        assert merged.random_schedule

    def test_bad_line_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("k 4\n")
        assert cli.main(["simulate", "--config", str(cfg)]) == 2


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

    def test_random_schedule_rejected(self, capsys):
        assert cli.main(["tables", "--random"]) == 2

    def test_bitexact_file_size_guard(self, monkeypatch, capsys):
        def fail(*args, **kwargs):
            raise AssertionError("library generated before the size check")

        monkeypatch.setattr(core, "generate_library", fail)
        assert cli.main(["tables", "--mode", "bitexact", "--f", "1000000000"]) == 2
        assert "analytic" in capsys.readouterr().err


class TestVerify:
    def test_all_checks_pass(self, capsys):
        rc = cli.main(["verify", "--max-k", "6"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "FAIL" not in out
        assert "checks passed" in out

    def test_too_large_request_is_skipped_and_reported(self):
        results = cli.check_counting_oracle(shapes=[(25, 1)])
        assert len(results) == 1
        assert results[0].ok is None
        assert "TooLarge" in results[0].detail

    def test_inverted_skip_rule_fails_decodability_check(self, monkeypatch):
        from fogcoded import delivery

        original = delivery.should_transmit
        monkeypatch.setattr(
            delivery, "should_transmit", lambda *a: not original(*a)
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
