"""CLI surface tests: subcommands, config files, CSV contract, verify."""

import csv
import io
import math
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

    @staticmethod
    def printed_loads(capsys, m):
        """(worst case, lower, upper, uncoded) printed by a default simulate."""
        assert cli.main(["simulate", "--m", m]) == 0
        lines = dict(line.split(":", 1) for line in capsys.readouterr().out.splitlines()[1:])
        lower, upper = map(float, lines["bounds"].strip(" []").split(","))
        uncoded = float(lines["uncoded / synchronous"].split("/")[0])
        return float(lines["measured load (worst case)"]), lower, upper, uncoded

    def test_tiny_cache_keeps_the_bounds_ordered(self, capsys):
        # at M/N = 2.25e-308 the chain's load rounded an ulp past the uncoded
        # load; it is capped there, as the synchronous baseline is
        for m in ("1e-9", "4.5e-307"):
            worst, lower, upper, uncoded = self.printed_loads(capsys, m)
            assert lower <= upper <= uncoded
            assert worst <= upper

    def test_vanishing_cache_loads_everything(self, capsys):
        # M/N = 5e-18: nearly every bit is missing, so the load is about K
        worst = self.printed_loads(capsys, "1e-16")[0]
        assert worst == pytest.approx(10.0, rel=1e-12, abs=0)

    def test_subnormal_cache_ratio_rejected_before_any_trial(self, monkeypatch, capsys):
        # M/N = 5e-309: (1 - p)/p and N/(K*M) would overflow to inf
        def fail(*args, **kwargs):
            raise AssertionError("a trial ran before the cache-ratio check")

        monkeypatch.setattr(cli, "_one_trial", fail)
        monkeypatch.setattr(analytics, "schedule_load", fail)
        assert cli.main(["simulate", "--m", "1e-307"]) == 2
        assert f"need M/N >= {sys.float_info.min}" in capsys.readouterr().err

    def test_smallest_normal_cache_ratio_is_finite_and_ordered(self, capsys):
        # M/N = 5e-308, just above the floor: the synchronous baseline rounds
        # to the uncoded load, never past it
        worst, lower, upper, uncoded = self.printed_loads(capsys, "1e-306")
        assert math.isfinite(worst)
        assert lower <= upper <= uncoded

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

    def test_file_size_cap_is_too_large(self):
        config = ExperimentConfig(mode="bitexact", F=cli.BITEXACT_MAX_F + 1)
        with pytest.raises(TooLarge, match=f"F <= {cli.BITEXACT_MAX_F}"):
            cli._checked_params(config)

    @pytest.mark.parametrize("m, quota", [("0.001", 0), ("3.999", 100)])
    def test_bitexact_degenerate_quota_rejected(self, capsys, m, quota):
        # round(M*F/N) = round(0.025) = 0 and round(99.975) = F: the caches
        # would hold none or all of each file while the bounds take p = M/N,
        # so the measured load fell outside its own bounds
        argv = ["simulate", "--mode", "bitexact", "--k", "4", "--b", "4",
                "--f", "100", "--m", m, "--n", "4"]
        for schedule in (["--l", "1"], ["--random"]):
            assert cli.main(argv + schedule) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert f"needs 0 < round(M*F/N) < F, got {quota} with F = 100" in captured.err

    def test_degenerate_quota_checked_before_placement(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("placement ran before the quota check")

        monkeypatch.setattr(core, "place_caches", fail)
        for M in (0.001, 3.999):
            with pytest.raises(InvalidParams, match=r"round\(M\*F/N\)"):
                cli.run_single(ExperimentConfig(
                    K=4, N=4, M=M, F=100, B=4, delta_b=2, L=1,
                    mode="bitexact", trials=1, seed=0,
                ))

    def test_delivery_size_checked_before_placement(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("placement ran before the size check")

        monkeypatch.setattr(core, "place_caches", fail)
        with pytest.raises(TooLarge):
            cli.run_single(ExperimentConfig(
                K=17, N=17, M=4.0, F=200_000, B=5, delta_b=2, L=None,
                mode="bitexact", trials=1, seed=0,
            ))

    def test_analytic_runs_past_the_engine_cap(self):
        # analytic runs count, so only bit-exact runs keep K <= 16
        for L in (None, 2):
            row = cli.run_single(ExperimentConfig(
                K=40, N=80, M=20.0, F=1000, B=20, delta_b=3, L=L,
                mode="analytic", trials=4, seed=2,
            ))
            assert row.lower_bound <= row.measured_load <= row.upper_bound

    def test_analytic_k_cap_both_sides(self, monkeypatch, capsys):
        k = cli.ANALYTIC_MAX_K
        argv = ["simulate", "--n", str(2 * k + 2), "--m", "5000", "--delta-b", "7",
                "--trials", "1"]
        assert cli.main([*argv, "--k", str(k), "--b", str(k // 10), "--l", "10"]) == 0
        count = capsys.readouterr().out.split("transmissions:")[1].split()[0]
        assert count.isdigit() and len(count) > 3000

        def fail(*args, **kwargs):
            raise AssertionError("a schedule was drawn before the K check")

        monkeypatch.setattr(core, "make_random_schedule", fail)
        monkeypatch.setattr(analytics, "schedule_load", fail)
        for shape in (["--b", "1000", "--random"], ["--b", "73", "--l", "137"]):
            assert cli.main([*argv, "--k", str(k + 1), *shape]) == 2
            assert f"K <= {k}" in capsys.readouterr().err

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
        monkeypatch.setattr(core, "make_fixed_L_schedule", fail)
        for b, l, delta_b in ((4, 2, 2), (5, 3, 3), (6, 2, 1)):
            row = cli.run_single(ExperimentConfig(
                K=b * l, N=20, M=5.0, F=10_000, B=b, delta_b=delta_b, L=l,
                mode="analytic", trials=3, seed=1,
            ))
            assert row.measured_load == row.closed_form_load

    def test_fixed_l_analytic_mean_is_its_one_load(self, capsys):
        argv = ["simulate", "--k", "8", "--b", "4", "--l", "2", "--delta-b", "2",
                "--trials", "3", "--mode", "analytic"]
        assert cli.main(argv) == 0
        out = capsys.readouterr().out
        for line in ("worst case): ", "(mean):       ", "closed-form load:           "):
            assert f"{line}3.9198760986328125\n" in out, line

    def test_worst_case_at_least_mean(self):
        row = cli.run_single(ExperimentConfig(
            K=8, N=16, M=4.0, F=1000, B=4, delta_b=2, L=None,
            mode="analytic", trials=10, seed=3,
        ))
        assert row.measured_load >= row.mean_load

    def test_bitexact_load_above_its_bound_says_why(self, capsys):
        # at delta_b = B the bounds meet, so any zero padding passes them
        shape = ["--k", "6", "--b", "3", "--l", "2", "--delta-b", "3", "--f", "2000"]
        assert cli.main(["simulate", "--mode", "bitexact", *shape, "--trials", "2"]) == 0
        out = capsys.readouterr().out
        assert "measured load (worst case): 2.5875\n" in out
        assert "bounds:                     [2.466064453125, 2.466064453125]\n" in out
        [note] = [line for line in out.splitlines() if line.startswith("note: ")]
        assert "above the upper bound" in note
        assert "F*f(s)" in note and "longest operand" in note
        # the note is printed only: the CSV error column stays empty
        row = cli.run_single(ExperimentConfig(
            K=6, N=20, M=5.0, F=2000, B=3, delta_b=3, L=2, mode="bitexact", trials=2,
        ))
        assert row.measured_load > row.upper_bound and row.error == ""

    @pytest.mark.parametrize("argv", [
        ["--mode", "analytic", "--k", "6", "--b", "3", "--l", "2", "--delta-b", "3"],
        ["--mode", "bitexact", "--k", "8", "--b", "4", "--l", "2", "--f", "4096",
         "--trials", "3", "--seed", "5"],
    ], ids=["analytic", "bitexact-within-bounds"])
    def test_load_within_its_bounds_prints_no_note(self, capsys, argv):
        assert cli.main(["simulate", *argv]) == 0
        lines = capsys.readouterr().out.splitlines()
        loads = dict(line.split(":", 1) for line in lines[1:])
        upper = float(loads["bounds"].strip(" []").split(",")[1])
        assert float(loads["measured load (worst case)"]) <= upper
        assert not any(line.startswith("note:") for line in lines)

    def test_analytic_counts_stay_printable(self):
        # an analytic count is below K * 2^K, so at K = ANALYTIC_MAX_K it has
        # at most this many digits; str() refuses an int with more than the
        # interpreter's limit (none before Python 3.10.7, or when set to 0)
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if limit == 0:
            pytest.skip("this interpreter prints ints of any length")
        k = cli.ANALYTIC_MAX_K
        digits = math.floor(math.log10(k) + k * math.log10(2)) + 1
        assert digits < limit, (k, digits, limit)


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

    def test_degenerate_quota_is_an_error_row(self, tmp_path):
        out = tmp_path / "quota.csv"
        rc = cli.main([
            "sweep", "--sweep", "m", "--values", "0.001,2,3.999", "--mode", "bitexact",
            "--k", "4", "--b", "4", "--l", "1", "--f", "100", "--n", "4",
            "--trials", "1", "--out", str(out),
        ])
        assert rc == 0
        rows = read_csv(out)
        assert [row["error"] != "" for row in rows] == [True, False, True]
        for row in (rows[0], rows[2]):
            assert "round(M*F/N)" in row["error"] and row["measured_load"] == ""

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


class TestPaths:
    # A bad --out or --config path exits 2 with `error:`; a bad --out is
    # refused before anything runs.
    @pytest.fixture
    def no_run(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("ran before the --out check")

        for name in ("run_single", "run_sweep", "render_tables"):
            monkeypatch.setattr(cli, name, fail)

    @pytest.mark.parametrize("command, name", [("simulate", "x.csv"), ("tables", "t.txt")])
    def test_out_in_a_missing_directory(self, no_run, tmp_path, capsys, command, name):
        out = tmp_path / "missing" / name
        assert cli.main([command, "--out", str(out)]) == 2
        assert f"error: --out {out}: {out.parent} is not a directory" in capsys.readouterr().err

    def test_out_is_a_directory(self, no_run, tmp_path, capsys):
        assert cli.main(["sweep", "--sweep", "m", "--values", "2,5", "--out", str(tmp_path)]) == 2
        assert f"error: --out {tmp_path} is a directory" in capsys.readouterr().err

    def test_write_failure_exits_2(self, monkeypatch, tmp_path, capsys):
        def full(rows, path):
            raise OSError(28, "No space left on device", path)

        monkeypatch.setattr(cli, "write_csv", full)
        assert cli.main(["simulate", "--trials", "1", "--out", str(tmp_path / "x.csv")]) == 2
        assert "error: [Errno 28] No space left on device" in capsys.readouterr().err

    def test_refused_run_leaves_out_untouched(self, tmp_path):
        out = tmp_path / "x.csv"
        out.write_text("kept\n")
        assert cli.main(["simulate", "--trials", "0", "--out", str(out)]) == 2
        assert out.read_text() == "kept\n"

    def test_missing_config(self, tmp_path, capsys):
        cfg = tmp_path / "none.cfg"
        assert cli.main(["simulate", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(cfg) in err

    def test_config_is_a_directory(self, tmp_path, capsys):
        assert cli.main(["simulate", "--config", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(tmp_path) in err

    def test_config_that_is_not_text(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"k=4\n\xff\xfe\n")
        assert cli.main(["simulate", "--config", str(cfg)]) == 2
        assert f"error: config file {cfg} is not text" in capsys.readouterr().err


class TestWritePath:
    # --out PATH writes to PATH; - or an empty value writes to stdout, the
    # same for every subcommand.
    SWEEP = ["sweep", "--sweep", "m", "--values", "2,5", "--trials", "2"]

    def test_empty_out_sweep_writes_stdout(self, capsys):
        assert cli.main(self.SWEEP) == 0
        plain = capsys.readouterr()
        assert plain.out.startswith(",".join(CSV_COLUMNS) + "\n")
        assert cli.main([*self.SWEEP, "--out", ""]) == 0
        assert capsys.readouterr() == plain

    def test_write_csv_file_matches_stdout(self, tmp_path, capsys):
        rows = cli.run_sweep(ExperimentConfig(sweep="m", values=(2.0, 5.0), trials=2))
        out = tmp_path / "rows.csv"
        cli.write_csv(rows, str(out))
        for path in (None, "", "-"):
            assert cli.write_csv(rows, path) is None
            assert capsys.readouterr().out.encode() == out.read_bytes()

    def test_closed_pipe_exits_2(self):
        # the reader takes one line of about 24,000 and goes: a later write
        # to the pipe fails, and the CLI says so
        argv = ["tables", "--k", "12", "--n", "12", "--m", "3", "--b", "6", "--l", "2"]
        with subprocess.Popen([sys.executable, "-m", "fogcoded.cli", *argv], text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            try:
                assert proc.stdout.readline().startswith("slot\t")
                proc.stdout.close()
                assert proc.wait(timeout=60) == 2
                assert "error: [Errno 32] Broken pipe" in proc.stderr.read()
            finally:
                proc.kill()

    def test_tables_file_matches_stdout(self, tmp_path, capsys):
        assert cli.main(["tables", "--mode", "bitexact"]) == 0
        printed = capsys.readouterr().out
        out = tmp_path / "t.txt"
        assert cli.main(["tables", "--mode", "bitexact", "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert out.read_bytes() == printed.encode()


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

    def test_random_schedule_rejected(self, capsys):
        assert cli.main(["tables", "--random"]) == 2

    def test_bitexact_file_size_guard(self, monkeypatch, capsys):
        def fail(*args, **kwargs):
            raise AssertionError("library generated before the size check")

        monkeypatch.setattr(core, "generate_library", fail)
        assert cli.main(["tables", "--mode", "bitexact", "--f", "1000000000"]) == 2
        assert "analytic" in capsys.readouterr().err

    def test_bitexact_degenerate_quota_rejected(self, capsys):
        assert cli.main(["tables", "--mode", "bitexact", "--m", "0.001"]) == 2
        assert "got 0 with F = 16" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["analytic", "bitexact"])
    def test_engine_cap_checked_before_any_table(self, monkeypatch, capsys, mode):
        def fail(*args, **kwargs):
            raise AssertionError("a record table was built before the K check")

        monkeypatch.setattr(core, "analytic_subfile_table", fail)
        monkeypatch.setattr(core, "generate_library", fail)
        argv = ["tables", "--k", "17", "--n", "17", "--b", "17", "--l", "1", "--mode", mode]
        assert cli.main(argv) == 2
        assert "K must be <= 16" in capsys.readouterr().err
        with pytest.raises(TooLarge):
            cli.render_tables(replace(cli.TABLES_DEFAULTS, K=17, N=17, B=17, mode=mode))

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

    @pytest.mark.parametrize("check", [
        cli.check_window_chain, cli.check_delivery_closed_form,
        cli.check_decodability, cli.check_delay_monotonicity,
    ], ids=lambda check: check.__name__)
    def test_check_refuses_a_negative_seed_before_any_draw(self, monkeypatch, check):
        # called on its own, not through run_verification's seed check; the
        # message names the seed given, not one derived from it
        def fail(*args, **kwargs):
            raise AssertionError("a seed stream was built before the seed check")

        monkeypatch.setattr("numpy.random.SeedSequence", fail)
        monkeypatch.setattr("numpy.random.PCG64", fail)
        with pytest.raises(InvalidParams, match="seed must be >= 0, got -1$"):
            check(seed=-1)

    def test_max_k_past_the_brute_force_limit_rejected_before_any_check(
        self, monkeypatch, capsys
    ):
        def fail(*args, **kwargs):
            raise AssertionError("a check ran before the max_k check")

        monkeypatch.setattr(cli, "check_counting_oracle", fail)
        with pytest.raises(TooLarge, match="max_k <= 20.*got 21$"):
            cli.run_verification(max_k=21)
        assert cli.main(["verify", "--max-k", "21"]) == 2
        captured = capsys.readouterr()
        assert "checks passed" not in captured.out
        assert captured.err.startswith("error: ")
        assert "21" in captured.err and "20" in captured.err

    def test_too_large_shape_raises(self):
        with pytest.raises(TooLarge, match="K must be <= 20"):
            cli.check_counting_oracle(shapes=[(25, 1)])

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

    @pytest.mark.parametrize("kind, shift", [("load", (1e-9, 0)), ("count", (0, 1))])
    def test_perturbed_point_evaluation_fails_counting_oracle(self, monkeypatch, kind, shift):
        original = analytics.schedule_load

        def perturbed(params, sizes):
            load, count = original(params, sizes)
            return load * (1 + shift[0]), count + shift[1]

        monkeypatch.setattr(analytics, "schedule_load", perturbed)
        [result] = cli.check_counting_oracle(shapes=[(3, 2)])
        assert result.ok is False
        assert f"('{kind}', 0, 1)" in result.detail and "'Q'" not in result.detail

    def test_off_by_one_chain_count_fails_its_check(self, monkeypatch, capsys):
        original = analytics.schedule_load

        def off_by_one(params, sizes):
            load, count = original(params, sizes)
            return load, count + 1

        monkeypatch.setattr(analytics, "schedule_load", off_by_one)
        result = cli.check_window_chain(max_k=4)
        assert result.ok is False
        assert "('count', 2, 2, 1)" in result.detail and "'load'" not in result.detail
        assert cli.main(["verify", "--max-k", "4"]) == 1
        assert "FAIL  window-chain oracle" in capsys.readouterr().out

    def test_shifted_bounds_fail_window_chain_check(self, monkeypatch):
        original = analytics.load_bounds
        monkeypatch.setattr(
            analytics, "load_bounds", lambda *a: tuple(2 * x for x in original(*a))
        )
        result = cli.check_window_chain(max_k=3)
        assert result.ok is False
        assert "('bounds', 2, 2, 1)" in result.detail and "'load'" not in result.detail

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
