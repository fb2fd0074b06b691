"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_lmp_sweep_defaults(self):
        args = build_parser().parse_args(["lmp-sweep"])
        assert args.max_load == 900.0

    def test_simulate_options(self):
        args = build_parser().parse_args(
            ["simulate", "--strategy", "min-only-low", "--hours", "24", "--policy", "2"]
        )
        assert args.strategy == "min-only-low"
        assert args.hours == 24
        assert args.policy == 2

    def test_invalid_policy_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--policy", "9"])

    def test_trace_flag_on_run_commands(self):
        for command in ("simulate", "compare", "study"):
            args = build_parser().parse_args([command, "--trace", "t.jsonl"])
            assert args.trace == "t.jsonl"

    def test_endogenous_flags_on_run_and_serve(self):
        for command in ("simulate", "run", "serve"):
            args = build_parser().parse_args(
                [command, "--endogenous-prices", "--grid", "two-zone",
                 "--damping", "0.8"]
            )
            assert args.endogenous_prices is True
            assert args.grid == "two-zone"
            assert args.damping == 0.8
            off = build_parser().parse_args([command])
            assert off.endogenous_prices is False

    def test_telemetry_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["telemetry"])

    def test_telemetry_summary_args(self):
        args = build_parser().parse_args(["telemetry", "summary", "t.jsonl"])
        assert args.trace_file == "t.jsonl"


class TestCommands:
    def test_lmp_sweep_runs(self, capsys):
        assert main(["lmp-sweep", "--step", "200", "--max-load", "800"]) == 0
        out = capsys.readouterr().out
        assert "LMP B" in out
        assert "10.00" in out

    @pytest.mark.parametrize(
        "flags",
        [
            ["--step", "0"],
            ["--step", "-5"],
            ["--step", "nan"],
            ["--step", "inf"],
            ["--max-load", "inf"],
            ["--max-load", "nan"],
        ],
    )
    def test_lmp_sweep_rejects_bad_numbers(self, flags, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["lmp-sweep", *flags])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flags[0]}: must be finite and > 0" in err

    def test_simulate_min_only_short(self, capsys):
        assert main(["simulate", "--strategy", "min-only-avg", "--hours", "3"]) == 0
        out = capsys.readouterr().out
        assert "total cost" in out
        assert "premium throughput:  100.00%" in out

    def test_simulate_capping_with_budget(self, capsys):
        assert (
            main(
                [
                    "simulate",
                    "--hours",
                    "3",
                    "--budget-fraction",
                    "0.9",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "monthly budget" in out

    def test_simulate_endogenous_prices(self, capsys):
        assert main(["simulate", "--hours", "3", "--endogenous-prices"]) == 0
        out = capsys.readouterr().out
        assert "endogenous prices: grid=pjm5bus" in out
        assert "total cost" in out

    def test_simulate_endogenous_unknown_grid(self, capsys):
        with pytest.raises(SystemExit, match="unknown grid"):
            main(["simulate", "--hours", "1", "--endogenous-prices",
                  "--grid", "bogus"])

    def test_headroom_command(self, capsys):
        assert main(["headroom", "--load", "450"]) == 0
        out = capsys.readouterr().out
        assert "headroom" in out
        assert "10.00" in out  # Brighton-marginal LMP at 450 MW

    def test_headroom_infeasible_load(self, capsys):
        assert main(["headroom", "--load", "99999"]) == 1
        assert "infeasible" in capsys.readouterr().out

    @pytest.mark.slow
    def test_study_command(self, capsys):
        assert main(["study", "--seeds", "1", "--hours", "6"]) == 0
        out = capsys.readouterr().out
        assert "capping-savings" in out
        assert "1/1 seeds" in out


class TestTelemetryCommands:
    def test_trace_sidecar_then_summary_and_export(self, capsys, tmp_path):
        import json

        trace = tmp_path / "run.jsonl"
        assert main([
            "simulate", "--strategy", "min-only-avg", "--hours", "2",
            "--trace", str(trace),
        ]) == 0
        out = capsys.readouterr().out
        assert "telemetry trace written" in out
        assert trace.exists()

        assert main(["telemetry", "summary", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "== spans ==" in out
        assert "hour" in out and "dispatch" in out

        exported = tmp_path / "agg.json"
        assert main([
            "telemetry", "export", str(trace), "--out", str(exported)
        ]) == 0
        agg = json.loads(exported.read_text())
        assert agg["spans"]["hour"]["count"] == 2
        assert any(k.startswith("solver.") for k in agg["counters"])

    def test_summary_of_empty_trace_fails_cleanly(self, capsys, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["telemetry", "summary", str(empty)]) == 1
        assert "no telemetry" in capsys.readouterr().out


class TestServeParser:
    def test_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.hours == 24
        assert args.source == "replay"
        assert args.ticks_per_hour == 12
        assert args.strategy == "capping"
        assert args.degradation == "proportional"
        assert args.port == 0

    def test_bursty_source_options(self):
        args = build_parser().parse_args(
            ["serve", "--source", "bursty", "--ca2", "8.0", "--price-jitter", "0.1"]
        )
        assert args.source == "bursty"
        assert args.ca2 == 8.0
        assert args.price_jitter == 0.1

    def test_unknown_degradation_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--degradation", "bogus"])

    def test_resume_requires_checkpoint(self, capsys):
        assert main(["serve", "--resume", "--hours", "1"]) == 2
        assert "--checkpoint" in capsys.readouterr().out

    def test_missing_checkpoint_file_is_clean_error(self, capsys, tmp_path):
        rc = main(
            ["serve", "--resume", "--checkpoint", str(tmp_path / "absent.json")]
        )
        assert rc == 2
        assert "error:" in capsys.readouterr().out


class TestServeCommand:
    def test_short_run_writes_decision_log(self, capsys, tmp_path):
        log = tmp_path / "decisions.jsonl"
        rc = main(
            [
                "serve",
                "--hours", "2",
                "--ticks-per-hour", "4",
                "--monthly-budget", "2e6",
                "--no-http",
                "--decision-log", str(log),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "serve" in out
        lines = log.read_text().splitlines()
        assert lines
        import json as _json

        assert all("allocations" in _json.loads(l) for l in lines)

    def test_checkpointed_run_then_resume_completes(self, capsys, tmp_path):
        log = tmp_path / "decisions.jsonl"
        ckpt = tmp_path / "ckpt.json"
        common = [
            "serve",
            "--hours", "2",
            "--ticks-per-hour", "4",
            "--monthly-budget", "2e6",
            "--no-http",
            "--decision-log", str(log),
            "--checkpoint", str(ckpt),
        ]
        assert main(common) == 0
        # The finished run's checkpoint has nothing left to serve.
        rc = main(["serve", "--resume", "--checkpoint", str(ckpt)])
        assert rc == 2
        assert "error:" in capsys.readouterr().out


class TestSolversCommand:
    def test_lists_backends_with_flags(self, capsys):
        assert main(["solvers"]) == 0
        out = capsys.readouterr().out
        assert "decomposition" in out
        assert "revised-simplex" in out
        assert "milp,warm_start,sparse,dispatch" in out
        assert "capabilities" in out

    def test_simulate_rejects_unknown_backend(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_SOLVER_BACKEND", raising=False)
        assert main(
            ["simulate", "--hours", "2", "--solver-backend", "nope"]
        ) == 2
        assert "unknown solver backend" in capsys.readouterr().out

    def test_simulate_with_decomposition_backend(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_SOLVER_BACKEND", raising=False)
        assert main(
            ["simulate", "--strategy", "min-only-avg", "--hours", "2",
             "--solver-backend", "decomposition"]
        ) == 0
        assert "total cost" in capsys.readouterr().out
