"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


def _exit_code(argv):
    """main()'s exit code, returned or raised (argparse exits by raising)."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


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
        for command in ("simulate", "compare", "sweep", "study"):
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

    def test_subcommand_defaults(self):
        parse = build_parser().parse_args
        for command in ("simulate", "run", "compare", "sweep", "study"):
            assert parse([command]).hours == 168, command
        assert parse(["serve"]).hours == 24
        assert parse(["resume", "ck.json"]).hours is None
        for command in ("simulate", "compare", "sweep", "study", "serve"):
            args = parse([command])
            assert (args.seed, args.policy) == (7, 1), command
            assert args.solver_backend is None, command
        for command in ("simulate", "sweep", "serve"):
            assert parse([command]).strategy == "capping", command
        for command in ("simulate", "serve"):
            args = parse([command])
            assert args.degradation == "proportional", command
            assert args.budget_fraction is None, command
        assert parse(["resume", "ck.json", "--trace", "t.jsonl"]).trace == (
            "t.jsonl"
        )

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

    def test_headroom_zero_load_is_valid(self, capsys):
        assert main(["headroom", "--load", "0"]) == 0
        assert "headroom" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--budget-fraction", "nan"],
            ["simulate", "--budget-fraction", "-1"],
            ["simulate", "--budget-fraction", "inf"],
            ["run", "--damping", "nan"],
            ["serve", "--budget-fraction", "0"],
            ["serve", "--monthly-budget", "nan"],
            ["serve", "--monthly-budget", "-5"],
            ["serve", "--dns-ttl", "nan"],
            ["serve", "--dns-ttl", "0"],
            ["serve", "--pace", "nan"],
            ["serve", "--pace", "-1"],
            ["serve", "--lambda-delta", "nan"],
            ["serve", "--price-delta", "0"],
            ["serve", "--debounce", "-1"],
            ["serve", "--max-staleness", "inf"],
            ["serve", "--jitter", "nan"],
            ["serve", "--ca2", "1"],
            ["serve", "--price-jitter", "-0.1"],
            ["headroom", "--load", "nan"],
            ["headroom", "--load", "inf"],
            ["headroom", "--load", "-5"],
            ["sweep", "--budget-fractions", "nan"],
            ["sweep", "--budget-fractions", "none,inf"],
            ["sweep", "--demand-rates", "nan"],
            ["sweep", "--demand-rates", "2,inf"],
        ],
        ids=lambda argv: " ".join(argv),
    )
    def test_numeric_flags_reject_bad_values(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"argument {argv[1]}: must be finite and" in (
            capsys.readouterr().err
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--hours", "0"],
            ["run", "--hours", "-3"],
            ["compare", "--hours", "0"],
            ["sweep", "--hours", "0"],
            ["study", "--hours", "0"],
            ["resume", "--hours", "0", "ck.json"],
            ["study", "--seeds", "0"],
            ["sweep", "--seeds", "0"],
            ["sweep", "--workers", "0"],
            ["sweep", "--cycle-hours", "24,0"],
        ],
        ids=lambda argv: " ".join(argv),
    )
    def test_counts_reject_values_below_one(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"argument {argv[1]}: must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "compare", "sweep", "study"])
    def test_hours_beyond_the_month_is_a_clean_error(self, command, capsys):
        assert main([command, "--hours", "100000"]) == 2
        assert "--hours must be in 1..720" in capsys.readouterr().out

    @pytest.mark.parametrize("rate", ["nan", "inf"])
    def test_non_finite_demand_rate_is_refused(self, rate, capsys):
        assert main(["simulate", "--hours", "3", "--tariff",
                     f"energy+demand:rate={rate},cycle=168"]) == 2
        assert "demand rate must be finite" in capsys.readouterr().out

    @pytest.mark.slow
    def test_study_command(self, capsys):
        assert main(["study", "--seeds", "1", "--hours", "6"]) == 0
        out = capsys.readouterr().out
        assert "capping-savings" in out
        assert "1/1 seeds" in out


class TestCompareCommand:
    def test_two_strategies_print_both_blocks_and_savings(self, capsys):
        assert main(["compare", "--hours", "2",
                     "--strategies", "capping,min-only-avg"]) == 0
        out = capsys.readouterr().out
        assert "[cost-capping (uncapped)]" in out
        assert "[min-only-avg]" in out
        assert "-> capping saves" in out
        assert "[min-only-low]" not in out

    @pytest.mark.parametrize("names", ["bogus", "capping,bogus", "", ","])
    def test_unknown_or_empty_strategies_exit_2(self, names):
        assert _exit_code(["compare", "--hours", "2",
                           "--strategies", names]) == 2


class TestSweepCommand:
    def test_budget_by_tariff_grid(self, capsys):
        assert main([
            "sweep", "--seeds", "1", "--hours", "2",
            "--budget-fractions", "none,0.9", "--demand-rates", "none,2",
            "--cycle-hours", "24",
        ]) == 0
        out = capsys.readouterr().out
        assert "4 scenarios (1 seeds x 2 budgets x 2 tariffs)" in out
        assert "peak MW" in out and "tariff" in out
        rows = [line.split() for line in out.splitlines()
                if line.startswith("     7 ")]
        assert len(rows) == 4
        assert [row[-1] for row in rows] == [
            "energy", "energy+demand:rate=2,cycle=24",
        ] * 2

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--budget-fractions", ""),
            ("--budget-fractions", "abc"),
            ("--budget-fractions", "0"),
            ("--demand-rates", ""),
            ("--demand-rates", "abc"),
            ("--demand-rates", "-1"),
            ("--cycle-hours", ""),
            ("--cycle-hours", "abc"),
            ("--cycle-hours", "0"),
        ],
    )
    def test_bad_list_tokens_exit_2(self, flag, value):
        assert _exit_code(["sweep", "--seeds", "1", "--hours", "2",
                           flag, value]) == 2


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


def _stopped_serve(flags, log, ckpt, stop_after=1):
    """A ``repro serve FLAGS`` run stopped right after ``stop_after``
    hours settle: the state a SIGTERM at that barrier leaves behind."""
    from repro.cli import _serve_spec
    from repro.service import ShardedControlPlane

    plane = ShardedControlPlane(
        _serve_spec(build_parser().parse_args(["serve", *flags])),
        decision_log=log, checkpoint_path=ckpt,
        http=False, handle_signals=False,
    )

    def settled():
        if plane.coordinator.settled_hours == stop_after:
            plane.request_stop()

    plane.coordinator.on_settled = settled
    assert plane.run()["stopped"]


class TestEndogenousResume:
    """A resumed run keeps the pricing it was started with."""

    def test_batch_resume_keeps_endogenous_prices(self, capsys, tmp_path):
        import json

        full, cut = tmp_path / "full.json", tmp_path / "cut.json"
        flags = ["--endogenous-prices", "--damping", "0.6"]
        assert main(["run", "--hours", "3", *flags,
                     "--checkpoint", str(full)]) == 0
        assert main(["run", "--hours", "2", *flags,
                     "--checkpoint", str(cut)]) == 0
        assert main(["resume", str(cut), "--hours", "3"]) == 0
        meta = json.loads(cut.read_text())["meta"]
        assert meta["endogenous"] == {"grid": "pjm5bus", "damping": 0.6}
        assert (json.loads(cut.read_text())["records"]
                == json.loads(full.read_text())["records"])

    def test_serve_resume_keeps_endogenous_prices(self, capsys, tmp_path):
        flags = ["--hours", "3", "--ticks-per-hour", "4",
                 "--monthly-budget", "2e6", "--endogenous-prices"]
        ref = tmp_path / "ref.jsonl"
        assert main(["serve", *flags, "--no-http",
                     "--decision-log", str(ref)]) == 0
        log, ckpt = tmp_path / "live.jsonl", tmp_path / "ckpt.json"
        _stopped_serve(flags, log, ckpt)
        capsys.readouterr()
        # The flags on --resume are ignored: the checkpoint decides.
        assert main(["serve", "--resume", "--checkpoint", str(ckpt),
                     "--no-http", "--endogenous-prices"]) == 0
        assert "--endogenous-prices, --grid and --damping ignored" in (
            capsys.readouterr().out
        )
        assert log.read_bytes() == ref.read_bytes()

    def test_workers_refuse_endogenous_prices(self, capsys):
        rc = main(["serve", "--hours", "1", "--workers", "2", "--no-http",
                   "--endogenous-prices"])
        assert rc == 2
        assert "not supported with workers" in capsys.readouterr().out


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

    def test_single_process_checkpoint_ignores_workers(
        self, capsys, tmp_path
    ):
        log, ckpt = tmp_path / "decisions.jsonl", tmp_path / "ckpt.json"
        _stopped_serve(
            ["--hours", "2", "--ticks-per-hour", "4", "--monthly-budget",
             "2e6"],
            log, ckpt,
        )
        rc = main(["serve", "--resume", "--checkpoint", str(ckpt),
                   "--workers", "2", "--no-http"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "single-process run; --workers ignored" in out
        assert "in-process" in out
        assert "hours settled:       2/2" in out

    def test_telemetry_streams_every_settled_hour(self, capsys, tmp_path):
        import json

        path = tmp_path / "telemetry.jsonl"
        rc = main(["serve", "--hours", "2", "--ticks-per-hour", "4",
                   "--monthly-budget", "2e6", "--no-http",
                   "--decision-log", str(tmp_path / "d.jsonl"),
                   "--telemetry", str(path)])
        assert rc == 0
        assert "telemetry:" in capsys.readouterr().out
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert any(r["type"] == "span" for r in records)
        # One counter snapshot per settled hour, plus the final drain.
        settled = [
            r["value"] for r in records
            if r["type"] == "counter" and r["name"] == "service.hours_settled"
        ]
        assert settled == [1, 2, 2]

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

    def test_run_rejects_lp_only_backend(self, capsys, monkeypatch):
        import os

        # scipy-lp ignores integrality: accepting it would solve every
        # dispatch MILP the kernel bails on as its LP relaxation.
        monkeypatch.delenv("REPRO_SOLVER_BACKEND", raising=False)
        assert main(
            ["run", "--hours", "2", "--solver-backend", "scipy-lp"]
        ) == 2
        assert "lacks the milp capability" in capsys.readouterr().out
        assert "REPRO_SOLVER_BACKEND" not in os.environ

    @pytest.mark.parametrize("value, message", [
        ("nope", "unknown solver backend"),
        ("scipy-lp", "lacks the milp capability"),
    ])
    def test_env_backend_checked_like_the_flag(
        self, capsys, monkeypatch, value, message
    ):
        monkeypatch.setenv("REPRO_SOLVER_BACKEND", value)
        assert main(["run", "--hours", "2"]) == 2
        out = capsys.readouterr().out
        assert "REPRO_SOLVER_BACKEND" in out and message in out

    @pytest.mark.parametrize("var, value", [
        ("REPRO_DECOMP_AUTO_SITES", "abc"),
        ("REPRO_MODEL_CACHE_SIZE", "x"),
        ("REPRO_DENSE_TABLEAU_CELLS", "-1"),
    ])
    def test_bad_integer_env_is_a_clean_error(
        self, capsys, monkeypatch, var, value
    ):
        monkeypatch.delenv("REPRO_SOLVER_BACKEND", raising=False)
        monkeypatch.setenv(var, value)
        assert main(["run", "--hours", "2"]) == 2
        assert f"{var} must be an integer" in capsys.readouterr().out

    def test_study_rejects_unknown_backend(self, capsys):
        assert main(
            ["study", "--seeds", "1", "--hours", "2", "--solver-backend", "nope"]
        ) == 2
        assert "unknown solver backend" in capsys.readouterr().out

    def test_study_applies_backend(self, capsys):
        import os

        assert main(
            ["study", "--seeds", "1", "--hours", "1", "--solver-backend",
             "scipy"]
        ) == 0
        assert os.environ["REPRO_SOLVER_BACKEND"] == "scipy"
        assert "1/1 seeds" in capsys.readouterr().out

    def test_simulate_with_decomposition_backend(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_SOLVER_BACKEND", raising=False)
        assert main(
            ["simulate", "--strategy", "min-only-avg", "--hours", "2",
             "--solver-backend", "decomposition"]
        ) == 0
        assert "total cost" in capsys.readouterr().out
