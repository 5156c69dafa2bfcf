"""Tests for the command-line interface."""

import json
import os

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_fig_requires_valid_number(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig", "12"])

    def test_fig_flags(self):
        args = build_parser().parse_args(["fig", "4", "--full", "--csv", "x"])
        assert args.number == "4" and args.full and args.csv == "x"


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "Fig 4" in out and "Fig 9" in out

    def test_claims(self, capsys):
        assert main(["claims"]) == 0
        out = capsys.readouterr().out
        assert "fig6_get_16k_anomaly" in out

    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Extra Small" in out and "2040" in out

    def test_fig9_runs(self, capsys, monkeypatch, tmp_path):
        # Shrink the work: monkeypatch the quick scale used by the CLI.
        from repro.bench import BenchScale
        from repro.storage import KB
        import repro.cli as cli
        tiny = BenchScale(
            name="tiny", worker_counts=(1, 2), blob_total_chunks=4,
            blob_repeats=1, queue_total_messages=20,
            queue_message_sizes=(4 * KB, 16 * KB, 32 * KB),
            shared_total_transactions=20, shared_think_times=(0.5,),
            table_entity_count=5,
            table_entity_sizes=(4 * KB, 32 * KB),
        )
        monkeypatch.setattr(cli, "QUICK_SCALE", tiny)

        csv_dir = str(tmp_path / "csv")
        assert main(["fig", "9", "--csv", csv_dir]) == 0
        out = capsys.readouterr().out
        assert "queue put" in out and "table update" in out
        assert os.path.exists(os.path.join(csv_dir, "fig_9.csv"))

    def test_fig4_runs(self, capsys, monkeypatch):
        from repro.bench import BenchScale
        from repro.storage import KB
        import repro.cli as cli
        tiny = BenchScale(
            name="tiny", worker_counts=(1, 2), blob_total_chunks=4,
            blob_repeats=1, queue_total_messages=20,
            queue_message_sizes=(4 * KB,),
            shared_total_transactions=20, shared_think_times=(0.5,),
            table_entity_count=5, table_entity_sizes=(4 * KB,),
        )
        monkeypatch.setattr(cli, "QUICK_SCALE", tiny)
        assert main(["fig", "4"]) == 0
        out = capsys.readouterr().out
        assert "Fig 4a" in out and "Fig 4b" in out


class TestReport:
    def test_report_command(self, capsys, monkeypatch, tmp_path):
        from repro.bench import BenchScale
        from repro.storage import KB
        import repro.cli as cli
        tiny = BenchScale(
            name="tiny", worker_counts=(1, 2), blob_total_chunks=4,
            blob_repeats=1, queue_total_messages=20,
            queue_message_sizes=(4 * KB, 8 * KB, 16 * KB, 32 * KB, 64 * KB),
            shared_total_transactions=20, shared_think_times=(0.5, 1.0),
            table_entity_count=5,
            table_entity_sizes=(4 * KB, 64 * KB),
        )
        monkeypatch.setattr(cli, "QUICK_SCALE", tiny)
        out_file = str(tmp_path / "report.txt")
        assert main(["report", "--out", out_file]) == 0
        out = capsys.readouterr().out
        assert "reproduction report" in out
        assert "Paper-vs-measured audit" in out
        assert "Scalability analysis" in out
        with open(out_file) as f:
            assert "Fig 9" in f.read()


class TestAudit:
    def test_audit_command(self, capsys, monkeypatch):
        from repro.bench import BenchScale
        from repro.storage import KB
        import repro.cli as cli
        tiny = BenchScale(
            name="tiny", worker_counts=(1, 2), blob_total_chunks=4,
            blob_repeats=1, queue_total_messages=20,
            queue_message_sizes=(4 * KB, 8 * KB, 16 * KB, 32 * KB, 64 * KB),
            shared_total_transactions=20, shared_think_times=(0.5, 1.0),
            table_entity_count=5, table_entity_sizes=(4 * KB, 64 * KB),
        )
        monkeypatch.setattr(cli, "QUICK_SCALE", tiny)
        assert main(["audit"]) == 0  # all checks hold -> exit 0
        out = capsys.readouterr().out
        assert "checks hold" in out
        assert "blob_max_upload_mbps" in out


class TestFaults:
    def test_faults_list(self, capsys):
        assert main(["faults", "list"]) == 0
        out = capsys.readouterr().out
        assert "throttle-storm" in out and "failover" in out
        assert "expo-jitter" in out  # policies advertised too

    def test_faults_run(self, capsys):
        assert main(["faults", "run", "failover", "--tasks", "8",
                     "--workers", "2"]) == 0
        out = capsys.readouterr().out
        assert "profile           failover" in out
        assert "retry policy      fixed" in out
        assert "completed         True (8/8 results)" in out
        assert "partition_crash=" in out
        assert "availability      queue:" in out

    def test_faults_run_with_trace(self, capsys):
        assert main(["faults", "run", "failover", "--tasks", "8",
                     "--workers", "2", "--policy", "expo-jitter",
                     "--trace"]) == 0
        out = capsys.readouterr().out
        assert "retry policy      expo-jitter" in out
        assert "fault trace" in out and "partition_crash" in out

    def test_faults_run_unknown_profile(self, capsys):
        assert main(["faults", "run", "nope"]) == 2
        assert "unknown fault profile" in capsys.readouterr().err

    def test_faults_run_unknown_policy(self, capsys):
        assert main(["faults", "run", "failover", "--policy", "nope"]) == 2
        assert "unknown retry policy" in capsys.readouterr().err

    def test_faults_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["faults"])


class TestAllFigureCommands:
    @pytest.fixture
    def tiny_cli(self, monkeypatch):
        from repro.bench import BenchScale
        from repro.storage import KB
        import repro.cli as cli
        tiny = BenchScale(
            name="tiny", worker_counts=(1, 2), blob_total_chunks=4,
            blob_repeats=1, queue_total_messages=20,
            queue_message_sizes=(4 * KB, 16 * KB),
            shared_total_transactions=20, shared_think_times=(0.5, 1.0),
            table_entity_count=5, table_entity_sizes=(4 * KB,),
        )
        monkeypatch.setattr(cli, "QUICK_SCALE", tiny)
        return cli

    @pytest.mark.parametrize("number,expect", [
        ("5", "Fig 5a"),
        ("6", "Fig 6c"),
        ("7", "Fig 7b"),
        ("8", "Fig 8d"),
    ])
    def test_fig_commands(self, tiny_cli, capsys, number, expect):
        assert main(["fig", number]) == 0
        assert expect in capsys.readouterr().out


class TestSeedsParsing:
    """Regression suite for --seeds matrix parsing (ISSUE 8 satellite 4):
    whitespace is accepted; empty lists, empty entries, non-integers, and
    duplicates are rejected up front with a message naming the defect."""

    def test_whitespace_accepted(self):
        from repro.cli import _parse_seeds
        assert _parse_seeds("7, 11") == [7, 11]
        assert _parse_seeds(" 7 ,11 , 13") == [7, 11, 13]
        assert _parse_seeds("-3, 0") == [-3, 0]

    @pytest.mark.parametrize("bad,needle", [
        ("", "empty"),
        ("7,,11", "empty entry"),
        ("7,", "empty entry"),
        (",7", "empty entry"),
        ("7,x", "not an integer"),
        ("7.5", "not an integer"),
        ("7,7", "more than once"),
        ("7,11,7,11", "more than once"),
    ])
    def test_malformed_rejected(self, bad, needle):
        from repro.cli import _parse_seeds
        with pytest.raises(ValueError, match=needle):
            _parse_seeds(bad)

    @pytest.mark.parametrize("argv", [
        ["chaos", "fig6", "--profile", "none", "--seeds", ""],
        ["chaos", "fig6", "--profile", "none", "--seeds", "7,,11"],
        ["chaos", "fig6", "--profile", "none", "--seeds", "7,7"],
        ["chaos", "fig6", "--profile", "none", "--seeds", "7,x"],
        ["chaos", "--profile", "region-outage", "--seeds", "7, 7"],
    ])
    def test_cli_rejects_before_any_run(self, capsys, argv):
        assert main(argv) == 2
        assert "--seeds" in capsys.readouterr().err

    def test_chaos_seeds_whitespace_runs(self, capsys):
        """'7, 11' (with a space) reaches the runner and reports both."""
        assert main(["chaos", "--profile", "region-outage",
                     "--seeds", "7, 11"]) == 0
        assert "2/2 passed" in capsys.readouterr().err


class TestJobsFlag:
    """``--jobs N`` counts worker processes: N < 1 is bad usage (exit 2,
    one usage line) before any work starts, on every command taking it."""

    @pytest.mark.parametrize("argv", [
        ["fig", "6", "--jobs", "0"],
        ["all", "--jobs", "-2"],
        ["chaos", "fig6", "--seeds", "7,8", "--jobs", "0"],
        ["fig", "6", "--jobs", "two"],
    ])
    def test_jobs_below_one_is_a_usage_error(self, capsys, monkeypatch,
                                             argv):
        import repro.cli as cli

        def ran(*args, **kwargs):
            raise AssertionError("work started under a bad --jobs")

        monkeypatch.setattr(cli, "FigureRunner", ran)
        monkeypatch.setattr(cli, "_run_chaos", ran)
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "argument --jobs: must be an integer >= 1" in err

    def test_jobs_one_and_up_parse(self):
        parser = build_parser()
        assert parser.parse_args(["fig", "6", "--jobs", "3"]).jobs == 3
        assert parser.parse_args(["all", "--jobs", "1"]).jobs == 1


def test_perf_is_not_a_command(capsys):
    """``benchmarks/suite/run.py`` is the perf harness; ``repro perf``
    is gone, as bad usage rather than a silent no-op."""
    with pytest.raises(SystemExit) as exit_info:
        main(["perf", "--quick"])
    assert exit_info.value.code == 2
    assert "invalid choice: 'perf'" in capsys.readouterr().err


class TestLoadCommand:
    def test_load_poisson_with_slo(self, capsys, tmp_path):
        out_dir = tmp_path / "load"
        assert main(["load", "--process", "poisson", "--rate", "20",
                     "--duration", "12", "--window", "4",
                     "--slo", "p95=2s, err=5%",
                     "--out", str(out_dir)]) == 0
        captured = capsys.readouterr()
        verdict = json.loads(captured.out)
        assert verdict["kind"] == "open-loop-load"
        assert verdict["passed"] is True
        assert verdict["slo_report"]["clean"] is True
        # 3 arrival windows, plus possibly one more if the last
        # completion spills past the arrival horizon.
        assert len(verdict["windows"]) in (3, 4)
        assert (out_dir / "windows.csv").exists()
        assert (out_dir / "verdict.json").exists()

    def test_load_slo_violation_exits_one(self, capsys):
        assert main(["load", "--rate", "20", "--duration", "8",
                     "--slo", "p95=0.001ms", "--warmup", "0",
                     "--cooldown", "0"]) == 1
        verdict = json.loads(capsys.readouterr().out)
        assert verdict["passed"] is False
        assert verdict["slo_report"]["violations"]

    def test_load_summary_without_slo_reports_failed_share(self, capsys):
        """A run that is mostly ServerBusy refusals is not "clean"."""
        assert main(["load", "--mix", "queue", "--rate", "2000",
                     "--duration", "4"]) == 0
        captured = capsys.readouterr()
        totals = json.loads(captured.out)["totals"]
        assert totals["errors"] > totals["completions"] / 2
        share = totals["errors"] / totals["completions"]
        assert f"{share:.1%} failed, no SLO given" in captured.err
        assert "clean" not in captured.err

    def test_load_find_knee_stable(self, capsys, tmp_path):
        argv = ["load", "--find-knee", "--slo", "p95=120ms",
                "--duration", "6", "--window", "2",
                "--low", "20", "--high", "400",
                "--rel-tol", "0.25", "--max-probes", "8",
                "--out", str(tmp_path)]
        assert main(argv) == 0
        first = json.loads(capsys.readouterr().out)
        assert main(argv) == 0
        second = json.loads(capsys.readouterr().out)
        assert first["knee_rate"] == second["knee_rate"] is not None
        assert first["converged"] is True
        assert (tmp_path / "knee.json").exists()

    def test_load_find_knee_needs_slo(self, capsys):
        assert main(["load", "--find-knee"]) == 2
        assert "--slo" in capsys.readouterr().err

    def test_load_trace_replay(self, capsys, tmp_path):
        trace = tmp_path / "arrivals.txt"
        trace.write_text("0.5\n1.0\n1.5\n2.0\n")
        assert main(["load", "--process", "trace",
                     "--trace-file", str(trace),
                     "--duration", "4"]) == 0
        verdict = json.loads(capsys.readouterr().out)
        assert verdict["totals"]["completions"] == 4
        assert verdict["config"]["arrivals"] == {
            "process": "trace", "seed": 2012, "instants": 4}

    def test_load_trace_file_implies_trace_process(self, capsys, tmp_path):
        trace = tmp_path / "arrivals.txt"
        trace.write_text("0.5\n1.0\n1.5\n2.0\n")
        assert main(["load", "--trace-file", str(trace),
                     "--duration", "4"]) == 0
        verdict = json.loads(capsys.readouterr().out)
        assert verdict["config"]["arrivals"]["process"] == "trace"
        assert verdict["totals"]["completions"] == 4

    def test_load_trace_file_conflicts_with_other_process(self, capsys,
                                                          tmp_path):
        trace = tmp_path / "arrivals.txt"
        trace.write_text("0.5\n")
        assert main(["load", "--process", "poisson",
                     "--trace-file", str(trace)]) == 2
        assert "conflicts" in capsys.readouterr().err

    def test_load_bad_inputs(self, capsys):
        assert main(["load", "--process", "bogus"]) == 2
        assert "unknown arrival process" in capsys.readouterr().err
        assert main(["load", "--slo", "p95=banana"]) == 2
        assert "bad latency bound" in capsys.readouterr().err
        assert main(["load", "--process", "trace"]) == 2
        assert "--trace-file" in capsys.readouterr().err
        assert main(["load", "--mix", "bogus"]) == 2
        assert "unknown mix" in capsys.readouterr().err
        assert main(["load", "--flock-size", "0"]) == 2
        assert "flock_size" in capsys.readouterr().err


class TestArrivalsFlags:
    def test_fig_arrivals_rejects_bad_spec(self, capsys):
        assert main(["fig", "6", "--arrivals", "bogus:3"]) == 2
        assert "unknown arrival process" in capsys.readouterr().err

    def test_geo_arrival_requires_elasticity(self, capsys):
        assert main(["geo", "--profile", "region-outage",
                     "--arrival", "poisson:2"]) == 2
        assert "--elasticity" in capsys.readouterr().err

    def test_geo_elasticity_with_arrival(self, capsys):
        assert main(["geo", "--profile", "region-outage", "--elasticity",
                     "--tasks", "8", "--arrival", "poisson:2"]) == 0
        err = capsys.readouterr().err
        assert "PASS" in err
