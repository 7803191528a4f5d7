"""Tests for the top-level CLI and the markdown report generator."""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.core.report import build_report, write_report
from repro.core.study import CrossSystemStudy
from repro.sched import fast
from repro.traces.synth import generate_trace

from .test_testkit import _mutated_simulate_fast


@pytest.fixture(scope="module")
def swf_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("swf") / "theta.swf"
    assert main(["generate", "theta", "-o", str(path), "--days", "2", "--seed", "1"]) == 0
    return path


class TestCli:
    def test_generate_writes_swf(self, swf_path):
        assert swf_path.exists()
        assert swf_path.read_text().startswith("; Computer:")

    def test_validate_clean(self, swf_path, capsys):
        assert main(["validate", str(swf_path)]) == 0
        assert "consistent" in capsys.readouterr().out

    def test_validate_broken(self, tmp_path, capsys):
        bad = tmp_path / "bad.swf"
        # 18-field line with negative runtime (field 4)
        bad.write_text("1 0 0 -5 4 -1 -1 4 100 -1 1 1 -1 -1 -1 -1 -1 -1\n")
        # runtime is clamped non-negative on parse; craft oversize instead
        bad.write_text(
            "; MaxProcs: 4\n"
            "1 0 0 5 400000000 -1 -1 400000000 100 -1 1 1 -1 -1 -1 -1 -1 -1\n"
        )
        assert main(["validate", str(bad)]) == 1
        assert "oversized" in capsys.readouterr().out

    def test_analyze_summary(self, swf_path, capsys):
        assert main(["analyze", str(swf_path)]) == 0
        out = capsys.readouterr().out
        assert "median runtime" in out

    def test_analyze_report(self, swf_path, tmp_path, capsys):
        report = tmp_path / "report.md"
        assert main(["analyze", str(swf_path), "--report", str(report)]) == 0
        text = report.read_text()
        assert text.startswith("# Analysis of")
        assert "## Takeaways" in text

    def test_simulate(self, swf_path, capsys):
        assert main(
            [
                "simulate",
                str(swf_path),
                "--backfill",
                "relaxed",
                "--relax",
                "0.2",
                "--max-jobs",
                "150",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "utilization" in out and "fcfs + relaxed" in out

    def test_study_prints_takeaways(self, capsys):
        assert main(["study", "--days", "1", "--seed", "3"]) == 0
        assert "Takeaway 1" in capsys.readouterr().out

    def test_study_report(self, tmp_path, capsys):
        report = tmp_path / "study.md"
        assert main(["study", "--days", "1", "--seed", "3", "--report", str(report)]) == 0
        assert report.exists()

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])


class TestCliObservability:
    def test_trace_out_creates_nested_dirs(self, swf_path, tmp_path, capsys):
        out = tmp_path / "deeply" / "nested" / "events.jsonl"
        assert main(
            [
                "simulate", str(swf_path),
                "--max-jobs", "100",
                "--trace-out", str(out),
            ]
        ) == 0
        assert "wrote" in capsys.readouterr().out
        events = [json.loads(line) for line in out.read_text().splitlines()]
        kinds = {e["kind"] for e in events}
        assert {"run_start", "submit", "start", "finish", "run_end"} <= kinds

    def test_metrics_out_json(self, swf_path, tmp_path):
        out = tmp_path / "metrics.json"
        assert main(
            [
                "simulate", str(swf_path),
                "--max-jobs", "100",
                "--metrics-out", str(out),
                "--metrics-interval", "1800",
            ]
        ) == 0
        payload = json.loads(out.read_text())
        assert payload["summary"]["n_jobs"] == 100
        assert payload["metrics"]["counters"]["sim_jobs_started_total"] == 100
        assert payload["metrics"]["series"]["interval"] == 1800.0

    def test_metrics_out_prometheus(self, swf_path, tmp_path):
        out = tmp_path / "metrics.prom"
        assert main(
            [
                "simulate", str(swf_path),
                "--max-jobs", "100",
                "--metrics-out", str(out),
            ]
        ) == 0
        text = out.read_text()
        assert "# TYPE sim_jobs_started_total counter" in text
        assert 'sim_wait_seconds_bucket{le="+Inf"}' in text

    def test_profile_prints_breakdown(self, swf_path, capsys):
        assert main(
            ["simulate", str(swf_path), "--max-jobs", "100", "--profile"]
        ) == 0
        out = capsys.readouterr().out
        assert "hot-path wall-time breakdown" in out
        assert "policy_sort" in out

    def test_traced_fault_run(self, swf_path, tmp_path):
        out = tmp_path / "fault-events.jsonl"
        assert main(
            [
                "simulate", str(swf_path),
                "--max-jobs", "150",
                "--mtbf-hours", "6",
                "--retries", "2",
                "--trace-out", str(out),
            ]
        ) == 0
        events = [json.loads(line) for line in out.read_text().splitlines()]
        kinds = {e["kind"] for e in events}
        assert "node_fail" in kinds

    def test_trace_out_parent_is_file(self, swf_path, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        assert main(
            [
                "simulate", str(swf_path),
                "--max-jobs", "50",
                "--trace-out", str(blocker / "events.jsonl"),
            ]
        ) == 2
        err = capsys.readouterr().err
        assert "not a directory" in err

    def test_metrics_out_is_directory(self, swf_path, tmp_path, capsys):
        assert main(
            [
                "simulate", str(swf_path),
                "--max-jobs", "50",
                "--metrics-out", str(tmp_path),
            ]
        ) == 2
        assert "it is a directory" in capsys.readouterr().err

    @pytest.fixture
    def event_lines(self, swf_path, tmp_path, capsys):
        out = tmp_path / "events.jsonl"
        assert main(
            ["simulate", str(swf_path), "--max-jobs", "50", "--trace-out", str(out)]
        ) == 0
        capsys.readouterr()
        return out.read_text().splitlines(keepends=True)

    def test_analyze_torn_tail_uses_intact_events(
        self, event_lines, tmp_path, capsys
    ):
        # a tracer killed mid-write leaves a partial last line, no newline
        intact = tmp_path / "intact.jsonl"
        intact.write_text("".join(event_lines[:-1]))
        torn = tmp_path / "torn.jsonl"
        torn.write_text("".join(event_lines[:-1]) + event_lines[-1][:10])
        assert main(["analyze", str(intact), "--json"]) == 0
        expected = capsys.readouterr().out
        with pytest.warns(RuntimeWarning, match="truncated final line"):
            assert main(["analyze", str(torn), "--json"]) == 0
        assert capsys.readouterr().out == expected

    def test_analyze_malformed_line_exits_2(self, event_lines, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        event_lines.insert(2, "{not json\n")
        bad.write_text("".join(event_lines))
        assert main(["analyze", str(bad)]) == 2
        captured = capsys.readouterr()
        assert f"{bad}: line 3 is not valid JSON" in captured.err
        assert captured.out == ""

    def test_analyze_missing_file_exits_2(self, tmp_path, capsys):
        missing = tmp_path / "missing.jsonl"
        assert main(["analyze", str(missing)]) == 2
        assert f"cannot read {missing}" in capsys.readouterr().err


class TestCliPolicySweep:
    def test_multi_policy_table(self, swf_path, capsys):
        assert main(
            [
                "simulate", str(swf_path),
                "--max-jobs", "150",
                "--policy", "fcfs,sjf",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "policy sweep + easy" in out
        assert "fcfs" in out and "sjf" in out

    def test_single_policy_output_unchanged(self, swf_path, capsys):
        # the runner path must render exactly the legacy single-run table
        assert main(["simulate", str(swf_path), "--max-jobs", "150"]) == 0
        out = capsys.readouterr().out
        assert "Theta: fcfs + easy" in out
        assert "utilization" in out

    def test_cache_warm_run_reports_hits(self, swf_path, tmp_path, capsys):
        argv = [
            "simulate", str(swf_path),
            "--max-jobs", "150",
            "--policy", "fcfs,sjf",
            "--cache-dir", str(tmp_path / "cache"),
        ]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert "0 hit(s), 2 miss(es)" in cold
        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert "2 hit(s), 0 miss(es)" in warm
        # identical tables either way
        assert cold.split("(cache")[0] == warm.split("(cache")[0]

    def test_no_cache_flag_disables_cache(self, swf_path, tmp_path, capsys):
        assert main(
            [
                "simulate", str(swf_path),
                "--max-jobs", "100",
                "--cache-dir", str(tmp_path / "cache"),
                "--no-cache",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "hit(s)" not in out
        assert not (tmp_path / "cache").exists()

    def test_parallel_matches_serial(self, swf_path, capsys):
        argv = ["simulate", str(swf_path), "--max-jobs", "150",
                "--policy", "fcfs,sjf,f1"]
        assert main(argv) == 0
        serial = capsys.readouterr().out
        assert main(argv + ["--jobs", "2"]) == 0
        assert capsys.readouterr().out == serial

    def test_obs_flags_reject_multi_policy(self, swf_path, capsys):
        assert main(
            [
                "simulate", str(swf_path),
                "--max-jobs", "50",
                "--policy", "fcfs,sjf",
                "--profile",
            ]
        ) == 2
        assert "single run" in capsys.readouterr().err

    def test_bad_jobs_rejected(self, swf_path, capsys):
        assert main(
            ["simulate", str(swf_path), "--jobs", "0", "--max-jobs", "50"]
        ) == 2
        assert "--jobs" in capsys.readouterr().err

    def test_empty_policy_rejected(self, swf_path, capsys):
        assert main(
            ["simulate", str(swf_path), "--policy", ",", "--max-jobs", "50"]
        ) == 2
        assert "--policy" in capsys.readouterr().err

    def test_simulate_help_documents_cache_layout(self, capsys):
        with pytest.raises(SystemExit):
            main(["simulate", "--help"])
        # argparse line-wraps help, so compare with whitespace stripped
        out = "".join(capsys.readouterr().out.split())
        assert "<cache-dir>/<2-hex-prefix>/<sha256-fingerprint>.json" in out


class TestCliCrashSafety:
    def test_bad_task_timeout_rejected(self, swf_path, capsys):
        assert main(
            ["simulate", str(swf_path), "--max-jobs", "50",
             "--task-timeout", "0"]
        ) == 2
        assert "--task-timeout" in capsys.readouterr().err

    def test_bad_task_retries_rejected(self, swf_path, capsys):
        assert main(
            ["simulate", str(swf_path), "--max-jobs", "50",
             "--task-retries", "0"]
        ) == 2
        assert "--task-retries" in capsys.readouterr().err

    def test_resume_requires_journal(self, swf_path, capsys):
        assert main(
            ["simulate", str(swf_path), "--max-jobs", "50", "--resume"]
        ) == 2
        assert "--journal" in capsys.readouterr().err

    def test_obs_flags_reject_crash_safety(self, swf_path, tmp_path, capsys):
        assert main(
            ["simulate", str(swf_path), "--max-jobs", "50", "--profile",
             "--journal", str(tmp_path / "j.jsonl")]
        ) == 2
        assert "harden" in capsys.readouterr().err

    def test_obs_flags_reject_resume(self, swf_path, capsys):
        assert main(
            ["simulate", str(swf_path), "--max-jobs", "50", "--profile",
             "--resume"]
        ) == 2
        assert "harden" in capsys.readouterr().err

    def test_journal_records_and_resumes(self, swf_path, tmp_path, capsys):
        journal = tmp_path / "sweep.jsonl"
        argv = ["simulate", str(swf_path), "--max-jobs", "150",
                "--policy", "fcfs,sjf", "--journal", str(journal)]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "2 cell(s) recorded" in first
        assert main(argv + ["--resume"]) == 0
        resumed = capsys.readouterr().out
        assert "0 cell(s) recorded" in resumed
        # identical tables: the resume replayed, it didn't recompute
        assert first.split("(journal")[0] == resumed.split("(journal")[0]

    def test_existing_journal_needs_resume_flag(self, swf_path, tmp_path, capsys):
        journal = tmp_path / "sweep.jsonl"
        argv = ["simulate", str(swf_path), "--max-jobs", "100",
                "--journal", str(journal)]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv) == 2
        assert "--resume" in capsys.readouterr().err

    def test_retry_flags_accepted_on_clean_run(self, swf_path, capsys):
        assert main(
            ["simulate", str(swf_path), "--max-jobs", "100",
             "--policy", "fcfs,sjf", "--jobs", "2",
             "--task-timeout", "120", "--on-error", "retry",
             "--task-retries", "3", "--retry-backoff", "0"]
        ) == 0
        out = capsys.readouterr().out
        assert "policy sweep" in out


#: every runner and crash-safety flag, set away from its default
RUN_FLAGS = [
    "--jobs", "2", "--cache-dir", "c", "--no-cache", "--task-timeout", "5",
    "--on-error", "skip", "--task-retries", "2", "--retry-backoff", "0",
    "--journal", "j.jsonl", "--resume", "--fsync",
]


class TestRunFlagsShared:
    """``repro simulate`` and ``python -m repro.experiments`` take one flag set."""

    def test_both_parsers_expose_the_same_run_flags(self, monkeypatch):
        import argparse

        from repro.experiments.__main__ import main as experiments_main
        from repro.runner import add_run_arguments

        bare = argparse.ArgumentParser()
        add_run_arguments(bare)
        defaults = vars(bare.parse_args([]))
        flagged = vars(bare.parse_args(RUN_FLAGS))
        assert defaults != flagged  # RUN_FLAGS moves every flag

        class Parsed(Exception):
            pass

        parse_args = argparse.ArgumentParser.parse_args

        def stop_after_parsing(self, args=None, namespace=None):
            raise Parsed(vars(parse_args(self, args, namespace)))

        monkeypatch.setattr(
            argparse.ArgumentParser, "parse_args", stop_after_parsing
        )
        for cli, argv in ((main, ["simulate", "t.swf"]),
                          (experiments_main, ["table2"])):
            for extra, expected in (([], defaults), (RUN_FLAGS, flagged)):
                with pytest.raises(Parsed) as parsed:
                    cli(argv + extra)
                got = parsed.value.args[0]
                assert {k: got[k] for k in expected} == expected

    def test_experiments_refuse_existing_journal_without_resume(
        self, tmp_path, capsys
    ):
        from repro.experiments.__main__ import main as experiments_main

        journal = tmp_path / "sweep.jsonl"
        argv = ["ext_policies", "--days", "2", "--max-jobs", "100",
                "--journal", str(journal)]
        assert experiments_main(argv) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc_info:
            experiments_main(argv)
        assert exc_info.value.code == 2
        assert "--resume" in capsys.readouterr().err
        # acknowledged, the same journal replays every cell
        assert experiments_main(argv + ["--resume"]) == 0


class TestExperimentsCliFlags:
    """Which runner flags each experiment of ``python -m repro.experiments``
    uses, and what it says about the others."""

    def test_fig12_traces_its_fits_and_prints_no_cache_line(
        self, tmp_path, capsys
    ):
        from repro.experiments.__main__ import main as experiments_main

        trace_out = tmp_path / "fig12.json"
        argv = ["fig12", "--days", "5", "--max-jobs", "300", "--jobs", "2",
                "--trace-out", str(trace_out),
                "--cache-dir", str(tmp_path / "cache")]
        assert experiments_main(argv) == 0
        captured = capsys.readouterr()
        assert "does not support performance tracing" not in captured.err
        assert "(trace: " in captured.out
        # the fits are not cached: no hit/miss line for them
        assert "(cache " not in captured.out
        doc = json.loads(trace_out.read_text())
        names = {e["name"] for e in doc["traceEvents"] if e["ph"] == "X"}
        assert {"cell", "augment", "fit", "predict"} <= names

    def test_untraceable_experiment_says_the_trace_flags_are_ignored(
        self, tmp_path, capsys
    ):
        from repro.experiments.__main__ import main as experiments_main

        trace_out = tmp_path / "t.json"
        argv = ["fig1", "--days", "2", "--trace-out", str(trace_out)]
        assert experiments_main(argv) == 0
        assert "does not support performance tracing" in capsys.readouterr().err
        assert not trace_out.exists()


class TestCliRunTelemetry:
    def test_run_log_records_every_cell(self, swf_path, tmp_path, capsys):
        log = tmp_path / "runs.jsonl"
        argv = [
            "simulate", str(swf_path),
            "--max-jobs", "150",
            "--policy", "fcfs,sjf",
            "--run-log", str(log),
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert f"logged 2 run record(s) to {log}" in out
        records = [json.loads(line) for line in log.read_text().splitlines()]
        assert [r["label"] for r in records] == ["fcfs", "sjf"]
        assert all(r["fingerprint"] and not r["cached"] for r in records)

    def test_run_log_does_not_change_tables(self, swf_path, tmp_path, capsys):
        argv = ["simulate", str(swf_path), "--max-jobs", "150",
                "--policy", "fcfs,sjf"]
        assert main(argv) == 0
        plain = capsys.readouterr().out
        assert main(argv + ["--run-log", str(tmp_path / "runs.jsonl")]) == 0
        logged = capsys.readouterr().out
        assert logged.split("logged")[0] == plain

    def test_progress_jsonl_events_on_stderr(self, swf_path, capsys):
        assert main(
            [
                "simulate", str(swf_path),
                "--max-jobs", "150",
                "--policy", "fcfs,sjf",
                "--progress", "jsonl",
            ]
        ) == 0
        events = [
            json.loads(line) for line in capsys.readouterr().err.splitlines()
        ]
        kinds = [e["event"] for e in events]
        assert kinds[0] == "sweep_start"
        assert kinds.count("task_done") == 2
        assert kinds[-1] == "sweep_end"

    def test_telemetry_conflicts_with_obs_flags(self, swf_path, tmp_path, capsys):
        assert main(
            [
                "simulate", str(swf_path),
                "--max-jobs", "50",
                "--profile",
                "--run-log", str(tmp_path / "runs.jsonl"),
            ]
        ) == 2
        assert "observe the sweep runner" in capsys.readouterr().err

    def test_report_renders_registry_aggregates(self, swf_path, tmp_path, capsys):
        log = tmp_path / "runs.jsonl"
        assert main(
            [
                "simulate", str(swf_path),
                "--max-jobs", "150",
                "--policy", "fcfs,sjf,f1",
                "--run-log", str(log),
            ]
        ) == 0
        capsys.readouterr()
        assert main(["report", str(log)]) == 0
        out = capsys.readouterr().out
        assert "3 record(s), run registry" in out
        assert "sweep summary" in out
        assert "per-worker load" in out
        assert "trajectory" in out

    def test_report_bench_history_flags_regressions(self, tmp_path, capsys):
        log = tmp_path / "bench.jsonl"
        log.write_text(
            json.dumps({"bench": "b[x]", "wall_seconds": 1.0}) + "\n"
            + json.dumps({"bench": "b[x]", "wall_seconds": 2.0}) + "\n"
        )
        assert main(["report", str(log)]) == 0
        out = capsys.readouterr().out
        assert "bench history" in out
        assert "REGRESSED" in out
        assert "2.00x" in out
        assert main(["report", str(log), "--fail-on-regression"]) == 1
        # raising the threshold clears the flag
        capsys.readouterr()
        assert main(
            ["report", str(log), "--fail-on-regression",
             "--regression-factor", "2.5"]
        ) == 0
        assert "REGRESSED" not in capsys.readouterr().out

    def test_report_rejects_bad_inputs(self, tmp_path, capsys):
        assert main(["report", str(tmp_path / "absent.jsonl")]) == 2
        assert "cannot read" in capsys.readouterr().err

        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["report", str(empty)]) == 2
        assert "no records" in capsys.readouterr().err

        alien = tmp_path / "alien.jsonl"
        alien.write_text(json.dumps({"something": "else"}) + "\n")
        assert main(["report", str(alien)]) == 2
        assert "neither" in capsys.readouterr().err


def bench_history(tmp_path, tail):
    """A bench history with 5 stable runs then one run per `tail` value."""
    log = tmp_path / "bench.jsonl"
    rows = [{"bench": "b[x]", "wall_seconds": 1.0, "status": "ok"}] * 5
    rows += [
        {"bench": "b[x]", "wall_seconds": v, "status": "ok"} for v in tail
    ]
    log.write_text("".join(json.dumps(r) + "\n" for r in rows))
    return log


class TestCliPerfGate:
    def test_slowed_entry_fails_gate(self, tmp_path, capsys):
        log = bench_history(tmp_path, [3.0])
        assert main(
            ["report", str(log), "--perf", "--fail-on-regression"]
        ) == 1
        out = capsys.readouterr().out
        assert "perf gate" in out and "REGRESSED" in out

    def test_clean_history_passes_gate(self, tmp_path, capsys):
        log = bench_history(tmp_path, [1.02])
        assert main(
            ["report", str(log), "--perf", "--fail-on-regression"]
        ) == 0
        assert "REGRESSED" not in capsys.readouterr().out

    def test_gate_uses_median_not_predecessor(self, tmp_path, capsys):
        # one slow historical run would trip the run-over-run trajectory
        # but must not drag the median baseline
        log = bench_history(tmp_path, [4.0, 1.0])
        assert main(
            ["report", str(log), "--perf", "--fail-on-regression"]
        ) == 0

    def test_bad_gate_flags_exit_two(self, tmp_path, capsys):
        log = bench_history(tmp_path, [1.0])
        assert main(["report", str(log), "--perf", "--median-of", "0"]) == 2
        assert "--median-of" in capsys.readouterr().err
        assert main(
            ["report", str(log), "--perf", "--regression-factor", "1.0"]
        ) == 2
        assert "--regression-factor" in capsys.readouterr().err

    def test_json_format_emits_one_document(self, tmp_path, capsys):
        log = bench_history(tmp_path, [3.0])
        assert main(["report", str(log), "--perf", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["kind"] == "bench history"
        assert doc["regressed_keys"] == ["b[x]"]
        (entry,) = doc["perf_gate"]
        assert entry["regressed"] and entry["baseline"] == 1.0
        assert len(doc["trajectory"]) == doc["n_records"]

    def test_json_shorthand_flag(self, tmp_path, capsys):
        log = bench_history(tmp_path, [1.0])
        assert main(["report", str(log), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["kind"] == "bench history"

    def test_registry_json_includes_report(self, swf_path, tmp_path, capsys):
        log = tmp_path / "runs.jsonl"
        assert main(
            [
                "simulate", str(swf_path),
                "--max-jobs", "150",
                "--policy", "fcfs,sjf",
                "--run-log", str(log),
            ]
        ) == 0
        capsys.readouterr()
        assert main(["report", str(log), "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["kind"] == "run registry"
        assert doc["report"]["n_tasks"] == 2

    def test_conflicting_format_flags_exit_two(self, tmp_path, capsys):
        log = bench_history(tmp_path, [1.0])
        with pytest.raises(SystemExit) as exc_info:
            main(["report", str(log), "--format", "text", "--json"])
        assert exc_info.value.code == 2
        assert "conflicting output formats" in capsys.readouterr().err
        with pytest.raises(SystemExit) as exc_info:
            main(["report", str(log), "--format", "json", "--format", "text"])
        assert exc_info.value.code == 2
        # repeating the SAME format is not a conflict
        assert main(["report", str(log), "--json", "--format", "json"]) == 0


class TestCliProfile:
    def test_prints_breakdown_and_writes_outputs(self, swf_path, tmp_path, capsys):
        trace_out = tmp_path / "prof" / "trace.json"
        stacks_out = tmp_path / "prof" / "stacks.txt"
        assert main(
            [
                "profile", str(swf_path),
                "--policy", "sjf",
                "--max-jobs", "200",
                "--sample-hz", "200",
                "--trace-out", str(trace_out),
                "--stacks-out", str(stacks_out),
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "hot-path wall-time breakdown" in out
        assert "simulate" in out and "sampler:" in out
        doc = json.loads(trace_out.read_text())
        names = {e["name"] for e in doc["traceEvents"] if e["ph"] == "X"}
        assert "simulate" in names
        assert "simulate" in stacks_out.read_text()

    def test_rejects_bad_flags(self, swf_path, tmp_path, capsys):
        assert main(["profile", str(swf_path), "--sample-hz", "-1"]) == 2
        assert "--sample-hz" in capsys.readouterr().err
        assert main(["profile", str(swf_path), "--policy", "nope"]) == 2
        assert "unknown policy" in capsys.readouterr().err
        clash = tmp_path / "file"
        clash.write_text("")
        assert main(
            ["profile", str(swf_path), "--trace-out", str(clash / "t.json")]
        ) == 2
        assert "invalid output" in capsys.readouterr().err


def _overcrediting_engine():
    """The EASY engine with one phantom core credited at every shadow
    time: a divergence the fuzzer must catch."""
    return _mutated_simulate_fast(
        "extra = acc - need\n", "extra = acc - need + 1\n"
    )


class TestCliFuzz:
    def test_clean_campaign_exits_zero(self, capsys):
        assert main(["fuzz", "--budget", "25", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "ok: engines match the oracle" in out
        assert "25 workload(s)" in out

    def test_policy_subset(self, capsys):
        assert main(
            ["fuzz", "--budget", "10", "--policy", "easy,conservative"]
        ) == 0
        assert "2 policy configuration(s)" in capsys.readouterr().out

    def test_divergence_exits_one_and_writes_reproducer(
        self, tmp_path, monkeypatch, capsys
    ):
        real = fast.simulate_fast
        monkeypatch.setattr(fast, "simulate_fast", _overcrediting_engine())
        out = tmp_path / "repro.swf"
        assert main(
            ["fuzz", "--budget", "50", "--seed", "0",
             "--policy", "easy", "--out", str(out)]
        ) == 1
        text = capsys.readouterr().out
        assert "divergence in policy 'easy'" in text
        assert f"wrote shrunk reproducer to {out}" in text
        # the reproducer is a loadable SWF replayable through simulate
        monkeypatch.setattr(fast, "simulate_fast", real)
        capsys.readouterr()
        assert main(["simulate", str(out)]) == 0

    def test_divergence_without_out_prints_swf(self, monkeypatch, capsys):
        monkeypatch.setattr(fast, "simulate_fast", _overcrediting_engine())
        assert main(
            ["fuzz", "--budget", "50", "--seed", "0", "--policy", "easy"]
        ) == 1
        out = capsys.readouterr().out
        assert "shrunk reproducer (SWF):" in out
        assert "; MaxProcs: 16" in out

    def test_unknown_policy_exits_two(self, capsys):
        assert main(["fuzz", "--policy", "bogus"]) == 2
        assert "unknown" in capsys.readouterr().err

    def test_bad_budget_exits_two(self, capsys):
        assert main(["fuzz", "--budget", "0"]) == 2
        assert "--budget" in capsys.readouterr().err

    def test_out_parent_is_file_exits_two(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(fast, "simulate_fast", _overcrediting_engine())
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        assert main(
            ["fuzz", "--budget", "50", "--policy", "easy",
             "--out", str(blocker / "repro.swf")]
        ) == 2
        assert "invalid reproducer output" in capsys.readouterr().err


class TestReport:
    @pytest.fixture(scope="class")
    def study(self):
        return CrossSystemStudy.from_traces(
            {
                "theta": generate_trace("theta", days=2, seed=1),
                "philly": generate_trace("philly", days=2, seed=1),
            }
        )

    def test_sections_present(self, study):
        text = build_report(study)
        for section in (
            "## Traces",
            "## Job geometries",
            "## Core-hour domination",
            "## Utilization",
            "## Waiting time",
            "## Failures",
            "## User behaviour",
            "## Takeaways",
        ):
            assert section in text

    def test_systems_listed(self, study):
        text = build_report(study)
        assert "theta" in text and "philly" in text

    def test_custom_title(self, study):
        assert build_report(study, title="My Study").startswith("# My Study")

    def test_write_report(self, study, tmp_path):
        path = write_report(study, tmp_path / "out.md")
        assert Path(path).read_text().startswith("#")

    def test_markdown_tables_well_formed(self, study):
        for line in build_report(study).splitlines():
            if line.startswith("|"):
                assert line.endswith("|")
