"""Integration tests: the pipeline's instrumentation and the CLI flags.

Every instrumented stage is driven once with an enabled registry and its
counters checked against the stage's own return values — the two
accounting systems (library results, metrics registry) must agree.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.core import SmartSRA
from repro.evaluation import run_trial
from repro.logs import IngestReport, ingest_lines
from repro.logs.ingest import report_from_registry
from repro.obs import Registry, use_registry
from repro.sessions import DurationHeuristic, Request
from repro.simulator import SimulationConfig, simulate_population
from repro.streaming import streaming_phase1
from repro.topology import random_site

GOOD = ('10.0.0.1 - - [10/Oct/2023:13:55:36 +0000] '
        '"GET /P1.html HTTP/1.1" 200 2326\n')
BAD = "this is not a log line\n"


class TestIngestInstrumentation:
    def test_counters_reconcile_with_report(self):
        registry = Registry()
        report = IngestReport()
        lines = [GOOD, "\n", BAD, GOOD]
        records = list(ingest_lines(lines, policy="skip", report=report,
                                    registry=registry))
        assert len(records) == 2
        assert registry.value("ingest.lines.total") == report.total_lines == 4
        assert registry.value("ingest.lines.parsed") == report.parsed == 2
        assert registry.value("ingest.lines.blank") == report.blank == 1
        assert registry.value("ingest.lines.dropped") == report.dropped == 1
        assert (registry.value("ingest.bytes.total")
                == sum(len(line) for line in lines))
        assert registry.value("ingest.faults", **{"class": "garbage"}) == 1

    def test_report_from_registry_round_trip(self):
        registry = Registry()
        report = IngestReport()
        list(ingest_lines([GOOD, BAD, "\n"], policy="skip", report=report,
                          registry=registry))
        rebuilt = report_from_registry(registry)
        assert rebuilt.policy == "skip"
        assert rebuilt.total_lines == report.total_lines
        assert rebuilt.parsed == report.parsed
        assert rebuilt.blank == report.blank
        assert rebuilt.quarantined == report.quarantined
        assert rebuilt.dropped == report.dropped
        assert rebuilt.repaired == report.repaired
        assert rebuilt.fault_counts == report.fault_counts
        assert rebuilt.reconciles()

    def test_mixed_policies_are_reported_as_mixed(self):
        registry = Registry()
        list(ingest_lines([GOOD], policy="skip", registry=registry))
        list(ingest_lines([GOOD], policy="repair", registry=registry))
        assert report_from_registry(registry).policy == "mixed"

    def test_ambient_registry_is_picked_up(self):
        registry = Registry()
        with use_registry(registry):
            list(ingest_lines([GOOD, GOOD]))
        assert registry.value("ingest.lines.parsed") == 2


class TestStreamingInstrumentation:
    def test_stream_counters(self):
        registry = Registry()
        pipeline = streaming_phase1(dedup=True, registry=registry)
        requests = [Request(float(i), "u1", f"P{i}") for i in range(3)]
        for request in requests:
            pipeline.feed(request)
        pipeline.feed(Request(2.0, "u1", "P2"))     # adjacent duplicate
        sessions = pipeline.flush()
        assert registry.value("stream.requests.fed") == 3
        assert registry.value("stream.duplicates_dropped") == 1
        assert (registry.value("stream.sessions.emitted")
                == len(sessions) > 0)
        assert registry.value("stream.buffered_requests") == 0


class TestSessionizerInstrumentation:
    def test_smart_sra_phase_counters_and_timers(self):
        site = random_site(30, 4, seed=3)
        requests = [Request(5.0 * i, "u1", page)
                    for i, page in enumerate(sorted(site.pages)[:8])]
        registry = Registry()
        with use_registry(registry):
            sessions = SmartSRA(site).reconstruct(requests)
        snapshot = registry.snapshot()
        assert registry.value("sessions.phase1.candidates") >= 1
        assert registry.value("sessions.phase1.requests") == len(requests)
        assert (registry.value("sessions.reconstructed",
                               heuristic="heur4") == len(sessions))
        assert snapshot["histograms"]["sessions.phase1.seconds"]["count"] >= 1
        assert snapshot["histograms"]["sessions.phase2.seconds"]["count"] >= 1
        phase2 = registry.value("sessions.phase2.sessions")
        assert phase2 == len(sessions)

    def test_session_length_histogram(self):
        requests = [Request(5.0 * i, "u1", f"P{i}") for i in range(4)]
        registry = Registry()
        with use_registry(registry):
            sessions = DurationHeuristic().reconstruct(requests)
        series = "sessions.length{heuristic=heur1}"
        data = registry.snapshot()["histograms"][series]
        assert data["count"] == len(sessions)
        assert data["sum"] == sum(len(session) for session in sessions)


class TestSimulatorAndHarnessInstrumentation:
    def test_end_to_end_counters_match_reports(self):
        site = random_site(40, 4, seed=3)
        config = SimulationConfig(n_agents=12, seed=1)
        registry = Registry()
        with use_registry(registry):
            trial = run_trial(site, config)
        assert registry.value("eval.trials") == 1
        assert (registry.value("sim.sessions.generated")
                == len(trial.simulation.ground_truth))
        assert (registry.value("sim.requests.logged")
                == len(trial.simulation.log_requests))
        assert (registry.value("eval.sessions.real")
                == len(trial.simulation.ground_truth))
        for name, report in trial.reports.items():
            assert (registry.value("eval.sessions.reconstructed",
                                   heuristic=name)
                    == report.reconstructed_count)
            assert (registry.value("eval.accuracy", heuristic=name)
                    == report.matched_accuracy)


@pytest.fixture()
def small_log(tmp_path):
    """A small simulated site + log, via the CLI itself."""
    site = str(tmp_path / "site.json")
    log = str(tmp_path / "access.log")
    truth = str(tmp_path / "truth.json")
    assert main(["topology", "--pages", "30", "--out-degree", "4",
                 "--seed", "3", "--output", site]) == 0
    assert main(["simulate", "--topology", site, "--agents", "15",
                 "--seed", "1", "--log", log, "--sessions", truth]) == 0
    return {"site": site, "log": log, "truth": truth, "dir": tmp_path}


class TestCLIObservability:
    def test_every_subcommand_accepts_obs_flags(self):
        from repro.cli import build_parser
        parser = build_parser()
        commands = parser._actions[-1].choices
        for name, sub in commands.items():
            options = {option for action in sub._actions
                       for option in action.option_strings}
            assert "--metrics" in options, name
            assert "--trace" in options, name

    def test_metrics_file_export(self, small_log, capsys):
        out = str(small_log["dir"] / "metrics.json")
        assert main(["ingest", "--log", small_log["log"],
                     "--error-policy", "skip", "--metrics", out]) == 0
        snapshot = json.loads(open(out, encoding="utf-8").read())
        assert snapshot["version"] == 1
        assert snapshot["counters"]["ingest.lines.total"] > 0
        assert "wrote" in capsys.readouterr().err

    def test_metrics_prom_export(self, small_log):
        out = str(small_log["dir"] / "metrics.prom")
        assert main(["ingest", "--log", small_log["log"],
                     "--error-policy", "skip", "--metrics", out]) == 0
        text = open(out, encoding="utf-8").read()
        assert "# TYPE repro_ingest_lines_total counter" in text

    def test_metrics_stdout_reserves_stdout(self, small_log, capsys):
        assert main(["ingest", "--log", small_log["log"],
                     "--error-policy", "skip", "--metrics", "-"]) == 0
        captured = capsys.readouterr()
        snapshot = json.loads(captured.out)   # stdout is pure JSON
        assert snapshot["counters"]["ingest.lines.total"] > 0
        assert "parsed" in captured.err       # report moved to stderr

    def test_trace_file_has_cli_span(self, small_log):
        trace = str(small_log["dir"] / "trace.jsonl")
        assert main(["reconstruct", "--log", small_log["log"],
                     "--heuristic", "smart-sra",
                     "--topology", small_log["site"],
                     "--output", str(small_log["dir"] / "out.json"),
                     "--trace", trace]) == 0
        records = [json.loads(line)
                   for line in open(trace, encoding="utf-8")]
        roots = [record for record in records
                 if record["type"] == "span" and record["parent"] is None]
        assert [root["name"] for root in roots] == ["cli.reconstruct"]

    def test_ingest_metrics_reconcile_with_report(self, small_log, capsys):
        assert main(["ingest", "--log", small_log["log"],
                     "--error-policy", "repair", "--metrics", "-"]) == 0
        snapshot = json.loads(capsys.readouterr().out)
        counters = snapshot["counters"]
        assert (counters["ingest.lines.parsed"]
                + counters.get("ingest.lines.blank", 0)
                + counters.get("ingest.lines.quarantined", 0)
                + counters.get("ingest.lines.dropped", 0)
                == counters["ingest.lines.total"])


class TestStatsSnapshot:
    @pytest.fixture()
    def snapshot_file(self, tmp_path):
        registry = Registry()
        registry.counter("ingest.lines.total").inc(9)
        registry.histogram("h", (1.0, 2.0)).observe(1.5)
        path = tmp_path / "snap.json"
        path.write_text(json.dumps(registry.snapshot()))
        return str(path)

    def test_table_rendering(self, snapshot_file, capsys):
        assert main(["stats", "--snapshot", snapshot_file]) == 0
        out = capsys.readouterr().out
        assert "ingest.lines.total" in out and "9" in out

    def test_json_rendering(self, snapshot_file, capsys):
        assert main(["stats", "--snapshot", snapshot_file,
                     "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["version"] == 1

    def test_prom_rendering(self, snapshot_file, capsys):
        assert main(["stats", "--snapshot", snapshot_file,
                     "--format", "prom"]) == 0
        assert ("repro_ingest_lines_total 9"
                in capsys.readouterr().out)

    def test_requires_exactly_one_source(self, capsys, tmp_path):
        assert main(["stats"]) == 2
        assert "exactly one" in capsys.readouterr().err

    def test_rejects_non_snapshot_json(self, tmp_path, capsys):
        path = tmp_path / "other.json"
        path.write_text('{"pages": []}')
        assert main(["stats", "--snapshot", str(path)]) == 1
        assert "error:" in capsys.readouterr().err


class TestUniformErrorHandling:
    """Every subcommand exits non-zero with a one-line ``error:`` message
    on missing or malformed input — never a traceback."""

    @pytest.mark.parametrize("argv", [
        ["ingest", "--log", "/nonexistent/access.log"],
        ["reconstruct", "--log", "/nonexistent/access.log",
         "--heuristic", "duration", "--output", "/tmp/out.json"],
        ["stats", "--sessions", "/nonexistent/sessions.json"],
        ["stats", "--snapshot", "/nonexistent/snap.json"],
        ["simulate", "--topology", "/nonexistent/site.json",
         "--agents", "5", "--log", "/tmp/x.log",
         "--sessions", "/tmp/x.json"],
        ["mine", "--sessions", "/nonexistent/sessions.json"],
    ])
    def test_missing_inputs(self, argv, capsys):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert len(err.strip().splitlines()) == 1

    def test_malformed_json_input(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["stats", "--snapshot", str(bad)]) == 1
        assert capsys.readouterr().err.startswith("error: ")
