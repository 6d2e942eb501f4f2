"""Unit tests for the command-line interface."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap

import pytest

import repro
from repro.cli import build_parser, main
from repro.sessions.model import SessionSet
from repro.topology.io import load_graph


def test_parser_lists_all_commands():
    parser = build_parser()
    actions = {action.dest: action for action in parser._actions}
    choices = actions["command"].choices
    assert set(choices) == {"topology", "simulate", "clean", "reconstruct",
                            "sessionize", "stream", "evaluate",
                            "experiment", "sweep", "mine", "stats",
                            "run-spec", "dataset", "compare", "anonymize",
                            "selftest", "leaderboard", "chaos", "ingest",
                            "doctor", "diffcheck", "trace", "bench-diff"}


def test_topology_command(tmp_path, capsys):
    out = str(tmp_path / "site.json")
    code = main(["topology", "--pages", "40", "--out-degree", "4",
                 "--seed", "3", "--output", out])
    assert code == 0
    graph = load_graph(out)
    assert graph.page_count == 40
    printed = capsys.readouterr().out
    assert "pages: 40" in printed


def test_commands_run_with_import_time_objects_frozen(tmp_path):
    """``main`` freezes the import-time heap once per process, before the
    command runs: a fresh interpreter sees a non-zero freeze count inside
    the command, and a second ``main`` call does not freeze again."""
    script = textwrap.dedent("""
        import gc, sys
        import repro.cli as cli
        seen, freezes = [], []
        real_command, real_freeze = cli._run_command, gc.freeze
        def recording(args):
            seen.append(gc.get_freeze_count())
            return real_command(args)
        def counting():
            freezes.append(gc.get_freeze_count())
            real_freeze()
        cli._run_command, gc.freeze = recording, counting
        for out in sys.argv[1:]:
            assert cli.main(["topology", "--pages", "20", "--output",
                             out]) == 0
        print("frozen", len(freezes), *seen)
    """)
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    completed = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path / "a.json"),
         str(tmp_path / "b.json")],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=src))
    assert completed.returncode == 0, completed.stderr
    [line] = [line for line in completed.stdout.splitlines()
              if line.startswith("frozen ")]
    calls, first, second = map(int, line.split()[1:])
    assert calls == 1
    assert first > 0 and second > 0


@pytest.mark.parametrize("family", ["hierarchical", "power-law"])
def test_topology_families(tmp_path, family):
    out = str(tmp_path / "site.json")
    assert main(["topology", "--family", family, "--pages", "30",
                 "--output", out]) == 0
    assert load_graph(out).page_count == 30


@pytest.fixture()
def pipeline_files(tmp_path):
    """Run topology+simulate once; return the file paths."""
    site = str(tmp_path / "site.json")
    log = str(tmp_path / "access.log")
    truth = str(tmp_path / "truth.json")
    assert main(["topology", "--pages", "40", "--out-degree", "4",
                 "--seed", "3", "--output", site]) == 0
    assert main(["simulate", "--topology", site, "--agents", "40",
                 "--seed", "1", "--log", log, "--sessions", truth]) == 0
    return {"site": site, "log": log, "truth": truth, "dir": tmp_path}


def test_simulate_writes_log_and_truth(pipeline_files):
    truth = SessionSet.load(pipeline_files["truth"])
    assert len(truth) > 0
    with open(pipeline_files["log"], encoding="utf-8") as handle:
        assert len(handle.readlines()) > 0


def test_reconstruct_and_evaluate(pipeline_files, capsys):
    out = str(pipeline_files["dir"] / "reconstructed.json")
    assert main(["reconstruct", "--log", pipeline_files["log"],
                 "--heuristic", "heur4",
                 "--topology", pipeline_files["site"],
                 "--output", out]) == 0
    assert main(["evaluate", "--truth", pipeline_files["truth"],
                 "--reconstructed", out]) == 0
    printed = capsys.readouterr().out
    assert "real accuracy" in printed


def test_reconstruct_time_heuristic_needs_no_topology(pipeline_files):
    out = str(pipeline_files["dir"] / "heur2.json")
    assert main(["reconstruct", "--log", pipeline_files["log"],
                 "--heuristic", "heur2", "--output", out]) == 0
    assert len(SessionSet.load(out)) > 0


def test_reconstruct_heur3_without_topology_fails(pipeline_files, capsys):
    out = str(pipeline_files["dir"] / "fail.json")
    code = main(["reconstruct", "--log", pipeline_files["log"],
                 "--heuristic", "heur3", "--output", out])
    assert code == 2
    assert "requires --topology" in capsys.readouterr().err


def test_clean_command(pipeline_files, capsys):
    out = str(pipeline_files["dir"] / "clean.log")
    assert main(["clean", "--log", pipeline_files["log"],
                 "--output", out]) == 0
    assert "kept" in capsys.readouterr().out


def test_mine_command(pipeline_files, capsys):
    assert main(["mine", "--sessions", pipeline_files["truth"],
                 "--min-support", "0.005"]) == 0
    assert "frequent patterns" in capsys.readouterr().out


def test_experiment_command_writes_csv(tmp_path, capsys, monkeypatch):
    # shrink the sweep so the test stays fast: patch the value grids.
    import repro.evaluation.experiments as experiments
    monkeypatch.setattr(experiments, "FIG8_STP_VALUES", (0.05, 0.2))
    csv_path = str(tmp_path / "fig8.csv")
    assert main(["experiment", "fig8", "--agents", "30", "--seed", "2",
                 "--csv", csv_path]) == 0
    printed = capsys.readouterr().out
    assert "Figure 8" in printed
    with open(csv_path, encoding="utf-8") as handle:
        header = handle.readline()
    assert header.startswith("stp,")


def test_repro_error_returns_one(tmp_path, capsys):
    # evaluating against an empty ground truth is a ReproError -> exit 1.
    empty = str(tmp_path / "empty.json")
    SessionSet([]).save(empty)
    code = main(["evaluate", "--truth", empty, "--reconstructed", empty])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_compare_command(pipeline_files, capsys):
    heur4_out = str(pipeline_files["dir"] / "cmp_heur4.json")
    heur2_out = str(pipeline_files["dir"] / "cmp_heur2.json")
    assert main(["reconstruct", "--log", pipeline_files["log"],
                 "--heuristic", "heur4",
                 "--topology", pipeline_files["site"],
                 "--output", heur4_out]) == 0
    assert main(["reconstruct", "--log", pipeline_files["log"],
                 "--heuristic", "heur2", "--output", heur2_out]) == 0
    capsys.readouterr()
    assert main(["compare", "--truth", pipeline_files["truth"],
                 "--a", heur4_out, "--b", heur2_out,
                 "--name-a", "heur4", "--name-b", "heur2"]) == 0
    printed = capsys.readouterr().out
    assert "p=" in printed
    assert "significant at 5%" in printed


def test_stats_command(pipeline_files, capsys):
    assert main(["stats", "--sessions", pipeline_files["truth"]]) == 0
    assert "length histogram" in capsys.readouterr().out


def test_anonymize_command(pipeline_files, capsys):
    out = str(pipeline_files["dir"] / "anon.log")
    assert main(["anonymize", "--log", pipeline_files["log"],
                 "--output", out, "--key", "secret"]) == 0
    printed = capsys.readouterr().out
    assert "keyed pseudonyms" in printed
    from repro.logs.reader import read_clf_file
    records = read_clf_file(out)
    assert all(record.host.startswith("user-") for record in records)


def test_anonymize_truncate_mode(pipeline_files, capsys):
    out = str(pipeline_files["dir"] / "trunc.log")
    assert main(["anonymize", "--log", pipeline_files["log"],
                 "--output", out, "--truncate", "2"]) == 0
    assert "truncation" in capsys.readouterr().out


def test_selftest_command(capsys):
    assert main(["selftest"]) == 0
    printed = capsys.readouterr().out
    assert "selftest passed" in printed
    assert "Smart-SRA: ok" in printed


def test_leaderboard_command(capsys):
    assert main(["leaderboard", "--agents", "40", "--seed", "3"]) == 0
    printed = capsys.readouterr().out
    assert "matched [95% CI]" in printed
    assert "referrer" in printed


def test_chaos_then_ingest_roundtrip(pipeline_files, capsys):
    dirty = str(pipeline_files["dir"] / "dirty.log")
    quarantine = str(pipeline_files["dir"] / "bad.log")
    assert main(["chaos", "--log", pipeline_files["log"],
                 "--output", dirty, "--seed", "7",
                 "--fault", "truncate:0.1", "--fault", "garble:0.05"]) == 0
    assert main(["ingest", "--log", dirty,
                 "--error-policy", "quarantine",
                 "--quarantine", quarantine]) == 0
    printed = capsys.readouterr().out
    assert "reconciled:  ok" in printed
    with open(quarantine, encoding="utf-8") as handle:
        assert any(line.startswith("# line ") for line in handle)


def test_chaos_same_seed_is_byte_identical(pipeline_files):
    outs = []
    for name in ("a.log", "b.log"):
        out = str(pipeline_files["dir"] / name)
        assert main(["chaos", "--log", pipeline_files["log"],
                     "--output", out, "--seed", "11"]) == 0
        with open(out, "rb") as handle:
            outs.append(handle.read())
    assert outs[0] == outs[1]


def test_ingest_strict_fails_on_dirty_log(pipeline_files, capsys):
    dirty = str(pipeline_files["dir"] / "dirty2.log")
    assert main(["chaos", "--log", pipeline_files["log"],
                 "--output", dirty, "--seed", "7",
                 "--fault", "truncate:0.2"]) == 0
    assert main(["ingest", "--log", dirty,
                 "--error-policy", "strict"]) == 1
    assert "error:" in capsys.readouterr().err


class TestWorkersFlag:
    def test_negative_workers_rejected(self, capsys):
        code = main(["sweep", "--parameter", "stp", "--values", "0.5",
                     "--workers", "-2"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --workers must be >= 0")

    def test_parallel_lineup_sweep_runs_on_processes(self, pipeline_files,
                                                     capsys):
        # the --heuristics factory must pickle: a lineup that could not
        # would run every point in-process.  Only the pool path records
        # a parent-side `parallel.chunk.complete` event per point.
        args = ["sweep", "--parameter", "stp", "--values", "0.05,0.3",
                "--topology", pipeline_files["site"], "--agents", "10",
                "--heuristics", "heur1,heur4"]
        assert main(args) == 0
        serial = capsys.readouterr().out
        trace = str(pipeline_files["dir"] / "lineup-trace.jsonl")
        assert main(args + ["--workers", "2", "--trace", trace]) == 0
        assert capsys.readouterr().out == serial
        with open(trace, encoding="utf-8") as handle:
            records = [json.loads(line) for line in handle]
        completed = sorted(record["attrs"]["chunk"] for record in records
                           if record["name"] == "parallel.chunk.complete")
        assert completed == [0, 1]


def test_sessionize_alias(pipeline_files):
    out = str(pipeline_files["dir"] / "alias.json")
    assert main(["sessionize", "--log", pipeline_files["log"],
                 "--heuristic", "heur2", "--output", out]) == 0
    assert len(SessionSet.load(out)) > 0


class TestSweepCommand:
    def test_sweep_writes_table_and_csv(self, pipeline_files, capsys):
        csv_path = str(pipeline_files["dir"] / "sweep.csv")
        assert main(["sweep", "--topology", pipeline_files["site"],
                     "--parameter", "stp", "--values", "0.1,0.3",
                     "--agents", "15", "--seed", "2",
                     "--csv", csv_path]) == 0
        printed = capsys.readouterr().out
        assert "vs STP" in printed
        with open(csv_path, encoding="utf-8") as handle:
            assert handle.readline().startswith("stp,")

    def test_sweep_rejects_garbage_values(self, capsys):
        code = main(["sweep", "--parameter", "stp",
                     "--values", "0.1,banana"])
        assert code == 2
        assert "error: --values" in capsys.readouterr().err

    def test_sweep_rejects_empty_values(self, capsys):
        code = main(["sweep", "--parameter", "stp", "--values", ","])
        assert code == 2
        assert "at least one value" in capsys.readouterr().err


def test_stats_merges_multiple_snapshots(tmp_path, capsys):
    import json as json_module
    paths = []
    for name, count in (("w1.json", 3), ("w2.json", 4)):
        path = tmp_path / name
        path.write_text(json_module.dumps(
            {"version": 1, "counters": {"sessions.requests": count},
             "gauges": {"depth": count}, "histograms": {}}))
        paths.append(str(path))
    assert main(["stats", "--snapshot", paths[0], "--snapshot", paths[1],
                 "--format", "json"]) == 0
    merged = json_module.loads(capsys.readouterr().out)
    assert merged["counters"]["sessions.requests"] == 7   # counters add
    assert merged["gauges"]["depth"] == 4                 # last write wins


# -- stream / governor -------------------------------------------------------


def test_stream_matches_batch_reconstruct(pipeline_files, capsys):
    streamed = str(pipeline_files["dir"] / "streamed.json")
    batch = str(pipeline_files["dir"] / "batch.json")
    assert main(["stream", "--log", pipeline_files["log"],
                 "--topology", pipeline_files["site"],
                 "--output", streamed]) == 0
    assert "ungoverned" in capsys.readouterr().out
    assert main(["reconstruct", "--log", pipeline_files["log"],
                 "--heuristic", "smart-sra",
                 "--topology", pipeline_files["site"],
                 "--output", batch]) == 0
    key = lambda sessions: sorted((s.user_id, s.pages, s.start_time)
                                  for s in sessions)
    assert key(SessionSet.load(streamed)) == key(SessionSet.load(batch))


def test_stream_governed_reports_degradation(pipeline_files, capsys):
    out = str(pipeline_files["dir"] / "governed.json")
    assert main(["stream", "--log", pipeline_files["log"],
                 "--topology", pipeline_files["site"], "--output", out,
                 "--memory-budget", "4k", "--overload-policy", "evict",
                 "--per-user-cap", "16", "--late-policy", "drop",
                 "--flush-every", "600"]) == 0
    printed = capsys.readouterr().out
    assert "governed" in printed
    assert "bounded" in printed
    assert "evictions" in printed
    assert len(SessionSet.load(out)) > 0


def test_stream_block_policy_spills(pipeline_files, capsys):
    out = str(pipeline_files["dir"] / "spilled.json")
    spill = str(pipeline_files["dir"] / "spill")
    assert main(["stream", "--log", pipeline_files["log"],
                 "--topology", pipeline_files["site"], "--output", out,
                 "--memory-budget", "4k", "--overload-policy", "block",
                 "--spill-dir", spill, "--late-policy", "drop"]) == 0
    assert "spills" in capsys.readouterr().out


def test_stream_refuses_block_policy_with_shards(pipeline_files, capsys):
    code = main(["stream", "--log", pipeline_files["log"],
                 "--topology", pipeline_files["site"],
                 "--output", str(pipeline_files["dir"] / "x.json"),
                 "--shards", "2", "--memory-budget", "4k",
                 "--overload-policy", "block",
                 "--spill-dir", str(pipeline_files["dir"] / "spill")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "block" in err


def test_stream_phase1_needs_no_topology(pipeline_files):
    out = str(pipeline_files["dir"] / "phase1.json")
    assert main(["stream", "--log", pipeline_files["log"],
                 "--heuristic", "phase1", "--output", out]) == 0


def test_stream_smart_sra_without_topology_fails(pipeline_files, capsys):
    code = main(["stream", "--log", pipeline_files["log"],
                 "--output", str(pipeline_files["dir"] / "x.json")])
    assert code == 2
    assert "requires --topology" in capsys.readouterr().err


def test_stream_rejects_bad_governor_combination(pipeline_files, capsys):
    code = main(["stream", "--log", pipeline_files["log"],
                 "--heuristic", "phase1",
                 "--output", str(pipeline_files["dir"] / "x.json"),
                 "--overload-policy", "block"])
    assert code == 1
    assert "spill_dir" in capsys.readouterr().err


def test_stream_rejects_malformed_budget(pipeline_files, capsys):
    code = main(["stream", "--log", pipeline_files["log"],
                 "--heuristic", "phase1",
                 "--output", str(pipeline_files["dir"] / "x.json"),
                 "--memory-budget", "lots"])
    assert code == 1
    assert "malformed memory budget" in capsys.readouterr().err


def test_doctor_audits_overload_configuration(capsys):
    assert main(["doctor", "--memory-budget", "64k",
                 "--per-user-cap", "64"]) == 0
    assert "verdict: ok" in capsys.readouterr().out
    assert main(["doctor", "--memory-budget", "4k"]) == 1
    assert "DEGRADED" in capsys.readouterr().out


def test_doctor_overload_json(capsys):
    assert main(["doctor", "--json", "--memory-budget", "64k",
                 "--per-user-cap", "64"]) == 0
    import json as json_module
    document = json_module.loads(capsys.readouterr().out)
    assert document["ok"] is True
    assert document["memory_budget"] == 64 * 1024


def test_doctor_audits_telemetry_configuration(capsys):
    assert main(["doctor", "--serve-metrics", "9100",
                 "--timeline-interval", "1.0",
                 "--timeline-capacity", "600"]) == 0
    printed = capsys.readouterr().out
    assert "telemetry configuration:" in printed
    assert "verdict: ok" in printed
    # an impossible port is a failing verdict, not a warning.
    assert main(["doctor", "--serve-metrics", "70000"]) == 1
    assert "DEGRADED" in capsys.readouterr().out


def test_doctor_combined_overload_and_telemetry_json(capsys):
    import json as json_module
    assert main(["doctor", "--json", "--memory-budget", "64k",
                 "--per-user-cap", "64",
                 "--timeline-interval", "0.001",
                 "--timeline-capacity", "600"]) == 0
    document = json_module.loads(capsys.readouterr().out)
    assert document["ok"] is True
    assert len(document["audits"]) == 2
    # the tiny interval warns; the governor budget feeds the ring check.
    telemetry = document["audits"][1]
    assert any(check["level"] == "warn"
               for check in telemetry["checks"])


def test_doctor_without_target_fails(capsys):
    assert main(["doctor"]) == 2
    assert "needs a checkpoint DIR" in capsys.readouterr().err


def test_doctor_rejects_both_modes(tmp_path, capsys):
    assert main(["doctor", str(tmp_path), "--memory-budget", "64k"]) == 2
    assert "not both" in capsys.readouterr().err


def test_chaos_overload_selftest(capsys):
    assert main(["chaos", "--overload-selftest",
                 "--overload-budget", "48k"]) == 0
    err = capsys.readouterr().err
    assert "bounded" in err
    assert "reconciles" in err


def test_chaos_overload_selftest_json(capsys):
    assert main(["chaos", "--overload-selftest", "--json",
                 "--overload-budget", "48k",
                 "--exec-fault", "mem-pressure:400:0.5"]) == 0
    import json as json_module
    document = json_module.loads(capsys.readouterr().out)
    assert document["ok"] is True
    assert document["bounded"] is True


def test_chaos_shard_selftest_kills_on_both_sides_of_a_capsule(capsys):
    # the default kills (ordinals 40 and 60) land before any capsule at
    # the default replay capacity, and past capsules every 32 events at
    # the selftest's small one.
    assert main(["chaos", "--shard-selftest", "--json"]) == 0
    import json as json_module
    document = json_module.loads(capsys.readouterr().out)
    assert document["ok"] is True
    runs = document["runs"]
    assert [run["checkpoint_interval"] for run in runs] == [32768, 32]
    for run in runs:
        assert run["identical"] and run["reconciled"] and run["recovered"]
        assert run["stats"]["failovers"] == 2


def test_chaos_selftests_mutually_exclusive(capsys):
    assert main(["chaos", "--exec-selftest", "--overload-selftest"]) == 2
    assert "mutually exclusive" in capsys.readouterr().err
