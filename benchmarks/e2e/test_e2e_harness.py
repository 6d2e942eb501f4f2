"""Tests of the end-to-end benchmark harness itself.

Run with ``python -m pytest benchmarks/e2e/test_e2e_harness.py``; every
case uses ``--quick``-sized inputs, so the file finishes in well under a
minute.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
for entry in (HERE, os.path.join(ROOT, "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

import paths  # noqa: E402
import replica  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from repro.obs.spans import analyze_trace, build_span_forest  # noqa: E402
from repro.sessions.model import SessionSet  # noqa: E402

QUICK = 1.0 / workloads.QUICK_DIVISOR
POPULATION = workloads.WORKLOADS["population"]


@pytest.fixture(scope="module")
def quick_population(tmp_path_factory):
    directory = str(tmp_path_factory.mktemp("population"))
    oracle = workloads.generate(POPULATION, 7, QUICK, directory)
    return {"oracle": oracle,
            "topology": os.path.join(directory, "topology.json"),
            "log": os.path.join(directory, "access.log"),
            "out": os.path.join(directory, "sessions.json")}


def _measure(files, path, **options):
    return paths.measure(path, POPULATION, files["oracle"], files["topology"],
                         files["log"], files["out"], **options)


def _run_benchmark(cwd: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "benchmarks", "e2e", "run.py"),
         *args], cwd=cwd, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_is_byte_deterministic_per_seed(tmp_path, name):
    workload = workloads.WORKLOADS[name]
    first, second, other = (str(tmp_path / label)
                            for label in ("a", "b", "c"))
    workloads.generate(workload, 3, QUICK, first)
    workloads.generate(workload, 3, QUICK, second)
    workloads.generate(workload, 4, QUICK, other)
    for file_name in ("topology.json", "access.log", "oracle.json"):
        with open(os.path.join(first, file_name), "rb") as a, \
                open(os.path.join(second, file_name), "rb") as b:
            assert a.read() == b.read(), file_name
    with open(os.path.join(first, "access.log"), "rb") as a, \
            open(os.path.join(other, "access.log"), "rb") as c:
        assert a.read() != c.read()


def test_passing_run_then_tampered_session_set_trips_gate(quick_population):
    files = quick_population
    result = _measure(files, "batch_object")
    assert result["problems"] == []
    assert result["digest"] == files["oracle"]["oracle_digest"]
    saved = SessionSet.load(files["out"])
    SessionSet(saved.sessions[1:]).save(files["out"])
    verified = {key: result[key] for key in ("sha256", "digest", "sessions")}
    for known in (None, verified):
        checked = paths.gate("batch_object", POPULATION, files["oracle"],
                             files["out"], files["topology"], None, known)
        assert checked["problems"], "a dropped session must fail the gate"


@pytest.mark.parametrize("path", ["stream", "sharded2"])
def test_exclusive_times_sum_exactly_to_root(quick_population, path):
    traced = tracing.traced_measure(
        path, POPULATION, quick_population["oracle"],
        quick_population["topology"], quick_population["log"],
        quick_population["out"])
    assert traced["result"]["problems"] == []
    assert traced["missing"] == []
    roots = build_span_forest(traced["records"])
    assert {root.name for root in roots} >= {path}
    for root in roots:
        assert sum(node.exclusive for node in root.walk()) == root.dur_s
    # the hooks are gone again once the traced rep returns.
    assert not hasattr(SessionSet.save, "__wrapped__")


def test_trace_file_reads_back_with_repro_trace_analyze(quick_population,
                                                        tmp_path):
    traced = tracing.traced_measure(
        "batch_object", POPULATION, quick_population["oracle"],
        quick_population["topology"], quick_population["log"],
        quick_population["out"])
    trace = tmp_path / "trace.jsonl"
    trace.write_text("".join(json.dumps(record) + "\n"
                             for record in traced["records"]))
    report = analyze_trace(str(trace))
    assert (report.critical_seconds + report.idle_seconds
            == report.heaviest_root.dur_s)


def test_missing_hook_reports_null_and_leaves_the_run_alone(
        quick_population):
    hooks = tuple(
        (layer, module, "maximal_sessions_renamed", kind)
        if layer == "phase2" else (layer, module, attribute, kind)
        for layer, module, attribute, kind in tracing.HOOKS["batch_object"])
    traced = tracing.traced_measure(
        "batch_object", POPULATION, quick_population["oracle"],
        quick_population["topology"], quick_population["log"],
        quick_population["out"], hooks=hooks)
    assert traced["missing"] == ["phase2"]
    assert traced["result"]["problems"] == []
    values = tracing.per_layer_values(
        "batch_object", traced, quick_population["oracle"]["lines"], 1.0,
        100.0)
    assert values["batch_object.phase2.us_per_rec"] is None
    assert values["batch_object.phase1.candidates"] is None
    assert values["batch_object.phase1.us_per_rec"] is not None


def test_replica_without_capsule_from_still_reproduces_the_run(
        quick_population, monkeypatch):
    import repro.streaming.sharded as sharded
    monkeypatch.delattr(sharded, "capsule_from")
    recorder = tracing.SpanRecorder()
    outcome = replica.replay_shards(
        recorder, "replica", 2, paths.ACK_INTERVAL, POPULATION.governor(),
        quick_population["topology"], quick_population["log"])
    assert outcome["capsules"] is False
    assert outcome["bytes"]["capsule"] == 0
    assert outcome["digest"] == quick_population["oracle"]["oracle_digest"]


def test_emitted_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    assert ({workload["name"] for workload in declared["workloads"]}
            == set(workloads.WORKLOADS))
    for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
        completed = _run_benchmark(ROOT, "--workload", "crawler-nat",
                                   "--quick", "--trace", trace)
        assert completed.returncode == 0, completed.stderr
        result = json.loads(completed.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        emitted = {name: metric["unit"]
                   for name, metric in result["metrics"].items()}
        assert emitted == {metric["name"]: metric["unit"]
                           for metric in declared[section]}


def test_exits_nonzero_without_a_result_when_the_library_is_absent(
        tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns(".cache", "__pycache__"))
    completed = _run_benchmark(str(tmp_path), "--workload", "population",
                               "--quick")
    assert completed.returncode != 0
    assert "correct" not in completed.stdout
