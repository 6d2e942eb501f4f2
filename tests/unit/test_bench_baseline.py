"""Unit tests for repro.obs.baseline and ``repro bench-diff``."""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.cli import main
from repro.exceptions import ConfigurationError
from repro.obs import compare_to_baseline, load_sidecars, record_pins

FULL = {"agents": 800, "quick": False, "seed": 0}
QUICK = {"agents": 800, "quick": True, "seed": 0}


def _sidecar(counters, workload=FULL):
    """A bench sidecar: a snapshot document plus its workload."""
    return {"version": 1, "counters": dict(counters),
            "gauges": {"stream.watermark.lag_seconds": 3.0},
            "histograms": {"stream.feed.seconds": {
                "buckets": [[1.0, 10]], "overflow": 0,
                "sum": 10.0, "count": 10}},
            "workload": workload}


_STREAMING = {"stream.requests.fed": 1000, "sessions.phase2.extensions": 40}


def _write_sidecar(directory, name, snapshot):
    path = directory / f"{name}.metrics.json"
    path.write_text(json.dumps(snapshot), encoding="utf-8")
    return path


def _rows(report):
    return {counter: (status, detail)
            for __, counter, status, detail in report.rows}


class TestSidecars:
    def test_load_names_by_stem(self, tmp_path):
        _write_sidecar(tmp_path, "bench_streaming", _sidecar(_STREAMING))
        sidecars = load_sidecars(str(tmp_path))
        assert list(sidecars) == ["bench_streaming"]

    def test_empty_directory_raises(self, tmp_path):
        with pytest.raises(ConfigurationError, match="--emit-metrics"):
            load_sidecars(str(tmp_path))

    def test_invalid_json_raises(self, tmp_path):
        (tmp_path / "bad.metrics.json").write_text("{", encoding="utf-8")
        with pytest.raises(ConfigurationError, match="not valid JSON"):
            load_sidecars(str(tmp_path))

    def test_wrong_version_raises(self, tmp_path):
        _write_sidecar(tmp_path, "bad", {"version": 2})
        with pytest.raises(ConfigurationError, match="version-1"):
            load_sidecars(str(tmp_path))

    def test_build_baseline_shape(self):
        """A baseline pins counters only, under the sidecars' workload."""
        baseline = record_pins({"bench_streaming": _sidecar(_STREAMING)})
        assert baseline["version"] == 2
        [pin_set] = baseline["pins"]
        assert pin_set["workload"] == FULL
        assert pin_set["benches"] == {"bench_streaming": _STREAMING}


class TestRecordPins:
    def test_schedule_dependent_counter_is_not_pinned(self):
        baseline = record_pins({"bench_sharded": _sidecar(
            {"sharded.events.routed": 160, "sharded.events.replayed": 7})})
        pins = baseline["pins"][0]["benches"]["bench_sharded"]
        assert pins == {"sharded.events.routed": 160}

    def test_replaces_only_the_matching_pin_set(self):
        baseline = record_pins({"bench_streaming": _sidecar(_STREAMING)})
        baseline = record_pins(
            {"bench_streaming": _sidecar({"stream.requests.fed": 5},
                                         QUICK)}, baseline)
        baseline = record_pins(
            {"bench_streaming": _sidecar({"stream.requests.fed": 6},
                                         QUICK)}, baseline)
        pins = {json.dumps(entry["workload"], sort_keys=True):
                entry["benches"]["bench_streaming"]
                for entry in baseline["pins"]}
        assert pins == {
            json.dumps(FULL, sort_keys=True): _STREAMING,
            json.dumps(QUICK, sort_keys=True): {"stream.requests.fed": 6}}

    def test_sidecars_of_different_workloads_raise(self):
        with pytest.raises(ConfigurationError, match="different workloads"):
            record_pins({"a": _sidecar(_STREAMING),
                         "b": _sidecar(_STREAMING, QUICK)})

    def test_sidecar_without_workload_raises(self):
        with pytest.raises(ConfigurationError, match="no workload"):
            record_pins({"a": _sidecar(_STREAMING, None)})


class TestCompare:
    def _baseline(self):
        return record_pins({"bench_streaming": _sidecar(_STREAMING)})

    def test_identical_run_is_ok(self):
        report = compare_to_baseline(
            {"bench_streaming": _sidecar(_STREAMING)}, self._baseline())
        assert report.ok and not report.failures
        assert len(report.rows) == 2

    @pytest.mark.parametrize("delta", [-1, 1])
    def test_any_changed_counter_fails(self, delta):
        moved = dict(_STREAMING)
        moved["sessions.phase2.extensions"] += delta
        report = compare_to_baseline(
            {"bench_streaming": _sidecar(moved)}, self._baseline())
        assert not report.ok
        assert _rows(report)["sessions.phase2.extensions"] == (
            "CHANGED", f"40 -> {40 + delta}")

    def test_timings_are_not_compared(self):
        slow = _sidecar(_STREAMING)
        slow["histograms"]["stream.feed.seconds"]["sum"] = 1000.0
        assert compare_to_baseline({"bench_streaming": slow},
                                   self._baseline()).ok

    def test_metric_no_longer_derivable_is_missing(self):
        report = compare_to_baseline(
            {"bench_streaming": _sidecar({"stream.requests.fed": 1000})},
            self._baseline())
        assert not report.ok
        assert _rows(report)["sessions.phase2.extensions"] == (
            "MISSING", "40 -> absent")

    def test_baselined_bench_without_sidecar_is_missing(self):
        report = compare_to_baseline({"bench_other": _sidecar({})},
                                     self._baseline())
        assert not report.ok
        assert report.rows == [("bench_streaming", "*", "MISSING",
                                "pinned bench has no sidecar")]

    def test_new_bench_is_not_ratcheted(self):
        grown = dict(_STREAMING, **{"stream.late_dropped": 3})
        report = compare_to_baseline(
            {"bench_streaming": _sidecar(grown),
             "bench_new": _sidecar({"n": 1})}, self._baseline())
        assert report.ok
        assert all(bench == "bench_streaming"
                   for bench, __, __, __ in report.rows)
        assert "stream.late_dropped" not in _rows(report)

    def test_workload_without_pin_set_raises(self):
        with pytest.raises(ConfigurationError, match="no pin set"):
            compare_to_baseline(
                {"bench_streaming": _sidecar(_STREAMING, QUICK)},
                self._baseline())

    def test_bad_baseline_version_raises(self):
        with pytest.raises(ConfigurationError, match="version"):
            compare_to_baseline({"bench_streaming": _sidecar(_STREAMING)},
                                {"version": 1, "benches": {}})

    def test_render_elides_ok_rows_unless_verbose(self):
        report = compare_to_baseline(
            {"bench_streaming": _sidecar(_STREAMING)}, self._baseline())
        quiet = report.render()
        assert "all pinned counters equal" in quiet
        assert "verdict: ok (0 failing)" in quiet
        assert "stream.requests.fed" in report.render(verbose=True)


class TestBenchDiffCli:
    @pytest.fixture()
    def recorded(self, tmp_path):
        """A results dir with one sidecar and its recorded pins."""
        results = tmp_path / "results"
        results.mkdir()
        _write_sidecar(results, "bench_streaming", _sidecar(_STREAMING))
        baseline = tmp_path / "BENCH_BASELINE.json"
        assert main(["bench-diff", "--results", str(results),
                     "--baseline", str(baseline), "--update"]) == 0
        return {"results": results, "baseline": baseline,
                "dir": tmp_path,
                "argv": ["bench-diff", "--results", str(results),
                         "--baseline", str(baseline)]}

    def test_update_writes_sorted_versioned_baseline(self, recorded):
        document = json.loads(
            recorded["baseline"].read_text(encoding="utf-8"))
        assert document["version"] == 2
        [pin_set] = document["pins"]
        pins = pin_set["benches"]["bench_streaming"]
        assert pins == _STREAMING
        assert list(pins) == sorted(pins)

    def test_update_replaces_only_the_matching_pin_set(self, recorded):
        _write_sidecar(recorded["results"], "bench_streaming",
                       _sidecar({"stream.requests.fed": 9}, QUICK))
        assert main(recorded["argv"] + ["--update"]) == 0
        _write_sidecar(recorded["results"], "bench_streaming",
                       _sidecar({"stream.requests.fed": 8}, QUICK))
        assert main(recorded["argv"] + ["--update"]) == 0
        document = json.loads(
            recorded["baseline"].read_text(encoding="utf-8"))
        assert [(entry["workload"], entry["benches"]["bench_streaming"])
                for entry in document["pins"]] == [
            (FULL, _STREAMING), (QUICK, {"stream.requests.fed": 8})]

    def test_unchanged_run_exits_zero(self, recorded, capsys):
        assert main(recorded["argv"]) == 0
        assert "verdict: ok" in capsys.readouterr().out

    def test_changed_counter_exits_one_and_prints_old_and_new(
            self, recorded, capsys):
        _write_sidecar(recorded["results"], "bench_streaming", _sidecar(
            dict(_STREAMING, **{"sessions.phase2.extensions": 39})))
        assert main(recorded["argv"]) == 1
        out = capsys.readouterr().out
        assert "CHANGED" in out and "40 -> 39" in out

    def test_workload_without_pin_set_is_one_line_error(self, recorded,
                                                        capsys):
        _write_sidecar(recorded["results"], "bench_streaming",
                       _sidecar(_STREAMING, QUICK))
        assert main(recorded["argv"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: no pin set for workload")
        assert err.count("\n") == 1

    def test_json_output_parses(self, recorded, capsys):
        assert main(recorded["argv"] + ["--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["ok"] is True
        assert document["workload"] == FULL

    def test_missing_results_dir_is_one_line_error(self, tmp_path,
                                                   capsys):
        assert main(["bench-diff",
                     "--results", str(tmp_path / "nowhere"),
                     "--baseline", str(tmp_path / "b.json")]) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_missing_baseline_file_is_one_line_error(self, recorded,
                                                     capsys):
        assert main(["bench-diff", "--results", str(recorded["results"]),
                     "--baseline",
                     str(recorded["dir"] / "absent.json")]) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_committed_baseline_matches_committed_sidecars(self):
        """The committed sidecars hold exactly the pinned counters of
        their workload, and the baseline pins a full and a quick run."""
        root = pathlib.Path(__file__).parent.parent.parent
        results = root / "benchmarks" / "results"
        baseline = json.loads(
            (root / "BENCH_BASELINE.json").read_text(encoding="utf-8"))
        assert sorted(entry["workload"]["quick"]
                      for entry in baseline["pins"]) == [False, True]
        report = compare_to_baseline(load_sidecars(str(results)), baseline)
        assert report.rows and report.ok, report.render()
        assert main(["bench-diff", "--results", str(results),
                     "--baseline", str(root / "BENCH_BASELINE.json")]) == 0
