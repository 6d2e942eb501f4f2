"""CLI tests for the fault-tolerance surface: supervision flags,
``--checkpoint``/``--resume``, ``repro doctor`` and the chaos exec selftest."""

from __future__ import annotations

import json
import os
from unittest import mock

import pytest

from repro.cli import main
from repro.parallel import CheckpointStore


@pytest.fixture()
def site(tmp_path):
    path = str(tmp_path / "site.json")
    assert main(["topology", "--pages", "30", "--seed", "3",
                 "--output", path]) == 0
    return path


class TestSupervisionFlags:
    def test_bad_on_chunk_failure_rejected_by_parser(self, capsys):
        with pytest.raises(SystemExit):
            main(["sweep", "--parameter", "stp", "--values", "0.5",
                  "--on-chunk-failure", "explode"])

    def test_bad_max_retries_is_one_line_error(self, site, capsys):
        code = main(["sweep", "--parameter", "stp", "--values", "0.5",
                     "--topology", site, "--agents", "5",
                     "--max-retries", "-2"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "max_retries" in err

    def test_resume_requires_checkpoint(self, capsys):
        code = main(["sweep", "--parameter", "stp", "--values", "0.5",
                     "--resume"])
        assert code == 2
        assert "--resume requires --checkpoint" in capsys.readouterr().err


class TestSweepCheckpointCli:
    def test_checkpoint_then_resume_same_table(self, site, tmp_path, capsys):
        ckpt = str(tmp_path / "ckpt")
        args = ["sweep", "--parameter", "stp", "--values", "0.3,0.6",
                "--topology", site, "--agents", "10", "--seed", "5",
                "--checkpoint", ckpt]
        assert main(args) == 0
        first = capsys.readouterr().out
        store = CheckpointStore(ckpt)
        assert store.read_manifest()["status"] == "complete"
        assert len(store.completed_units("sweep-point")) == 2
        assert main(args + ["--resume"]) == 0
        assert capsys.readouterr().out == first

    def test_reused_directory_without_resume_refused(self, site, tmp_path,
                                                     capsys):
        ckpt = str(tmp_path / "ckpt")
        args = ["sweep", "--parameter", "stp", "--values", "0.5",
                "--topology", site, "--agents", "5", "--checkpoint", ckpt]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args) == 1
        assert "--resume" in capsys.readouterr().err


    def test_resume_with_another_lineup_refused(self, site, tmp_path,
                                                capsys):
        ckpt = str(tmp_path / "ckpt")
        args = ["sweep", "--parameter", "stp", "--values", "0.05,0.1",
                "--topology", site, "--agents", "10", "--checkpoint", ckpt]
        assert main(args + ["--heuristics", "heur1"]) == 0
        capsys.readouterr()
        assert main(args + ["--heuristics", "heur4", "--resume"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "different run configuration" in err


class TestDoctorCli:
    def test_missing_directory(self, tmp_path, capsys):
        code = main(["doctor", str(tmp_path / "nope")])
        assert code == 2
        assert "not a directory" in capsys.readouterr().err

    def test_healthy_directory(self, tmp_path, capsys):
        store = CheckpointStore(str(tmp_path / "ckpt"))
        store.begin("fp", label="demo")
        store.save_unit("trial", "a", {"x": 1})
        store.mark("complete")
        assert main(["doctor", store.directory]) == 0
        out = capsys.readouterr().out
        assert "verdict: ok" in out

    def test_degraded_directory_json(self, tmp_path, capsys):
        store = CheckpointStore(str(tmp_path / "ckpt"))
        store.begin("fp")
        path = store.save_unit("trial", "a", {"x": 1})
        with open(path, encoding="utf-8") as handle:
            document = json.load(handle)
        document["digest"] = "0" * 64
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)
        assert main(["doctor", store.directory, "--json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is False
        assert len(report["corrupt"]) == 1


class TestChaosExecSelftest:
    def test_selftest_passes_without_log(self, capsys):
        code = main(["chaos", "--exec-selftest", "--exec-fault",
                     "crash-chunk:1", "--selftest-items", "16",
                     "--selftest-workers", "2"])
        assert code == 0
        err = capsys.readouterr().err
        assert "identical to serial" in err

    def test_chaos_still_requires_log_otherwise(self, capsys):
        assert main(["chaos"]) == 2
        assert "--log is required" in capsys.readouterr().err

    def test_bad_fault_spec_is_one_line_error(self, capsys):
        code = main(["chaos", "--exec-selftest", "--exec-fault",
                     "explode-chunk:1"])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")


class TestKeyboardInterrupt:
    def test_exit_130_with_one_line_message(self, capsys):
        with mock.patch("repro.cli._run_command",
                        side_effect=KeyboardInterrupt):
            code = main(["selftest"])
        assert code == 130
        err = capsys.readouterr().err
        assert err.startswith("error: interrupted")
        assert "--resume" in err
        assert "\n" == err[-1] and "Traceback" not in err

    def test_interrupted_sweep_keeps_checkpoint_units(self, site, tmp_path,
                                                      capsys):
        ckpt = str(tmp_path / "ckpt")
        calls = {"n": 0}
        from repro.evaluation import harness

        real = harness._run_sweep_point_captured

        def interrupt_after_first(*args, **kwargs):
            if calls["n"] >= 1:
                raise KeyboardInterrupt
            calls["n"] += 1
            return real(*args, **kwargs)

        args = ["sweep", "--parameter", "stp", "--values", "0.3,0.6",
                "--topology", site, "--agents", "10", "--seed", "5",
                "--checkpoint", ckpt]
        with mock.patch.object(harness, "_run_sweep_point_captured",
                               side_effect=interrupt_after_first):
            assert main(args) == 130
        capsys.readouterr()
        store = CheckpointStore(ckpt)
        assert store.read_manifest()["status"] == "interrupted"
        assert len(store.completed_units("sweep-point")) == 1
        # the interrupted run resumes to the full table
        assert main(args + ["--resume"]) == 0
        assert "0.3" in capsys.readouterr().out
        assert store.read_manifest()["status"] == "complete"
