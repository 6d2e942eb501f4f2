"""Unit tests for the experiment harness and report rendering."""

from __future__ import annotations

import pytest

from repro.core.smart_sra import SmartSRA
from repro.evaluation.harness import run_trial, standard_heuristics, sweep
from repro.evaluation.report import render_csv, render_sweep_table
from repro.exceptions import EvaluationError
from repro.sessions.navigation_oriented import NavigationHeuristic
from repro.sessions.time_oriented import DurationHeuristic, PageStayHeuristic
from repro.simulator.config import SimulationConfig


class TestStandardHeuristics:
    def test_contains_the_papers_four(self, small_site):
        heuristics = standard_heuristics(small_site)
        assert list(heuristics) == ["heur1", "heur2", "heur3", "heur4"]
        assert isinstance(heuristics["heur1"], DurationHeuristic)
        assert isinstance(heuristics["heur2"], PageStayHeuristic)
        assert isinstance(heuristics["heur3"], NavigationHeuristic)
        assert isinstance(heuristics["heur4"], SmartSRA)


class TestRunTrial:
    def test_reports_every_heuristic(self, small_site):
        trial = run_trial(small_site, SimulationConfig(n_agents=30, seed=5))
        assert set(trial.reports) == {"heur1", "heur2", "heur3", "heur4"}
        for report in trial.reports.values():
            assert 0.0 <= report.matched_accuracy <= 1.0
            assert report.matched <= report.captured

    def test_accuracies_metric_selection(self, small_site):
        trial = run_trial(small_site, SimulationConfig(n_agents=20, seed=5))
        matched = trial.accuracies("matched")
        captured = trial.accuracies("captured")
        assert all(matched[name] <= captured[name] for name in matched)
        with pytest.raises(EvaluationError):
            trial.accuracies("bogus")

    def test_custom_heuristics(self, small_site):
        trial = run_trial(small_site, SimulationConfig(n_agents=10, seed=5),
                          heuristics={"only": PageStayHeuristic()})
        assert list(trial.reports) == ["only"]


class TestSweep:
    @pytest.fixture(scope="class")
    def small_sweep(self, small_site):
        config = SimulationConfig(n_agents=30, seed=5)
        return sweep(small_site, config, "stp", [0.05, 0.2])

    def test_one_trial_per_value(self, small_sweep):
        assert small_sweep.values == (0.05, 0.2)
        assert len(small_sweep.trials) == 2

    def test_series_alignment(self, small_sweep):
        series = small_sweep.series()
        assert set(series) == {"heur1", "heur2", "heur3", "heur4"}
        assert all(len(values) == 2 for values in series.values())

    def test_rows_view(self, small_sweep):
        rows = small_sweep.rows()
        assert rows[0]["stp"] == 0.05
        assert "heur4" in rows[0]

    def test_rejects_empty_values(self, small_site):
        with pytest.raises(EvaluationError, match="at least one"):
            sweep(small_site, SimulationConfig(), "stp", [])

    def test_rejects_unknown_parameter(self, small_site):
        with pytest.raises(EvaluationError, match="unknown"):
            sweep(small_site, SimulationConfig(), "nonsense", [0.1])


class TestRendering:
    @pytest.fixture(scope="class")
    def rendered_sweep(self, small_site):
        config = SimulationConfig(n_agents=20, seed=5)
        return sweep(small_site, config, "lpp", [0.0, 0.5])

    def test_table_contains_headers_and_values(self, rendered_sweep):
        text = render_sweep_table(rendered_sweep, title="My Title")
        assert "My Title" in text
        assert "LPP" in text
        assert "heur4" in text
        assert "0.5" in text

    def test_csv_shape(self, rendered_sweep):
        csv = render_csv(rendered_sweep)
        lines = csv.strip().splitlines()
        assert lines[0] == "lpp,heur1,heur2,heur3,heur4"
        assert len(lines) == 3


class TestMarkdown:
    def test_markdown_table_shape(self, small_site):
        from repro.evaluation.report import render_markdown
        from repro.evaluation.harness import sweep
        from repro.simulator.config import SimulationConfig
        result = sweep(small_site, SimulationConfig(n_agents=20, seed=5),
                       "nip", [0.0, 0.5])
        text = render_markdown(result)
        lines = text.strip().splitlines()
        assert lines[0].startswith("| NIP |")
        assert lines[1].startswith("|---|")
        assert len(lines) == 4
        assert all(line.count("|") == 6 for line in lines if "---" not in line)


class TestTrialCaching:
    def test_run_trial_uses_cache(self, small_site, tmp_path, monkeypatch):
        from repro.evaluation.harness import run_trial
        from repro.simulator.config import SimulationConfig
        config = SimulationConfig(n_agents=15, seed=8)
        first = run_trial(small_site, config, cache_dir=str(tmp_path))

        import repro.evaluation.simcache as simcache

        def boom(*args, **kwargs):  # pragma: no cover - guard
            raise AssertionError("cache hit expected")

        monkeypatch.setattr(simcache, "simulate_population", boom)
        second = run_trial(small_site, config, cache_dir=str(tmp_path))
        assert first.accuracies() == second.accuracies()
