"""Unit tests for the simulator's statistical self-validation.

The checks are stdlib-only.  Their statistics, p-values and verdicts are
pinned against scipy's (``stats.ks_1samp``, ``stats.norm.cdf``,
``stats.binomtest``) on the same simulations; the scipy figures were
computed once and are frozen below, so the suite never imports scipy.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.exceptions import SimulationError
from repro.simulator.config import SimulationConfig
from repro.simulator.population import simulate_population
from tests.simulator_validation import (
    binomial_upper_tail,
    ks_p_value,
    validate_simulation,
)

#: (simulation, check, statistic, p-value, passed) from scipy 1.17.1.
SCIPY_CHECKS = [
    ("validated-400-13", "stay-time distribution",
     0.013737153314410777, 0.5626683101030179, True),
    ("validated-400-13", "termination rate (lower bound)",
     7.62382028068588, 0.9999999999999877, True),
    ("validated-400-13", "NIP jump rate (upper bound)",
     0.22987882076324834, 1.0, True),
    ("lied-400-13", "stay-time distribution",
     0.9719289253619838, 0.0, False),
    ("lied-400-13", "termination rate (lower bound)",
     7.62382028068588, 0.9999999999999877, True),
    ("lied-400-13", "NIP jump rate (upper bound)",
     0.22987882076324834, 1.0, True),
    ("small-200-7", "stay-time distribution",
     0.01965226860856671, 0.3843387356742426, True),
    ("small-200-7", "termination rate (lower bound)",
     1.2022877646179126, 0.8853739721287155, True),
    ("content-200-13", "termination rate (lower bound)",
     1.9846942658349163, 0.9764107514102136, True),
]

#: (k, n, p, scipy ``binomtest(k, n, p, alternative="greater").pvalue``).
SCIPY_BINOMTEST = [
    (3, 10, 0.3, 0.6172172136000003),
    (7, 10, 0.3, 0.010592078399999996),
    (10, 10, 0.3, 5.9048999999999975e-06),
    (20, 100, 0.285, 0.9799291375103305),
    (40, 100, 0.285, 0.008798604372074368),
    (900, 3000, 0.285, 0.03644477116077433),
    (1700, 8000, 0.1, 1.2785788536058488e-193),
    (1900, 8000, 0.2125, 3.696723923486455e-08),
    (2000, 8000, 0.2375, 0.004646471147610602),
    (5, 5, 0.999, 0.995009990004999),
]

#: (D, n, scipy ``kstwo.sf(D, n)``, the exact finite-n tail).
SCIPY_KSTWO = [
    (0.01, 5000, 0.6954557253913853),
    (0.02, 5000, 0.03613941395325637),
    (0.03, 5000, 0.00024159234422666817),
    (0.05, 1000, 0.013012074781090332),
    (0.1, 200, 0.03411035080315383),
    (0.3, 20, 0.04306706665851623),
]


@pytest.fixture(scope="module")
def validated_sim(small_site):
    config = SimulationConfig(n_agents=400, seed=13, nip_revisits=False)
    return simulate_population(small_site, config)


@pytest.fixture(scope="module")
def validated_report(validated_sim):
    return validate_simulation(validated_sim)


@pytest.fixture(scope="module")
def lied_report(validated_sim):
    # lie about the configuration: claim a different mean stay.
    return validate_simulation(replace(
        validated_sim, config=validated_sim.config.with_(mean_stay=4.4 * 60)))


@pytest.fixture(scope="module")
def content_sim(small_site):
    config = SimulationConfig(n_agents=200, seed=13, content_fraction=0.3)
    return simulate_population(small_site, config)


class TestValidateSimulation:
    def test_default_simulation_passes(self, validated_report):
        assert validated_report.checks, "expected at least one check to run"
        assert validated_report.passed, str(validated_report)

    def test_all_three_checks_run(self, validated_report):
        names = {check.name for check in validated_report.checks}
        assert "stay-time distribution" in names
        assert "termination rate (lower bound)" in names
        assert "NIP jump rate (upper bound)" in names

    def test_report_renders(self, validated_report):
        text = str(validated_report)
        assert "simulator validation" in text
        assert "ok" in text

    def test_too_small_simulation_rejected(self, small_site):
        tiny = simulate_population(small_site,
                                   SimulationConfig(n_agents=2, seed=1))
        with pytest.raises(SimulationError, match="too few"):
            validate_simulation(tiny)

    def test_detects_broken_stay_distribution(self, lied_report):
        """If the configured distribution disagrees with the generated
        gaps, the KS check must fail — proving the test has teeth."""
        stay = next(check for check in lied_report.checks
                    if check.name == "stay-time distribution")
        assert not stay.passed

    def test_content_model_skips_stay_check(self, content_sim):
        report = validate_simulation(content_sim)
        names = {check.name for check in report.checks}
        assert "stay-time distribution" not in names


class TestAgainstScipy:
    @pytest.fixture(scope="class")
    def reports(self, validated_report, lied_report, small_simulation,
                content_sim):
        return {"validated-400-13": validated_report,
                "lied-400-13": lied_report,
                "small-200-7": validate_simulation(small_simulation),
                "content-200-13": validate_simulation(content_sim)}

    def test_same_checks_run(self, reports):
        for case, report in reports.items():
            assert [check.name for check in report.checks] == [
                name for pinned, name, *_ in SCIPY_CHECKS if pinned == case]

    @pytest.mark.parametrize("case, name, statistic, p_value, passed",
                             SCIPY_CHECKS)
    def test_matches_scipy(self, reports, case, name, statistic, p_value,
                           passed):
        check = next(check for check in reports[case].checks
                     if check.name == name)
        assert check.statistic == pytest.approx(statistic, rel=1e-12)
        assert check.passed is passed
        if name == "stay-time distribution":
            # scipy sums the exact finite-n tail; Stephens' corrected
            # asymptotic tail stays within 1% of it.
            assert check.p_value == pytest.approx(p_value, rel=0.01,
                                                  abs=1e-12)
        else:
            assert check.p_value == pytest.approx(p_value, rel=1e-12)

    @pytest.mark.parametrize("k, n, p, expected", SCIPY_BINOMTEST)
    def test_binomial_tail_matches_scipy(self, k, n, p, expected):
        assert binomial_upper_tail(k, n, p) == pytest.approx(expected,
                                                             rel=1e-12)

    def test_binomial_tail_edges(self):
        assert binomial_upper_tail(0, 10, 0.3) == 1.0
        assert binomial_upper_tail(11, 10, 0.3) == 0.0

    @pytest.mark.parametrize("distance, n, expected", SCIPY_KSTWO)
    def test_ks_tail_tracks_the_exact_one(self, distance, n, expected):
        assert ks_p_value(distance, n) == pytest.approx(expected, rel=0.01)
