"""Unit tests for the differential correctness oracle (repro.diffcheck)."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core.config import SmartSRAConfig
from repro.diffcheck import (
    ENGINE_BASELINE,
    ENGINE_SEMANTICS,
    INVARIANT_ONLY_ENGINES,
    CorpusCase,
    EngineContext,
    available_engines,
    case_from_jsonable,
    case_to_jsonable,
    generate_corpus,
    load_corpus,
    resolve_engines,
    run_diffcheck,
    run_engine,
    save_corpus,
    verify_sessions,
)
from repro.exceptions import ConfigurationError
from repro.sessions.model import Request, Session, SessionSet
from repro.topology.graph import WebGraph


@pytest.fixture()
def chain_topology():
    return WebGraph([("A", "B"), ("B", "C"), ("C", "D")],
                    pages=["A", "B", "C", "D", "LONE"],
                    start_pages=["A"])


def _session(pairs, user="u"):
    return Session(Request(t, user, page) for t, page in pairs)


# -- invariant verifier ------------------------------------------------------


class TestInvariants:
    def test_clean_output_passes(self, chain_topology):
        sessions = [_session([(0.0, "A"), (100.0, "B"), (200.0, "C")]),
                    _session([(5.0, "LONE")], user="v")]
        assert verify_sessions(sessions, chain_topology) == ()

    def test_ordering_violation(self, chain_topology):
        # bare request lists bypass Session's constructor checks — the
        # verifier must catch what a deserialized/buggy engine could emit.
        broken = [[Request(100.0, "u", "A"), Request(50.0, "u", "B")]]
        rules = [v.rule for v in verify_sessions(broken, chain_topology)]
        assert "ordering" in rules

    def test_topology_violation(self, chain_topology):
        sessions = [_session([(0.0, "A"), (10.0, "D")])]   # no A->D link
        violations = verify_sessions(sessions, chain_topology)
        assert [v.rule for v in violations] == ["topology"]
        assert "A" in violations[0].detail and "D" in violations[0].detail

    def test_topology_skipped_without_graph(self):
        sessions = [_session([(0.0, "A"), (10.0, "D")])]
        assert verify_sessions(sessions, topology=None) == ()

    def test_gap_boundary_is_inclusive(self, chain_topology):
        config = SmartSRAConfig(max_gap=600.0, max_duration=1800.0)
        at_rho = [_session([(0.0, "A"), (600.0, "B")])]
        past_rho = [_session([(0.0, "A"), (600.0 + 1e-6, "B")])]
        assert verify_sessions(at_rho, chain_topology, config) == ()
        assert [v.rule for v in
                verify_sessions(past_rho, chain_topology, config)] == [
                    "max-gap"]

    def test_duration_boundary_is_inclusive(self, chain_topology):
        config = SmartSRAConfig(max_gap=600.0, max_duration=1000.0)
        at_delta = [_session([(0.0, "A"), (500.0, "B"), (1000.0, "C")])]
        past_delta = [_session([(0.0, "A"), (500.0, "B"),
                                (1000.0 + 1e-6, "C")])]
        assert verify_sessions(at_delta, chain_topology, config) == ()
        assert [v.rule for v in
                verify_sessions(past_delta, chain_topology, config)] == [
                    "max-duration"]

    def test_synthetic_request_is_maximality_violation(self, chain_topology):
        sessions = [[Request(0.0, "u", "A"),
                     Request(10.0, "u", "B", synthetic=True)]]
        rules = [v.rule for v in verify_sessions(sessions, chain_topology)]
        assert rules == ["maximality"]

    def test_proper_prefix_is_maximality_violation(self, chain_topology):
        sessions = [_session([(0.0, "A")]),
                    _session([(0.0, "A"), (10.0, "B")])]
        violations = verify_sessions(sessions, chain_topology)
        assert [v.rule for v in violations] == ["maximality"]
        assert violations[0].session_index == 0

    def test_equal_sessions_are_not_prefix_violations(self, chain_topology):
        sessions = [_session([(0.0, "A")]), _session([(0.0, "A")])]
        assert verify_sessions(sessions, chain_topology) == ()

    def test_violations_serialize(self, chain_topology):
        sessions = [_session([(0.0, "A"), (10.0, "D")])]
        (violation,) = verify_sessions(sessions, chain_topology)
        document = violation.to_dict()
        assert document["rule"] == "topology"
        assert json.dumps(document)   # JSON-safe


# -- canonical hooks ---------------------------------------------------------


class TestCanonicalForm:
    def test_form_ignores_construction_order(self):
        a = _session([(0.0, "A"), (10.0, "B")])
        b = _session([(700.0, "C")])
        c = _session([(1.0, "A")], user="v")
        left = SessionSet([a, b, c])
        right = SessionSet([c, b, a])
        assert left.canonical_form() == right.canonical_form()
        assert left.canonical_digest() == right.canonical_digest()

    def test_form_keeps_multiplicity(self):
        a = _session([(0.0, "A")])
        once = SessionSet([a])
        twice = SessionSet([a, a])
        assert once.canonical_form() != twice.canonical_form()
        assert once.canonical_digest() != twice.canonical_digest()

    def test_digest_differs_on_content(self):
        assert (SessionSet([_session([(0.0, "A")])]).canonical_digest()
                != SessionSet([_session([(0.0, "B")])]).canonical_digest())

    def test_canonical_key_excludes_referrer(self):
        plain = Session([Request(0.0, "u", "A")])
        with_ref = Session([Request(0.0, "u", "A", referrer="B")])
        assert plain.canonical_key() == with_ref.canonical_key()


# -- engines -----------------------------------------------------------------


class TestEngines:
    def test_serial_is_always_included(self):
        assert resolve_engines("streaming") == ("serial", "streaming")

    def test_all_expands_to_registry_order(self):
        assert resolve_engines("all") == available_engines()

    def test_unknown_engine_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown engine"):
            resolve_engines("serial,warp-drive")
        with pytest.raises(ConfigurationError, match="unknown engine"):
            run_engine("warp-drive", None)

    def test_each_engine_matches_serial(self, chain_topology):
        requests = tuple(sorted([
            Request(0.0, "u1", "A"), Request(30.0, "u1", "B"),
            Request(31.0, "u2", "A"), Request(700.0, "u1", "C"),
            Request(700.0, "u2", "B"), Request(5000.0, "u2", "A"),
        ]))
        ctx = EngineContext(requests=requests, topology=chain_topology,
                            config=SmartSRAConfig(), seed=3)
        reference = run_engine("serial", ctx).canonical_digest()
        for name in available_engines():
            if name in INVARIANT_ONLY_ENGINES:
                continue
            if ENGINE_SEMANTICS.get(name, "smart-sra") != "smart-sra":
                continue  # amp engines answer to amp-reference, not serial
            assert run_engine(name, ctx).canonical_digest() == reference, name

    def test_invariant_only_engines_stay_rule_clean(self, chain_topology):
        # forced-degradation engines may segment differently, but every
        # session they emit must still pass the output-rule verifier.
        requests = tuple(sorted([
            Request(float(i), f"u{i % 3}", page)
            for i, page in enumerate("AB" * 12)
        ], key=lambda r: (r.timestamp, r.user_id)))
        ctx = EngineContext(requests=requests, topology=chain_topology,
                            config=SmartSRAConfig(), seed=3)
        assert INVARIANT_ONLY_ENGINES  # the set must not silently empty
        for name in INVARIANT_ONLY_ENGINES:
            output = run_engine(name, ctx)
            assert verify_sessions(output, chain_topology,
                                   SmartSRAConfig()) == ()


# -- amp engines -------------------------------------------------------------


class TestAmpEngines:
    def test_registered_with_baseline_and_semantics(self):
        engines = available_engines()
        assert "amp-reference" in engines and "amp-optimized" in engines
        assert ENGINE_BASELINE["amp-reference"] is None
        assert ENGINE_BASELINE["amp-optimized"] == "amp-reference"
        assert ENGINE_SEMANTICS["amp-reference"] == "amp"
        assert ENGINE_SEMANTICS["amp-optimized"] == "amp"

    def test_selecting_optimized_pulls_in_its_baseline(self):
        assert resolve_engines("amp-optimized") == (
            "serial", "amp-reference", "amp-optimized")

    def test_implementations_agree_on_a_case(self, chain_topology):
        requests = tuple(sorted([
            Request(float(i * 30), f"u{i % 2}", page)
            for i, page in enumerate("ABCD" * 3)
        ], key=lambda r: (r.timestamp, r.user_id)))
        ctx = EngineContext(requests=requests, topology=chain_topology,
                            config=SmartSRAConfig(), seed=1)
        assert (run_engine("amp-reference", ctx).canonical_digest()
                == run_engine("amp-optimized", ctx).canonical_digest())

    def test_harness_runs_amp_clean(self, chain_topology):
        case = CorpusCase(
            name="amp-tiny", description="", seed=0,
            config=SmartSRAConfig(), topology=chain_topology,
            requests=(Request(0.0, "u", "A"), Request(10.0, "u", "B"),
                      Request(20.0, "u", "C"), Request(1000.0, "u", "A")))
        report = run_diffcheck(
            [case], engines="serial,amp-reference,amp-optimized")
        assert report.ok, report.render()

    def test_amp_golden_mismatch_is_divergence(self, chain_topology):
        case = CorpusCase(
            name="amp-golden", description="", seed=0,
            config=SmartSRAConfig(), topology=chain_topology,
            requests=(Request(0.0, "u", "A"), Request(10.0, "u", "B")))
        ctx = EngineContext(case.requests, case.topology, case.config)
        pinned = case.with_expected(
            run_engine("serial", ctx),
            amp_reference=SessionSet([_session([(0.0, "A"), (10.0, "C")])]))
        report = run_diffcheck([pinned], engines="amp-reference")
        assert not report.ok
        (divergence,) = [d for d in report.outcomes[0].divergences
                         if d.baseline == "golden-amp"]
        assert divergence.engine == "amp-reference"
        assert divergence.rule == "digest"

    def test_sabotaged_optimized_is_caught_by_reference(self, monkeypatch,
                                                        chain_topology):
        import repro.diffcheck.engines as engines_module

        def lossy(ctx):
            good = engines_module.ENGINE_REGISTRY["amp-reference"](ctx)
            return SessionSet(list(good)[:-1])

        monkeypatch.setitem(engines_module.ENGINE_REGISTRY,
                            "amp-optimized", lossy)
        case = CorpusCase(
            name="amp-sabotage", description="", seed=0,
            config=SmartSRAConfig(), topology=chain_topology,
            requests=(Request(0.0, "u", "A"), Request(10.0, "u", "B"),
                      Request(20.0, "u", "C")))
        report = run_diffcheck([case], engines="amp-optimized")
        assert not report.ok
        divergence = report.outcomes[0].divergences[0]
        assert divergence.engine == "amp-optimized"
        assert divergence.baseline == "amp-reference"

    def test_golden_corpus_pins_amp_and_cyclic_case(self):
        cases = load_corpus(GOLDEN_DIR)
        assert "cyclic-topologies" in {case.name for case in cases}
        assert all(case.expected_amp_digest for case in cases)

    def test_golden_corpus_cli_with_amp_engines(self, capsys):
        from repro.cli import main
        assert main(["diffcheck", "--corpus", GOLDEN_DIR, "--engines",
                     "serial,amp-reference,amp-optimized"]) == 0
        assert "all engines equivalent" in capsys.readouterr().out


# -- corpus ------------------------------------------------------------------


class TestCorpus:
    def test_generation_is_deterministic(self):
        first = [case_to_jsonable(c) for c in generate_corpus(seed=0)]
        second = [case_to_jsonable(c) for c in generate_corpus(seed=0)]
        assert first == second

    def test_case_roundtrip(self, chain_topology):
        case = CorpusCase(
            name="tiny", description="roundtrip", seed=9,
            config=SmartSRAConfig(max_gap=60.0, max_duration=300.0),
            topology=chain_topology,
            requests=(Request(0.0, "u", "A"), Request(10.0, "u", "B")))
        pinned = case.with_expected(
            run_engine("serial", EngineContext(
                case.requests, case.topology, case.config)))
        recovered = case_from_jsonable(case_to_jsonable(pinned))
        assert case_to_jsonable(recovered) == case_to_jsonable(pinned)
        assert recovered.expected_digest == pinned.expected_digest

    def test_unknown_schema_rejected(self):
        with pytest.raises(ConfigurationError, match="schema"):
            case_from_jsonable({"schema": 999})

    def test_empty_corpus_directory_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError, match="no corpus cases"):
            load_corpus(tmp_path)

    def test_unreadable_case_rejected(self, tmp_path):
        (tmp_path / "bad.json").write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigurationError, match="unreadable"):
            load_corpus(tmp_path)


# -- harness -----------------------------------------------------------------


class TestHarness:
    def _tiny_case(self, chain_topology, **overrides):
        defaults = dict(
            name="tiny", description="", seed=0, config=SmartSRAConfig(),
            topology=chain_topology,
            requests=(Request(0.0, "u", "A"), Request(10.0, "u", "B"),
                      Request(1000.0, "u", "A")))
        defaults.update(overrides)
        return CorpusCase(**defaults)

    def test_agreeing_engines_report_ok(self, chain_topology):
        report = run_diffcheck([self._tiny_case(chain_topology)],
                               engines="serial,streaming,columnar")
        assert report.ok
        assert report.total_divergences == 0
        assert report.total_violations == 0
        assert "all engines equivalent" in report.render()

    def test_golden_mismatch_is_divergence(self, chain_topology):
        case = self._tiny_case(chain_topology)
        wrong = SessionSet([_session([(0.0, "A"), (10.0, "C")])])
        pinned = case.with_expected(wrong)
        report = run_diffcheck([pinned], engines="serial")
        assert not report.ok
        divergence = report.outcomes[0].divergences[0]
        assert divergence.baseline == "golden"
        assert divergence.user_id == "u"

    def test_divergence_locates_first_differing_session(self, monkeypatch,
                                                        chain_topology):
        # sabotage one engine so the harness has something to catch.
        import repro.diffcheck.engines as engines_module

        def broken(ctx):
            good = engines_module.ENGINE_REGISTRY["serial"](ctx)
            return SessionSet(list(good)[:-1])   # drop the last session

        monkeypatch.setitem(engines_module.ENGINE_REGISTRY, "broken", broken)
        report = run_diffcheck([self._tiny_case(chain_topology)],
                               engines="serial,broken")
        assert not report.ok
        divergence = report.outcomes[0].divergences[0]
        assert divergence.engine == "broken"
        assert divergence.engine_session is None   # engine lost a session
        assert divergence.baseline_session is not None
        assert "broken" in report.render()

    def test_report_serializes(self, chain_topology):
        report = run_diffcheck([self._tiny_case(chain_topology)],
                               engines="serial,streaming")
        document = report.to_dict()
        assert document["ok"] is True
        assert json.dumps(document)
        assert document["cases"][0]["digests"]["serial"]


# -- CLI ---------------------------------------------------------------------

GOLDEN_DIR = str(Path(__file__).resolve().parent.parent
                 / "data" / "diffcheck")


class TestDiffcheckCli:
    def test_golden_corpus_exits_zero(self, capsys):
        from repro.cli import main
        assert main(["diffcheck", "--corpus", GOLDEN_DIR,
                     "--engines", "serial,columnar,streaming"]) == 0
        out = capsys.readouterr().out
        assert "all engines equivalent" in out

    def test_json_output_parses(self, capsys):
        from repro.cli import main
        assert main(["diffcheck", "--corpus", GOLDEN_DIR,
                     "--engines", "serial,streaming", "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["ok"] is True
        assert document["total_divergences"] == 0

    def test_unknown_engine_is_one_line_error(self, capsys):
        from repro.cli import main
        assert main(["diffcheck", "--corpus", GOLDEN_DIR,
                     "--engines", "warp-drive"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_write_golden_roundtrip(self, tmp_path, capsys):
        from repro.cli import main
        target = tmp_path / "golden"
        assert main(["diffcheck", "--write-golden", str(target)]) == 0
        assert main(["diffcheck", "--corpus", str(target),
                     "--engines", "serial,streaming"]) == 0
