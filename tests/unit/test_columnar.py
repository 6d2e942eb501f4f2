"""Unit tests for the columnar data plane (:mod:`repro.core.columnar`).

Covers the symbol table, column ingest, the index-form boundary (a
columnar result builds no ``Session`` until one is asked for), engine
selection on the reconstructor facade and metric parity between the
object and columnar engines.
"""

from __future__ import annotations

import json

import pytest

from repro.core.columnar import ColumnBatch, SymbolTable
from repro.core.smart_sra import SmartSRA
from repro.evaluation.harness import sweep
from repro.exceptions import ConfigurationError, ReconstructionError
from repro.obs import Registry, use_local_registry
from repro.sessions.model import Request, Session, SessionSet
from repro.sessions.navigation_oriented import NavigationHeuristic
from repro.sessions.time_oriented import DurationHeuristic, PageStayHeuristic
from repro.simulator.config import SimulationConfig
from repro.topology.generators import random_site

MIN = 60.0


def _stream(site, n_users=12, per_user=9):
    """A small deterministic multi-user stream over ``site``'s pages."""
    pages = site.adjacency_index().pages
    requests = []
    for u in range(n_users):
        for i in range(per_user):
            requests.append(Request(
                timestamp=40.0 * i + (u % 3),
                user_id=f"u{u:02d}",
                page=pages[(u * 7 + i * 3) % len(pages)]))
    return requests


@pytest.fixture(scope="module")
def site():
    return random_site(n_pages=40, avg_out_degree=5, seed=11)


class TestSymbolTable:
    def test_intern_resolve_round_trip(self):
        table = SymbolTable(["/a", "/b"])
        assert len(table) == 2
        assert table.n_topology == 2
        assert table.intern("/a") == 0
        assert table.intern("/c") == 2      # first sight appends
        assert table.intern("/c") == 2      # stable thereafter
        assert [table.resolve(i) for i in range(3)] == ["/a", "/b", "/c"]
        assert "/c" in table and "/d" not in table
        assert table.pages == ("/a", "/b", "/c")

    def test_duplicate_seed_rejected(self):
        with pytest.raises(ConfigurationError):
            SymbolTable(["/a", "/a"])

    def test_resolve_unknown_id_raises(self):
        table = SymbolTable(["/a"])
        with pytest.raises(ReconstructionError):
            table.resolve(5)
        with pytest.raises(ReconstructionError):
            table.resolve(-1)

    def test_topology_ids_coincide_with_adjacency_ranks(self, site):
        table = SymbolTable.for_topology(site)
        index = site.adjacency_index()
        assert table.pages == tuple(index.pages)
        assert table.n_topology == len(index.pages)


class TestIngest:
    def test_off_topology_pages_interned_on_first_sight(self, site):
        table = SymbolTable.for_topology(site)
        bound = table.n_topology
        requests = [Request(timestamp=float(i), user_id="u0",
                            page=f"/external/{i % 2}") for i in range(4)]
        batch = ColumnBatch.from_user_requests([("u0", requests)], table)
        ids = list(batch.pages)
        assert set(ids) == {bound, bound + 1}
        assert table.resolve(bound) == "/external/0"
        assert table.resolve(bound + 1) == "/external/1"


class TestEngineSelection:
    def test_unknown_engine_rejected(self, site):
        with pytest.raises(ConfigurationError):
            SmartSRA(site).reconstruct([], engine="tabular")

    def test_columnar_without_support_rejected(self, site):
        heuristic = NavigationHeuristic(site)
        assert not heuristic.supports_columnar
        with pytest.raises(ConfigurationError):
            heuristic.reconstruct([], engine="columnar")

    def test_smart_sra_canonical_equivalence(self, site):
        requests = _stream(site)
        smart = SmartSRA(site)
        obj = smart.reconstruct(requests)
        col = smart.reconstruct(requests, engine="columnar")

        def canon(sessions):
            return sorted(tuple((r.timestamp, r.user_id, r.page)
                                for r in s.requests) for s in sessions)
        assert canon(obj) == canon(col)

    def test_serial_and_parallel_columnar_identical(self, site):
        # the sweep point is the one parallel unit: a columnar sweep on
        # two processes scores exactly what the serial one does.
        config = SimulationConfig(n_agents=20, seed=3)
        serial = sweep(site, config, "stp", [0.05, 0.3], engine="columnar")
        parallel = sweep(site, config, "stp", [0.05, 0.3],
                         engine="columnar", workers=2)
        assert parallel.rows() == serial.rows()
        assert parallel.rows("captured") == serial.rows("captured")

    @pytest.mark.parametrize("heuristic_cls", [DurationHeuristic,
                                               PageStayHeuristic])
    def test_time_oriented_columnar_identical_to_object(self, site,
                                                        heuristic_cls):
        requests = _stream(site)
        heuristic = heuristic_cls()
        assert heuristic.supports_columnar
        obj = heuristic.reconstruct(requests)
        col = heuristic.reconstruct(requests, engine="columnar")
        assert list(obj) == list(col)


class TestMaterialization:
    def test_sessions_reuse_original_request_objects(self, site):
        requests = _stream(site, n_users=3, per_user=6)
        smart = SmartSRA(site)
        sessions = smart.reconstruct(requests, engine="columnar")
        originals = {id(request) for request in requests}
        for session in sessions:
            for request in session.requests:
                assert id(request) in originals

    def test_columnar_set_builds_sessions_only_on_demand(self, site,
                                                         monkeypatch,
                                                         tmp_path):
        requests = _stream(site)
        built = []
        real = Session.from_trusted_parts
        monkeypatch.setattr(Session, "from_trusted_parts", staticmethod(
            lambda parts: built.append(parts) or real(parts)))
        smart = SmartSRA(site)
        registry = Registry()
        with use_local_registry(registry):
            sessions = smart.reconstruct(requests, engine="columnar")
        path = str(tmp_path / "sessions.json")
        sessions.save(path)
        assert sessions
        count, total = len(sessions), sessions.total_requests()
        assert built == []
        # the first caller that needs sessions builds every one, once.
        twin = SessionSet(list(sessions))
        assert len(built) == count == len(twin)
        assert sessions.users() == twin.users()
        assert len(built) == count
        assert total == sum(len(session) for session in twin)
        with open(path, encoding="utf-8") as handle:
            assert handle.read() == json.dumps(twin.to_jsonable())

    def test_trusted_parts_pages_are_lazy_and_cached(self):
        requests = (Request(timestamp=0.0, user_id="u", page="/a"),
                    Request(timestamp=1.0, user_id="u", page="/b"))
        session = Session.from_trusted_parts(requests)
        assert session._pages is None          # not yet computed
        assert session.pages == ("/a", "/b")   # computed on demand
        assert session._pages == ("/a", "/b")  # and cached
        assert session.pages is session._pages


class TestCounterParity:
    def test_phase_counters_match_object_engine(self, site):
        requests = _stream(site)
        smart = SmartSRA(site)

        def counters(engine):
            registry = Registry()
            with use_local_registry(registry):
                smart.reconstruct(requests, engine=engine)
            snapshot = registry.snapshot()
            return {key: value
                    for key, value in snapshot.get("counters", {}).items()
                    if "phase1" in key or "phase2" in key}

        obj = counters("object")
        col = counters("columnar")
        assert obj and obj == col

    def test_session_series_match_object_engine(self, site):
        """``sessions.reconstructed`` and the ``sessions.length``
        histogram come from the index form's offsets on the columnar
        engine and equal the object engine's."""
        requests = _stream(site)
        smart = SmartSRA(site)

        def series(engine):
            registry = Registry()
            with use_local_registry(registry):
                smart.reconstruct(requests, engine=engine)
            snapshot = registry.snapshot()
            picked = {}
            for kind in ("counters", "histograms"):
                for key, value in snapshot.get(kind, {}).items():
                    if key.startswith(("sessions.reconstructed",
                                       "sessions.length")):
                        picked[key] = value
            return picked

        obj = series("object")
        col = series("columnar")
        assert len(obj) == 2 and obj == col
