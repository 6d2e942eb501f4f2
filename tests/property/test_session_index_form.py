"""Property tests for the index form of :class:`SessionSet`.

The columnar plane and the sharded coordinator hand their output to
``SessionSet._from_index`` as a request pool plus index lists, and the set
builds its ``Session`` objects only when a caller needs them.  The
contract: such a set is indistinguishable from its materialized twin
(``SessionSet`` of the same sessions, in the same order) on every public
method, and ``len``, ``bool``, ``total_requests`` and ``save`` never build
the sessions.  ``save`` writes exactly ``json.dumps(to_jsonable())``.

The inputs reach for what the writer formats specially: non-ASCII and
quoted strings, int and non-finite timestamps, synthetic requests, pool
entries shared by several sessions, empty sessions, an output order that
permutes the sessions, and the empty set.
"""

from __future__ import annotations

import copy
import json
import math
import pickle

from hypothesis import given, settings, strategies as st

from repro.sessions.model import Request, Session, SessionSet

TEXT = st.sampled_from(["u", "alice", "böb", "用户", 'q"uote',
                        "back\\slash", "tab\there", "/a.html", "/été",
                        "/p?x=\"1\"", "\U0001f600", ""])
TIMESTAMPS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False, width=64),
    st.integers(-10**6, 10**12),
    st.sampled_from([math.inf, -math.inf, math.nan, -0.0, 0.1, 1e300]))


@st.composite
def index_forms(draw):
    """``(pool, offsets, flat, order)`` for a set of single-user sessions
    whose requests are drawn, with repeats, from a shared pool."""
    pool = draw(st.lists(
        st.builds(Request, TIMESTAMPS, TEXT, TEXT, st.booleans()),
        max_size=12))
    by_user: dict[str, list[int]] = {}
    for position, request in enumerate(pool):
        by_user.setdefault(request.user_id, []).append(position)
    offsets, flat = [0], []
    for _ in range(draw(st.integers(0, 8))):
        if by_user and draw(st.integers(0, 9)):
            positions = by_user[draw(st.sampled_from(sorted(by_user)))]
            flat.extend(sorted(draw(st.lists(st.sampled_from(positions),
                                             min_size=1, max_size=6))))
        offsets.append(len(flat))     # an empty session, one time in ten
    n_sessions = len(offsets) - 1
    order = draw(st.none() | st.permutations(range(n_sessions)))
    return pool, offsets, flat, order


def twin_of(pool, offsets, flat, order) -> SessionSet:
    sessions = [Session.from_trusted_parts(tuple(pool[i]
                                                 for i in flat[lo:hi]))
                for lo, hi in zip(offsets, offsets[1:])]
    if order is not None:
        sessions = [sessions[i] for i in order]
    return SessionSet(sessions)


def same_file(saved: str, expected: str) -> bool:
    with open(saved, encoding="utf-8") as handle:
        return handle.read() == expected


@settings(max_examples=300, deadline=None)
@given(index_forms())
def test_index_form_equals_its_materialized_twin(tmp_path_factory, form):
    indexed = SessionSet._from_index(*form)
    twin = twin_of(*form)
    expected = json.dumps(twin.to_jsonable())
    directory = tmp_path_factory.mktemp("saved")

    # these four never build the sessions.
    assert len(indexed) == len(twin)
    assert bool(indexed) == bool(twin)
    assert indexed.total_requests() == twin.total_requests()
    indexed.save(str(directory / "indexed.json"))
    assert indexed._sessions is None
    assert same_file(str(directory / "indexed.json"), expected)
    twin.save(str(directory / "twin.json"))
    assert same_file(str(directory / "twin.json"), expected)

    # the per-user index is built from the sessions, on first use.
    assert indexed.users() == twin.users()
    for user in (*twin.users(), "nobody"):
        assert indexed.for_user(user) == twin.for_user(user)
    assert indexed._sessions is not None

    assert list(indexed) == list(twin)
    assert indexed.sessions == twin.sessions
    for position in range(-len(twin), len(twin)):
        assert indexed[position] == twin[position]
    assert indexed == twin and twin == indexed
    assert indexed.mean_length() == twin.mean_length()
    assert indexed.page_vocabulary() == twin.page_vocabulary()
    for minimum in range(4):
        assert indexed.filtered(minimum) == twin.filtered(minimum)
    assert indexed.canonical_digest() == twin.canonical_digest()
    assert json.dumps(indexed.to_jsonable()) == expected
    assert repr(indexed) == repr(twin)
    assert indexed._lengths() == [hi - lo for lo, hi
                                  in zip(form[1], form[1][1:])]


@settings(max_examples=150, deadline=None)
@given(index_forms())
def test_index_form_survives_pickle_and_copy(tmp_path_factory, form):
    twin = twin_of(*form)
    expected = json.dumps(twin.to_jsonable())
    # a copied NaN is a new float object, and NaN != NaN.
    comparable = not any(math.isnan(request.timestamp)
                         for request in form[0])
    directory = tmp_path_factory.mktemp("copies")
    for name, clone in (
            ("pickled", pickle.loads(pickle.dumps(
                SessionSet._from_index(*form)))),
            ("copied", copy.copy(SessionSet._from_index(*form))),
            ("deep", copy.deepcopy(SessionSet._from_index(*form)))):
        path = str(directory / f"{name}.json")
        clone.save(path)
        assert same_file(path, expected)
        assert json.dumps(clone.to_jsonable()) == expected
        assert clone == twin or not comparable
        assert clone.users() == twin.users()
    # a set whose sessions were already built round-trips too.
    built = SessionSet._from_index(*form)
    assert list(built) == list(twin)
    clone = pickle.loads(pickle.dumps(built))
    assert json.dumps(clone.to_jsonable()) == expected
    assert clone == twin or not comparable


def test_empty_index_form_is_an_empty_set(tmp_path):
    empty = SessionSet._from_index([], [0], [])
    assert len(empty) == 0 and not empty
    assert empty.total_requests() == 0 and empty.mean_length() == 0.0
    assert empty == SessionSet([]) and empty.users() == ()
    path = str(tmp_path / "empty.json")
    empty.save(path)
    assert same_file(path, "[]")
