"""Property tests for :meth:`SessionSet.save`.

``save`` formats each distinct request object once and joins cached
fragments per session; ``json.dumps(to_jsonable())`` is the spec it must
match byte for byte, whatever the strings, timestamp types and sharing
pattern of the set.
"""

from __future__ import annotations

import json

from hypothesis import given, settings, strategies as st

from repro.sessions.model import Request, Session, SessionSet

_AWKWARD = ['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "é", "☃", "😀",
            " ", "/"]

_TEXT = st.one_of(
    st.text(max_size=6),
    st.lists(st.sampled_from(_AWKWARD), max_size=4).map("".join))

_TIMESTAMPS = st.one_of(
    st.integers(-(2 ** 53), 2 ** 53),
    st.floats(allow_nan=False, allow_infinity=True),
    st.floats(min_value=-1e308, max_value=1e308),
    st.sampled_from([0.0, -0.0, 0.1, 1e16, 1e-7, 2.0 ** 60]))


@st.composite
def shared_session_sets(draw) -> SessionSet:
    """Sessions drawn as index subsets of per-user request pools, so one
    request object appears in many sessions; some pools hold a request
    twice, equal but for ``synthetic``."""
    sessions = []
    for _ in range(draw(st.integers(1, 4))):
        user = draw(_TEXT)
        stamps = sorted(draw(st.lists(_TIMESTAMPS, min_size=1, max_size=6)))
        pool = []
        for stamp in stamps:
            request = Request(stamp, user, draw(_TEXT), draw(st.booleans()))
            pool.append(request)
            if draw(st.booleans()):
                pool.append(Request(stamp, user, request.page,
                                    not request.synthetic))
        for _ in range(draw(st.integers(0, 5))):
            picked = draw(st.sets(st.integers(0, len(pool) - 1)))
            sessions.append(Session(pool[i] for i in sorted(picked)))
    order = draw(st.permutations(range(len(sessions))))
    return SessionSet(sessions[i] for i in order)


@settings(max_examples=150, deadline=None)
@given(shared_session_sets())
def test_save_matches_json_dumps_and_round_trips(tmp_path_factory, sessions):
    path = tmp_path_factory.mktemp("save") / "sessions.json"
    sessions.save(str(path))
    spec = json.dumps(sessions.to_jsonable())
    assert path.read_bytes() == spec.encode("utf-8")
    loaded = SessionSet.load(str(path))
    assert loaded == SessionSet.from_jsonable(json.loads(spec))
    assert loaded.to_jsonable() == sessions.to_jsonable()
