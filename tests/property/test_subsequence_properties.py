"""Property tests for the ⊏ capture relation: KMP vs a naive oracle, the
evaluation's ``str.find`` relation vs KMP, and its maximum matching."""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.evaluation.metrics import _capture_relation, _maximum_matching
from repro.evaluation.subsequence import contains, find
from repro.sessions.model import Session, SessionSet

_SYMBOLS = st.sampled_from(["A", "B", "C"])
_SEQ = st.lists(_SYMBOLS, max_size=30)


def _naive_find(haystack, needle):
    if not needle:
        return 0
    for start in range(len(haystack) - len(needle) + 1):
        if haystack[start:start + len(needle)] == needle:
            return start
    return -1


@given(_SEQ, _SEQ)
def test_find_matches_naive_oracle(haystack, needle):
    assert find(haystack, needle) == _naive_find(haystack, needle)


@given(_SEQ, st.integers(0, 29), st.integers(0, 29))
def test_every_slice_is_contained(sequence, start, length):
    needle = sequence[start:start + length]
    assert contains(sequence, needle)


@given(_SEQ, _SEQ)
def test_found_index_actually_matches(haystack, needle):
    index = find(haystack, needle)
    if index != -1:
        assert haystack[index:index + len(needle)] == needle


@given(_SEQ, _SEQ, _SEQ)
def test_containment_is_preserved_by_padding(prefix, needle, suffix):
    assert contains(prefix + needle + suffix, needle)


@given(_SEQ, _SEQ)
def test_transitivity_with_slices(haystack, needle):
    """If needle ⊏ haystack then needle ⊏ any superslice of the match."""
    index = find(haystack, needle)
    if index != -1 and needle:
        wider = haystack[max(0, index - 1):index + len(needle) + 1]
        assert contains(wider, needle)


_USERS = st.sampled_from(["", "u", "v"])
_SESSIONS = st.lists(st.tuples(_USERS, st.lists(_SYMBOLS, max_size=8)),
                     max_size=8)


def _set(drawn):
    return SessionSet(Session.from_pages(pages, user_id=user)
                      for user, pages in drawn)


@given(_SESSIONS, st.lists(st.tuples(_USERS, _SEQ), max_size=6),
       st.booleans())
def test_relation_matches_exhaustive_scan(reconstructed, truth,
                                          match_within_user):
    """The ``str.find`` relation ≡ a KMP scan of every session of each
    pool: within-user and global matching, empty sessions on either side,
    repeated pages, and real sessions longer than every reconstructed
    one (up to 30 pages against at most 8)."""
    truth, reconstructed = _set(truth), _set(reconstructed)
    edges, groups = _capture_relation(truth, reconstructed,
                                      match_within_user)
    expected_groups: dict[str, list[int]] = {}
    for index, real in enumerate(truth):
        within = match_within_user and bool(real)
        pool = [position for position, session in enumerate(reconstructed)
                if not within
                or (session and session.user_id == real.user_id)]
        assert edges[index] == [
            position for position in pool
            if contains(reconstructed[position].pages, real.pages)]
        expected_groups.setdefault(real.user_id if within else "",
                                   []).append(index)
    assert groups == expected_groups


@given(_SESSIONS, st.integers(0, 7), st.integers(0, 29), st.integers(1, 29))
def test_relation_finds_every_planted_slice(reconstructed, pick, start,
                                            length):
    """Any contiguous slice of a reconstructed session is captured by
    that session, within its user's pool and in the global pool."""
    if not reconstructed:
        return
    pick %= len(reconstructed)
    user, pages = reconstructed[pick]
    needle = pages[start % (len(pages) + 1):][:length]
    if not needle:
        return
    truth = SessionSet([Session.from_pages(needle, user_id=user)])
    reconstructed = _set(reconstructed)
    for match_within_user in (True, False):
        edges, __ = _capture_relation(truth, reconstructed,
                                      match_within_user)
        assert pick in edges[0]


def _brute_force_matching(adjacency, used=frozenset()):
    if not adjacency:
        return 0
    first, rest = adjacency[0], adjacency[1:]
    return max([_brute_force_matching(rest, used)]
               + [1 + _brute_force_matching(rest, used | {right})
                  for right in first if right not in used])


@given(st.lists(st.lists(st.integers(0, 6), max_size=4), max_size=7))
def test_matching_is_maximum(adjacency):
    """The explicit-stack augmenting-path search finds a maximum
    matching of the capture graph (exhaustive check on small graphs)."""
    assert _maximum_matching(adjacency) == _brute_force_matching(adjacency)


def _kuhn_matching(adjacency):
    """Kuhn's algorithm, one augmenting-path search per left node with a
    fresh visited set: the matching the Hopcroft–Karp search replaced,
    kept as its reference."""
    match_right = {}

    def augment(left, visited):
        for right in adjacency[left]:
            if right in visited:
                continue
            visited.add(right)
            if right not in match_right or augment(match_right[right],
                                                   visited):
                match_right[right] = left
                return True
        return False

    return sum(augment(left, set()) for left in range(len(adjacency)))


@settings(max_examples=200)
@given(st.integers(1, 40).flatmap(lambda rights: st.lists(
    st.lists(st.integers(0, rights - 1), max_size=6, unique=True),
    max_size=60)))
def test_matching_size_equals_kuhns(adjacency):
    """On random bipartite graphs, sparse and dense, with more left than
    right nodes and the reverse, the matching is as large as Kuhn's."""
    assert _maximum_matching(adjacency) == _kuhn_matching(adjacency)
