"""Property tests for statistics, taxonomy and LCS."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.evaluation.similarity import lcs_length, session_overlap
from repro.evaluation.statistics import describe
from repro.evaluation.subsequence import contains
from repro.evaluation.taxonomy import ErrorCategory, classify_session
from repro.sessions.model import Session, SessionSet

_PAGES = st.sampled_from([f"P{i}" for i in range(6)])


@st.composite
def session_sets(draw):
    n = draw(st.integers(1, 10))
    sessions = []
    for index in range(n):
        pages = draw(st.lists(_PAGES, min_size=1, max_size=6))
        sessions.append(Session.from_pages(pages, user_id=f"u{index % 3}"))
    return SessionSet(sessions)


@settings(max_examples=60, deadline=None)
@given(session_sets())
def test_statistics_internal_consistency(sessions):
    stats = describe(sessions)
    assert stats.total_requests == sum(
        length * count for length, count in stats.length_histogram.items())
    assert stats.max_length == max(stats.length_histogram)
    assert stats.mean_length <= stats.max_length
    assert stats.page_entropy >= 0.0
    assert sum(count for __, count in stats.top_pages) <= stats.total_requests


@settings(max_examples=100, deadline=None)
@given(st.lists(_PAGES, max_size=12), st.lists(_PAGES, max_size=12))
def test_lcs_bounds(first, second):
    value = lcs_length(first, second)
    assert 0 <= value <= min(len(first), len(second))
    # LCS upper-bounds any contiguous containment:
    if contains(first, second):
        assert value == len(second)


@settings(max_examples=100, deadline=None)
@given(st.lists(_PAGES, min_size=1, max_size=8),
       st.lists(_PAGES, max_size=12))
def test_overlap_is_one_iff_subsequence(real_pages, other_pages):
    real = Session.from_pages(real_pages)
    candidate = Session.from_pages(other_pages) if other_pages \
        else Session([])
    overlap = session_overlap(real, candidate)
    assert 0.0 <= overlap <= 1.0
    if overlap == 1.0:
        # every real page embeds in order (possibly with gaps)
        iterator = iter(candidate.pages)
        assert all(page in iterator for page in real.pages)


@settings(max_examples=60, deadline=None)
@given(st.lists(_PAGES, min_size=1, max_size=8),
       st.lists(st.lists(_PAGES, min_size=1, max_size=8), max_size=5))
def test_taxonomy_is_total_and_consistent(real_pages, pool_pages):
    real = Session.from_pages(real_pages)
    pool = [Session.from_pages(pages) for pages in pool_pages]
    category = classify_session(real, pool)
    assert isinstance(category, ErrorCategory)
    if category is ErrorCategory.EXACT:
        assert any(candidate.pages == real.pages for candidate in pool)
    if category in (ErrorCategory.EXACT, ErrorCategory.MERGED):
        assert any(contains(candidate.pages, real.pages)
                   for candidate in pool)
    if category is ErrorCategory.LOST:
        seen = {page for candidate in pool for page in candidate.pages}
        assert not (set(real.pages) & seen)
