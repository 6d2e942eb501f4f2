"""Property: supervised execution under injected worker faults is
output-identical to the serial loop (the paper's numbers cannot depend on
how often the infrastructure failed)."""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.faults import use_execution_faults
from repro.parallel import RetryPolicy, supervised_map


def _work(x):
    """Module-level so it pickles into worker processes."""
    return (x * 31 + 7) % 1009


# one transient fault per run: a crash or a recoverable slow-down on an
# arbitrary chunk, firing for an arbitrary (small) number of attempts.
_FAULTS = st.one_of(
    st.builds(lambda i, a: f"crash-chunk:{i}:0:{a}",
              st.integers(0, 7), st.integers(1, 2)),
    st.builds(lambda i: f"slow-chunk:{i}:0.05", st.integers(0, 7)),
)


@settings(max_examples=8, deadline=None)
@given(spec=_FAULTS, n=st.integers(4, 40))
def test_supervised_output_equals_serial_under_faults(spec, n):
    expected = [_work(x) for x in range(n)]
    policy = RetryPolicy(max_retries=3, deadline=10.0, backoff_base=0.01,
                         on_failure="serial")
    with use_execution_faults(spec):
        outcome = supervised_map(_work, range(n), workers=2, chunk_size=4,
                                 policy=policy)
    assert outcome.results == expected
    assert not outcome.failures or all(
        failure.resolution == "serial" for failure in outcome.failures)


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 2**16), chunk=st.integers(0, 31),
       attempt=st.integers(0, 4))
def test_backoff_is_deterministic_bounded_and_monotone_in_cap(seed, chunk,
                                                              attempt):
    policy = RetryPolicy(backoff_base=0.05, backoff_cap=1.0, jitter=0.5,
                         seed=seed)
    delay = policy.backoff_for(chunk, attempt)
    assert delay == policy.backoff_for(chunk, attempt)
    raw = min(1.0, 0.05 * (2 ** attempt))
    assert raw <= delay <= raw * 1.5
