"""The capture relation ``R ⊏ H`` — contiguous subsequence search.

The paper defines that a reconstructed session *H captures* a real session
*R* when R occurs in H as a **contiguous** subsequence preserving order:
``[P1,P3,P5] ⊏ [P9,P1,P3,P5,P8]`` but ``[P1,P3,P5] ⋢ [P1,P9,P3,P5,P8]``
"because P9 interrupts R in H".  That is exactly substring search over the
page-id alphabet, "adopted from ordinary string searching algorithm" (§5.1).

:func:`find` implements Knuth-Morris-Pratt, linear in ``len(haystack) +
len(needle)``.  These functions are the readable specification: the
evaluation finds every capture of a whole reconstruction at once, with
``str.find`` over encoded sessions
(``repro.evaluation.metrics._capture_relation``), and is property-tested
against :func:`contains`.
"""

from __future__ import annotations

from collections.abc import Sequence

__all__ = ["find", "contains", "failure_function"]


def failure_function(needle: Sequence[str]) -> list[int]:
    """KMP failure (longest proper prefix-suffix) table for ``needle``."""
    table = [0] * len(needle)
    length = 0
    for index in range(1, len(needle)):
        while length and needle[index] != needle[length]:
            length = table[length - 1]
        if needle[index] == needle[length]:
            length += 1
        table[index] = length
    return table


def find(haystack: Sequence[str], needle: Sequence[str]) -> int:
    """Index of the first occurrence of ``needle`` in ``haystack``, else -1.

    The empty needle matches at index 0, mirroring ``str.find``.
    """
    if not needle:
        return 0
    if len(needle) > len(haystack):
        return -1
    table = failure_function(needle)
    matched = 0
    for index, symbol in enumerate(haystack):
        while matched and symbol != needle[matched]:
            matched = table[matched - 1]
        if symbol == needle[matched]:
            matched += 1
            if matched == len(needle):
                return index - len(needle) + 1
    return -1


def contains(haystack: Sequence[str], needle: Sequence[str]) -> bool:
    """Whether ``needle ⊏ haystack`` (contiguous, order-preserving)."""
    return find(haystack, needle) != -1
