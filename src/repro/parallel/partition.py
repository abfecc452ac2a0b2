"""Deterministic partitioning helpers shared by the parallel layers.

Partition boundaries are a pure function of the input length and the
requested partition count — never of the worker count, the clock, or
any ambient state — so the same workload always produces the same
task list. Callers that need byte-identical *artifacts* (e.g. the
GeoTriples part-files) fix the partition count explicitly and sweep
only the worker count.
"""

from __future__ import annotations

from typing import List, Sequence, TypeVar

T = TypeVar("T")


def chunk_list(items: Sequence[T], n_chunks: int) -> List[List[T]]:
    """Split *items* into at most *n_chunks* contiguous runs, in order.

    Chunk sizes are as even as a single ceiling-division allows; the
    concatenation of the chunks is always exactly ``list(items)``.
    """
    items = list(items)
    if n_chunks <= 1 or len(items) <= 1:
        return [items] if items else []
    size = max(1, (len(items) + n_chunks - 1) // n_chunks)
    return [items[i: i + size] for i in range(0, len(items), size)]


def chunk_count(n_items: int, n_chunks: int) -> int:
    """How many chunks :func:`chunk_list` would actually produce."""
    if n_items == 0:
        return 0
    if n_chunks <= 1 or n_items <= 1:
        return 1
    size = max(1, (n_items + n_chunks - 1) // n_chunks)
    return (n_items + size - 1) // size
