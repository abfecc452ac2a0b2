"""Deterministic parallel task execution (the §5 parallelism layer).

Section 5 of the paper makes two parallelism claims — GeoTriples is
"very efficient especially when its mapping processor is implemented
using Apache Hadoop", and JedAI's multi-core meta-blocking "has been
shown to be scalable" — and PR 1 made every federation endpoint call
independently retryable. This package supplies the execution substrate
those layers share: a :class:`WorkerPool` whose executor is injectable
(a serial fake for tests, a thread pool for real runs) and whose result
merging is *ordered*, so the output of a parallel run is byte-identical
to the serial run regardless of worker count.

See DESIGN.md "Parallel execution" for the determinism rules.
"""

from .partition import chunk_count, chunk_list
from .pool import (
    SerialExecutor,
    TaskOutcome,
    ThreadExecutor,
    WorkerDeath,
    WorkerPool,
)

__all__ = [
    "WorkerPool",
    "SerialExecutor",
    "ThreadExecutor",
    "TaskOutcome",
    "WorkerDeath",
    "chunk_list",
    "chunk_count",
]
