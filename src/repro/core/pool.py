"""Fork-pool machinery for CPU-bound fan-out.

The parallel scenario engine shards grids of independent, pure, CPU-bound
cells across a process pool: clamp the pool to the host's cores, prefer the
``fork`` start method so workers inherit memoised traces copy-on-write, and
fall back to serial execution when a pool cannot help.  Partitioned
streams (shards and fleet nodes) do not use this pool; they run on the
persistent workers of :mod:`repro.monitor.workers`, which share
:func:`effective_workers` for sizing.

Jobs must be *pure* with respect to the pool: the same job must produce the
same result whether it runs inline or in a worker, which is what lets the
golden tests pin serial/pooled bit-identity.
"""

from __future__ import annotations

import os
from typing import Callable, List, Sequence, TypeVar

_Job = TypeVar("_Job")
_Result = TypeVar("_Result")


def effective_workers(n_workers: int, n_jobs: int,
                      respect_cores: bool = True) -> int:
    """Pool size actually worth using for ``n_jobs`` CPU-bound jobs.

    A pool wider than the job list idles; a pool wider than the core count
    only adds fork and IPC overhead, so the requested size is clamped to the
    host unless the caller opts out (``respect_cores=False``, e.g. to
    exercise the fork path on a single-core machine).
    """
    workers = min(int(n_workers), int(n_jobs))
    if respect_cores:
        workers = min(workers, os.cpu_count() or 1)
    return workers


def fork_pool_map(fn: Callable[[_Job], _Result], jobs: Sequence[_Job],
                  n_workers: int, respect_cores: bool = True) -> List[_Result]:
    """Map ``fn`` over ``jobs``, sharding across a fork-based process pool.

    Runs serially in-process when the effective pool size is <= 1.  The
    ``fork`` start method is preferred so that workers inherit the parent's
    memoised state copy-on-write; on platforms without ``fork`` the default
    start method is used.
    """
    workers = effective_workers(n_workers, len(jobs), respect_cores)
    if workers <= 1:
        return [fn(job) for job in jobs]
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    try:
        context = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        context = None
    with ProcessPoolExecutor(max_workers=workers, mp_context=context) as pool:
        return list(pool.map(fn, jobs, chunksize=1))


__all__ = ["effective_workers", "fork_pool_map"]
