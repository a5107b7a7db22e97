"""Replicate chunks and the process pool that runs them.

The chunk bounds depend only on the replicate count and the requested
worker count, and results come back in chunk order, so outputs do not
depend on how many processes actually run.
"""

import os
from concurrent.futures import ProcessPoolExecutor

__all__ = ["chunk_bounds", "run_chunked", "usable_cores"]


def usable_cores() -> int:
    """Cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def chunk_bounds(total, threads):
    """Half-open replicate ranges: one chunk, or four per requested worker."""
    chunks = max(1, min(total, threads * 4 if threads > 1 else 1))
    step = (total + chunks - 1) // chunks
    return [(lo, min(lo + step, total)) for lo in range(0, total, step)]


def run_chunked(worker, jobs, threads):
    """``[worker(job) for job in jobs]``, in worker processes when
    ``threads`` > 1; the pool never has more processes than usable cores."""
    workers = min(threads, usable_cores(), len(jobs))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(worker, jobs))
    return [worker(job) for job in jobs]
