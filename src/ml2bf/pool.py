"""Replicate streams, replicate chunks and the process pool that runs them.

Each replicate draws from its own stream, the chunk bounds depend only on
the replicate count and the requested worker count, and results come back
in chunk order, so outputs do not depend on how many processes actually run.
"""

import os
from concurrent.futures import ProcessPoolExecutor

import numpy as np

__all__ = ["chunk_bounds", "derive_stream", "run_chunked", "usable_cores"]


def derive_stream(seed: int, replicate) -> np.random.Generator:
    """Independent, reproducible generator for one replicate of one run.

    The stream is ``PCG64(SeedSequence(seed, spawn_key=key))`` where the key
    is the replicate index (or tuple of indices): a splittable counter-based
    derivation, so any replicate's stream can be rebuilt in isolation.
    """
    key = replicate if isinstance(replicate, tuple) else (int(replicate),)
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=key)))


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
