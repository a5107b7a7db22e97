"""The one replicate runner: replicate streams, chunks, the process pool, and
the mean and standard error of what the replicates return.

``run_replicates`` splits each cell's replicates into chunks, runs every
(cell, chunk) in one pool, and joins each cell's chunk results in replicate
order.  Each replicate draws from its own stream and the chunk bounds depend
only on the replicate count and the requested worker count, so outputs do
not depend on how many processes actually run.
"""

import math
import os

import numpy as np

__all__ = ["chunk_bounds", "derive_stream", "mean_se", "run_replicates", "usable_cores"]


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


def run_replicates(worker, cells, replicates, threads):
    """Per-replicate arrays of every cell, one tuple of arrays per cell.

    ``worker(cell, lo, hi)`` returns a tuple of arrays whose leading axis
    runs over replicates lo..hi-1 of ``cell``.  Every (cell, chunk) pair runs
    in one pool of worker processes when ``threads`` > 1, never more
    processes than usable cores; each cell's chunk results are joined in
    replicate order.
    """
    bounds = chunk_bounds(replicates, threads)
    jobs = [(cell, lo, hi) for cell in cells for lo, hi in bounds]
    workers = min(threads, usable_cores(), len(jobs))
    if workers > 1:
        # Imported here: a one-process run never pays for loading it.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(worker, *zip(*jobs)))
    else:
        parts = [worker(*job) for job in jobs]
    per_cell = len(bounds)
    return [tuple(np.concatenate(arrays) for arrays in zip(*parts[i : i + per_cell]))
            for i in range(0, len(parts), per_cell)]


def mean_se(values, label=None):
    """Mean of per-replicate values and its standard error (0 for one replicate);
    FloatingPointError if either is not finite, its message prefixed with
    ``label`` (say, the output row's keys) when given."""
    values = np.asarray(values, dtype=np.float64)
    b = values.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):  # reported just below
        mean = float(values.mean())
        se = float(values.std(ddof=1) / math.sqrt(b)) if b > 1 else 0.0
    if not (math.isfinite(mean) and math.isfinite(se)):
        prefix = f"{label}: " if label else ""
        raise FloatingPointError(f"{prefix}replicate average {mean!r} with standard error "
                                 f"{se!r}: a value overflowed")
    return mean, se
