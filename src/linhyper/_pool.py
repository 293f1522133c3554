"""The one worker-pool policy of the library's fan-out.

``concurrent.futures`` (and with it ``multiprocessing``) is imported only
when a pool starts, so a command that runs in-process never loads it."""
from __future__ import annotations

import os


def _executor(max_workers: int):
    """A process pool of ``max_workers`` workers: the one seam through which
    the library starts processes."""
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(max_workers=max_workers)


def map_tasks(fn, tasks, workers: int) -> list:
    """``[fn(task) for task in tasks]`` on min(workers, tasks, CPU count)
    processes, in-process when that is 1 (or the CPU count is unknown)."""
    pool_size = min(workers, len(tasks))
    if pool_size > 1:  # only then can a pool start, so only then is the CPU count read
        pool_size = min(pool_size, os.cpu_count() or 1)
    if pool_size <= 1:
        return [fn(task) for task in tasks]
    with _executor(pool_size) as pool:
        return list(pool.map(fn, tasks))
