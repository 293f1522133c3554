"""The one worker-pool policy of the library's fan-out."""
from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor


def map_tasks(fn, tasks, workers: int) -> list:
    """``[fn(task) for task in tasks]`` on min(workers, tasks, CPU count)
    processes, in-process when that is 1 (or the CPU count is unknown)."""
    pool_size = min(workers, len(tasks), os.cpu_count() or 1)
    if pool_size <= 1:
        return [fn(task) for task in tasks]
    with ProcessPoolExecutor(max_workers=pool_size) as pool:
        return list(pool.map(fn, tasks))
