"""The chunked fork-pool map shared by the counters and the verifiers."""

from __future__ import annotations

import multiprocessing
from typing import Callable, Sequence


def chunked_map(task: Callable[[tuple], object], head: tuple, items: Sequence,
                jobs: int) -> list:
    """task((*head, chunk)) for each contiguous chunk of items, in chunk order.

    items is split into 4*jobs chunks for a fork pool of jobs workers; with
    jobs <= 1 or fewer than 4*jobs items one chunk holding all of items runs
    inline.  task must be a module-level function so that it pickles.
    """
    if jobs <= 1 or len(items) < 4 * jobs:
        return [task((*head, items))]
    size = -(-len(items) // (4 * jobs))
    tasks = [(*head, items[i : i + size]) for i in range(0, len(items), size)]
    with multiprocessing.get_context("fork").Pool(jobs) as pool:
        return pool.map(task, tasks)
