"""The chunked fork-pool map shared by the counters and the verifiers."""

from __future__ import annotations

import multiprocessing
import os
from typing import Callable, Sequence

_WORKER: tuple = ()  # (task, head), set in a forked worker only


def _start_worker(*worker) -> None:
    global _WORKER
    _WORKER = worker


def _run_chunk(chunk: Sequence) -> object:
    task, head = _WORKER
    return task(*head, chunk)


def chunked_map(task: Callable[..., object], head: tuple, items: Sequence,
                jobs: int) -> list:
    """task(*head, chunk) for each contiguous chunk of items, in chunk order.

    items is split into 4*jobs chunks for a fork pool of jobs workers, jobs at most
    the CPUs this process may run on; with jobs <= 1 or fewer than 4*jobs items one
    chunk holding all of items runs inline.  A worker inherits task and head when it
    is forked; only chunks pickle.
    """
    if hasattr(os, "sched_getaffinity"):
        jobs = min(jobs, len(os.sched_getaffinity(0)))
    else:
        jobs = min(jobs, os.cpu_count() or 1)
    if jobs <= 1 or len(items) < 4 * jobs:
        return [task(*head, items)]
    size = -(-len(items) // (4 * jobs))
    chunks = [items[i : i + size] for i in range(0, len(items), size)]
    with multiprocessing.get_context("fork").Pool(jobs, _start_worker, (task, head)) as pool:
        return pool.map(_run_chunk, chunks)
