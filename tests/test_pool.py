import os

import pytest

from mnaq import pool


class InlineContext:
    """A stand-in for the fork context: records each pool size and maps inline."""

    def __init__(self):
        self.sizes = []

    def Pool(self, size, initializer, initargs):
        self.sizes.append(size)
        initializer(*initargs)
        return self

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return None

    def map(self, fn, chunks):
        return list(map(fn, chunks))


@pytest.fixture
def context(monkeypatch):
    ctx = InlineContext()
    monkeypatch.setattr(pool, "_WORKER", ())  # restored after the inline "worker" sets it
    monkeypatch.setattr(pool.multiprocessing, "get_context", lambda method: ctx)
    return ctx


def test_pool_is_capped_at_the_cpus(monkeypatch, context):
    # --jobs 5000 asks for no more workers than there are CPUs to run them on
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    items = list(range(100))
    assert pool.chunked_map(sum, (), items, 5000) == [sum(items[i:i + 9]) for i in range(0, 100, 9)]
    assert pool.chunked_map(sum, (), items, 2) == [sum(items[i:i + 13]) for i in range(0, 100, 13)]
    assert context.sizes == [3, 2]


def test_pool_cap_without_affinity(monkeypatch, context):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    assert sum(pool.chunked_map(sum, (), range(100), 5000)) == 4950
    monkeypatch.setattr(os, "cpu_count", lambda: None)  # unknown: one CPU, so inline
    assert pool.chunked_map(sum, (), range(100), 5000) == [4950]
    assert context.sizes == [4]
