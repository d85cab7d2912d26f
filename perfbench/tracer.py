"""In-memory span recorder that times mnaq's layers from outside the package.

A span is (name, start, end, parent, work): `work` is the count of items the
call handled (elements, pairs, attempts), recorded at the same boundary as
the time.  Spans live in flat arrays until the run ends, so a run of a
million spans costs a few tens of megabytes and no I/O.

Layers are timed by replacing the attribute a caller looks up: a Field
instance's vector methods, or a module-level name one mnaq module uses to
call another (for example `mnaq.weil.factorize`).  The original is put back
when the `patched` block ends, so nothing in `src/` is edited and an
untraced run executes exactly the package's own code.
"""

from __future__ import annotations

import time
from array import array
from contextlib import contextmanager
from typing import Callable, Iterator

import numpy as np

_MISSING = object()


class Tracer:
    """Records spans opened by the benchmark (`span`) and by traced wrappers."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.work = array("q")
        self._stack = [-1]

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    @contextmanager
    def span(self, name: str) -> Iterator[int]:
        """Open a span around a block; yields its index for `set_work`."""
        idx = len(self.start)
        self.name_id.append(self._id(name))
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self.work.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        try:
            yield idx
        finally:
            self.end[idx] = time.perf_counter()
            self._stack.pop()

    def set_work(self, idx: int, n: int) -> None:
        self.work[idx] = n

    def wrap(
        self,
        name: str | Callable[[tuple], str],
        fn: Callable,
        work: Callable[[tuple, object], int] | None = None,
    ) -> Callable:
        """`fn` recording one span per call; `name` may depend on the arguments."""
        fixed = self._id(name) if isinstance(name, str) else None
        clock = time.perf_counter
        name_id, start, end, parent, works, stack = (
            self.name_id, self.start, self.end, self.parent, self.work, self._stack,
        )

        # the span bookkeeping is inlined: a traced D count at q = 10009 makes
        # about 340,000 calls through these wrappers
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(fixed if fixed is not None else self._id(name(args)))
            parent.append(stack[-1])
            end.append(0.0)
            works.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if work is not None:
                works[idx] = work(args, out)
            return out

        return traced

    @contextmanager
    def patched(self, targets: list[tuple[object, str, str | Callable, Callable | None]]):
        """Replace each (owner, attribute) by a traced wrapper for the block.

        An attribute that lived on the owner's class (a method looked up
        through a Field instance) is removed again afterwards; a module
        attribute gets its original value back.
        """
        saved = []
        try:
            for owner, attr, name, work in targets:
                saved.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
                setattr(owner, attr, self.wrap(name, getattr(owner, attr), work))
            yield
        finally:
            for owner, attr, original in reversed(saved):
                if original is _MISSING:
                    delattr(owner, attr)
                else:
                    setattr(owner, attr, original)


class Spans:
    """Column view of a finished trace with per-span self time."""

    def __init__(self, tr: Tracer) -> None:
        self.names = list(tr.names)
        self.name_id = np.frombuffer(tr.name_id, dtype=np.int32).copy()
        self.parent = np.frombuffer(tr.parent, dtype=np.int32).astype(np.int64)
        self.work = np.frombuffer(tr.work, dtype=np.int64).copy()
        start = np.frombuffer(tr.start, dtype=np.float64)
        end = np.frombuffer(tr.end, dtype=np.float64)
        self.dur = end - start
        n = self.dur.size
        has_parent = self.parent >= 0
        child = np.bincount(
            self.parent[has_parent], weights=self.dur[has_parent], minlength=n
        )
        self.self_time = self.dur - child[:n]

    def mask(self, *names: str) -> np.ndarray:
        ids = [self.names.index(n) for n in names if n in self.names]
        return np.isin(self.name_id, ids)

    def prefix_mask(self, prefix: str) -> np.ndarray:
        ids = [i for i, n in enumerate(self.names) if n.startswith(prefix)]
        return np.isin(self.name_id, ids)

    def under(self, inner: np.ndarray, ancestor: np.ndarray) -> np.ndarray:
        """Spans in `inner` whose nearest ancestor outside `inner` is in `ancestor`."""
        anc = self.parent.copy()
        while True:
            climb = (anc >= 0) & inner[np.maximum(anc, 0)]
            if not climb.any():
                break
            anc[climb] = self.parent[anc[climb]]
        return inner & (anc >= 0) & ancestor[np.maximum(anc, 0)]
