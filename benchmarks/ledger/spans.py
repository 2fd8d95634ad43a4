"""In-memory span records for the traced run, and self-time arithmetic.

A span is one ``[name, start, end, parent, thread]`` record: ``start``
and ``end`` are integer nanoseconds on the tracer's clock, ``parent``
is the index of the enclosing span *on the same thread* (``-1`` for a
thread's outermost span) and ``thread`` is a small integer.  Records
live in one list until the run ends; nothing is written while timing.

Self time of a span is its duration minus the durations of its direct
children, so the self times of a tree sum to the root's duration and
every nanosecond is credited to exactly one name.

On workloads that run job threads (the cluster driver parks all but
one thread at any instant) the tracer is built with
``time.thread_time_ns``: a span then measures the CPU its own thread
burned, so a span held open across a park does not overlap the spans
of the thread that ran meanwhile.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Sequence

__all__ = ["Tracer", "self_times", "rebase"]

NAME, START, END, PARENT, THREAD = range(5)


class _ThreadState(threading.local):
    def __init__(self) -> None:
        self.stack: List[int] = []
        self.thread = -1
        # Index of the open leaf span, if any: spans opened under a leaf
        # are not recorded (their time stays in the leaf).
        self.leaf = -1
        # name -> ns for wrap_inner() calls made under a leaf.
        self.inner: Dict[str, int] = {}


class Tracer:
    """Collects span records; disabled (and nearly free) by default."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self.clock = clock
        self.enabled = False
        self.records: List[list] = []
        #: Nanoseconds spent in wrap_inner() calls under a leaf since the
        #: leaf's owner last zeroed it.  Not per thread: a leaf with inner
        #: calls (the simulator run) only ever exists on one thread.
        self.inner_ns = 0
        self._state = _ThreadState()
        self._threads = 0
        self._lock = threading.Lock()

    def _thread_state(self) -> _ThreadState:
        state = self._state
        if state.thread < 0:
            with self._lock:
                state.thread = self._threads
                self._threads += 1
        return state

    @contextmanager
    def span(self, name: str, leaf: bool = False) -> Iterator[int]:
        """Record one span around the body; yields its record index.

        Yields ``-1`` without recording when tracing is off or a leaf
        span is already open on this thread.
        """
        if not self.enabled:
            yield -1
            return
        state = self._thread_state()
        if state.leaf >= 0:
            yield -1
            return
        stack = state.stack
        record = [name, 0, 0, stack[-1] if stack else -1, state.thread]
        with self._lock:
            index = len(self.records)
            self.records.append(record)
        stack.append(index)
        if leaf:
            state.leaf = index
            state.inner = {}
            self.inner_ns = 0
        record[START] = self.clock()
        try:
            yield index
        finally:
            record[END] = self.clock()
            stack.pop()
            if leaf:
                state.leaf = -1

    def wrap(self, fn: Callable, name: str, leaf: bool = False) -> Callable:
        """``fn`` with a span of ``name`` around every call."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            with tracer.span(name, leaf=leaf):
                return fn(*args, **kwargs)

        return traced

    def wrap_inner(self, fn: Callable, name: str) -> Callable:
        """Like :meth:`wrap`, but cheap enough for per-packet calls.

        Outside a leaf span it records a normal span.  Under a leaf it
        only adds the call's duration to the leaf's ``name`` bucket;
        :meth:`take_inner` hands those buckets to whoever owns the leaf
        (the simulator-run wrapper turns them into child records) and
        :attr:`inner_ns` lets it keep that time out of its own totals.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            state = tracer._thread_state()
            if state.leaf < 0:
                with tracer.span(name):
                    return fn(*args, **kwargs)
            start = tracer.clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spent = tracer.clock() - start
                state.inner[name] = state.inner.get(name, 0) + spent
                tracer.inner_ns += spent

        return traced

    def take_inner(self) -> Dict[str, int]:
        """This thread's ``name -> ns`` buckets (and reset)."""
        state = self._state
        buckets, state.inner = state.inner, {}
        return buckets

    def add_children(self, parent: int, durations_ns: Dict[str, int]) -> None:
        """Attach aggregate child records to span ``parent``.

        For time that was measured as a total rather than span by span
        (simulator stages, inner buckets).  The children are laid end to
        end from the parent's start, so their durations are exact and
        their positions are not.
        """
        if parent < 0:
            return
        record = self.records[parent]
        cursor = record[START]
        with self._lock:
            for name, duration in durations_ns.items():
                if duration > 0:
                    self.records.append([name, cursor, cursor + duration, parent, record[THREAD]])
                    cursor += duration


def self_times(records: Sequence[Sequence]) -> Dict[str, int]:
    """Total self nanoseconds per span name.

    ``records`` may be any slice of a tracer's list as long as parent
    indices are relative to ``records`` itself (see :func:`rebase`).
    """
    child_ns = [0] * len(records)
    for record in records:
        parent = record[PARENT]
        if parent >= 0:
            child_ns[parent] += record[END] - record[START]
    totals: Dict[str, int] = defaultdict(int)
    for record, covered in zip(records, child_ns):
        totals[record[NAME]] += record[END] - record[START] - covered
    return dict(totals)


def rebase(records: Sequence[Sequence], offset: int) -> List[list]:
    """Copy ``records`` (a slice starting at ``offset``) with local parents.

    A parent that lies before the slice becomes ``-1``: the slice's
    outermost spans are its roots.
    """
    out = []
    for record in records:
        parent = record[PARENT] - offset
        out.append([record[NAME], record[START], record[END], max(parent, -1), record[THREAD]])
    return out
