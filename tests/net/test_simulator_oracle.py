"""Differential test: Simulator against the obvious scheduler.

The reference below is one binary heap ordered by ``(time, sequence)``
with *eager* cancel (remove + re-heapify), and a reschedule that is
cancel plus a fresh post; ``Simulator`` is the same heap with lazy
cancel, live/dead counters, in-place compaction, timers moved later
without a new entry, and two copies of the drain loop (``run`` and
``run_profiled``).  ``stop``
is a flag the reference's loop reads after every callback; ``Simulator``
posts a sentinel instead so its loop reads nothing.  The reference
stays here as the oracle whichever scheduler
``repro.net.simulator`` ships.
"""

import heapq
import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.simulator import Simulator


class HeapScheduler:
    """Reference semantics of Simulator's public scheduling API."""

    def __init__(self):
        self.now = 0.0
        self._heap = []
        self._sequence = itertools.count()
        self._running = False
        self._stopped = False
        self._cancelled = set()

    def _post(self, delay, fn, args):
        entry = (self.now + delay, next(self._sequence), fn, args)
        heapq.heappush(self._heap, entry)
        return entry

    def schedule(self, delay, callback):
        return self._post(delay, callback, ())

    def schedule_at(self, when, callback):
        return self.schedule(when - self.now, callback)

    def schedule_call(self, delay, fn, arg):
        self._post(delay, fn, (arg,))

    def cancel(self, entry):
        if entry in self._heap:  # already run or cancelled: no-op
            self._heap.remove(entry)
            heapq.heapify(self._heap)
            self._cancelled.add(entry)

    def reschedule(self, entry, delay):
        if entry in self._cancelled:
            raise ValueError("cannot move a cancelled event")
        self.cancel(entry)
        self._cancelled.discard(entry)
        return self._post(delay, entry[2], entry[3])

    def pending(self):
        return len(self._heap)

    def stop(self):
        self._stopped = self._running  # no run in progress: nothing to stop

    def run(self, until=None, max_events=None):
        executed = 0
        self._running = True
        while max_events is None or executed < max_events:
            if not self._heap or (until is not None and self._heap[0][0] > until):
                if until is not None and until > self.now:
                    self.now = until
                break
            self.now, _, fn, args = heapq.heappop(self._heap)
            fn(*args)
            executed += 1
            if self._stopped:
                break
        self._running = self._stopped = False
        return self.now


# Same-instant, packet-scale (< 1 us), timer-scale (~1 ms) and longer
# delays; the fixed values make exact ties common.
delays = st.one_of(
    st.sampled_from([0.0, 1e-7, 5e-7, 1e-6, 3e-6, 1e-4, 1.0e-3, 1.024e-3, 1.5e-3, 4e-3]),
    st.floats(0.0, 1e-6),
    st.floats(1e-6, 1.024e-3),
    st.floats(1.024e-3, 5e-3),
)
child = st.none() | delays
index = st.integers(0, 1 << 16)
# How many times the callback calls stop(): mostly never, sometimes twice.
stops = st.sampled_from([0, 0, 0, 0, 1, 2])
# A handle to move, and where to: later or earlier than it was, one
# that already ran, or a cancelled one (refused).
moves = st.tuples(index, delays)
ops = st.one_of(
    st.tuples(st.just("schedule"), delays, child, st.none() | index, stops, st.none() | moves),
    st.tuples(st.just("call"), delays, child, stops),
    st.tuples(st.just("stop_outside_run")),
    st.tuples(st.just("calls"), st.lists(delays, max_size=10)),
    st.tuples(st.just("at"), delays, child),
    st.tuples(st.just("cancel"), index),
    st.tuples(st.just("reschedule"), index, delays),
    # An ACK-clocked sender: one timer moved again and again, the
    # stale entries interleaved with packet events.
    st.tuples(st.just("rearm"), st.lists(st.tuples(delays, delays), max_size=12)),
    # Timer re-arm churn: enough dead entries to trigger compaction.
    st.tuples(st.just("churn"), delays, st.integers(60, 90)),
    st.tuples(st.just("run_until"), delays),
    st.tuples(st.just("run_max"), st.integers(0, 12)),
)


def execute(program, sched, cancel, run=None):
    """Drive ``sched`` through ``program``; return everything observable."""
    run = run or sched.run
    fired, pendings, handles, refused = [], [], [], []
    tags = itertools.count()

    def move(move_idx, delay):
        if handles:
            at = move_idx % len(handles)
            try:
                handles[at] = sched.reschedule(handles[at], delay)
            except ValueError:  # a cancelled handle cannot be moved
                refused.append((sched.now, at))

    def fire(spec, moved=None):
        tag, child_delay, cancel_idx, stop_calls = spec
        fired.append((sched.now, tag))
        for _ in range(stop_calls):
            sched.stop()
        # Cancels, moves and posts after the stop() still take effect.
        if cancel_idx is not None and handles:
            cancel(handles[cancel_idx % len(handles)])
        if moved:  # one-shot: a handle moved onto itself must not loop
            move(*moved.pop())
        if child_delay is not None:
            sched.schedule_call(child_delay, fire, ((tag, "child"), None, None, 0))

    def ack(step):
        slot, timer_delay, packet_delay = step
        fired.append((sched.now, "ack"))
        move(slot, timer_delay)
        sched.schedule_call(packet_delay, land, "packet")

    def land(tag):
        fired.append((sched.now, tag))

    for op in program:
        kind = op[0]
        if kind == "schedule":
            spec = (next(tags), op[2], op[3], op[4])
            handles.append(
                sched.schedule(
                    op[1], lambda spec=spec, moved=[op[5]] if op[5] else []: fire(spec, moved)
                )
            )
        elif kind == "call":
            sched.schedule_call(op[1], fire, (next(tags), op[2], None, op[3]))
        elif kind == "stop_outside_run":
            sched.stop()
        elif kind == "calls":
            for delay in op[1]:
                sched.schedule_call(delay, fire, (next(tags), None, None, 0))
        elif kind == "at":
            spec = (next(tags), op[2], None, 0)
            handles.append(sched.schedule_at(sched.now + op[1], lambda spec=spec: fire(spec)))
        elif kind == "cancel":
            if handles:
                cancel(handles[op[1] % len(handles)])
        elif kind == "reschedule":
            move(op[1], op[2])
        elif kind == "rearm":
            tag, slot = next(tags), len(handles)
            handles.append(sched.schedule(1e-3, lambda tag=tag: fired.append((sched.now, tag))))
            at = 0.0
            for timer_delay, packet_delay in op[1]:
                at += packet_delay
                sched.schedule_call(at, ack, (slot, timer_delay, packet_delay))
        elif kind == "churn":
            for _ in range(op[2]):
                cancel(sched.schedule(op[1], lambda tag=next(tags): fired.append((sched.now, tag))))
        elif kind == "run_until":
            run(until=sched.now + op[1])
        else:
            run(max_events=op[1])
        pendings.append((sched.pending(), sched.now))
    while sched.pending():  # each stop() ends one run
        run()
    return fired, pendings, sched.pending(), sched.now, refused


@settings(max_examples=150, deadline=None)
@given(st.lists(ops, max_size=40))
def test_simulator_matches_heap_oracle(program):
    reference = HeapScheduler()
    expected = execute(program, reference, reference.cancel)
    plain = Simulator()
    assert execute(program, plain, lambda event: event.cancel()) == expected
    assert plain.events_processed == len(expected[0])

    # run_profiled is a second copy of run's loop: same order, same
    # times, same counters, and one observer call per executed event.
    profiled = Simulator()
    observed = []
    ticks = itertools.count()

    def run_profiled(until=None, max_events=None):
        return profiled.run_profiled(
            lambda fn, when, wall_s: observed.append((when, wall_s)),
            lambda: next(ticks),
            until=until,
            max_events=max_events,
        )

    assert execute(program, profiled, lambda event: event.cancel(), run_profiled) == expected
    assert [when for when, _ in observed] == [when for when, _ in expected[0]]
    assert all(wall_s == 1 for _, wall_s in observed)
    assert profiled.events_processed == len(expected[0])
