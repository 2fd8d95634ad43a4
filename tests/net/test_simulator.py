"""Tests for the discrete-event engine."""

import ast
import inspect
import re
from pathlib import Path

import pytest

import repro
from repro.net import Simulator


class TestScheduling:
    def test_events_run_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(3.0, lambda: order.append("c"))
        sim.schedule(1.0, lambda: order.append("a"))
        sim.schedule(2.0, lambda: order.append("b"))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_same_time_events_run_in_schedule_order(self):
        sim = Simulator()
        order = []
        for i in range(5):
            sim.schedule(1.0, lambda i=i: order.append(i))
        sim.run()
        assert order == [0, 1, 2, 3, 4]

    def test_now_advances(self):
        sim = Simulator()
        times = []
        sim.schedule(0.5, lambda: times.append(sim.now))
        sim.schedule(1.5, lambda: times.append(sim.now))
        sim.run()
        assert times == [0.5, 1.5]

    def test_nested_scheduling(self):
        sim = Simulator()
        hits = []

        def outer():
            hits.append(sim.now)
            if len(hits) < 4:
                sim.schedule(1.0, outer)

        sim.schedule(1.0, outer)
        sim.run()
        assert hits == [1.0, 2.0, 3.0, 4.0]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError, match="in the past"):
            sim.schedule(-0.1, lambda: None)

    def test_schedule_at_absolute_time(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        witness = []
        sim.schedule_at(2.5, lambda: witness.append(sim.now))
        sim.run()
        assert witness == [2.5]


class TestRunControls:
    def test_until_stops_without_dropping_events(self):
        sim = Simulator()
        hits = []
        sim.schedule(1.0, lambda: hits.append(1))
        sim.schedule(3.0, lambda: hits.append(3))
        sim.run(until=2.0)
        assert hits == [1]
        assert sim.now == 2.0
        sim.run()
        assert hits == [1, 3]

    def test_event_exactly_at_until_runs(self):
        sim = Simulator()
        hits = []
        sim.schedule(2.0, lambda: hits.append(2))
        sim.run(until=2.0)
        assert hits == [2]

    def test_max_events_safety_valve(self):
        sim = Simulator()

        def forever():
            sim.schedule(1e-9, forever)

        sim.schedule(0.0, forever)
        sim.run(max_events=100)
        assert sim.events_processed == 100

    def test_run_on_empty_heap_returns_now(self):
        sim = Simulator()
        assert sim.run() == 0.0

    def test_run_until_with_no_events_advances_clock(self):
        sim = Simulator()
        sim.run(until=5.0)
        assert sim.now == 5.0


def _plain_run(sim, **kwargs):
    return sim.run(**kwargs)


def _profiled_run(sim, **kwargs):
    return sim.run_profiled(lambda fn, when, wall_s: None, lambda: 0.0, **kwargs)


@pytest.mark.parametrize("run", [_plain_run, _profiled_run], ids=["run", "run_profiled"])
class TestStop:
    """``stop()`` ends the run in progress at the calling event and
    leaves the queue — this instant's events included — for the next."""

    @pytest.mark.parametrize("post", ["schedule", "schedule_at", "schedule_call"])
    def test_run_returns_when_the_stopping_callback_returns(self, run, post):
        sim = Simulator()
        hits = []

        def stopper(*_):
            sim.stop()
            hits.append("stopper")  # the callback itself runs to its end

        sim.schedule(1.0, lambda: hits.append("before"))
        if post == "schedule":
            sim.schedule(2.0, stopper)
        elif post == "schedule_at":
            sim.schedule_at(2.0, stopper)
        else:
            sim.schedule_call(2.0, stopper, None)
        sim.schedule(3.0, lambda: hits.append("after"))
        assert run(sim, until=10.0) == 2.0
        assert hits == ["before", "stopper"]
        assert sim.now == 2.0  # not advanced to ``until``
        assert sim.pending() == 1
        assert sim.events_processed == 2  # the stop itself is not an event
        assert run(sim) == 3.0
        assert hits == ["before", "stopper", "after"]
        assert sim.events_processed == 3

    def test_same_instant_events_wait_for_the_next_run_in_posting_order(self, run):
        sim = Simulator()
        order = []

        def stopper():
            sim.schedule(0.0, lambda: order.append("d"))
            sim.stop()
            sim.schedule_call(0.0, order.append, "e")

        sim.schedule(1.0, lambda: order.append("a"))
        sim.schedule(1.0, stopper)
        sim.schedule(1.0, lambda: order.append("b"))
        sim.schedule_call(1.0, order.append, "c")
        run(sim)
        assert order == ["a"]
        assert sim.now == 1.0
        assert sim.pending() == 4
        run(sim)
        assert order == ["a", "b", "c", "d", "e"]
        assert sim.now == 1.0

    def test_two_stops_at_one_instant_end_one_run(self, run):
        sim = Simulator()
        hits = []

        def stopper():
            sim.stop()
            sim.stop()
            assert sim.pending() == 2  # the two real events, nothing else

        sim.schedule(1.0, stopper)
        sim.schedule(1.0, lambda: hits.append("same instant"))
        sim.schedule(2.0, lambda: hits.append("later"))
        run(sim)
        assert hits == []
        run(sim)  # the second stop() did not leak into this run
        assert hits == ["same instant", "later"]
        assert sim.events_processed == 3

    def test_each_run_can_be_stopped(self, run):
        sim = Simulator()
        stops = []

        def stopper():
            stops.append(sim.now)
            sim.stop()

        for when in (1.0, 1.0, 2.0):
            sim.schedule(when, stopper)
        assert [run(sim), run(sim), run(sim)] == [1.0, 1.0, 2.0]
        assert stops == [1.0, 1.0, 2.0]
        assert sim.pending() == 0

    def test_stop_with_no_run_in_progress_is_a_noop(self, run):
        sim = Simulator()
        hits = []
        sim.schedule(1.0, lambda: hits.append(1))
        sim.stop()
        assert sim.pending() == 1
        assert run(sim, until=5.0) == 5.0
        assert hits == [1]
        sim.stop()  # after a run, too
        sim.schedule(1.0, lambda: hits.append(2))
        run(sim)
        assert hits == [1, 2]
        assert sim.events_processed == 2

    def test_stop_on_the_last_budgeted_event_does_not_leak(self, run):
        sim = Simulator()
        hits = []
        sim.schedule(1.0, sim.stop)
        sim.schedule(2.0, lambda: hits.append(2))
        run(sim, max_events=1)  # the budget ends the run before the stop does
        assert sim.pending() == 1
        run(sim)
        assert hits == [2]

    def test_stop_then_raise_does_not_leak(self, run):
        sim = Simulator()
        hits = []

        def stop_and_raise():
            sim.stop()
            raise RuntimeError("boom")

        sim.schedule(1.0, stop_and_raise)
        sim.schedule(2.0, lambda: hits.append(2))
        with pytest.raises(RuntimeError, match="boom"):
            run(sim)
        assert sim.pending() == 1
        run(sim)
        assert hits == [2]

    def test_stop_survives_compaction(self, run):
        sim = Simulator()
        hits = []

        def stopper():
            sim.stop()
            for _ in range(200):  # enough dead timers to rebuild the heap
                sim.schedule(1.0, lambda: hits.append("dead")).cancel()

        sim.schedule(1.0, stopper)
        sim.schedule(1.0, lambda: hits.append("live"))
        run(sim)
        assert hits == []
        assert sim.pending() == 1
        run(sim)
        assert hits == ["live"]

    def test_unstopped_run_keeps_until_and_max_events_semantics(self, run):
        sim = Simulator()
        hits = []
        for when in (1.0, 2.0, 3.0, 4.0):
            sim.schedule(when, lambda when=when: hits.append(when))
        assert run(sim, until=2.5, max_events=10) == 2.5
        assert hits == [1.0, 2.0]
        assert run(sim, until=10.0, max_events=1) == 3.0
        assert hits == [1.0, 2.0, 3.0]
        assert run(sim, until=10.0) == 10.0
        assert sim.events_processed == 4


class TestCancellation:
    def test_cancelled_event_skipped(self):
        sim = Simulator()
        hits = []
        event = sim.schedule(1.0, lambda: hits.append("x"))
        event.cancel()
        sim.run()
        assert hits == []

    def test_pending_ignores_cancelled(self):
        sim = Simulator()
        keep = sim.schedule(1.0, lambda: None)
        kill = sim.schedule(2.0, lambda: None)
        kill.cancel()
        assert sim.pending() == 1
        keep.cancel()
        assert sim.pending() == 0


class TestPendingCounter:
    """pending() is a live counter (O(1)), not a heap scan — it must stay
    exact across every push/pop/cancel interleaving."""

    def test_counts_scheduled_events(self):
        sim = Simulator()
        for i in range(5):
            sim.schedule(float(i + 1), lambda: None)
        assert sim.pending() == 5

    def test_decrements_as_events_run(self):
        sim = Simulator()
        observed = []
        for i in range(3):
            sim.schedule(float(i + 1), lambda: observed.append(sim.pending()))
        sim.run()
        # Each callback sees the events still queued after it was popped.
        assert observed == [2, 1, 0]

    def test_double_cancel_is_single_decrement(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        victim = sim.schedule(2.0, lambda: None)
        victim.cancel()
        victim.cancel()
        assert sim.pending() == 1

    def test_cancel_after_run_is_noop(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim.run(until=1.5)
        assert sim.pending() == 1
        event.cancel()  # already executed; must not corrupt the counter
        assert sim.pending() == 1

    def test_cancel_inside_callback(self):
        sim = Simulator()
        later = sim.schedule(2.0, lambda: None)
        sim.schedule(1.0, later.cancel)
        sim.run()
        assert sim.pending() == 0
        assert sim.events_processed == 1

    def test_reschedule_from_callback_keeps_count(self):
        sim = Simulator()
        def chain(depth):
            if depth:
                sim.schedule(1.0, lambda: chain(depth - 1))
        sim.schedule(1.0, lambda: chain(3))
        assert sim.pending() == 1
        sim.run()
        assert sim.pending() == 0

    def test_counter_matches_queue_truth(self):
        # The truth is what the queue goes on to run.
        sim = Simulator()
        fired = []
        events = [sim.schedule(float(i + 1), lambda i=i: fired.append(i)) for i in range(20)]
        for event in events[::3]:
            event.cancel()
        survivors = [i for i in range(20) if i % 3]
        assert sim.pending() == len(survivors)
        sim.run()
        assert fired == survivors


class TestReschedule:
    """A timer moved later keeps its one heap entry; moved earlier, it is
    posted afresh.  Run order is the oracle's business
    (test_simulator_oracle.py); these pin what it cannot see."""

    def test_moving_later_keeps_the_handle_and_the_entry(self):
        sim = Simulator()
        fired = []
        timer = sim.schedule(1.0, lambda: fired.append(sim.now))
        sim.schedule_call(0.5, fired.append, "ack")
        for delay in (2.0, 3.0, 3.0):
            assert sim.reschedule(timer, delay) is timer
        assert len(sim._heap) == 2 and sim.pending() == 2
        sim.run()
        assert fired == ["ack", 3.0]
        assert sim.events_processed == 2  # the stale re-push is no event

    def test_moving_earlier_posts_a_fresh_event(self):
        sim = Simulator()
        fired = []
        timer = sim.schedule(5.0, lambda: fired.append(sim.now))
        moved = sim.reschedule(timer, 1.0)
        assert moved is not timer and timer.cancelled
        assert sim.pending() == 1
        sim.run()
        assert fired == [1.0]

    def test_an_event_that_ran_is_posted_afresh(self):
        sim = Simulator()
        fired = []
        ran = sim.schedule(1.0, lambda: fired.append("ran"))
        sim.run()
        again = sim.reschedule(ran, 1.0)
        assert again is not ran
        sim.run()
        assert fired == ["ran", "ran"]

    def test_a_cancelled_event_lets_its_callback_go(self):
        # A dead entry stays in the heap until popped or compacted; it
        # must not keep what the callback closes over alive meanwhile.
        sim = Simulator()
        owner = {"packets": [bytearray(1 << 20)]}
        timer = sim.schedule(1.0, lambda: owner)
        timer.cancel()
        assert len(sim._heap) == 1
        assert timer.callback() is None
        with pytest.raises(ValueError, match="cancelled"):
            sim.reschedule(timer, 2.0)

    def test_negative_delay_rejected(self):
        sim = Simulator()
        timer = sim.schedule(1.0, lambda: None)
        with pytest.raises(ValueError):
            sim.reschedule(timer, -1e-9)

    def test_compaction_rewrites_a_stale_entry(self):
        sim = Simulator()
        fired = []
        timer = sim.schedule(1.0, lambda: fired.append(sim.now))
        sim.reschedule(timer, 4.0)
        for _ in range(65):  # the 65th dead entry triggers compaction
            sim.schedule(2.0, lambda: None).cancel()
        assert [e[:2] for e in sim._heap] == [(4.0, timer.sequence)]
        sim.run()
        assert fired == [4.0] and sim.events_processed == 1


class TestFastPathScheduling:
    """schedule_call shares the (time, sequence) stream with schedule(),
    so mixing the APIs must stay deterministic."""

    def test_schedule_call_runs_with_argument(self):
        sim = Simulator()
        hits = []
        sim.schedule_call(1.0, hits.append, "x")
        sim.run()
        assert hits == ["x"]
        assert sim.now == 1.0

    def test_schedule_call_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError, match="in the past"):
            sim.schedule_call(-1e-9, lambda _: None, None)

    def test_mixed_apis_interleave_in_schedule_order(self):
        sim = Simulator()
        order = []
        sim.schedule(1.0, lambda: order.append("a"))
        sim.schedule_call(1.0, order.append, "b")
        sim.schedule(1.0, lambda: order.append("c"))
        sim.schedule_call(1.0, order.append, "d")
        sim.run()
        assert order == ["a", "b", "c", "d"]

    def test_fast_entries_count_as_pending(self):
        sim = Simulator()
        for delay in (1.0, 2.0, 2.0, 2.0):
            sim.schedule_call(delay, lambda _: None, None)
        assert sim.pending() == 4
        sim.run()
        assert sim.pending() == 0

    def test_far_future_calls_run_in_time_order(self):
        # Six orders of magnitude between the delays: a packet-scale
        # tick, a mid-run timer and a deadline one second out.
        sim = Simulator()
        order = []
        sim.schedule_call(1.0, order.append, "far")
        sim.schedule_call(1e-6, order.append, "near")
        sim.schedule(0.5, lambda: order.append("mid"))
        sim.run()
        assert order == ["near", "mid", "far"]


class TestLazyCancelCompaction:
    """Cancel-heavy workloads (per-packet timer re-arming) must not grow
    the queue without bound: dead entries are compacted away once they
    outnumber live ones."""

    def _structure_size(self, sim):
        return len(sim._heap)

    def test_cancel_churn_keeps_structure_bounded(self):
        sim = Simulator()
        keepers = [sim.schedule(float(i + 1), lambda: None) for i in range(8)]
        # A transport-style timer loop: arm, cancel, re-arm — thousands
        # of times, never letting the event run.
        for i in range(5000):
            sim.schedule(1e-6 * (i % 512 + 1), lambda: None).cancel()
            if i % 97 == 0:
                # Structure holds the live events plus at most the dead
                # tolerated before compaction kicks in (_COMPACT_MIN_DEAD
                # plus the live count at trigger time).
                assert self._structure_size(sim) <= len(keepers) + 64 + len(keepers) + 1
        assert sim.pending() == len(keepers)
        assert self._structure_size(sim) < 100

    def test_compaction_drops_the_dead_and_keeps_the_live(self):
        sim = Simulator()
        hits = []
        sim.schedule(2000e-6, lambda: hits.append("survivor"))
        sim.schedule_call(1000e-6, hits.append, "call")  # not cancellable: always kept
        victims = [sim.schedule(1e-6 * (i % 2000 + 1), lambda: hits.append("dead")) for i in range(300)]
        for event in victims:
            event.cancel()
        # Near and far victims alike are gone; the two live entries remain.
        assert self._structure_size(sim) < 100
        assert sim.pending() == 2
        sim.run()
        assert hits == ["call", "survivor"]
        assert self._structure_size(sim) == 0

    def test_compaction_preserves_ordering(self):
        sim = Simulator()
        order = []
        for i in range(6):
            sim.schedule(float(i + 1), lambda i=i: order.append(i))
        churn = [sim.schedule(0.5, lambda: None) for _ in range(200)]
        for event in churn:
            event.cancel()
        sim.run()
        assert order == [0, 1, 2, 3, 4, 5]

    def test_cancel_counters_stay_consistent(self):
        sim = Simulator()
        events = [sim.schedule(float(i % 7 + 1), lambda: None) for i in range(400)]
        for event in events[::2]:
            event.cancel()
        assert sim.pending() == 200
        assert self._structure_size(sim) == 400  # 200 dead == 200 live: no compaction yet
        sim.run()
        assert sim.pending() == 0
        assert sim.events_processed == 200
        assert self._structure_size(sim) == 0


class TestOneModuleKnowsTheQueue:
    """How the event queue is stored is simulator.py's business alone:
    everything else posts through the public scheduling methods."""

    SRC = Path(repro.__file__).parent
    SIMULATOR = SRC / "net" / "simulator.py"

    def test_nothing_outside_reaches_into_simulator_privates(self):
        private = re.compile(r"\bsim\._[a-z]")  # also matches self.sim._x
        offenders = [
            f"{path.relative_to(self.SRC)}:{number}: {line.strip()}"
            for path in sorted(self.SRC.rglob("*.py"))
            if path != self.SIMULATOR
            for number, line in enumerate(path.read_text().splitlines(), 1)
            if private.search(line)
        ]
        assert offenders == []

    def test_only_simulator_imports_heapq(self):
        importers = []
        for path in sorted((self.SRC / "net").rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [node.module]
                else:
                    continue
                if "heapq" in names:
                    importers.append(path.name)
        assert importers == ["simulator.py"]

    def test_constructor_takes_no_arguments(self):
        assert list(inspect.signature(Simulator).parameters) == []
