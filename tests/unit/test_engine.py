"""Unit tests for the discrete-event engine."""

import random
import weakref

import pytest

from repro import telemetry
from repro.errors import SimulationError
from repro.sim.engine import TOMBSTONE_SLACK, Event, EventQueue, SimulationEngine


class TestScheduling:
    def test_fires_in_time_order(self):
        engine = SimulationEngine()
        fired: list[str] = []
        engine.schedule(2.0, lambda: fired.append("late"))
        engine.schedule(1.0, lambda: fired.append("early"))
        engine.run()
        assert fired == ["early", "late"]

    def test_ties_fire_in_insertion_order(self):
        engine = SimulationEngine()
        fired: list[int] = []
        for i in range(5):
            engine.schedule(1.0, lambda i=i: fired.append(i))
        engine.run()
        assert fired == [0, 1, 2, 3, 4]

    def test_clock_advances_to_event_time(self):
        engine = SimulationEngine()
        seen: list[float] = []
        engine.schedule(3.5, lambda: seen.append(engine.now))
        engine.run()
        assert seen == [3.5]
        assert engine.now == 3.5

    def test_schedule_at_absolute(self):
        engine = SimulationEngine()
        engine.schedule_at(7.0, lambda: None)
        engine.run()
        assert engine.now == 7.0

    def test_cannot_schedule_in_past(self):
        engine = SimulationEngine()
        engine.schedule(1.0, lambda: None)
        engine.run()
        with pytest.raises(SimulationError):
            engine.schedule_at(0.5, lambda: None)

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            SimulationEngine().schedule(-1, lambda: None)

    def test_nan_times_rejected(self):
        # NaN compares false against everything, so it slipped past the
        # "< now" / "< 0" guards; queued, it fired between the t=1 and t=2
        # events and set the clock to NaN mid-run.
        engine = SimulationEngine()
        fired: list[float] = []
        for t in (1.0, 2.0):
            engine.schedule(t, lambda: fired.append(engine.now))
        with pytest.raises(SimulationError):
            engine.schedule(float("nan"), lambda: fired.append(engine.now))
        with pytest.raises(SimulationError):
            engine.schedule_at(float("nan"), lambda: fired.append(engine.now))
        with pytest.raises(SimulationError):
            engine.add_tick_hook(float("nan"), lambda at: None)
        assert len(engine._heap) == 2
        engine.run()
        assert fired == [1.0, 2.0]
        assert engine.now == 2.0

    def test_events_can_schedule_events(self):
        engine = SimulationEngine()
        fired: list[float] = []

        def cascade():
            fired.append(engine.now)
            if len(fired) < 3:
                engine.schedule(1.0, cascade)

        engine.schedule(1.0, cascade)
        engine.run()
        assert fired == [1.0, 2.0, 3.0]


class TestCancellation:
    def test_cancelled_event_skipped(self):
        engine = SimulationEngine()
        fired: list[str] = []
        event = engine.schedule(1.0, lambda: fired.append("no"))
        engine.schedule(2.0, lambda: fired.append("yes"))
        event.cancel()
        engine.run()
        assert fired == ["yes"]

    def test_pending_excludes_cancelled(self):
        engine = SimulationEngine()
        event = engine.schedule(1.0, lambda: None)
        engine.schedule(2.0, lambda: None)
        event.cancel()
        assert len(engine._heap) == 1

    def test_cancel_unlinks_from_heap_immediately(self):
        engine = SimulationEngine()
        event = engine.schedule(5.0, lambda: None)
        assert len(engine._heap) == 1
        event.cancel()
        # No tombstone: the heap is empty, not holding a flagged event.
        assert len(engine._heap) == 0
        assert event.cancelled

    def test_cancel_is_idempotent_and_safe_after_firing(self):
        engine = SimulationEngine()
        event = engine.schedule(1.0, lambda: None)
        engine.run()
        event.cancel()
        event.cancel()
        assert len(engine._heap) == 0

    def test_cancel_10k_timers_without_quadratic_blowup(self):
        # Regression for the former pop-and-scan path: cancelling a timer
        # left a tombstone and every `pending` read scanned the whole heap,
        # so cancel+check loops were quadratic. With indexed removal this
        # loop is ~10k * O(log n); the old path would do ~10^8 scan steps.
        engine = SimulationEngine()
        timers = [
            engine.schedule(float(i % 97) + 1.0, lambda: None)
            for i in range(10_000)
        ]
        survivor = engine.schedule(1000.0, lambda: None)
        order = list(range(len(timers)))
        random.Random(7).shuffle(order)
        for count, i in enumerate(order):
            timers[i].cancel()
            # The O(1) pending read is exact after every single cancel.
            assert len(engine._heap) == len(timers) - count - 1 + 1
        assert len(engine._heap) == 1
        assert len(engine._heap) == 1
        assert engine._heap.peek() is survivor
        engine.run()
        assert engine.events_fired == 1
        assert engine.lazy_deleted == 0

    def test_heap_peak_and_lazy_deleted_gauges(self):
        with telemetry.enabled() as tel:
            engine = SimulationEngine()
            for t in (1.0, 2.0, 3.0):
                engine.schedule(t, lambda: None)
            assert engine.heap_peak == 3
            engine.run()
            gauges = {
                m.name: m.value
                for m in tel.metrics.samples()
                if m.kind == "gauge"
            }
        assert gauges["repro_sim_heap_peak"] == 3.0
        assert gauges["repro_sim_heap_lazy_deleted"] == 0.0

    def test_direct_flag_write_counts_as_lazy_deletion(self):
        # Unsupported path kept as a canary: bypassing Event.cancel() leaves
        # a tombstone that pop() skips and counts.
        engine = SimulationEngine()
        event = engine.schedule(1.0, lambda: None)
        engine.schedule(2.0, lambda: None)
        event.cancelled = True
        engine.run()
        assert engine.events_fired == 1
        assert engine.lazy_deleted == 1


class TestIndexedEventHeap:
    """``EventQueue`` alone (the class keeps the name its test ids were
    recorded under, from when the queue was an indexed heap)."""

    def _event(self, time, seq):
        return Event(time=time, sequence=seq, callback=lambda: None)

    def test_pop_order_matches_sort_order(self):
        heap = EventQueue()
        rng = random.Random(42)
        events = [self._event(rng.uniform(0, 100), seq) for seq in range(500)]
        for event in rng.sample(events, len(events)):
            heap.push(event)
        drained = [heap.pop() for _ in range(len(events))]
        assert drained == sorted(events, key=lambda e: (e.time, e.sequence))
        assert len(heap) == 0

    def test_remove_from_middle_keeps_order(self):
        rng = random.Random(1)
        for _ in range(20):
            heap = EventQueue()
            events = [
                self._event(rng.uniform(0, 10), seq) for seq in range(60)
            ]
            for event in events:
                heap.push(event)
            removed = rng.sample(events, 23)
            for event in removed:
                assert heap.remove(event) is True
            survivors = [e for e in events if e not in removed]
            drained = [heap.pop() for _ in range(len(heap))]
            assert drained == sorted(
                survivors, key=lambda e: (e.time, e.sequence)
            )

    def test_remove_absent_returns_false(self):
        heap = EventQueue()
        event = self._event(1.0, 0)
        assert heap.remove(event) is False
        heap.push(event)
        popped = heap.pop()
        assert popped is event
        assert heap.remove(event) is False

    def test_entries_and_live_count_agree_after_removals(self):
        heap = EventQueue()
        rng = random.Random(3)
        events = [self._event(rng.uniform(0, 5), seq) for seq in range(200)]
        for event in events:
            heap.push(event)
        removed = rng.sample(events, 80)
        for event in removed:
            heap.remove(event)
        assert len(heap) == 120
        assert all(event._heap is None for event in removed)
        # Every entry is a live member or a tombstone, and the live
        # members are exactly the survivors.
        linked = [entry[2] for entry in heap._entries if entry[2]._heap is heap]
        assert len(linked) == len(heap)
        assert set(map(id, linked)) == {id(e) for e in events if e not in removed}
        assert len(heap._entries) <= 2 * len(heap) + TOMBSTONE_SLACK

    def test_clear_unlinks_members(self):
        heap = EventQueue()
        events = [self._event(float(i), i) for i in range(5)]
        for event in events:
            heap.push(event)
        events[1].cancel()
        heap.clear()
        assert len(heap) == 0
        assert heap._entries == []
        assert all(e._heap is None for e in events)
        assert heap.pop() is None


class TestQueueAgainstModel:
    """Random operation sequences, checked after every step against a
    sorted list: what fires and in what order, and every public count."""

    class Model:
        """The engine's contract on a plain sorted list of records."""

        def __init__(self):
            self.now = 0.0
            self.sequence = 0
            self.queued: list[list] = []  # [time, sequence, flagged], sorted
            self.fired: list[int] = []
            self.peak = 0
            self.lazy_deleted = 0

        def schedule_at(self, time):
            record = [time, self.sequence, False]
            self.sequence += 1
            self.queued.append(record)
            self.queued.sort()
            self.peak = max(self.peak, len(self.queued))
            return record

        def cancel(self, record):
            if record in self.queued:
                self.queued.remove(record)

        def _next_due(self, horizon):
            """Discard flagged records at the head; pop the next due one."""
            while self.queued:
                if self.queued[0][2]:
                    self.queued.pop(0)
                    self.lazy_deleted += 1
                elif self.queued[0][0] > horizon:
                    return None
                else:
                    return self.queued.pop(0)
            return None

        def step(self, horizon=float("inf")):
            record = self._next_due(horizon)
            if record is None:
                return False
            self.now = record[0]
            self.fired.append(record[1])
            return True

        def run(self, until):
            while self.step(until):
                pass
            self.now = max(self.now, until)

    def test_draining_under_late_tombstones_keeps_the_bound(self):
        # The RPC shape: every delivery cancels a timeout scheduled well
        # after it, so tombstones sit below the live events being popped
        # and only the pop path can notice they have come to outnumber them.
        engine = SimulationEngine()
        for i in range(1000):
            engine.schedule(1.0 + i * 1e-3, lambda: None)
        timeouts = [engine.schedule(100.0 + i, lambda: None) for i in range(1000)]
        survivors = timeouts[::10]
        for event in timeouts:
            if event not in survivors:
                event.cancel()
        while len(engine._heap) > len(survivors):
            assert engine.step()
            assert len(engine._heap._entries) <= 2 * len(engine._heap) + TOMBSTONE_SLACK
        assert engine.run() == survivors[-1].time
        assert engine.events_fired == 1000 + len(survivors)
        assert engine.lazy_deleted == 0

    @pytest.mark.parametrize("seed", range(40))
    def test_random_interleavings(self, seed):
        rng = random.Random(seed)
        engine = SimulationEngine()
        model = self.Model()
        fired: list[int] = []
        handles: list[tuple[Event, list]] = []

        def callback_for(sequence):
            return lambda: fired.append(sequence)

        def schedule():
            record_time = model.now + rng.choice([0.0, 0.5, 1.0, rng.uniform(0, 20)])
            if rng.random() < 0.5:
                event = engine.schedule_at(record_time, callback_for(model.sequence))
            else:
                event = engine.schedule(
                    record_time - model.now, callback_for(model.sequence)
                )
                record_time = event.time  # now + (t - now) may round
            handles.append((event, model.schedule_at(record_time)))

        def cancel():
            live = [(e, r) for e, r in handles if r in model.queued]
            if not handles:
                return
            # Mostly fresh events; sometimes one already cancelled or fired.
            event, record = rng.choice(live if live and rng.random() < 0.8 else handles)
            was_live = record in model.queued and not record[2]
            released = weakref.ref(event.callback)
            event.cancel()
            model.cancel(record)
            assert event.cancelled
            if was_live:
                assert released() is None

        def flag_directly():
            live = [(e, r) for e, r in handles if r in model.queued]
            if live:
                event, record = rng.choice(live)
                event.cancelled = True
                record[2] = True

        def step():
            assert engine.step() is model.step()

        def run_until():
            until = model.now + rng.uniform(0, 8)
            assert engine.run(until=until) == until
            model.run(until)

        def clear():
            engine.clear()
            model.queued.clear()

        operations = [schedule] * 8 + [cancel] * 6 + [step] * 3 + [
            flag_directly, run_until, run_until, clear
        ]
        # Bursts of one operation build deep queues and long tombstone runs.
        for _ in range(60):
            operation = rng.choice(operations)
            for _ in range(rng.choice([1, 1, 1, 5, 40, 150])):
                operation()
                assert fired == model.fired
                assert engine.now == model.now
                assert len(engine._heap) == len(model.queued)
                assert engine.heap_peak == model.peak
                assert engine.lazy_deleted == model.lazy_deleted
                assert engine.events_fired == len(model.fired)
                assert (
                    len(engine._heap._entries)
                    <= 2 * len(engine._heap) + TOMBSTONE_SLACK
                )
        engine.run()
        while model.step():
            pass
        assert fired == model.fired
        assert len(engine._heap) == 0


class TestRunBounds:
    def test_run_until(self):
        engine = SimulationEngine()
        fired: list[float] = []
        for t in (1.0, 2.0, 3.0):
            engine.schedule(t, lambda t=t: fired.append(t))
        engine.run(until=2.0)
        assert fired == [1.0, 2.0]
        assert engine.now == 2.0
        engine.run()
        assert fired == [1.0, 2.0, 3.0]

    def test_run_until_advances_clock_when_idle(self):
        engine = SimulationEngine()
        engine.run(until=5.0)
        assert engine.now == 5.0

    def test_max_events_guard(self):
        engine = SimulationEngine()

        def loop():
            engine.schedule(0.0, loop)

        engine.schedule(0.0, loop)
        with pytest.raises(SimulationError):
            engine.run(max_events=100)

    def test_reentrant_run_rejected(self):
        engine = SimulationEngine()
        failures: list[Exception] = []

        def nested():
            try:
                engine.run()
            except SimulationError as exc:
                failures.append(exc)

        engine.schedule(1.0, nested)
        engine.run()
        assert len(failures) == 1

    def test_step_and_counts(self):
        engine = SimulationEngine()
        engine.schedule(1.0, lambda: None)
        assert engine.step() is True
        assert engine.step() is False
        assert engine.events_fired == 1

    def test_clear(self):
        engine = SimulationEngine()
        engine.schedule(1.0, lambda: None)
        engine.clear()
        assert len(engine._heap) == 0


class TestTickHooks:
    def test_interval_must_be_positive(self):
        engine = SimulationEngine()
        with pytest.raises(SimulationError):
            engine.add_tick_hook(0.0, lambda at: None)
        with pytest.raises(SimulationError):
            engine.add_tick_hook(-1.0, lambda at: None)

    def test_fires_once_per_crossed_window(self):
        engine = SimulationEngine()
        fired: list[float] = []
        engine.add_tick_hook(1.0, fired.append)
        engine.schedule(3.5, lambda: None)
        engine.run()
        assert fired == [1.0, 2.0, 3.0]

    def test_fires_before_the_crossing_event(self):
        engine = SimulationEngine()
        order: list[str] = []
        engine.add_tick_hook(1.0, lambda at: order.append(f"hook@{at}"))
        engine.schedule(1.0, lambda: order.append("event@1.0"))
        engine.run()
        # A boundary exactly at an event time still samples first, so the
        # observer sees state as of the window edge.
        assert order == ["hook@1.0", "event@1.0"]

    def test_hook_sees_pre_event_clock(self):
        engine = SimulationEngine()
        seen: list[float] = []
        engine.add_tick_hook(1.0, lambda at: seen.append(engine.now))
        engine.schedule(2.5, lambda: None)
        engine.run()
        # The clock has not crossed the boundary yet when the hook fires.
        assert seen == [0.0, 0.0]

    def test_run_until_final_bump_fires_idle_windows(self):
        engine = SimulationEngine()
        fired: list[float] = []
        engine.add_tick_hook(2.0, fired.append)
        engine.schedule(1.0, lambda: None)
        at = engine.run(until=5.0)
        assert at == 5.0
        # No events past t=1, but every elapsed window still sampled.
        assert fired == [2.0, 4.0]

    def test_cancel_stops_future_firings(self):
        engine = SimulationEngine()
        fired: list[float] = []
        hook = engine.add_tick_hook(1.0, fired.append)
        engine.schedule(1.5, lambda: None)
        engine.run()
        assert fired == [1.0]
        hook.cancel()
        engine.schedule(1.0, lambda: None)
        engine.run()
        assert fired == [1.0]

    def test_multiple_hooks_independent_intervals(self):
        engine = SimulationEngine()
        fired: list[tuple[str, float]] = []
        engine.add_tick_hook(1.0, lambda at: fired.append(("fast", at)))
        engine.add_tick_hook(2.0, lambda at: fired.append(("slow", at)))
        for t in (1.5, 2.5, 3.5):
            engine.schedule(t, lambda: None)
        engine.run(until=4.0)
        assert fired == [
            ("fast", 1.0),
            ("fast", 2.0),
            ("slow", 2.0),
            ("fast", 3.0),
            ("fast", 4.0),
            ("slow", 4.0),
        ]
