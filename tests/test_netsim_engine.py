"""Tests for the discrete-event engine."""

import bisect
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim.engine import Simulator


class TestScheduling:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(2.0, fired.append, "late")
        sim.schedule(1.0, fired.append, "early")
        sim.run()
        assert fired == ["early", "late"]

    def test_ties_fire_in_schedule_order(self):
        sim = Simulator()
        fired = []
        for i in range(5):
            sim.schedule(1.0, fired.append, i)
        sim.run()
        assert fired == [0, 1, 2, 3, 4]

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(3.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [3.5]

    def test_schedule_at_absolute(self):
        sim = Simulator(start_time=10.0)
        fired = []
        sim.schedule_at(12.0, fired.append, "x")
        sim.run()
        assert sim.now == 12.0 and fired == ["x"]

    def test_rejects_past_scheduling(self):
        sim = Simulator(start_time=5.0)
        with pytest.raises(ValueError):
            sim.schedule(-1.0, lambda: None)
        with pytest.raises(ValueError):
            sim.schedule_at(4.0, lambda: None)

    def test_rejects_nan_times(self):
        # Regression: a NaN time compares False with everything, so it
        # used to sit anywhere in the heap and scramble the order of
        # the events around it.
        sim = Simulator()
        with pytest.raises(ValueError, match="NaN"):
            sim.schedule(math.nan, lambda: None)
        with pytest.raises(ValueError, match="NaN"):
            sim.schedule_at(math.nan, lambda: None)
        assert sim.pending == 0 and sim._heap == []

    def test_nan_rejection_keeps_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(2.0, fired.append, "b")
        with pytest.raises(ValueError):
            sim.schedule(math.nan, fired.append, "nan")
        sim.schedule(1.0, fired.append, "a")
        sim.schedule(3.0, fired.append, "c")
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_infinite_times_still_allowed(self):
        sim = Simulator()
        fired = []
        sim.schedule(math.inf, fired.append, "never")
        sim.schedule_at(math.inf, fired.append, "ever")
        sim.schedule(1.0, fired.append, "soon")
        sim.run(until=100.0)
        assert fired == ["soon"] and sim.now == 100.0
        sim.run()
        assert fired == ["soon", "never", "ever"] and sim.now == math.inf

    def test_events_can_schedule_events(self):
        sim = Simulator()
        fired = []

        def chain(n):
            fired.append(n)
            if n < 3:
                sim.schedule(1.0, chain, n + 1)

        sim.schedule(0.0, chain, 0)
        sim.run()
        assert fired == [0, 1, 2, 3]
        assert sim.now == 3.0


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        event = sim.schedule(1.0, fired.append, "no")
        event.cancel()
        sim.run()
        assert fired == []

    def test_pending_excludes_cancelled(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        assert sim.pending == 2
        event.cancel()
        assert sim.pending == 1

    def test_peek_skips_cancelled(self):
        sim = Simulator()
        first = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        first.cancel()
        assert sim.peek_time() == 2.0

    def test_double_cancel_counts_once(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        event.cancel()
        event.cancel()
        assert sim.pending == 1

    def test_cancel_after_fire_is_noop(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim.step()
        event.cancel()
        assert sim.pending == 1

    def test_pending_tracks_fired_events(self):
        sim = Simulator()
        for i in range(5):
            sim.schedule(float(i + 1), lambda: None)
        sim.run(max_events=2)
        assert sim.pending == 3
        sim.run()
        assert sim.pending == 0


class TestRunBounds:
    def test_run_until_stops_before_later_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, "a")
        sim.schedule(5.0, fired.append, "b")
        sim.run(until=2.0)
        assert fired == ["a"]
        assert sim.now == 2.0  # clock lands exactly on `until`

    def test_until_advances_clock_when_queue_empty(self):
        sim = Simulator()
        sim.run(until=9.0)
        assert sim.now == 9.0

    def test_remaining_events_fire_on_next_run(self):
        sim = Simulator()
        fired = []
        sim.schedule(5.0, fired.append, "b")
        sim.run(until=2.0)
        sim.run()
        assert fired == ["b"]

    def test_max_events(self):
        sim = Simulator()
        fired = []
        for i in range(10):
            sim.schedule(i + 1.0, fired.append, i)
        sim.run(max_events=4)
        assert fired == [0, 1, 2, 3]

    def test_until_composes_with_exhausted_max_events(self):
        # Regression: run(until=..., max_events=...) used to return from
        # the event cap without honoring the "clock is advanced to
        # exactly `until`" contract.
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, "a")
        sim.schedule(2.0, fired.append, "b")
        sim.schedule(50.0, fired.append, "late")
        sim.run(until=10.0, max_events=5)
        assert fired == ["a", "b"]
        assert sim.now == 10.0  # cap not limiting; clock lands on `until`

    def test_event_cap_before_until_does_not_skip_pending_work(self):
        # When max_events stops the run with events still due before
        # `until`, the clock must NOT jump over them.
        sim = Simulator()
        fired = []
        for i in range(4):
            sim.schedule(i + 1.0, fired.append, i)
        sim.run(until=10.0, max_events=2)
        assert fired == [0, 1]
        assert sim.now == 2.0
        sim.run(until=10.0)  # remaining events still fire in order
        assert fired == [0, 1, 2, 3]
        assert sim.now == 10.0

    def test_event_cap_with_until_advances_when_rest_is_later(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, "a")
        sim.schedule(2.0, fired.append, "b")
        sim.schedule(50.0, fired.append, "late")
        sim.run(until=10.0, max_events=2)
        assert fired == ["a", "b"]
        # The cap stopped the run, but nothing else is due before
        # `until`, so the clock still lands exactly on it.
        assert sim.now == 10.0

    def test_run_rejects_nan_until(self):
        # Regression: run(until=nan) used to fire every pending event.
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, "a")
        with pytest.raises(ValueError, match="NaN"):
            sim.run(until=math.nan)
        assert fired == [] and sim.now == 0.0 and sim.pending == 1

    def test_run_until_infinity_drains_and_lands_on_it(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, "a")
        sim.run(until=math.inf)
        assert fired == ["a"] and sim.now == math.inf

    @pytest.mark.parametrize("cap", [0, -1, -5])
    def test_nonpositive_event_cap_fires_nothing(self, cap):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, "a")
        sim.run(max_events=cap)
        assert fired == [] and sim.pending == 1 and sim.now == 0.0
        sim.run(until=5.0, max_events=cap)
        # Work is still due before `until`, so the clock stays put.
        assert fired == [] and sim.now == 0.0

    def test_step_returns_false_when_empty(self):
        assert Simulator().step() is False

    def test_events_processed_counter(self):
        sim = Simulator()
        for i in range(3):
            sim.schedule(float(i), lambda: None)
        sim.run()
        assert sim.events_processed == 3


# -- model test ------------------------------------------------------------
#
# Random operation sequences run against the engine and against a
# sorted-list reference model with the same public surface; every
# observable (fire order, clock, ``pending``, ``events_processed``,
# return values, errors and per-event flags) must agree after each
# operation and inside each callback.


class _RefEvent:
    def __init__(self, time, seq, callback, args):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.fired = False

    def cancel(self):
        if not (self.cancelled or self.fired):
            self.cancelled = True


class _RefSim:
    """The engine's contract, written as plainly as possible."""

    def __init__(self):
        self.now = 0.0
        self.queue = []  # sorted (time, seq, event); fired entries removed
        self.seq = 0
        self.events_processed = 0

    @property
    def pending(self):
        return sum(1 for _, _, event in self.queue if not event.cancelled)

    def schedule(self, delay, callback, *args):
        if delay < 0:
            raise ValueError("past")
        return self.schedule_at(self.now + delay, callback, *args)

    def schedule_at(self, time, callback, *args):
        if time < self.now:
            raise ValueError("past")
        event = _RefEvent(time, self.seq, callback, args)
        bisect.insort(self.queue, (time, self.seq, event))
        self.seq += 1
        return event

    def _head(self):
        live = [entry for entry in self.queue if not entry[2].cancelled]
        return live[0] if live else None

    def peek_time(self):
        head = self._head()
        return None if head is None else head[0]

    def step(self):
        head = self._head()
        if head is None:
            return False
        self.queue.remove(head)
        event = head[2]
        self.now = event.time
        event.fired = True
        event.callback(*event.args)
        self.events_processed += 1
        return True

    def run(self, until=None, max_events=None):
        fired = 0
        while True:
            next_time = self.peek_time()
            if next_time is None or (until is not None and next_time > until):
                break
            if max_events is not None and fired >= max_events:
                break
            self.step()
            fired += 1
        if until is not None and self.now < until:
            next_time = self.peek_time()
            if next_time is None or next_time > until:
                self.now = until


def _drive(sim, ops):
    """Apply ``ops`` to ``sim``; return everything observable."""
    trace = []
    events = []

    def observe(*tag):
        trace.append(tag + (sim.now, sim.pending, sim.events_processed,
                            tuple((e.fired, e.cancelled) for e in events)))

    def callback(label, action):
        def fire():
            observe("fire", label)
            kind = action[0]
            if kind == "run":
                sim.run(until=sim.now + action[1], max_events=action[2])
            elif kind == "child":
                add(sim.schedule, action[1], ("log",))
            elif kind == "cancel" and events:
                events[action[1] % len(events)].cancel()
            observe("done", label)
        return fire

    def add(method, when, action):
        try:
            events.append(method(when, callback(len(events), action)))
        except ValueError:
            return "ValueError"
        return "ok"

    for op in ops:
        kind = op[0]
        if kind == "schedule":
            result = add(sim.schedule, op[1], op[2])
        elif kind == "schedule_at":
            result = add(sim.schedule_at, sim.now + op[1], op[2])
        elif kind == "cancel":
            result = events[op[1] % len(events)].cancel() if events else None
        elif kind == "step":
            result = sim.step()
        elif kind == "peek":
            result = sim.peek_time()
        else:
            until = None if op[1] is None else sim.now + op[1]
            result = sim.run(until=until, max_events=op[2])
        observe("op", kind, result)
    return trace


# Repeated values make same-time ties common.
_DELAYS = st.sampled_from([0.0, 0.0, 0.5, 1.0, 1.0, 1.0, 2.5, 4.0, math.inf])
_CAPS = st.sampled_from([None, None, None, -2, -1, 0, 1, 2, 5])
_ACTIONS = st.one_of(
    st.just(("log",)),
    st.tuples(st.just("run"), _DELAYS, _CAPS),
    st.tuples(st.just("child"), _DELAYS),
    st.tuples(st.just("cancel"), st.integers(0, 30)),
)
_OPS = st.lists(st.one_of(
    st.tuples(st.just("schedule"), st.one_of(_DELAYS, st.just(-1.0)), _ACTIONS),
    st.tuples(st.just("schedule_at"), st.one_of(_DELAYS, st.just(-0.5)), _ACTIONS),
    st.tuples(st.just("cancel"), st.integers(0, 30)),
    st.tuples(st.just("step")),
    st.tuples(st.just("peek")),
    st.tuples(st.just("run"),
              st.one_of(st.none(), _DELAYS, st.just(-1.0)), _CAPS),
), max_size=40)


def _check_against_model(ops):
    assert _drive(Simulator(), ops) == _drive(_RefSim(), ops)


class TestEngineModel:
    @settings(max_examples=150, deadline=None)
    @given(_OPS)
    def test_engine_matches_reference_model(self, ops):
        _check_against_model(ops)

    @pytest.mark.slow
    @settings(max_examples=1000, deadline=None)
    @given(_OPS)
    def test_engine_matches_reference_model_deep(self, ops):
        _check_against_model(ops)

    def test_reentrant_run_inside_a_callback(self):
        # The allocator advances time from inside an event by calling
        # run(until=...); events due in that window fire in the nested
        # call, and the outer run resumes with what is left.
        ops = [("schedule", 1.0, ("run", 2.5, None)),
               ("schedule", 2.0, ("log",)),
               ("schedule", 3.0, ("child", 0.0)),
               ("schedule", 4.0, ("log",)),
               ("run", 3.0, 1)]
        trace = _drive(Simulator(), ops)
        assert trace == _drive(_RefSim(), ops)
        fired = [t[1] for t in trace if t[0] == "fire"]
        assert fired == [0, 1, 2, 4]
