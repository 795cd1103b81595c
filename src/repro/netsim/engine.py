"""The discrete-event engine.

A minimal, fast event loop.  The queue is a binary heap of
``(time, seq, event)`` tuples: ``seq`` is a per-simulator counter, so
events scheduled at the same instant fire in scheduling order, which
keeps runs deterministic (a requirement for reproducible experiments).
Because ``seq`` is unique, tuple comparison is settled by ``time`` and
``seq`` alone and never reaches the :class:`Event`, so ``heapq`` orders
the queue entirely in C.
"""

from __future__ import annotations

import heapq
import itertools
import math
import sys
from typing import Any, Callable, List, Optional, Tuple

_heappush = heapq.heappush
_heappop = heapq.heappop


class Event:
    """A scheduled callback.  Returned by :meth:`Simulator.schedule`.

    Cancellation is lazy: :meth:`cancel` marks the event and the loop
    skips it when popped, which is O(1) instead of O(n) heap surgery.
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled", "fired", "_sim")

    def __init__(self, time: float, seq: int, callback: Callable[..., None], args: tuple,
                 sim: "Optional[Simulator]" = None):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.fired = False
        self._sim = sim

    def cancel(self) -> None:
        """Prevent the event from firing (no-op if it already fired)."""
        if self.cancelled or self.fired:
            return
        self.cancelled = True
        if self._sim is not None:
            self._sim._stale += 1

    def __repr__(self) -> str:
        state = " cancelled" if self.cancelled else ""
        return f"<Event t={self.time:.9f} #{self.seq}{state}>"


def _not_a_time(what: str) -> ValueError:
    return ValueError(f"cannot {what} NaN: it has no place in the event order")


class Simulator:
    """Deterministic discrete-event simulator.

    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule(1.0, fired.append, "a")
    >>> _ = sim.schedule(0.5, fired.append, "b")
    >>> sim.run()
    >>> fired
    ['b', 'a']
    """

    def __init__(self, start_time: float = 0.0):
        self.now = float(start_time)
        self._heap: List[Tuple[float, int, Event]] = []
        self._counter = itertools.count()
        self.events_processed = 0
        # Cancelled events still in the heap, so `pending` is O(1).
        self._stale = 0

    def schedule(self, delay: float, callback: Callable[..., None], *args: Any) -> Event:
        """Schedule ``callback(*args)`` to fire ``delay`` seconds from now."""
        if not delay >= 0:
            if delay != delay:
                raise _not_a_time("schedule after")
            raise ValueError(f"cannot schedule in the past (delay={delay})")
        time = self.now + delay
        seq = next(self._counter)
        event = Event(time, seq, callback, args, self)
        _heappush(self._heap, (time, seq, event))
        return event

    def schedule_at(self, time: float, callback: Callable[..., None], *args: Any) -> Event:
        """Schedule ``callback(*args)`` at absolute simulation ``time``."""
        if not time >= self.now:
            if time != time:
                raise _not_a_time("schedule at")
            raise ValueError(f"cannot schedule at {time} (now is {self.now})")
        seq = next(self._counter)
        event = Event(time, seq, callback, args, self)
        _heappush(self._heap, (time, seq, event))
        return event

    def peek_time(self) -> Optional[float]:
        """Time of the next pending (non-cancelled) event, or None."""
        heap = self._heap
        while heap and heap[0][2].cancelled:
            _heappop(heap)
            self._stale -= 1
        return heap[0][0] if heap else None

    def step(self) -> bool:
        """Run one event.  Returns False when the queue is empty."""
        heap = self._heap
        while heap:
            time, _, event = _heappop(heap)
            if event.cancelled:
                self._stale -= 1
                continue
            self.now = time
            event.fired = True
            event.callback(*event.args)
            self.events_processed += 1
            return True
        return False

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run events until the queue drains, ``until`` passes, or
        ``max_events`` have fired.

        The two limits compose: whichever is hit first stops the run.
        When ``until`` is given, the clock is advanced to exactly
        ``until`` at the end -- even if the queue drained earlier, and
        also when ``max_events`` stopped the run with no remaining work
        at or before ``until`` -- so periodic processes can be re-armed
        from a known time.  If the event cap left unfired events at or
        before ``until``, the clock stays at the last fired event (it
        never jumps over pending work).

        Callbacks may call ``run`` themselves (the allocator advances
        time that way): every piece of loop state except this call's
        own event count lives on the simulator, so the outer loop simply
        resumes with whatever the nested one left in the heap.
        """
        if until is None:
            horizon = math.inf  # no queued time exceeds it (NaN is refused)
        elif until != until:
            raise _not_a_time("run until")
        else:
            horizon = until
        cap = sys.maxsize if max_events is None else max_events
        heap = self._heap
        fired = 0
        while heap:
            time, _, event = heap[0]
            if event.cancelled:
                _heappop(heap)
                self._stale -= 1
                continue
            if time > horizon or fired >= cap:
                break
            _heappop(heap)
            self.now = time
            event.fired = True
            event.callback(*event.args)
            self.events_processed += 1
            fired += 1
        if until is not None and self.now < until:
            # Cancelled heads were dropped above, so heap[0] is live.
            if not heap or heap[0][0] > until:
                self.now = until

    @property
    def pending(self) -> int:
        """Number of pending (non-cancelled) events."""
        return len(self._heap) - self._stale
