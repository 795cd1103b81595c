"""The process-wide metrics registry.

Counters, gauges, and fixed-bucket histograms, designed so that
*pre-bound instrument handles* are cheap enough for per-frame hot paths:

* ``registry.counter(name)`` is called **once**, at component
  construction (or once per pcap in the digest), never per event.  The
  returned handle's ``inc()`` is a single attribute add -- no dict
  lookup, no string formatting, no lock (the simulation is
  single-threaded per process).
* A *disabled* registry hands out shared null instruments whose
  ``enabled`` flag lets hot loops skip instrumentation entirely, so the
  observability layer costs ~nothing when off.
* Instruments carry a ``volatile`` flag: values derived from wall time
  (stage durations, throughput) are volatile and are excluded from
  deterministic snapshots, which is what keeps the
  :class:`~repro.obs.journal.RunJournal` byte-identical under a fixed
  seed.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, List, Optional, Sequence, Tuple, Union

Number = Union[int, float]


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "help", "volatile", "value")

    kind = "counter"
    enabled = True

    def __init__(self, name: str, help: str = "", volatile: bool = False):
        self.name = name
        self.help = help
        self.volatile = volatile
        self.value: Number = 0

    def inc(self, amount: Number = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount

    def snapshot(self) -> Dict[str, Number]:
        return {"value": self.value}


class Gauge:
    """A value that can go up and down."""

    __slots__ = ("name", "help", "volatile", "value")

    kind = "gauge"
    enabled = True

    def __init__(self, name: str, help: str = "", volatile: bool = False):
        self.name = name
        self.help = help
        self.volatile = volatile
        self.value: Number = 0

    def set(self, value: Number) -> None:
        self.value = value

    def inc(self, amount: Number = 1) -> None:
        self.value += amount

    def dec(self, amount: Number = 1) -> None:
        self.value -= amount

    def snapshot(self) -> Dict[str, Number]:
        return {"value": self.value}


class Histogram:
    """A fixed-bucket histogram (cumulative-style, like Prometheus).

    Bucket bounds are fixed at creation; ``observe`` is one C-level
    bisect plus a list-index increment, cheap enough for per-sample use
    (per-frame counts should be summed locally and added once, as
    :class:`repro.analysis.pipeline.AnalysisPipeline` does).
    """

    __slots__ = ("name", "help", "volatile", "bounds", "bucket_counts",
                 "count", "total")

    kind = "histogram"
    enabled = True

    DEFAULT_BOUNDS = (0.005, 0.05, 0.5, 5.0, 50.0, 500.0)

    def __init__(self, name: str, buckets: Optional[Sequence[Number]] = None,
                 help: str = "", volatile: bool = False):
        bounds = tuple(buckets if buckets is not None else self.DEFAULT_BOUNDS)
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ValueError("histogram buckets must be strictly increasing")
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self.name = name
        self.help = help
        self.volatile = volatile
        self.bounds: Tuple[Number, ...] = bounds
        self.bucket_counts: List[int] = [0] * (len(bounds) + 1)  # +inf tail
        self.count = 0
        self.total: Number = 0

    def observe(self, value: Number) -> None:
        # bisect_left gives Prometheus `le` semantics: a value equal to
        # a bound lands in that bound's bucket.
        self.bucket_counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value

    def snapshot(self) -> Dict[str, object]:
        return {
            "count": self.count,
            "sum": self.total,
            "buckets": {
                ("+Inf" if i == len(self.bounds) else str(self.bounds[i])): n
                for i, n in enumerate(self.bucket_counts)
            },
        }


class _NullInstrument:
    """Shared no-op handle a disabled registry hands out.

    ``enabled`` is False so hot paths can skip instrumentation with one
    attribute check; every mutator is a no-op.
    """

    __slots__ = ()

    enabled = False
    volatile = False
    name = "null"
    help = ""
    value = 0
    count = 0
    total = 0

    def inc(self, amount: Number = 1) -> None:
        pass

    def dec(self, amount: Number = 1) -> None:
        pass

    def set(self, value: Number) -> None:
        pass

    def observe(self, value: Number) -> None:
        pass

    def snapshot(self) -> Dict[str, Number]:
        return {"value": 0}


NULL_INSTRUMENT = _NullInstrument()

Instrument = Union[Counter, Gauge, Histogram, _NullInstrument]


class MetricsRegistry:
    """Process-wide instrument namespace.

    ``counter``/``gauge``/``histogram`` are get-or-create: the first
    call binds the handle, later calls with the same name return it
    (re-declaring under a different kind raises).  A disabled registry
    returns :data:`NULL_INSTRUMENT` and registers nothing.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._instruments: Dict[str, Instrument] = {}

    # -- declaration ---------------------------------------------------------

    def counter(self, name: str, help: str = "", volatile: bool = False):
        return self._declare(Counter, name, help=help, volatile=volatile)

    def gauge(self, name: str, help: str = "", volatile: bool = False):
        return self._declare(Gauge, name, help=help, volatile=volatile)

    def histogram(self, name: str, buckets: Optional[Sequence[Number]] = None,
                  help: str = "", volatile: bool = False):
        if not self.enabled:
            return NULL_INSTRUMENT
        existing = self._instruments.get(name)
        if existing is not None:
            if not isinstance(existing, Histogram):
                raise ValueError(f"{name} already declared as {existing.kind}")
            return existing
        made = Histogram(name, buckets, help=help, volatile=volatile)
        self._instruments[name] = made
        return made

    def _declare(self, cls, name: str, help: str, volatile: bool):
        if not self.enabled:
            return NULL_INSTRUMENT
        existing = self._instruments.get(name)
        if existing is not None:
            if not isinstance(existing, cls):
                raise ValueError(f"{name} already declared as {existing.kind}")
            return existing
        made = cls(name, help=help, volatile=volatile)
        self._instruments[name] = made
        return made

    # -- queries -------------------------------------------------------------

    def get(self, name: str) -> Optional[Instrument]:
        return self._instruments.get(name)

    def names(self) -> List[str]:
        return sorted(self._instruments)

    def __len__(self) -> int:
        return len(self._instruments)

    def __contains__(self, name: str) -> bool:
        return name in self._instruments

    def instruments(self, include_volatile: bool = True) -> List[Instrument]:
        return [self._instruments[n] for n in sorted(self._instruments)
                if include_volatile or not self._instruments[n].volatile]

    def snapshot(self, include_volatile: bool = True) -> Dict[str, Dict]:
        """A stable (name-sorted) value dump of every instrument.

        ``include_volatile=False`` drops wall-time-derived instruments,
        giving a snapshot that is deterministic under a fixed seed.
        """
        return {
            inst.name: {"kind": inst.kind, **inst.snapshot()}
            for inst in self.instruments(include_volatile=include_volatile)
        }

    def reset(self) -> None:
        """Zero every instrument (keeps declarations and handles alive)."""
        for inst in self._instruments.values():
            if isinstance(inst, Histogram):
                inst.bucket_counts = [0] * (len(inst.bounds) + 1)
                inst.count = 0
                inst.total = 0
            else:
                inst.value = 0
