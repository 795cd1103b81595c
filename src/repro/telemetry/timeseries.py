"""The telemetry time-series store.

A deliberately Prometheus-shaped design: series are identified by
``(site, port, counter-name)`` and hold monotonically-timestamped
``(time, value)`` samples.  Queries return raw samples or windowed
slices; *rate* computation from cumulative counters lives in the MFlib
layer, mirroring how PromQL's ``rate()`` works over raw counters.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

SeriesKey = Tuple[str, str, str]  # (site, port_id, counter)


@dataclass(frozen=True)
class CounterSample:
    """One polled value of one counter."""

    time: float
    value: float


class CounterStore:
    """In-memory store of counter samples."""

    def __init__(self) -> None:
        self._series: Dict[SeriesKey, List[CounterSample]] = {}
        # Each series' sample times, extended by ``append``, so that
        # ``window`` and ``latest_before`` bisect in O(log n).
        self._times: Dict[SeriesKey, List[float]] = {}

    def append(self, site: str, port_id: str, counter: str, time: float, value: float) -> None:
        """Add a sample; timestamps within a series must not go backward."""
        key = (site, port_id, counter)
        times = self._times.get(key)
        if times is None:
            times = self._times[key] = []
            self._series[key] = []
        elif time < times[-1]:
            raise ValueError(
                f"sample for {key} at {time} precedes last sample at {times[-1]}"
            )
        times.append(time)
        self._series[key].append(CounterSample(time, value))

    def series(self, site: str, port_id: str, counter: str) -> List[CounterSample]:
        """All samples of one series (empty list if never polled)."""
        return list(self._series.get((site, port_id, counter), []))

    def window(
        self, site: str, port_id: str, counter: str, start: float, end: float
    ) -> List[CounterSample]:
        """Samples with ``start <= time <= end``."""
        key = (site, port_id, counter)
        samples = self._series.get(key, [])
        times = self._times.get(key, [])
        lo = bisect.bisect_left(times, start)
        hi = bisect.bisect_right(times, end)
        return samples[lo:hi]

    def latest(self, site: str, port_id: str, counter: str) -> Optional[CounterSample]:
        """Most recent sample of a series, or None."""
        samples = self._series.get((site, port_id, counter))
        return samples[-1] if samples else None

    def latest_before(
        self, site: str, port_id: str, counter: str, time: float
    ) -> Optional[CounterSample]:
        """Most recent sample at or before ``time``, or None."""
        key = (site, port_id, counter)
        samples = self._series.get(key, [])
        times = self._times.get(key, [])
        index = bisect.bisect_right(times, time) - 1
        return samples[index] if index >= 0 else None

    def ports(self, site: str) -> List[str]:
        """Port ids that have at least one sample at a site."""
        return sorted({port for (s, port, _c) in self._series if s == site})

    def sites(self) -> List[str]:
        """Sites that have at least one sample."""
        return sorted({s for (s, _p, _c) in self._series})

    def keys(self) -> Iterator[SeriesKey]:
        """All series keys."""
        return iter(self._series.keys())

    def __len__(self) -> int:
        return sum(len(samples) for samples in self._series.values())
