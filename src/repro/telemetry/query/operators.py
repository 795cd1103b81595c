"""The two standing switch-side queries and the runtime that runs them.

* ``egress-load`` sums wire bytes per egress port in a count-min sketch
  and reports the estimates of the watched ports: the signal the sketch
  congestion detector thresholds against the destination line rate.
* ``top-talkers`` keeps the top :data:`TOP_K` source MACs by wire bytes
  in a heavy-hitter sketch.

Both sketches use ``epsilon = delta =`` :data:`EPSILON`, and hash under
the label ``telemetry/<site>/<query>`` from the campaign seed.
:class:`QueryRuntime` runs one or both for one switch: it taps the Tx
channels of the watched ports, tumbles the window on the simulator
clock, and ships one :class:`SketchReport` per non-empty window to a
caller supplied callback (the Patchwork instance journals them and
feeds the sketch-report congestion detector).

Operator placement is the point: the per-frame work runs *inside* the
dataplane (a channel tap, exactly like mirroring) and only the compact
window report leaves the switch -- the telemetry-bytes accounting in
:attr:`SketchReport.report_bytes` is what the tradeoff benchmark charges
each detector.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.netsim.engine import Event, Simulator
from repro.netsim.frame import Frame
from repro.netsim.link import Channel
from repro.telemetry.query.sketch import (
    REPORT_HEADER_BYTES,
    CountMinSketch,
    HeavyHitters,
)

#: Query name the sketch detector consumes.
EGRESS_LOAD_QUERY = "egress-load"
TOP_TALKERS_QUERY = "top-talkers"

#: Count-min overcount bound and failure probability of both sketches.
EPSILON = 0.05
DELTA = 0.05

#: Source MACs a ``top-talkers`` report keeps.
TOP_K = 8


@dataclass
class SketchReport:
    """One window's pre-aggregated summary, as shipped off-switch."""

    site: str
    query: str
    kind: str
    window_start: float
    window_end: float
    frames: int
    total_weight: int
    report_bytes: int
    #: ``(key, estimate)`` pairs in deterministic order: the watched
    #: ports' estimates for count-min (the table itself is not
    #: shipped), the top-k for heavy-hitter.
    estimates: Tuple[Tuple[str, int], ...]

    def estimate(self, key: str) -> int:
        for k, v in self.estimates:
            if k == key:
                return v
        return 0

    def to_event(self) -> Dict[str, object]:
        """The journal payload (canonical key order comes from emit)."""
        return {
            "query": self.query,
            "reducer": self.kind,
            "window_start": self.window_start,
            "window_end": self.window_end,
            "frames": self.frames,
            "total_weight": self.total_weight,
            "report_bytes": self.report_bytes,
            "estimates": [[k, v] for k, v in self.estimates],
        }


class _StandingQuery:
    """One query's sketch for the current window, and its report.

    A subclass names the query and its reducer, builds ``sketch`` and
    defines ``observe(port_id, frame)``, ``estimates()`` and
    ``report_bytes()``.
    """

    name = ""
    kind = ""

    def __init__(self, site: str, seed: int, ports: Tuple[str, ...]):
        self.site = site
        self.ports = ports
        self.label = f"telemetry/{site}/{self.name}"
        self.frames_observed = 0

    def flush(self, window_start: float, window_end: float) -> Optional[SketchReport]:
        """Emit this window's report and reset for the next one.

        Empty windows (no frames observed) produce no report -- a real
        switch would suppress them too, and skipping them keeps journals
        compact and deterministic.
        """
        if self.frames_observed == 0:
            return None
        report = SketchReport(
            site=self.site,
            query=self.name,
            kind=self.kind,
            window_start=window_start,
            window_end=window_end,
            frames=self.frames_observed,
            total_weight=int(self.sketch.total_weight),
            report_bytes=self.report_bytes(),
            estimates=self.estimates(),
        )
        self.reset()
        return report

    def reset(self) -> None:
        self.frames_observed = 0
        self.sketch.reset()


class EgressLoad(_StandingQuery):
    """Wire bytes per egress port, in a count-min sketch."""

    name = EGRESS_LOAD_QUERY
    kind = "count-min"

    def __init__(self, site: str, seed: int, ports: Tuple[str, ...]):
        super().__init__(site, seed, ports)
        self.sketch = CountMinSketch(epsilon=EPSILON, delta=DELTA,
                                     seed=seed, label=self.label)

    def observe(self, port_id: str, frame: Frame) -> None:
        self.frames_observed += 1
        self.sketch.update(port_id, frame.wire_len)

    def estimates(self) -> Tuple[Tuple[str, int], ...]:
        # Point estimates from sketch state, so they carry the count-min
        # overcount, never an undercount.
        return tuple((port, self.sketch.estimate(port))
                     for port in self.ports)

    def report_bytes(self) -> int:
        return REPORT_HEADER_BYTES + self.sketch.table_bytes


class TopTalkers(_StandingQuery):
    """The heaviest source MACs by wire bytes; only the top-k ship."""

    name = TOP_TALKERS_QUERY
    kind = "heavy-hitter"

    def __init__(self, site: str, seed: int, ports: Tuple[str, ...]):
        super().__init__(site, seed, ports)
        self.sketch = HeavyHitters(k=TOP_K, epsilon=EPSILON, delta=DELTA,
                                   seed=seed, label=self.label)

    def observe(self, port_id: str, frame: Frame) -> None:
        self.frames_observed += 1
        l2 = frame.l2   # destination MAC, then source MAC
        self.sketch.update(l2[6:12].hex() if len(l2) >= 12 else "",
                           frame.wire_len)

    def estimates(self) -> Tuple[Tuple[str, int], ...]:
        return tuple(self.sketch.top())

    def report_bytes(self) -> int:
        return REPORT_HEADER_BYTES + self.sketch.report_bytes


#: Every standing query by name, in install order.
QUERIES = {query.name: query for query in (EgressLoad, TopTalkers)}

ReportSink = Callable[[SketchReport], None]


class QueryRuntime:
    """Runs standing queries switch-side and tumbles their windows.

    Lifecycle: :meth:`install` once per switch (adds the channel taps),
    :meth:`arm` at the start of each capture sample (resets sketch state
    and starts the window clock), :meth:`finalize` at sample end (force
    flushes the partial window and stops the clock).  Between samples the
    taps stay in place but ignore traffic -- the queries only meter
    while a sample is open, mirroring how the capture slots work.
    """

    def __init__(self, sim: Simulator, site: str, seed: int,
                 on_report: ReportSink, window: float = 1.0):
        self.sim = sim
        self.site = site
        self.seed = seed
        self.on_report = on_report
        self.window = window
        self.queries: List[_StandingQuery] = []
        self._bindings: List[Tuple[Channel, Callable[[Frame], None]]] = []
        self._armed = False
        self._window_start = 0.0
        self._flush_event: Optional[Event] = None
        self.reports_emitted = 0
        self.report_bytes_total = 0

    # -- installation ----------------------------------------------------

    def install(self, switch, ports: Iterable[str],
                queries: Sequence[str] = tuple(QUERIES)) -> None:
        """Run ``queries`` over the Tx channels of ``ports`` on ``switch``."""
        watched = tuple(sorted(ports))
        self.queries = [QUERIES[name](self.site, self.seed, watched)
                        for name in queries]
        for port_id in watched:
            channel = switch.ports[port_id].link.tx
            tap = self._make_tap(port_id)
            channel.add_tap(tap)
            self._bindings.append((channel, tap))

    def _make_tap(self, port_id: str) -> Callable[[Frame], None]:
        queries = self.queries

        def tap(frame: Frame) -> None:
            if self._armed:
                for query in queries:
                    query.observe(port_id, frame)

        return tap

    def uninstall(self) -> None:
        """Remove every tap (instance teardown)."""
        for channel, tap in self._bindings:
            channel.remove_tap(tap)
        self._bindings = []
        self.queries = []

    # -- window clock ----------------------------------------------------

    def arm(self, now: float) -> None:
        """Start metering: reset all sketch state, begin the first window."""
        if self._armed:
            return
        self._armed = True
        self._window_start = now
        for query in self.queries:
            query.reset()
        self._flush_event = self.sim.schedule_at(
            now + self.window, self._on_window)

    def _on_window(self) -> None:
        if not self._armed:
            return
        window_end = self.sim.now
        self._flush_window(self._window_start, window_end)
        self._window_start = window_end
        self._flush_event = self.sim.schedule_at(
            window_end + self.window, self._on_window)

    def _flush_window(self, start: float, end: float) -> None:
        for query in self.queries:
            report = query.flush(start, end)
            if report is not None:
                self.reports_emitted += 1
                self.report_bytes_total += report.report_bytes
                self.on_report(report)

    def finalize(self, now: float) -> None:
        """Stop metering; force-flush the partial window if non-empty."""
        if not self._armed:
            return
        self._armed = False
        if self._flush_event is not None:
            self._flush_event.cancel()
            self._flush_event = None
        if now > self._window_start:
            self._flush_window(self._window_start, now)
