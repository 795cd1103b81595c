"""Channels and links.

A :class:`Channel` is one unidirectional transmission path: a serializer
of fixed ``rate_bps`` preceded by a finite FIFO queue, followed by a
fixed propagation delay.  A :class:`DuplexLink` is the Tx/Rx channel pair
that every FABRIC link consists of ("All links consist of two
uni-directional channels", paper Section 3).

Channels keep cumulative byte/frame counters for both delivered and
dropped traffic.  The telemetry layer (:mod:`repro.telemetry`) polls
these counters exactly as FABRIC's SNMP collector polls switch interface
counters, so rate estimation and congestion detection work from the same
signal the paper uses.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, List

from repro.netsim.engine import Simulator
from repro.netsim.frame import Frame

Sink = Callable[[Frame], None]


@dataclass
class ChannelStats:
    """Cumulative counters, in the style of SNMP interface MIB counters."""

    tx_frames: int = 0
    tx_bytes: int = 0
    dropped_frames: int = 0
    dropped_bytes: int = 0
    offered_frames: int = 0
    offered_bytes: int = 0
    # Frames handed to the channel's sinks, i.e. past serialization AND
    # propagation.  offered - dropped - delivered = frames in flight.
    delivered_frames: int = 0
    delivered_bytes: int = 0

    def copy(self) -> "ChannelStats":
        return ChannelStats(
            self.tx_frames,
            self.tx_bytes,
            self.dropped_frames,
            self.dropped_bytes,
            self.offered_frames,
            self.offered_bytes,
            self.delivered_frames,
            self.delivered_bytes,
        )


class Channel:
    """A unidirectional, rate-limited, store-and-forward channel.

    Frames offered while the queue holds ``queue_limit_bytes`` are
    dropped (tail drop) and counted -- this is the mechanism behind the
    paper's mirroring-overflow hazard.
    """

    # FABRIC configures jumbo frames throughout its network (paper
    # Section 8.2); the default MTU accommodates 9000-byte payloads
    # plus encapsulation overhead.
    DEFAULT_MTU = 9216

    def __init__(
        self,
        sim: Simulator,
        rate_bps: float,
        queue_limit_bytes: int = 512 * 1024,
        propagation_delay: float = 0.0,
        name: str = "",
        mtu: int = DEFAULT_MTU,
    ):
        if rate_bps <= 0:
            raise ValueError("channel rate must be positive")
        if queue_limit_bytes <= 0:
            raise ValueError("queue limit must be positive")
        if mtu < 64:
            raise ValueError("MTU below the Ethernet minimum")
        self.sim = sim
        self.rate_bps = float(rate_bps)
        self.queue_limit_bytes = int(queue_limit_bytes)
        self.propagation_delay = float(propagation_delay)
        self.name = name
        self.mtu = int(mtu)
        self.oversize_drops = 0
        self.stats = ChannelStats()
        self._sinks: List[Sink] = []
        self._taps: List[Sink] = []
        self._queue: Deque[Frame] = deque()
        self._queued_bytes = 0
        self._busy = False

    # -- wiring ---------------------------------------------------------

    def connect(self, sink: Sink) -> None:
        """Deliver transmitted frames to ``sink`` (multiple allowed)."""
        self._sinks.append(sink)

    def disconnect(self, sink: Sink) -> None:
        """Stop delivering to ``sink``."""
        self._sinks.remove(sink)

    def add_tap(self, tap: Sink) -> None:
        """Observe every frame *offered* to this channel (pre-queue).

        Taps are how port mirroring is implemented: the switch taps the
        mirrored port's channels and re-offers clones to the mirror
        port's Tx channel.  A tap sees frames that may later be dropped,
        just like a span port configured upstream of an egress queue.
        """
        self._taps.append(tap)

    def remove_tap(self, tap: Sink) -> None:
        """Remove a previously-added tap."""
        self._taps.remove(tap)

    # -- dataplane ------------------------------------------------------

    def offer(self, frame: Frame) -> bool:
        """Submit a frame for transmission.

        Returns True if it was queued, False if tail-dropped.
        """
        stats = self.stats
        wire_len = frame.wire_len
        stats.offered_frames += 1
        stats.offered_bytes += wire_len
        if wire_len > self.mtu:
            self.oversize_drops += 1
            stats.dropped_frames += 1
            stats.dropped_bytes += wire_len
            return False
        if self._taps:
            for tap in tuple(self._taps):
                tap(frame)
        if self._queued_bytes + wire_len > self.queue_limit_bytes:
            stats.dropped_frames += 1
            stats.dropped_bytes += wire_len
            return False
        if self._busy:
            self._queue.append(frame)
            self._queued_bytes += wire_len
        else:
            # Idle means the queue is empty: serialize at once instead
            # of a round trip through it.
            self._busy = True
            self.sim.schedule(wire_len * 8.0 / self.rate_bps,
                              self._finish_transmit, frame)
        return True

    @property
    def queue_depth_bytes(self) -> int:
        """Bytes currently waiting (excluding the frame in serialization)."""
        return self._queued_bytes

    def _start_next(self) -> None:
        if not self._queue:
            self._busy = False
            return
        self._busy = True
        frame = self._queue.popleft()
        self._queued_bytes -= frame.wire_len
        serialization = frame.wire_len * 8.0 / self.rate_bps
        self.sim.schedule(serialization, self._finish_transmit, frame)

    def _finish_transmit(self, frame: Frame) -> None:
        self.stats.tx_frames += 1
        self.stats.tx_bytes += frame.wire_len
        if self.propagation_delay > 0:
            self.sim.schedule(self.propagation_delay, self._deliver, frame)
        else:
            self._deliver(frame)
        self._start_next()

    def _deliver(self, frame: Frame) -> None:
        self.stats.delivered_frames += 1
        self.stats.delivered_bytes += frame.wire_len
        # Sinks are wired at construction time and (rarely) changed from
        # control-plane code, never from inside a delivery -- safe to
        # iterate without copying on this per-frame hot path.
        for sink in self._sinks:
            sink(frame)

    @property
    def in_flight_frames(self) -> int:
        """Frames accepted but not yet delivered (queued, serializing,
        or propagating)."""
        s = self.stats
        return s.offered_frames - s.dropped_frames - s.delivered_frames

    def utilization(self, since_stats: ChannelStats, interval: float) -> float:
        """Fraction of capacity used since a previous stats snapshot."""
        if interval <= 0:
            raise ValueError("interval must be positive")
        sent_bits = (self.stats.tx_bytes - since_stats.tx_bytes) * 8.0
        return sent_bits / (self.rate_bps * interval)

    def __repr__(self) -> str:
        return f"<Channel {self.name or id(self)} {self.rate_bps:.3g}bps>"


class DuplexLink:
    """A full-duplex link: two independent channels, one per direction.

    By FABRIC convention we name the directions from the switch's point
    of view: ``tx`` carries frames *out of* the switch port, ``rx``
    carries frames *into* it.
    """

    def __init__(
        self,
        sim: Simulator,
        rate_bps: float,
        queue_limit_bytes: int = 512 * 1024,
        propagation_delay: float = 0.0,
        name: str = "",
    ):
        self.name = name
        self.tx = Channel(sim, rate_bps, queue_limit_bytes, propagation_delay, f"{name}/tx")
        self.rx = Channel(sim, rate_bps, queue_limit_bytes, propagation_delay, f"{name}/rx")

    @property
    def rate_bps(self) -> float:
        return self.tx.rate_bps

    def __repr__(self) -> str:
        return f"<DuplexLink {self.name} {self.rate_bps:.3g}bps>"
