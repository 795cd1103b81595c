"""The INT-style in-band telemetry path.

"Millions of Little Minions"-style in-band state: the mirror-egress
switch appends a small telemetry shim to (a deterministic subsample of)
the mirrored clones it emits, recording the egress queue state *at the
moment the clone was offered*.  The capture host peels the shim off
before any snaplen/pcap processing -- the captured bytes stay identical
to a run without stamping -- and publishes the stamps as an in-band
congestion signal.

Shim layout (:data:`SHIM_LEN` = 20 bytes, appended to the frame tail)::

    0  2   magic   0xC2 0x1A
    2  1   version 1
    3  1   flags   (reserved, 0)
    4  8   t_ns    stamp sim-time in integer nanoseconds
    12 4   queue_depth_bytes   egress queue depth when offered
    16 2   occupancy_milli     round(1000 * (depth + wire_len) / limit),
                               saturated at 1000
    18 2   port_hash           16-bit BLAKE2b fold of the egress port id

The stamp rides the frame through the egress queue, so a stamped frame
that is tail-dropped takes its evidence with it -- exactly the bias a
real in-band scheme has, and one reason the detector thresholds on
occupancy rather than waiting for a "queue full" stamp that may never
arrive.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.netsim.frame import Frame

#: struct layout: magic, version, flags, t_ns, depth, occupancy, port.
_SHIM_STRUCT = struct.Struct("!2sBBQIHH")
SHIM_MAGIC = b"\xc2\x1a"
SHIM_VERSION = 1
SHIM_LEN = _SHIM_STRUCT.size  # 20 bytes


def _port_hash(port_id: str) -> int:
    digest = hashlib.blake2b(port_id.encode("utf-8"), digest_size=2).digest()
    return int.from_bytes(digest, "big")


@dataclass(frozen=True)
class TelemetryShim:
    """One decoded in-band stamp."""

    t: float
    queue_depth_bytes: int
    occupancy_milli: int
    port_hash: int

    @property
    def occupancy(self) -> float:
        """Queue occupancy as a fraction of the egress queue limit."""
        return self.occupancy_milli / 1000.0

    def encode(self) -> bytes:
        return _SHIM_STRUCT.pack(
            SHIM_MAGIC,
            SHIM_VERSION,
            0,
            int(round(self.t * 1e9)),
            self.queue_depth_bytes,
            self.occupancy_milli,
            self.port_hash,
        )

    @classmethod
    def decode(cls, blob: bytes) -> Optional["TelemetryShim"]:
        if len(blob) != SHIM_LEN:
            return None
        magic, version, _flags, t_ns, depth, occupancy, port = \
            _SHIM_STRUCT.unpack(blob)
        if magic != SHIM_MAGIC or version != SHIM_VERSION:
            return None
        return cls(t=t_ns / 1e9, queue_depth_bytes=depth,
                   occupancy_milli=occupancy, port_hash=port)


def peel(frame: Frame) -> Tuple[Frame, Optional[TelemetryShim]]:
    """Strip a trailing shim from ``frame`` if one is present.

    Returns ``(clean_frame, shim)``.  Frames without a valid shim come
    back unchanged with ``shim=None``, so the capture path can call this
    unconditionally.  The clean frame restores the original ``wire_len``
    and head bytes, keeping pcap output byte-identical to an unstamped
    run.
    """
    if len(frame.head) < SHIM_LEN or frame.wire_len < SHIM_LEN + 1:
        return frame, None
    shim = TelemetryShim.decode(frame.head[-SHIM_LEN:])
    if shim is None:
        return frame, None
    clean = Frame(
        wire_len=frame.wire_len - SHIM_LEN,
        head=frame.head[:-SHIM_LEN],
        flow_id=frame.flow_id,
        slice_id=frame.slice_id,
        site=frame.site,
    )
    return clean, shim


class IntStamper:
    """Stamps every k-th mirrored clone with egress queue state.

    Installed on a :class:`~repro.testbed.switch.Switch` as
    ``switch.int_stamper``; the mirror tap consults it when cloning.
    ``stamp_every=1`` stamps every clone (maximum signal, maximum
    overhead); the default subsamples 1-in-8, which is still dozens of
    stamps per congested window at paper frame rates.  The first clone
    per egress port is always stamped so short windows are never blind.
    """

    def __init__(self, stamp_every: int = 8):
        if stamp_every < 1:
            raise ValueError("stamp_every must be at least 1")
        self.stamp_every = stamp_every
        self._counters: dict = {}
        self.frames_stamped = 0
        self.frames_seen = 0

    def reset(self) -> None:
        self._counters = {}
        self.frames_stamped = 0
        self.frames_seen = 0

    def stamp(self, clone: Frame, dest_port_id: str, now: float,
              queue_depth_bytes: int, queue_limit_bytes: int) -> Frame:
        """Maybe append a shim to ``clone``; returns the frame to offer.

        ``queue_depth_bytes`` is the egress queue depth *before* this
        clone is enqueued; occupancy counts the clone itself, so a clone
        that would land exactly at the limit reads 1000 milli.
        """
        self.frames_seen += 1
        count = self._counters.get(dest_port_id, 0)
        self._counters[dest_port_id] = count + 1
        if count % self.stamp_every != 0:
            return clone
        self.frames_stamped += 1
        fill = queue_depth_bytes + clone.wire_len
        if queue_limit_bytes > 0:
            occupancy_milli = min(1000, int(round(1000.0 * fill / queue_limit_bytes)))
        else:
            occupancy_milli = 1000
        shim = TelemetryShim(
            t=now,
            queue_depth_bytes=queue_depth_bytes,
            occupancy_milli=occupancy_milli,
            port_hash=_port_hash(dest_port_id),
        )
        return Frame(
            wire_len=clone.wire_len + SHIM_LEN,
            head=clone.head + shim.encode(),
            flow_id=clone.flow_id,
            slice_id=clone.slice_id,
            site=clone.site,
        )


@dataclass
class StampRecord:
    """One shim as observed at the capture host."""

    arrival_t: float
    shim: TelemetryShim


class StampLog:
    """Accumulates peeled shims for one capture sample."""

    def __init__(self) -> None:
        self.records: List[StampRecord] = []

    def add(self, arrival_t: float, shim: TelemetryShim) -> None:
        self.records.append(StampRecord(arrival_t, shim))

    def __len__(self) -> int:
        return len(self.records)

    @property
    def telemetry_bytes(self) -> int:
        """In-band overhead: every shim that reached the capture host."""
        return len(self.records) * SHIM_LEN

    def max_occupancy_milli(self) -> int:
        return max((r.shim.occupancy_milli for r in self.records), default=0)

    def first_crossing(self, threshold_milli: int) -> Optional[float]:
        """Arrival time of the first stamp at/above ``threshold_milli``."""
        for record in self.records:
            if record.shim.occupancy_milli >= threshold_milli:
                return record.arrival_t
        return None
