"""The top-of-rack switch: forwarding, counters, and port mirroring.

The switch is where the paper's key dataplane mechanics live:

* **Forwarding** is MAC-table based.  Endpoints are registered when NICs
  attach (and the table also learns from source addresses), so frames
  flow VM -> NIC -> switch -> NIC -> VM with real serialization delays
  and queueing from :mod:`repro.netsim`.
* **Counters** per port mirror SNMP interface MIB counters and are what
  the telemetry poller reads.
* **Port mirroring** clones the frames crossing a source port's Rx
  and/or Tx channels onto the *Tx channel of a destination port*.  The
  destination channel is a real rate-limited serializer, so when
  Mirrored(Tx) + Mirrored(Rx) exceeds its line rate the clone stream
  overflows the egress queue and frames are silently dropped at the
  switch -- exactly the incomplete-sample hazard of paper Section 6.2.2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional

from repro.netsim.engine import Simulator
from repro.netsim.frame import Frame
from repro.netsim.link import DuplexLink
from repro.testbed.errors import MirrorConflictError

PortKind = str  # "downlink" | "uplink"

DOWNLINK = "downlink"
UPLINK = "uplink"

VALID_MIRROR_DIRECTIONS = frozenset({"rx", "tx"})


class SwitchPort:
    """One switch port and its duplex link to the attached device.

    Direction naming is from the switch's perspective: the ``tx``
    channel carries frames out of the switch, ``rx`` carries frames into
    it.  Devices (NICs, remote switches) offer frames to ``link.rx`` and
    subscribe to ``link.tx``.
    """

    def __init__(self, switch: "Switch", port_id: str, kind: PortKind, link: DuplexLink):
        self.switch = switch
        self.port_id = port_id
        self.kind = kind
        self.link = link
        self.attached_to: Optional[str] = None  # description of the device

    @property
    def rate_bps(self) -> float:
        return self.link.rate_bps

    def counters(self) -> Dict[str, int]:
        """SNMP-style cumulative counters for this port."""
        return {
            "tx_frames": self.link.tx.stats.tx_frames,
            "tx_bytes": self.link.tx.stats.tx_bytes,
            "tx_drops": self.link.tx.stats.dropped_frames,
            "tx_dropped_bytes": self.link.tx.stats.dropped_bytes,
            "rx_frames": self.link.rx.stats.tx_frames,
            "rx_bytes": self.link.rx.stats.tx_bytes,
            "rx_drops": self.link.rx.stats.dropped_frames,
            "rx_dropped_bytes": self.link.rx.stats.dropped_bytes,
            # End-to-end delivered counts (past propagation).  Not part
            # of the SNMP MIB the poller walks; the conservation ledger
            # uses them to account for frames still in flight.
            "tx_delivered": self.link.tx.stats.delivered_frames,
            "rx_delivered": self.link.rx.stats.delivered_frames,
        }

    def __repr__(self) -> str:
        return f"<SwitchPort {self.switch.name}:{self.port_id} {self.kind}>"


@dataclass
class MirrorSession:
    """An active port-mirroring session.

    ``directions`` is a subset of {"rx", "tx"}; both by default, which is
    the configuration that can overflow the destination port.
    """

    source_port_id: str
    dest_port_id: str
    directions: FrozenSet[str]
    owner_slice: str = ""

    def __post_init__(self) -> None:
        if not self.directions or not self.directions <= VALID_MIRROR_DIRECTIONS:
            raise ValueError(f"bad mirror directions: {self.directions}")


class Switch:
    """A ToR switch (Cisco 5700 / Ciena 8190 class in FABRIC racks)."""

    def __init__(self, sim: Simulator, name: str, default_rate_bps: float = 100e9,
                 queue_limit_bytes: int = 1 << 20):
        self.sim = sim
        self.name = name
        self.default_rate_bps = default_rate_bps
        self.queue_limit_bytes = queue_limit_bytes
        self.ports: Dict[str, SwitchPort] = {}
        self.mac_table: Dict[bytes, str] = {}
        self.mirrors: Dict[str, MirrorSession] = {}  # keyed by source port id
        self._mirror_taps: Dict[str, List] = {}
        self.unknown_dst_frames = 0
        # Optional INT-style stamper (repro.telemetry.query.inband): when
        # installed, mirrored clones get a telemetry shim recording the
        # egress queue state at clone time.  Duck-typed so the testbed
        # layer stays independent of the telemetry package.
        self.int_stamper = None

    # -- port management --------------------------------------------------

    def add_port(
        self,
        port_id: str,
        kind: PortKind = DOWNLINK,
        rate_bps: Optional[float] = None,
        propagation_delay: float = 0.0,
    ) -> SwitchPort:
        """Create a port with its duplex link and start forwarding on it."""
        if port_id in self.ports:
            raise ValueError(f"duplicate port id {port_id}")
        if kind not in (DOWNLINK, UPLINK):
            raise ValueError(f"bad port kind {kind!r}")
        link = DuplexLink(
            self.sim,
            rate_bps or self.default_rate_bps,
            queue_limit_bytes=self.queue_limit_bytes,
            propagation_delay=propagation_delay,
            name=f"{self.name}:{port_id}",
        )
        port = SwitchPort(self, port_id, kind, link)
        # Frames that make it through the rx channel enter the pipeline.
        link.rx.connect(lambda frame, pid=port_id: self._on_ingress(pid, frame))
        self.ports[port_id] = port
        return port

    def downlinks(self) -> List[SwitchPort]:
        """Ports facing servers at this site."""
        return [p for p in self.ports.values() if p.kind == DOWNLINK]

    def uplinks(self) -> List[SwitchPort]:
        """Ports facing other FABRIC sites."""
        return [p for p in self.ports.values() if p.kind == UPLINK]

    # -- forwarding --------------------------------------------------------

    def register_mac(self, mac: bytes, port_id: str) -> None:
        """Install a static MAC-table entry (endpoint registration)."""
        if len(mac) != 6:
            raise ValueError("MAC must be 6 bytes")
        if port_id not in self.ports:
            raise KeyError(f"unknown port {port_id}")
        self.mac_table[bytes(mac)] = port_id

    def _on_ingress(self, ingress_port_id: str, frame: Frame) -> None:
        l2 = frame.l2
        if len(l2) < 12:
            self.unknown_dst_frames += 1
            return
        dst_mac = l2[0:6]
        src_mac = l2[6:12]
        # Source learning keeps the table warm for reply traffic.
        self.mac_table.setdefault(src_mac, ingress_port_id)
        out_port_id = self.mac_table.get(dst_mac)
        if out_port_id is None:
            self.unknown_dst_frames += 1
            return
        # out == ingress is legitimate hairpin traffic: two virtual
        # functions on the same shared NIC talking through the ToR.
        self.ports[out_port_id].link.tx.offer(frame)

    # -- port mirroring ------------------------------------------------------

    def create_mirror(
        self,
        source_port_id: str,
        dest_port_id: str,
        directions: FrozenSet[str] = frozenset({"rx", "tx"}),
        owner_slice: str = "",
    ) -> MirrorSession:
        """Start mirroring ``source_port_id`` onto ``dest_port_id``.

        Clones of the selected direction(s) are offered to the
        destination port's Tx channel.  Raises
        :class:`MirrorConflictError` if the source is already mirrored or
        the destination already serves a session.
        """
        if source_port_id not in self.ports:
            raise KeyError(f"unknown source port {source_port_id}")
        if dest_port_id not in self.ports:
            raise KeyError(f"unknown destination port {dest_port_id}")
        if source_port_id == dest_port_id:
            raise MirrorConflictError("cannot mirror a port onto itself")
        if source_port_id in self.mirrors:
            raise MirrorConflictError(f"port {source_port_id} is already mirrored")
        if any(s.dest_port_id == dest_port_id for s in self.mirrors.values()):
            raise MirrorConflictError(f"port {dest_port_id} already receives a mirror")
        session = MirrorSession(source_port_id, dest_port_id, frozenset(directions), owner_slice)
        source = self.ports[source_port_id]
        dest = self.ports[dest_port_id]
        taps = []
        if "rx" in session.directions:
            tap = lambda frame: self._offer_mirror_clone(frame, dest)
            source.link.rx.add_tap(tap)
            taps.append(("rx", tap))
        if "tx" in session.directions:
            tap = lambda frame: self._offer_mirror_clone(frame, dest)
            source.link.tx.add_tap(tap)
            taps.append(("tx", tap))
        self.mirrors[source_port_id] = session
        self._mirror_taps[source_port_id] = taps
        return session

    def _offer_mirror_clone(self, frame: Frame, dest: SwitchPort) -> None:
        """Clone a mirrored frame onto the destination Tx channel.

        When an INT stamper is installed, the clone is stamped with the
        egress queue state *before* it is enqueued -- the depth the clone
        itself experiences, matching what a dataplane shim would record.
        """
        clone = frame.clone()
        stamper = self.int_stamper
        if stamper is not None:
            channel = dest.link.tx
            clone = stamper.stamp(clone, dest.port_id, self.sim.now,
                                  channel.queue_depth_bytes,
                                  channel.queue_limit_bytes)
        dest.link.tx.offer(clone)

    def delete_mirror(self, source_port_id: str) -> None:
        """Tear down the mirror session on ``source_port_id``."""
        session = self.mirrors.pop(source_port_id, None)
        if session is None:
            raise KeyError(f"no mirror on port {source_port_id}")
        source = self.ports[source_port_id]
        for direction, tap in self._mirror_taps.pop(source_port_id):
            if direction == "rx":
                source.link.rx.remove_tap(tap)
            else:
                source.link.tx.remove_tap(tap)

    def retarget_mirror(self, source_port_id: str, new_source_port_id: str) -> MirrorSession:
        """Move a mirror session to a new source port (port cycling).

        This is the primitive Patchwork's port cycling uses: the
        destination port, NIC, and VM stay fixed while the mirrored port
        changes.
        """
        session = self.mirrors.get(source_port_id)
        if session is None:
            raise KeyError(f"no mirror on port {source_port_id}")
        dest = session.dest_port_id
        directions = session.directions
        owner = session.owner_slice
        self.delete_mirror(source_port_id)
        return self.create_mirror(new_source_port_id, dest, directions, owner)

    def port_counters(self) -> Dict[str, Dict[str, int]]:
        """Counters for every port, keyed by port id (one SNMP walk)."""
        return {port_id: port.counters() for port_id, port in self.ports.items()}

    def __repr__(self) -> str:
        return f"<Switch {self.name} ports={len(self.ports)} mirrors={len(self.mirrors)}>"
