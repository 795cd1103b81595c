"""Flow-level traffic generation.

A :class:`Flow` is one application conversation between two endpoints.
It is generated open-loop: data frames leave the source at the flow's
rate, and every ``ack_every`` data frames the destination emits a
payload-free ACK in the reverse direction (the paper: "minimum-size
frames consist of payload-free ACKs in a TCP stream").  TCP flows open
with a SYN and close with a FIN (occasionally RST, which the paper calls
out as important control information).

Frames are built once per *shape* -- application, encapsulation,
address family and frame kind -- as byte templates.  A flow builds one
:class:`~repro.netsim.frame.Frame` per kind it sends and sends that
object on every transmission.  The frame's head is stamped only when
something first reads it (a capture, the INT stamper, the NetFlow
exporter): the flow copies its shape's template and writes its own
MACs, VLAN ID, MPLS labels, IP addresses, application-header bytes and
port into the copy, fixing the checksums incrementally (RFC 1624).
Generating a flow thus costs a few small objects, forwarding reads only
the frame's MACs, and most frames are never serialized at all.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.netsim.engine import Simulator
from repro.netsim.frame import DEFAULT_HEAD_BYTES, Frame
from repro.packets.builder import FrameBuilder, FrameSpec, MIN_FRAME_SIZE
from repro.packets.headers import (
    DNSHeader,
    HTTPPayload,
    ICMP,
    IPv4,
    IPv6,
    NTPPayload,
    Payload,
    SSHBanner,
    TCP,
    TCP_ACK,
    TCP_FIN,
    TCP_PSH,
    TCP_RST,
    TCP_SYN,
    TLSRecord,
    UDP,
)
from repro.traffic.encapsulation import EncapKind, underlay_stack
from repro.traffic.endpoints import TrafficEndpoint

AppHeaderFactory = Callable[[np.random.Generator], Optional[object]]


@dataclass(frozen=True)
class AppSpec:
    """The shape of one application protocol's flows.

    ``inner_frame_size`` is the size of a full data frame *before* the
    underlay encapsulation (1514 for standard-MTU bulk transfer, ~9000
    for jumbo experiments).  ``rate_bps`` is the per-flow sending rate
    at simulation scale.
    """

    name: str
    transport: str  # "tcp" | "udp" | "icmp"
    dport: int
    inner_frame_size: int = 1514
    rate_bps: float = 20e6
    ack_every: int = 4
    request_response: bool = False
    app_header: Optional[AppHeaderFactory] = None
    rst_probability: float = 0.01
    # Per-app ceiling on flow bytes: a DNS exchange is a few frames no
    # matter how bulk-heavy the site's flow-size distribution is.
    flow_bytes_cap: float = float("inf")

    def __post_init__(self) -> None:
        if self.transport not in ("tcp", "udp", "icmp"):
            raise ValueError(f"unknown transport {self.transport!r}")
        if self.inner_frame_size < MIN_FRAME_SIZE:
            raise ValueError("inner frame size below Ethernet minimum")


STANDARD_APPS: Dict[str, AppSpec] = {
    "iperf-tcp": AppSpec("iperf-tcp", "tcp", 5201, inner_frame_size=1514,
                         rate_bps=40e6, ack_every=6),
    "iperf-jumbo": AppSpec("iperf-jumbo", "tcp", 5201, inner_frame_size=8986,
                           rate_bps=80e6, ack_every=6),
    "tls-web": AppSpec("tls-web", "tcp", 443, inner_frame_size=1514,
                       rate_bps=10e6, ack_every=3, flow_bytes_cap=8e5,
                       app_header=lambda rng: TLSRecord()),
    "http": AppSpec("http", "tcp", 80, inner_frame_size=1514,
                    rate_bps=8e6, ack_every=3, flow_bytes_cap=5e5,
                    app_header=lambda rng: HTTPPayload(response=False)),
    "ssh": AppSpec("ssh", "tcp", 22, inner_frame_size=576,
                   rate_bps=1e6, ack_every=2, flow_bytes_cap=3e4,
                   app_header=lambda rng: SSHBanner()),
    "dns": AppSpec("dns", "udp", 53, inner_frame_size=220, rate_bps=1e6,
                   request_response=True, flow_bytes_cap=600,
                   app_header=lambda rng: DNSHeader(ident=int(rng.integers(0, 65536)))),
    "ntp": AppSpec("ntp", "udp", 123, inner_frame_size=110, rate_bps=1e6,
                   request_response=True, flow_bytes_cap=300,
                   app_header=lambda rng: NTPPayload()),
    "icmp": AppSpec("icmp", "icmp", 0, inner_frame_size=98, rate_bps=1e6,
                    request_response=True, flow_bytes_cap=500),
}


def _adjust_checksum(data: bytearray, offset: int, delta: int,
                     udp: bool = False) -> None:
    """Fix the checksum at ``offset`` after the words it covers changed.

    ``delta`` is the new minus the old sum of the changed 16-bit words.
    RFC 1624: the checksum is the complement of the ones'-complement sum
    of the covered words, and that sum is the words' plain sum modulo
    0xFFFF, so the fix needs only ``delta``, never the covered bytes.
    The sum is kept in ``FrameBuilder``'s range 1..0xFFFF, which makes
    the result equal a full recompute.  UDP transmits a computed zero
    as 0xFFFF (RFC 768); a stored zero there means "no checksum" and is
    left alone.  A TCP checksum of zero is legal and kept.  A zero
    ``delta`` keeps the stored checksum: the formula would fold a stored
    0xFFFF, the checksum of all-zero words (an ICMP echo reply with
    identifier 0), to 0x0000.
    """
    stored = (data[offset] << 8) | data[offset + 1]
    if not delta or udp and stored == 0:
        return
    checksum = 0xFFFF - ((0xFFFF - stored + delta) % 0xFFFF or 0xFFFF)
    if udp and checksum == 0:
        checksum = 0xFFFF
    data[offset] = checksum >> 8
    data[offset + 1] = checksum & 0xFF


def _incremental_checksum_patch(data: bytearray, field_offset: int,
                                new_value: int, checksum_offset: int,
                                udp: bool = False) -> None:
    """Replace a 16-bit field and fix the checksum that covers it."""
    old = (data[field_offset] << 8) | data[field_offset + 1]
    data[field_offset] = new_value >> 8
    data[field_offset + 1] = new_value & 0xFF
    _adjust_checksum(data, checksum_offset, new_value - old, udp)


def _word_sum(data: bytes) -> int:
    """Sum of ``data``'s big-endian 16-bit words modulo 0xFFFF.

    ``data`` starts on a word boundary of the checksummed bytes, and an
    odd trailing byte is the high byte of its word.  Because
    2**16 = 1 (mod 0xFFFF), the sum is the bytes read as one integer.
    """
    if len(data) % 2:
        data += b"\x00"
    return int.from_bytes(data, "big") % 0xFFFF


class _Template:
    """One frame shape's bytes, where its per-flow fields sit, and the
    checksummed field values it was built with.

    :meth:`stamp` rewrites the fields for another flow of the shape:
    the MACs (outer, and inner for a pseudowire), the VLAN ID, the MPLS
    labels, the IP addresses and the application-header bytes, with the
    IPv4 and TCP/UDP checksums fixed incrementally.  The TCP/UDP fix
    cannot be a recompute: that checksum covers payload past the stored
    head.
    """

    __slots__ = ("wire_len", "head", "ipv6", "addrs", "addr_sum",
                 "app_bytes", "app_sum", "inner_macs_at", "vlan_at",
                 "mpls_at", "addr_at", "ip_checksum_at", "transport_at",
                 "app_at", "checksum_at", "udp")

    def __init__(self, data: bytes, encap: EncapKind, use_ipv6: bool,
                 transport: str, src: TrafficEndpoint, dst: TrafficEndpoint,
                 app_bytes: bytes):
        self.wire_len = len(data)
        self.head = bytes(data[:DEFAULT_HEAD_BYTES])
        self.ipv6 = use_ipv6
        self.addrs = self._addresses(src, dst)
        self.addr_sum = _word_sum(self.addrs)
        self.app_bytes = app_bytes
        self.app_sum = _word_sum(app_bytes)
        pw = encap is EncapKind.VLAN_MPLS_PW
        self.inner_macs_at = 30 if pw else None
        self.vlan_at = None if encap is EncapKind.PLAIN else 14
        self.mpls_at: Sequence[int] = (
            (18, 22) if pw else (18,) if encap is EncapKind.VLAN_MPLS else ())
        ip_at = 14 + encap.overhead_bytes
        self.addr_at = ip_at + (8 if use_ipv6 else 12)
        self.ip_checksum_at = None if use_ipv6 else ip_at + 10
        self.transport_at = ip_at + (40 if use_ipv6 else 20)
        self.udp = transport == "udp"
        self.app_at = self.transport_at + (8 if self.udp else 20)
        self.checksum_at = (None if transport == "icmp" else
                            self.transport_at + (6 if self.udp else 16))

    def _addresses(self, src: TrafficEndpoint, dst: TrafficEndpoint) -> bytes:
        if self.ipv6:
            return src.wire_ipv6 + dst.wire_ipv6
        return src.wire_ipv4 + dst.wire_ipv4

    def check(self, vlan_id: int, mpls_label: int) -> None:
        """Raise ``ValueError`` if this shape cannot carry the fields."""
        if self.vlan_at is not None and not 0 <= vlan_id < 4096:
            raise ValueError(f"VLAN ID out of range: {vlan_id}")
        for i in range(len(self.mpls_at)):
            if not 0 <= mpls_label + i < (1 << 20):
                raise ValueError(f"MPLS label out of range: {mpls_label + i}")

    def stamp(self, src: TrafficEndpoint, dst: TrafficEndpoint, vlan_id: int,
              mpls_label: int, app_bytes: bytes) -> bytearray:
        """This shape's head with another flow's fields written in; the
        fields must have passed :meth:`check`."""
        head = bytearray(self.head)
        macs = dst.wire_mac + src.wire_mac
        head[0:12] = macs
        if self.inner_macs_at is not None:
            head[self.inner_macs_at:self.inner_macs_at + 12] = macs
        if self.vlan_at is not None:
            at = self.vlan_at
            head[at] = (head[at] & 0xF0) | (vlan_id >> 8)  # keeps PCP/DEI
            head[at + 1] = vlan_id & 0xFF
        for i, at in enumerate(self.mpls_at):
            label = mpls_label + i
            head[at] = label >> 12
            head[at + 1] = (label >> 4) & 0xFF
            head[at + 2] = ((label & 0xF) << 4) | (head[at + 2] & 0x0F)
        delta = 0
        addrs = self._addresses(src, dst)
        if addrs != self.addrs:
            head[self.addr_at:self.addr_at + len(addrs)] = addrs
            delta = _word_sum(addrs) - self.addr_sum
            if self.ip_checksum_at is not None:
                _adjust_checksum(head, self.ip_checksum_at, delta)
        if app_bytes != self.app_bytes:
            head[self.app_at:self.app_at + len(app_bytes)] = app_bytes
            delta += _word_sum(app_bytes) - self.app_sum
        if self.checksum_at is not None:
            _adjust_checksum(head, self.checksum_at, delta, self.udp)
        return head


class Flow:
    """One generated conversation.

    The flow schedules itself on the simulator: :meth:`start` arms the
    SYN (for TCP) and the first data frame; each data-frame event chains
    the next, so memory stays bounded for huge flows.  The flow stops at
    ``total_bytes`` sent or at ``stop_time``, whichever comes first.

    Frame templates are built once per shape, keyed on (app, encapsulation,
    IPv6 or not, frame kind), from whichever flow first needs the shape.
    A flow builds each of its frames (data, ack, syn, fin or rst) once,
    without head bytes, and sends that frame on every transmission.  On
    the frame's first head read, the flow stamps its own endpoints, VLAN
    ID, MPLS labels and application header into a copy of the template
    (:meth:`_Template.stamp`), then its port or ICMP identifier, each
    with an incremental checksum update (:meth:`stamp_head`).  Creating
    tens of thousands of small flows thus builds a few dozen frames, and
    every stamped frame is byte-identical to a full build.
    """

    _builder = FrameBuilder()
    _templates: Dict[Tuple[str, EncapKind, bool, str], _Template] = {}
    # Application-header bytes of data frames, per (app, VLAN ID).
    _app_header_bytes: Dict[Tuple[str, int], bytes] = {}
    _TEMPLATE_SPORT = 40000  # placeholder patched per flow

    def __init__(
        self,
        sim: Simulator,
        flow_id: int,
        src: TrafficEndpoint,
        dst: TrafficEndpoint,
        app: AppSpec,
        total_bytes: int,
        rng: np.random.Generator,
        encap: EncapKind = EncapKind.VLAN_MPLS,
        vlan_id: int = 100,
        mpls_label: int = 16000,
        use_ipv6: bool = False,
        start_time: float = 0.0,
        stop_time: Optional[float] = None,
        rtt: float = 0.004,
        rate_scale: float = 1.0,
    ):
        if total_bytes <= 0:
            raise ValueError("flow must carry at least one byte")
        self.sim = sim
        self.flow_id = flow_id
        self.src = src
        self.dst = dst
        self.app = app
        self.total_bytes = total_bytes
        self.rng = rng
        self.encap = encap
        self.vlan_id = vlan_id
        self.mpls_label = mpls_label
        self.use_ipv6 = use_ipv6
        self.start_time = start_time
        self.stop_time = stop_time
        self.rtt = rtt
        self.sport = int(rng.integers(32768, 61000))
        self.bytes_sent = 0
        self.frames_sent = 0
        self.finished = False
        if rate_scale <= 0:
            raise ValueError("rate_scale must be positive")
        self.rate_scale = rate_scale
        # The flow's data and ACK frames, sent on every transmission.
        self._data_frame = self._build_frame("data")
        self._ack_frame = self._build_frame("ack")
        self._data_interval = self._data_frame.wire_len * 8.0 / (app.rate_bps * rate_scale)
        self._payload_per_frame = max(1, self._payload_bytes_per_data_frame())

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> None:
        """Arm the flow on the simulator."""
        at = max(self.start_time, self.sim.now)
        if self.app.transport == "tcp":
            syn = self._build_frame("syn")
            self.sim.schedule_at(at, self.src.send, syn)
            first_data = at + self.rtt  # handshake turnaround
        else:
            first_data = at
        self.sim.schedule_at(first_data, self._send_data)

    @property
    def expected_data_frames(self) -> int:
        """How many data frames the flow would need for its size."""
        return -(-self.total_bytes // self._payload_per_frame)

    # -- event handlers ------------------------------------------------------

    def _send_data(self) -> None:
        if self.finished:
            return
        if self.stop_time is not None and self.sim.now >= self.stop_time:
            self.finished = True
            return
        self.src.send(self._data_frame)
        self.frames_sent += 1
        self.bytes_sent += self._payload_per_frame
        if self.app.request_response:
            # Request/response apps: each request earns one reply.
            self.sim.schedule(self.rtt / 2, self.dst.send, self._ack_frame)
        elif self.app.ack_every > 0 and self.frames_sent % self.app.ack_every == 0:
            self.sim.schedule(self.rtt / 2, self.dst.send, self._ack_frame)
        if self.bytes_sent >= self.total_bytes:
            self._finish()
            return
        self.sim.schedule(self._data_interval, self._send_data)

    def _finish(self) -> None:
        self.finished = True
        if self.app.transport == "tcp":
            kind = "rst" if self.rng.random() < self.app.rst_probability else "fin"
            closing = self._build_frame(kind)
            self.sim.schedule(self._data_interval, self.src.send, closing)

    # -- frame construction ------------------------------------------------

    def _payload_bytes_per_data_frame(self) -> int:
        ip_tcp = 40 if not self.use_ipv6 else 60
        return max(1, self.app.inner_frame_size - 14 - ip_tcp)

    def _ends(self, kind: str) -> Tuple[TrafficEndpoint, TrafficEndpoint, bool]:
        """(sender, receiver, forward or not) of this flow's ``kind``
        frames: only ACKs run backwards."""
        if kind == "ack":
            return self.dst, self.src, False
        return self.src, self.dst, True

    def _template(self, kind: str) -> _Template:
        """The template of this flow's ``kind`` frames, built from this
        flow if no flow of the shape built it yet."""
        key = (self.app.name, self.encap, self.use_ipv6, kind)
        template = self._templates.get(key)
        if template is None:
            template = self._templates[key] = self._build_template(kind)
        return template

    def _build_frame(self, kind: str) -> Frame:
        """This flow's frame of one kind ('data'/'ack'/'syn'/'fin'/'rst'),
        without head bytes: :meth:`stamp_head` makes them on first read.
        The VLAN ID and MPLS labels are checked here, so a bad flow
        fails when it is created, not when a capture reads its frames."""
        src, dst, _ = self._ends(kind)
        template = self._template(kind)
        template.check(self.vlan_id, self.mpls_label)
        return Frame(template.wire_len, None, self.flow_id, src.slice_name,
                     src.site, l2=dst.wire_mac + src.wire_mac, source=self,
                     kind=kind)

    def stamp_head(self, kind: str) -> bytes:
        """The head of this flow's ``kind`` frames: the shape's template
        stamped with the flow's fields and port."""
        src, dst, forward = self._ends(kind)
        template = self._template(kind)
        head = template.stamp(src, dst, self.vlan_id, self.mpls_label,
                              self._app_bytes(kind))
        offset = template.transport_at
        if self.app.transport == "icmp":
            # Flow identity lives in the echo identifier.
            _incremental_checksum_patch(head, offset + 4,
                                        self.flow_id & 0xFFFF, offset + 2)
        else:
            field = offset if forward else offset + 2
            _incremental_checksum_patch(head, field, self.sport,
                                        template.checksum_at, template.udp)
        return bytes(head)

    def _app_header(self, kind: str) -> Optional[object]:
        """The application header of this flow's ``kind`` frames.

        Only data frames carry one.  Its RNG is derived from (app, kind,
        VLAN ID), never drawn from the flow's shared stream: whether a
        flow builds a template depends on what the process built
        before, so a draw here would desynchronize otherwise identical
        seeded runs.
        """
        if kind != "data" or self.app.app_header is None:
            return None
        header_rng = np.random.default_rng(
            zlib.crc32(f"{self.app.name}/{kind}/{self.vlan_id}".encode()))
        return self.app.app_header(header_rng)

    def _app_bytes(self, kind: str) -> bytes:
        """The bytes :meth:`_app_header` packs to around an empty
        payload: what differs between two flows' headers.  Headers
        drawn from the RNG (the DNS identifier) lead with these bytes;
        headers that wrap their payload length (TLS) draw nothing and
        so never differ."""
        if kind != "data" or self.app.app_header is None:
            return b""
        key = (self.app.name, self.vlan_id)
        packed = self._app_header_bytes.get(key)
        if packed is None:
            header = self._app_header(kind)
            packed = b"" if header is None else header.pack(b"")
            self._app_header_bytes[key] = packed
        return packed

    def _build_template(self, kind: str) -> _Template:
        """Build one frame shape with ``FrameBuilder``, from this flow."""
        src, dst, forward = self._ends(kind)
        stack: List[object] = underlay_stack(
            self.encap, src.mac, dst.mac, self.vlan_id, self.mpls_label,
            inner_src_mac=src.mac, inner_dst_mac=dst.mac,
        )
        if self.use_ipv6:
            stack.append(IPv6(src=src.ipv6, dst=dst.ipv6))
        else:
            stack.append(IPv4(src=src.ipv4, dst=dst.ipv4))
        sport = self._TEMPLATE_SPORT if forward else self.app.dport
        dport = self.app.dport if forward else self._TEMPLATE_SPORT
        is_data = kind == "data"
        if self.app.transport == "tcp":
            flags = {
                "data": TCP_ACK | TCP_PSH,
                "ack": TCP_ACK,
                "syn": TCP_SYN,
                "fin": TCP_FIN | TCP_ACK,
                "rst": TCP_RST,
            }[kind]
            stack.append(TCP(sport=sport, dport=dport, flags=flags))
        elif self.app.transport == "udp":
            stack.append(UDP(sport=sport, dport=dport))
        else:
            stack.append(ICMP(icmp_type=8 if forward else 0, ident=0))
        app_header = self._app_header(kind)
        if app_header is not None:
            stack.append(app_header)
        if is_data or self.app.request_response:
            inner_size = self.app.inner_frame_size if is_data else max(
                MIN_FRAME_SIZE, self.app.inner_frame_size // 2
            )
        else:
            inner_size = MIN_FRAME_SIZE + 4  # payload-free ACK / control
        stack.append(Payload(0))
        target = inner_size + self.encap.overhead_bytes
        data = self._builder.build(FrameSpec(stack, target_size=target))
        return _Template(data, self.encap, self.use_ipv6, self.app.transport,
                         src, dst, self._app_bytes(kind))
