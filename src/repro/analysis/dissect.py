"""Protocol dissectors.

The Digest step "applies protocol dissectors to extract information
about each header, discarding unneeded information" -- the real system
uses Wireshark's dissectors; we implement our own over the parsers in
:mod:`repro.packets.headers`.

A dissection walks the frame prefix outward-in: Ethernet, then whatever
the EtherType chain announces (VLAN, MPLS stack, IPv4/IPv6, ARP), a
pseudowire control word where the first nibble under the bottom MPLS
label is zero, the transport header, and finally a port-classified
application layer (the same heuristic tshark uses: "layer-4 ports are
often used to classify the payload that follows").  Remaining bytes are
reported as a generic ``data`` layer.

Dissection is defensive: a frame that runs out of bytes mid-header
keeps everything parsed so far and is flagged ``truncated`` rather than
raising.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.packets import headers as hdr
from repro.packets.headers import (
    EtherType,
    IPProto,
    PORT_DNS,
    PORT_HTTP,
    PORT_HTTPS,
    PORT_IPERF,
    PORT_NTP,
    PORT_SSH,
)


@dataclass(frozen=True)
class HeaderInfo:
    """One dissected header: its protocol name and extracted fields."""

    name: str
    fields: Dict[str, object] = field(default_factory=dict)

    def __repr__(self) -> str:
        return f"<{self.name}>"


@dataclass
class DissectedFrame:
    """The abstract header stack for one frame."""

    headers: List[HeaderInfo]
    truncated: bool = False

    @property
    def names(self) -> Tuple[str, ...]:
        return tuple(h.name for h in self.headers)

    @property
    def depth(self) -> int:
        return len(self.headers)

    def first(self, name: str) -> Optional[HeaderInfo]:
        for header in self.headers:
            if header.name == name:
                return header
        return None

    def all(self, name: str) -> List[HeaderInfo]:
        return [h for h in self.headers if h.name == name]

    def has(self, name: str) -> bool:
        return any(h.name == name for h in self.headers)


# Application classifiers tried for a given port, most specific first.
_APP_BY_PORT = {
    PORT_HTTPS: ("tls", hdr.TLSRecord.parse),
    PORT_SSH: ("ssh", hdr.SSHBanner.parse),
    PORT_DNS: ("dns", hdr.DNSHeader.parse),
    PORT_HTTP: ("http", hdr.HTTPPayload.parse),
    PORT_NTP: ("ntp", hdr.NTPPayload.parse),
}


class Dissector:
    """Stateless frame dissector."""

    def dissect(self, data: bytes) -> DissectedFrame:
        """Dissect one captured frame prefix."""
        frame = DissectedFrame(headers=[])
        view = memoryview(data)
        try:
            view = self._ethernet_chain(view, frame)
            if view is not None and len(view) > 0:
                # Short frames are zero-padded to the Ethernet minimum;
                # don't report that padding as an application payload.
                if len(view) <= 8 and not any(bytes(view)):
                    frame.headers.append(HeaderInfo("padding", {"size": len(view)}))
                else:
                    frame.headers.append(HeaderInfo("data", {"size": len(view)}))
        except _Truncated:
            frame.truncated = True
        return frame

    # -- layer walkers ------------------------------------------------------

    def _ethernet_chain(self, view: memoryview, frame: DissectedFrame) -> Optional[memoryview]:
        # A loop, not a recursion, so no tag stack or pseudowire nesting
        # is too deep: each pass walks one Ethernet header, its VLAN
        # tags and, below MPLS labels, the control word of a pseudowire
        # whose inner Ethernet frame the next pass walks.
        while True:
            fields, consumed, ethertype = self._parse(hdr.Ethernet.parse, view)
            frame.headers.append(HeaderInfo("eth", fields))
            view = view[consumed:]
            while ethertype == EtherType.VLAN:
                fields, consumed, ethertype = self._parse(hdr.VLAN.parse, view)
                frame.headers.append(HeaderInfo("vlan", fields))
                view = view[consumed:]
            if ethertype != EtherType.MPLS_UNICAST:
                return self._after_ethertype(view, frame, ethertype)
            bottom = False
            while not bottom:
                fields, consumed, bottom = self._parse(hdr.MPLS.parse, view)
                frame.headers.append(HeaderInfo("mpls", fields))
                view = view[consumed:]
            # Below the bottom label: first nibble 4 = IPv4, 6 = IPv6,
            # 0 = pseudowire control word (RFC 4448 heuristic).
            if len(view) < 1:
                raise _Truncated()
            nibble = view[0] >> 4
            if nibble == 4:
                return self._ipv4(view, frame)
            if nibble == 6:
                return self._ipv6(view, frame)
            if nibble != 0:
                return view
            fields, consumed, _ = self._parse(hdr.PseudoWireControlWord.parse, view)
            frame.headers.append(HeaderInfo("pw", fields))
            view = view[consumed:]

    def _after_ethertype(self, view: memoryview, frame: DissectedFrame,
                         ethertype: int) -> Optional[memoryview]:
        if ethertype == EtherType.IPV4:
            return self._ipv4(view, frame)
        if ethertype == EtherType.IPV6:
            return self._ipv6(view, frame)
        if ethertype == EtherType.ARP:
            fields, consumed, _ = self._parse(hdr.ARP.parse, view)
            frame.headers.append(HeaderInfo("arp", fields))
            return view[consumed:]
        # Unknown EtherType: everything that follows is opaque.
        return view

    def _ipv4(self, view: memoryview, frame: DissectedFrame) -> Optional[memoryview]:
        fields, consumed, proto = self._parse(hdr.IPv4.parse, view)
        frame.headers.append(HeaderInfo("ipv4", fields))
        return self._transport(view[consumed:], frame, proto)

    def _ipv6(self, view: memoryview, frame: DissectedFrame) -> Optional[memoryview]:
        fields, consumed, proto = self._parse(hdr.IPv6.parse, view)
        frame.headers.append(HeaderInfo("ipv6", fields))
        return self._transport(view[consumed:], frame, proto)

    def _transport(self, view: memoryview, frame: DissectedFrame,
                   proto: int) -> Optional[memoryview]:
        if proto == IPProto.TCP:
            fields, consumed, ports = self._parse(hdr.TCP.parse, view)
            frame.headers.append(HeaderInfo("tcp", fields))
            return self._application(view[consumed:], frame, ports)
        if proto == IPProto.UDP:
            fields, consumed, ports = self._parse(hdr.UDP.parse, view)
            frame.headers.append(HeaderInfo("udp", fields))
            return self._application(view[consumed:], frame, ports)
        if proto in (IPProto.ICMP, IPProto.ICMPV6):
            fields, consumed, _ = self._parse(hdr.ICMP.parse, view)
            frame.headers.append(HeaderInfo("icmp", fields))
            return view[consumed:]
        return view

    def _application(self, view: memoryview, frame: DissectedFrame,
                     ports: Tuple[int, int]) -> Optional[memoryview]:
        if len(view) == 0:
            return view
        sport, dport = ports
        for port in (dport, sport):
            entry = _APP_BY_PORT.get(port)
            if entry is None:
                if port == PORT_IPERF:
                    frame.headers.append(HeaderInfo("iperf", {"size": len(view)}))
                    return view[len(view):]
                continue
            name, parser = entry
            try:
                fields, consumed, _ = parser(view)
            except ValueError:
                continue
            frame.headers.append(HeaderInfo(name, fields))
            return view[consumed:]
        return view

    # -- plumbing ------------------------------------------------------------

    @staticmethod
    def _parse(parser, view: memoryview):
        # Any parse failure -- short bytes or malformed fields -- flags
        # the frame as truncated rather than raising to the caller.
        try:
            return parser(view)
        except ValueError:
            raise _Truncated() from None


class _Truncated(Exception):
    """Internal: the frame prefix ended mid-header."""
