"""Frame composition.

The traffic generators describe a frame as an outside-in sequence of
header objects (:class:`FrameSpec`).  The builder then:

* fixes the *chaining* fields so the stack is self-consistent — the
  EtherType of an Ethernet/VLAN header must announce what follows, MPLS
  stack entries must carry the S bit only on the bottom entry, and the
  IPv4 ``proto`` / IPv6 ``next_header`` must match the transport header;
* threads the IP source/destination into the TCP/UDP checksum;
* sizes the innermost opaque payload so the finished frame hits an exact
  target length (how the generators realize a frame-size distribution).

This mirrors how the paper's captures look on the wire: e.g.
``Ethernet / VLAN / MPLS / MPLS / PseudoWire / Ethernet / IPv4 / TCP / TLS``.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.packets import headers as hdr
from repro.packets.headers import (
    ARP,
    EtherType,
    Ethernet,
    ICMP,
    IPProto,
    IPv4,
    IPv6,
    MPLS,
    Payload,
    TCP,
    UDP,
    VLAN,
)

# Minimum Ethernet frame size excluding the 4-byte FCS (which pcap
# captures also exclude).
MIN_FRAME_SIZE = 60


@dataclass
class FrameSpec:
    """An outside-in header stack plus an optional target frame size.

    ``stack`` must start with an :class:`Ethernet` header.  If
    ``target_size`` is set and the stack's innermost element is a
    :class:`Payload`, the payload is resized so the full frame is exactly
    ``target_size`` bytes (never below the protocol minimum).
    """

    stack: List[object]
    target_size: Optional[int] = None


class FrameBuilder:
    """Builds wire-format frames from :class:`FrameSpec` descriptions."""

    def build(self, spec: FrameSpec) -> bytes:
        """Return the serialized frame for ``spec``.

        The spec is not mutated; chaining fixes are applied to copies.
        """
        if not spec.stack:
            raise ValueError("empty header stack")
        if not isinstance(spec.stack[0], Ethernet):
            raise ValueError("frame stack must start with an Ethernet header")
        stack = [copy.copy(header) for header in spec.stack]
        self._fix_chaining(stack)
        if spec.target_size is not None:
            self._fit_payload(stack, spec.target_size)
        return self._pack(stack)

    # -- internals ------------------------------------------------------

    def _fix_chaining(self, stack: Sequence[object]) -> None:
        """Make every header correctly announce its successor."""
        for i, header in enumerate(stack):
            nxt = stack[i + 1] if i + 1 < len(stack) else None
            if isinstance(header, (Ethernet, VLAN)):
                header.ethertype = self._ethertype_for(nxt)
            elif isinstance(header, MPLS):
                header.bottom = not isinstance(nxt, MPLS)
            elif isinstance(header, IPv4):
                header.proto = self._ip_proto_for(nxt, header.proto)
            elif isinstance(header, IPv6):
                header.next_header = self._ip_proto_for(nxt, header.next_header)

    @staticmethod
    def _ethertype_for(nxt: Optional[object]) -> int:
        if isinstance(nxt, VLAN):
            return EtherType.VLAN
        if isinstance(nxt, MPLS):
            return EtherType.MPLS_UNICAST
        if isinstance(nxt, IPv6):
            return EtherType.IPV6
        if isinstance(nxt, ARP):
            return EtherType.ARP
        return EtherType.IPV4

    @staticmethod
    def _ip_proto_for(nxt: Optional[object], default: int) -> int:
        if isinstance(nxt, TCP):
            return IPProto.TCP
        if isinstance(nxt, UDP):
            return IPProto.UDP
        if isinstance(nxt, ICMP):
            return IPProto.ICMP
        return default

    def _fit_payload(self, stack: List[object], target_size: int) -> None:
        payload = stack[-1] if stack and isinstance(stack[-1], Payload) else None
        if payload is None:
            return
        overhead = len(self._pack(stack[:-1]))
        payload.size = max(0, target_size - overhead)

    def _pack(self, stack: Sequence[object]) -> bytes:
        """Pack the stack inside-out, threading IP addresses to transports."""
        inner = b""
        enclosing_ip: Optional[object] = None
        # Find, for each transport header, the nearest enclosing IP header.
        ip_for_index = {}
        current_ip = None
        for i, header in enumerate(stack):
            if isinstance(header, (IPv4, IPv6)):
                current_ip = header
            elif isinstance(header, (TCP, UDP)):
                ip_for_index[i] = current_ip
        for i in range(len(stack) - 1, -1, -1):
            header = stack[i]
            if isinstance(header, (TCP, UDP)):
                enclosing_ip = ip_for_index.get(i)
                if isinstance(enclosing_ip, IPv4):
                    src = hdr.ipv4_bytes(enclosing_ip.src)
                    dst = hdr.ipv4_bytes(enclosing_ip.dst)
                elif isinstance(enclosing_ip, IPv6):
                    src = hdr.ipv6_bytes(enclosing_ip.src)
                    dst = hdr.ipv6_bytes(enclosing_ip.dst)
                else:
                    src = dst = b""
                inner = header.pack(inner, src, dst)
            else:
                inner = header.pack(inner)
        if len(inner) < MIN_FRAME_SIZE:
            inner = inner + b"\x00" * (MIN_FRAME_SIZE - len(inner))
        return inner
