"""FABRIC underlay encapsulation profiles.

The testbed isolates researchers' traffic with virtualization tags:
frames observed by Patchwork carry stacks like
``Ethernet / VLAN / MPLS / MPLS / PseudoWire / Ethernet / IPv4 / TCP``
(paper Section 8.2).  This module builds the *outer* portion of a frame
stack for a chosen encapsulation kind; the flow layer appends the inner
IP/transport/application headers.

The outer Ethernet addresses are the communicating endpoints' MACs so
the simulated switches can forward on them; VLAN IDs and MPLS labels are
per-slice, which is also what makes flows from different slices
distinguishable even when they reuse the same 10/8 addresses (the
paper's flow-classification rule).
"""

from __future__ import annotations

from enum import Enum
from typing import List, Optional

from repro.packets.headers import MPLS, PseudoWireControlWord, Ethernet, VLAN


class EncapKind(Enum):
    """How deeply the underlay wraps a slice's traffic."""

    PLAIN = "plain"                    # Ethernet only (intra-site, untagged)
    VLAN = "vlan"                      # Ethernet / VLAN
    VLAN_MPLS = "vlan-mpls"            # Ethernet / VLAN / MPLS
    VLAN_MPLS_PW = "vlan-mpls-pw"      # Eth / VLAN / MPLS / MPLS / PW / Eth

    @property
    def overhead_bytes(self) -> int:
        """Bytes the underlay adds on top of the inner frame."""
        return {
            EncapKind.PLAIN: 0,
            EncapKind.VLAN: 4,
            EncapKind.VLAN_MPLS: 8,
            EncapKind.VLAN_MPLS_PW: 30,  # VLAN 4 + MPLS 4 x 2 + PW 4 + inner Ethernet 14
        }[self]

    @property
    def header_depth(self) -> int:
        """Number of headers the kind contributes before the network layer."""
        return {
            EncapKind.PLAIN: 1,
            EncapKind.VLAN: 2,
            EncapKind.VLAN_MPLS: 3,
            EncapKind.VLAN_MPLS_PW: 6,
        }[self]


def underlay_stack(
    kind: EncapKind,
    src_mac: str,
    dst_mac: str,
    vlan_id: int = 100,
    mpls_label: int = 16000,
    inner_src_mac: Optional[str] = None,
    inner_dst_mac: Optional[str] = None,
) -> List[object]:
    """Build the outer header list for one encapsulation kind.

    For :attr:`EncapKind.VLAN_MPLS_PW` the returned stack ends with the
    *inner* Ethernet header (pseudowire payload); other kinds end just
    before the network layer.
    """
    if kind is EncapKind.PLAIN:
        return [Ethernet(src=src_mac, dst=dst_mac)]
    if kind is EncapKind.VLAN:
        return [Ethernet(src=src_mac, dst=dst_mac), VLAN(vlan_id)]
    if kind is EncapKind.VLAN_MPLS:
        return [Ethernet(src=src_mac, dst=dst_mac), VLAN(vlan_id), MPLS(mpls_label)]
    if kind is EncapKind.VLAN_MPLS_PW:
        return [
            Ethernet(src=src_mac, dst=dst_mac),
            VLAN(vlan_id),
            MPLS(mpls_label),
            MPLS(mpls_label + 1),
            PseudoWireControlWord(),
            Ethernet(src=inner_src_mac or src_mac, dst=inner_dst_mac or dst_mac),
        ]
    raise ValueError(f"unknown encapsulation kind {kind!r}")
