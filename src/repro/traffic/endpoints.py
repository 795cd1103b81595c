"""Traffic endpoints: addressable VM attachment points.

An endpoint is a (site, NIC port, MAC, IPv4, IPv6) tuple representing a
researcher VM's virtual function on a shared NIC.  The registry hands
out unique addresses and registers each endpoint's MAC with the
federation so the switches can forward to it from anywhere.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.packets.headers import ipv4_bytes, ipv6_bytes, mac_bytes
from repro.testbed.federation import Federation
from repro.testbed.nic import NicPort, SharedNIC


@dataclass
class TrafficEndpoint:
    """One experiment VM's network identity."""

    site: str
    nic_port: NicPort
    mac: str
    ipv4: str
    ipv6: str
    slice_name: str = ""

    def __post_init__(self) -> None:
        # Wire forms of the addresses, stamped into every frame of the
        # endpoint's flows.
        self.wire_mac = mac_bytes(self.mac)
        self.wire_ipv4 = ipv4_bytes(self.ipv4)
        self.wire_ipv6 = ipv6_bytes(self.ipv6)

    def send(self, frame) -> bool:
        """Offer a frame to the testbed through this endpoint's port."""
        return self.nic_port.send(frame)


class EndpointRegistry:
    """Creates endpoints with unique addresses and testbed-wide routes.

    Addressing scheme: MACs are ``02:e0:xx:xx:xx:xx`` (locally
    administered), IPv4 addresses come from 10/8 (slices reuse private
    space, per the paper), IPv6 from a ULA prefix.  ``flow_ids`` numbers
    the world's flows for every site generator of one orchestrator (ids
    become ICMP echo identifiers in pcaps).
    """

    def __init__(self, federation: Federation):
        self.federation = federation
        self.endpoints: List[TrafficEndpoint] = []
        self._counter = itertools.count(1)
        self.flow_ids = itertools.count(1)
        self._by_site: Dict[str, List[TrafficEndpoint]] = {}

    def create(self, site_name: str, slice_name: str = "",
               nic_port: Optional[NicPort] = None) -> TrafficEndpoint:
        """Create an endpoint at a site (on its first shared NIC unless a
        port is given) and make it reachable federation-wide."""
        site = self.federation.site(site_name)
        if nic_port is None:
            if not site.shared_nics:
                raise RuntimeError(f"site {site_name} has no shared NICs")
            # Spread endpoints across the site's shared NICs round-robin.
            index = len(self._by_site.get(site_name, []))
            shared: SharedNIC = site.shared_nics[index % len(site.shared_nics)]
            shared.allocate_vf()
            nic_port = shared.ports[0]
        n = next(self._counter)
        mac = f"02:e0:{(n >> 24) & 0xFF:02x}:{(n >> 16) & 0xFF:02x}:{(n >> 8) & 0xFF:02x}:{n & 0xFF:02x}"
        ipv4 = f"10.{(n >> 16) & 0xFF}.{(n >> 8) & 0xFF}.{n & 0xFF}"
        ipv6 = f"fd00::{n:x}"
        endpoint = TrafficEndpoint(site_name, nic_port, mac, ipv4, ipv6, slice_name)
        switch_port = site.switch_port_for(nic_port)
        self.federation.register_endpoint(mac_bytes(mac), site_name, switch_port)
        self.endpoints.append(endpoint)
        self._by_site.setdefault(site_name, []).append(endpoint)
        return endpoint

    def at_site(self, site_name: str) -> List[TrafficEndpoint]:
        """All endpoints at a site."""
        return list(self._by_site.get(site_name, []))

    def __len__(self) -> int:
        return len(self.endpoints)
