"""Slices and slivers.

Researchers "create a *slice* that reserves resources for their
experiments; reservable resources are called *slivers*" (paper Section
3).  A :class:`SliceRequest` describes what is wanted at one site; the
allocator turns it into a live :class:`Slice` holding VM and NIC slivers
plus any port-mirror sessions created under it.  Deleting the slice
returns everything to the site.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.testbed.hosts import VM
from repro.testbed.nic import DedicatedNIC, FPGANic
from repro.testbed.resources import ResourceCapacity
from repro.testbed.switch import MirrorSession


@dataclass
class NodeRequest:
    """One requested VM and the NICs it should own.

    The defaults are Patchwork's listening-node shape from Section 6.2.1:
    2 cores, 8 GB RAM, 100 GB storage, one dedicated dual-port NIC.
    """

    name: str
    cores: int = 2
    ram_gb: float = 8.0
    disk_gb: float = 100.0
    dedicated_nics: int = 1
    shared_nic_ports: int = 0
    fpga_nics: int = 0

    def resource_vector(self) -> ResourceCapacity:
        return ResourceCapacity(
            cores=self.cores,
            ram_gb=self.ram_gb,
            disk_gb=self.disk_gb,
            dedicated_nics=self.dedicated_nics,
            shared_nic_slots=self.shared_nic_ports,
            fpga_nics=self.fpga_nics,
        )


@dataclass
class SliceRequest:
    """A slice request scoped to a single site.

    (Multi-site experiments are expressed as one request per site, which
    matches how Patchwork decomposes: every site runs its own instance.)
    """

    site: str
    nodes: List[NodeRequest]
    name: str
    lease_hours: float = 24.0

    def __post_init__(self) -> None:
        if not self.nodes:
            raise ValueError("a slice request needs at least one node")

    def resource_vector(self) -> ResourceCapacity:
        """Total resources across all requested nodes."""
        total = ResourceCapacity()
        for node in self.nodes:
            total = total + node.resource_vector()
        return total

    def sliver_count(self) -> int:
        """Number of slivers (VMs + NICs); drives allocation latency."""
        return sum(
            1 + n.dedicated_nics + n.shared_nic_ports + n.fpga_nics for n in self.nodes
        )

    def scaled_down(self) -> Optional["SliceRequest"]:
        """One step of iterative back-off: drop the last node.

        Returns None when no smaller request exists.  This matches the
        paper: "at each back-off, a dedicated NIC (with 2 ports) is
        reduced from Patchwork's request" along with its VM.
        """
        if len(self.nodes) <= 1:
            return None
        return SliceRequest(
            site=self.site,
            nodes=self.nodes[:-1],
            name=f"{self.name}~{len(self.nodes) - 1}",
            lease_hours=self.lease_hours,
        )


class Slice:
    """A live slice: the slivers granted for one request."""

    def __init__(self, request: SliceRequest, site_name: str, created_at: float):
        self.request = request
        self.name = request.name
        self.site_name = site_name
        self.created_at = created_at
        self.lease_end = created_at + request.lease_hours * 3600.0
        self.vms: Dict[str, VM] = {}
        self.dedicated_nics: List[DedicatedNIC] = []
        self.fpga_nics: List[FPGANic] = []
        self.shared_vf_nics: List[object] = []  # SharedNICs we hold a VF on
        self.mirror_sessions: List[MirrorSession] = []
        self.deleted = False

    @property
    def active(self) -> bool:
        return not self.deleted

    def vm(self, name: str) -> VM:
        """Look up one of the slice's VMs by node name."""
        return self.vms[name]

    def __repr__(self) -> str:
        state = "deleted" if self.deleted else "active"
        return (
            f"<Slice {self.name}@{self.site_name} vms={len(self.vms)} "
            f"nics={len(self.dedicated_nics)} {state}>"
        )
