"""Worker machines and virtual machines.

Each FABRIC rack contains worker machines; each worker hosts VMs and is
equipped with NICs (paper Section 3).  Workers expose a capacity vector
and VMs consume from it.  A VM is where user code "runs": in the
reproduction, capture models and traffic generators register as frame
receivers/senders on the NIC ports their VM was granted.
"""

from __future__ import annotations

from typing import Dict, List

from repro.testbed.errors import InsufficientResourcesError
from repro.testbed.nic import Nic, NicPort
from repro.testbed.resources import ResourceCapacity


class VM:
    """A virtual machine belonging to a slice.

    ``cores``/``ram_gb``/``disk_gb`` were debited from the hosting
    worker at creation and are credited back by :meth:`Worker.destroy_vm`.
    """

    def __init__(
        self,
        name: str,
        worker: "Worker",
        cores: int,
        ram_gb: float,
        disk_gb: float,
        slice_name: str,
    ):
        self.name = name
        self.worker = worker
        self.cores = cores
        self.ram_gb = ram_gb
        self.disk_gb = disk_gb
        self.slice_name = slice_name
        self.nic_ports: List[NicPort] = []

    @property
    def site_name(self) -> str:
        return self.worker.site_name

    def grant_port(self, port: NicPort) -> None:
        """Give the VM access to a NIC port (wired by the allocator)."""
        self.nic_ports.append(port)

    def __repr__(self) -> str:
        return f"<VM {self.name} on {self.worker.name} ({self.cores}c/{self.ram_gb}GB)>"


class Worker:
    """A physical worker machine in a rack."""

    def __init__(
        self,
        name: str,
        site_name: str,
        cores: int = 64,
        ram_gb: float = 512.0,
        disk_gb: float = 10_000.0,
    ):
        self.name = name
        self.site_name = site_name
        self.capacity = ResourceCapacity(cores=cores, ram_gb=ram_gb, disk_gb=disk_gb)
        self.free = ResourceCapacity(cores=cores, ram_gb=ram_gb, disk_gb=disk_gb)
        self.nics: List[Nic] = []
        self.vms: Dict[str, VM] = {}

    def add_nic(self, nic: Nic) -> None:
        """Install a NIC in this worker."""
        self.nics.append(nic)

    def can_host(self, cores: int, ram_gb: float, disk_gb: float) -> bool:
        """True if a VM of the given shape fits right now."""
        need = ResourceCapacity(cores=cores, ram_gb=ram_gb, disk_gb=disk_gb)
        return need.fits_within(self.free)

    def create_vm(self, name: str, cores: int, ram_gb: float, disk_gb: float, slice_name: str) -> VM:
        """Reserve capacity and return a new VM."""
        need = ResourceCapacity(cores=cores, ram_gb=ram_gb, disk_gb=disk_gb)
        shortfall = need.first_shortfall(self.free)
        if shortfall is not None:
            resource, requested, available = shortfall
            raise InsufficientResourcesError(self.site_name, resource, requested, available)
        self.free = self.free - need
        vm = VM(name, self, cores, ram_gb, disk_gb, slice_name)
        self.vms[name] = vm
        return vm

    def destroy_vm(self, vm: VM) -> None:
        """Release a VM's capacity back to the worker."""
        if vm.name not in self.vms:
            raise KeyError(f"{vm.name} is not hosted on {self.name}")
        del self.vms[vm.name]
        self.free = self.free + ResourceCapacity(
            cores=vm.cores, ram_gb=vm.ram_gb, disk_gb=vm.disk_gb
        )

    def __repr__(self) -> str:
        return (
            f"<Worker {self.name} free={self.free.cores}c/"
            f"{self.free.ram_gb:g}GB/{self.free.disk_gb:g}GB vms={len(self.vms)}>"
        )
