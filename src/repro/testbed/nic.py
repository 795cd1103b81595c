"""NIC models.

Three kinds of NIC appear on FABRIC sites and in the paper:

* :class:`SharedNIC` -- a ConnectX card whose virtual functions are
  shared among many users (the paper's example site shares one card
  among 381 users).  Experiment VMs usually attach here.
* :class:`DedicatedNIC` -- a single-user, dual-port ConnectX card.
  Patchwork receives mirrored traffic on these; they are the scarce
  resource that drives back-off.
* :class:`FPGANic` -- an Alveo FPGA card.  In the real system a P4
  program on the card filters/truncates/samples at line rate before
  frames reach the DPDK writer; our capture model
  (:mod:`repro.capture.fpga`) attaches to one of these.

A NIC owns one or more :class:`NicPort` objects.  A port is the
device-side endpoint of a switch port's duplex link: ``send`` offers a
frame toward the switch, and receivers subscribe to frames the switch
transmits to the port.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.netsim.frame import Frame
from repro.netsim.link import DuplexLink

Receiver = Callable[[Frame], None]


class NicPort:
    """One physical port of a NIC, attachable to a switch port."""

    def __init__(self, nic: "Nic", index: int):
        self.nic = nic
        self.index = index
        self.link: Optional[DuplexLink] = None
        self.switch_port_id: Optional[str] = None
        self._receivers: List[Receiver] = []

    @property
    def name(self) -> str:
        return f"{self.nic.name}.p{self.index}"

    def attach(self, link: DuplexLink, switch_port_id: str) -> None:
        """Wire this port to a switch port's link (done by the site)."""
        if self.link is not None:
            raise RuntimeError(f"{self.name} is already attached")
        self.link = link
        self.switch_port_id = switch_port_id
        link.tx.connect(self._deliver)

    def send(self, frame: Frame) -> bool:
        """Transmit a frame toward the switch.  False if dropped at the
        device-side queue."""
        if self.link is None:
            raise RuntimeError(f"{self.name} is not attached to a switch")
        return self.link.rx.offer(frame)

    def receive(self, receiver: Receiver) -> None:
        """Subscribe to frames arriving from the switch."""
        self._receivers.append(receiver)

    def stop_receiving(self, receiver: Receiver) -> None:
        """Unsubscribe a receiver."""
        self._receivers.remove(receiver)

    def _deliver(self, frame: Frame) -> None:
        if self._receivers:
            for receiver in tuple(self._receivers):
                receiver(frame)


class Nic:
    """Base NIC: a named card with ``port_count`` ports."""

    kind = "nic"

    def __init__(self, name: str, port_count: int = 1, rate_bps: float = 100e9):
        self.name = name
        self.rate_bps = rate_bps
        self.ports = [NicPort(self, i) for i in range(port_count)]
        self.owner_slice: Optional[str] = None

    @property
    def allocated(self) -> bool:
        return self.owner_slice is not None

    def allocate(self, slice_name: str) -> None:
        if self.allocated:
            raise RuntimeError(f"{self.name} already allocated to {self.owner_slice}")
        self.owner_slice = slice_name

    def release(self) -> None:
        self.owner_slice = None

    def __repr__(self) -> str:
        owner = f" owner={self.owner_slice}" if self.owner_slice else ""
        return f"<{type(self).__name__} {self.name} ports={len(self.ports)}{owner}>"


class SharedNIC(Nic):
    """A ConnectX card shared among users via virtual functions."""

    kind = "shared-nic"

    def __init__(self, name: str, rate_bps: float = 100e9, vf_slots: int = 381):
        super().__init__(name, port_count=1, rate_bps=rate_bps)
        self.vf_slots = vf_slots
        self.vfs_in_use = 0

    def allocate_vf(self) -> None:
        if self.vfs_in_use >= self.vf_slots:
            raise RuntimeError(f"{self.name}: no free virtual functions")
        self.vfs_in_use += 1

    def release_vf(self) -> None:
        if self.vfs_in_use <= 0:
            raise RuntimeError(f"{self.name}: no VFs to release")
        self.vfs_in_use -= 1


class DedicatedNIC(Nic):
    """A single-user dual-port ConnectX card."""

    kind = "dedicated-nic"

    def __init__(self, name: str, rate_bps: float = 100e9):
        super().__init__(name, port_count=2, rate_bps=rate_bps)


class FPGANic(Nic):
    """An Alveo FPGA card programmable with a P4 bitstream."""

    kind = "fpga-nic"

    def __init__(self, name: str, rate_bps: float = 100e9):
        super().__init__(name, port_count=2, rate_bps=rate_bps)
        self.bitstream: Optional[str] = None

    def program(self, bitstream: str) -> None:
        """Load a named bitstream (the capture model checks for one)."""
        self.bitstream = bitstream
