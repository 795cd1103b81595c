"""Tests for the ToR switch: forwarding, counters, and mirroring."""

import pytest

from repro.netsim.engine import Simulator
from repro.netsim.frame import Frame
from repro.testbed.errors import MirrorConflictError
from repro.testbed.switch import DOWNLINK, Switch, UPLINK


def frame_to(dst_mac: bytes, src_mac: bytes = b"\x02\x00\x00\x00\x00\xaa",
             size: int = 1000) -> Frame:
    head = dst_mac + src_mac + b"\x08\x00" + b"\x00" * 50
    return Frame(wire_len=size, head=head)


MAC_A = b"\x02\x00\x00\x00\x00\x01"
MAC_B = b"\x02\x00\x00\x00\x00\x02"


@pytest.fixture()
def switch():
    sim = Simulator()
    sw = Switch(sim, "tor-test", default_rate_bps=1e9)
    sw.add_port("p1", DOWNLINK)
    sw.add_port("p2", DOWNLINK)
    sw.add_port("p3", DOWNLINK)
    sw.add_port("u1", UPLINK)
    return sw


class TestPorts:
    def test_duplicate_port_rejected(self, switch):
        with pytest.raises(ValueError):
            switch.add_port("p1")

    def test_bad_kind_rejected(self, switch):
        with pytest.raises(ValueError):
            switch.add_port("px", "sideways")

    def test_downlinks_uplinks_partition(self, switch):
        assert {p.port_id for p in switch.downlinks()} == {"p1", "p2", "p3"}
        assert {p.port_id for p in switch.uplinks()} == {"u1"}


class TestForwarding:
    def test_forwards_to_registered_mac(self, switch):
        sim = switch.sim
        switch.register_mac(MAC_B, "p2")
        received = []
        switch.ports["p2"].link.tx.connect(received.append)
        switch.ports["p1"].link.rx.offer(frame_to(MAC_B, MAC_A))
        sim.run()
        assert len(received) == 1

    def test_unknown_destination_counted(self, switch):
        switch.ports["p1"].link.rx.offer(frame_to(MAC_B))
        switch.sim.run()
        assert switch.unknown_dst_frames == 1

    def test_source_learning(self, switch):
        switch.register_mac(MAC_B, "p2")
        switch.ports["p1"].link.rx.offer(frame_to(MAC_B, MAC_A))
        switch.sim.run()
        # MAC_A was learned on p1; reply traffic now forwards.
        received = []
        switch.ports["p1"].link.tx.connect(received.append)
        switch.ports["p2"].link.rx.offer(frame_to(MAC_A, MAC_B))
        switch.sim.run()
        assert len(received) == 1

    def test_hairpin_delivery(self, switch):
        """Two VFs on one shared NIC talk through the same switch port."""
        switch.register_mac(MAC_B, "p1")
        received = []
        switch.ports["p1"].link.tx.connect(received.append)
        switch.ports["p1"].link.rx.offer(frame_to(MAC_B, MAC_A))
        switch.sim.run()
        assert len(received) == 1
        assert switch.unknown_dst_frames == 0

    def test_register_requires_known_port(self, switch):
        with pytest.raises(KeyError):
            switch.register_mac(MAC_A, "nope")

    def test_register_requires_6_bytes(self, switch):
        with pytest.raises(ValueError):
            switch.register_mac(b"\x01\x02", "p1")


class TestCounters:
    def test_counters_advance(self, switch):
        switch.register_mac(MAC_B, "p2")
        switch.ports["p1"].link.rx.offer(frame_to(MAC_B, MAC_A, size=1200))
        switch.sim.run()
        counters = switch.ports["p2"].counters()
        assert counters["tx_frames"] == 1
        assert counters["tx_bytes"] == 1200
        rx = switch.ports["p1"].counters()
        assert rx["rx_frames"] == 1

    def test_port_counters_walk(self, switch):
        walk = switch.port_counters()
        assert set(walk) == {"p1", "p2", "p3", "u1"}
        assert walk["p1"]["tx_bytes"] == 0


class TestMirroring:
    def test_mirror_clones_both_directions(self, switch):
        sim = switch.sim
        switch.register_mac(MAC_B, "p2")
        switch.register_mac(MAC_A, "p1")
        mirrored = []
        switch.ports["p3"].link.tx.connect(mirrored.append)
        switch.create_mirror("p1", "p3")
        switch.ports["p1"].link.rx.offer(frame_to(MAC_B, MAC_A))  # p1 Rx
        switch.ports["p2"].link.rx.offer(frame_to(MAC_A, MAC_B))  # p1 Tx
        sim.run()
        assert len(mirrored) == 2

    def test_mirror_rx_only(self, switch):
        sim = switch.sim
        switch.register_mac(MAC_B, "p2")
        switch.register_mac(MAC_A, "p1")
        mirrored = []
        switch.ports["p3"].link.tx.connect(mirrored.append)
        switch.create_mirror("p1", "p3", directions=frozenset({"rx"}))
        switch.ports["p1"].link.rx.offer(frame_to(MAC_B, MAC_A))
        switch.ports["p2"].link.rx.offer(frame_to(MAC_A, MAC_B))
        sim.run()
        assert len(mirrored) == 1

    def test_mirror_clones_are_copies(self, switch):
        switch.register_mac(MAC_B, "p2")
        clones = []
        switch.ports["p3"].link.tx.connect(clones.append)
        switch.create_mirror("p1", "p3")
        original = frame_to(MAC_B, MAC_A)
        switch.ports["p1"].link.rx.offer(original)
        switch.sim.run()
        assert clones[0] is not original
        assert clones[0].head == original.head

    def test_source_conflict(self, switch):
        switch.create_mirror("p1", "p3")
        with pytest.raises(MirrorConflictError):
            switch.create_mirror("p1", "u1")

    def test_destination_conflict(self, switch):
        switch.create_mirror("p1", "p3")
        with pytest.raises(MirrorConflictError):
            switch.create_mirror("p2", "p3")

    def test_self_mirror_rejected(self, switch):
        with pytest.raises(MirrorConflictError):
            switch.create_mirror("p1", "p1")

    def test_delete_mirror_stops_cloning(self, switch):
        switch.register_mac(MAC_B, "p2")
        clones = []
        switch.ports["p3"].link.tx.connect(clones.append)
        switch.create_mirror("p1", "p3")
        switch.delete_mirror("p1")
        switch.ports["p1"].link.rx.offer(frame_to(MAC_B, MAC_A))
        switch.sim.run()
        assert clones == []

    def test_retarget_moves_source(self, switch):
        switch.register_mac(MAC_B, "p2")
        switch.register_mac(MAC_A, "p1")
        clones = []
        switch.ports["p3"].link.tx.connect(clones.append)
        switch.create_mirror("p1", "p3")
        session = switch.retarget_mirror("p1", "p2")
        assert session.source_port_id == "p2"
        assert "p1" not in switch.mirrors and "p2" in switch.mirrors
        # Traffic entering p2 is now cloned; p1 traffic is not.
        switch.ports["p2"].link.rx.offer(frame_to(MAC_A, MAC_B))
        switch.ports["p1"].link.rx.offer(frame_to(MAC_B, MAC_A))
        switch.sim.run()
        # p2 rx clone + p1->p2 tx clone (forwarded frame leaves via p2).
        assert len(clones) == 2

    def test_mirror_overflow_drops_at_switch(self):
        """The paper's core hazard: Rx+Tx of a busy port cannot fit the
        mirror destination's line rate; clones tail-drop at the switch."""
        sim = Simulator()
        sw = Switch(sim, "tor", default_rate_bps=8e3, queue_limit_bytes=2000)
        sw.add_port("src", DOWNLINK)
        sw.add_port("dst", DOWNLINK)
        sw.add_port("mir", DOWNLINK)
        sw.register_mac(MAC_B, "dst")
        sw.create_mirror("src", "mir")
        # Offer 10 frames of 1000 B back-to-back: the mirror Tx channel
        # (1 kB/s, 2 kB queue) cannot absorb them.
        for _ in range(10):
            sw.ports["src"].link.rx.offer(frame_to(MAC_B, MAC_A))
        sim.run(until=0.01)
        assert sw.ports["mir"].counters()["tx_drops"] > 0
