"""Tests for online capture sessions (frames -> pcap files)."""

import numpy as np
import pytest

from repro.analysis.anonymize import Anonymizer
from repro.capture.session import CaptureMethod, CaptureSession
from repro.packets.pcap import PcapReader
from repro.testbed import FederationBuilder
from repro.traffic.endpoints import EndpointRegistry
from repro.traffic.flows import STANDARD_APPS, Flow


@pytest.fixture()
def world():
    federation = FederationBuilder(seed=42).build(site_names=["STAR", "MICH"])
    registry = EndpointRegistry(federation)
    a = registry.create("STAR")
    b = registry.create("STAR")
    return federation, a, b


def run_flow(federation, a, b, total=100_000):
    flow = Flow(sim=federation.sim, flow_id=1, src=a, dst=b,
                app=STANDARD_APPS["iperf-tcp"], total_bytes=total,
                rng=np.random.default_rng(0))
    flow.start()
    return flow


class TestSession:
    def test_captures_frames_to_pcap(self, world, tmp_path):
        federation, a, b = world
        path = tmp_path / "s.pcap"
        session = CaptureSession(federation.sim, b.nic_port, path, snaplen=200)
        session.start()
        run_flow(federation, a, b)
        federation.sim.run()
        stats = session.stop()
        assert stats.frames_captured > 0
        assert stats.frames_captured == stats.frames_seen  # slow traffic
        records = PcapReader(path).read_all()
        assert len(records) == stats.frames_captured
        assert all(len(r.data) <= 200 for r in records)
        assert any(r.orig_len > 1000 for r in records)

    def test_timestamps_are_simulation_time(self, world, tmp_path):
        federation, a, b = world
        path = tmp_path / "s.pcap"
        session = CaptureSession(federation.sim, b.nic_port, path)
        session.start()
        run_flow(federation, a, b)
        federation.sim.run()
        session.stop()
        times = [r.timestamp for r in PcapReader(path).read_all()]
        assert times == sorted(times)
        assert times[-1] <= federation.sim.now

    def test_stop_unsubscribes(self, world, tmp_path):
        federation, a, b = world
        session = CaptureSession(federation.sim, b.nic_port, tmp_path / "s.pcap")
        session.start()
        stats = session.stop()
        run_flow(federation, a, b)
        federation.sim.run()
        assert stats.frames_seen == 0

    def test_run_for_schedules_stop(self, world, tmp_path):
        federation, a, b = world
        session = CaptureSession(federation.sim, b.nic_port, tmp_path / "s.pcap")
        session.run_for(0.5)
        run_flow(federation, a, b, total=10**7)
        federation.sim.run(until=2.0)
        assert session.stats.ended_at == pytest.approx(0.5)

    def test_no_pcap_mode(self, world):
        federation, a, b = world
        session = CaptureSession(federation.sim, b.nic_port, None)
        session.start()
        run_flow(federation, a, b)
        federation.sim.run()
        stats = session.stop()
        assert stats.frames_captured > 0
        assert stats.pcap_path is None

    def test_double_start_rejected(self, world, tmp_path):
        federation, _a, b = world
        session = CaptureSession(federation.sim, b.nic_port, tmp_path / "s.pcap")
        session.start()
        with pytest.raises(RuntimeError):
            session.start()

    def test_bad_snaplen(self, world, tmp_path):
        federation, _a, b = world
        with pytest.raises(ValueError):
            CaptureSession(federation.sim, b.nic_port, tmp_path / "s.pcap",
                           snaplen=0)


class TestMethods:
    def test_dpdk_method(self, world, tmp_path):
        federation, a, b = world
        session = CaptureSession(federation.sim, b.nic_port,
                                 tmp_path / "d.pcap", method=CaptureMethod.DPDK)
        session.start()
        run_flow(federation, a, b)
        federation.sim.run()
        assert session.stop().frames_captured > 0

    def test_fpga_method_samples(self, world, tmp_path):
        from repro.capture.fpga import FpgaOffloadConfig
        federation, a, b = world
        session = CaptureSession(
            federation.sim, b.nic_port, tmp_path / "f.pcap",
            method=CaptureMethod.FPGA_DPDK,
            fpga_config=FpgaOffloadConfig(truncation=64, sample_one_in=2),
        )
        session.start()
        run_flow(federation, a, b)
        federation.sim.run()
        stats = session.stop()
        # Half the frames are sampled out by the card -- not counted as loss.
        assert stats.frames_captured < stats.frames_seen
        assert stats.frames_dropped == 0
        records = PcapReader(tmp_path / "f.pcap").read_all()
        assert all(len(r.data) <= 64 for r in records)

    def test_anonymizing_transform(self, world, tmp_path):
        federation, a, b = world
        anonymizer = Anonymizer(key=b"test-key")
        session = CaptureSession(federation.sim, b.nic_port,
                                 tmp_path / "a.pcap", snaplen=200,
                                 transform=anonymizer.transform)
        session.start()
        run_flow(federation, a, b)
        federation.sim.run()
        session.stop()
        from repro.analysis.dissect import Dissector
        records = PcapReader(tmp_path / "a.pcap").read_all()
        dissected = Dissector().dissect(records[0].data)
        ipv4 = dissected.first("ipv4")
        # Addresses were rewritten away from the registry's 10/8 scheme.
        assert ipv4 is not None
        assert ipv4.fields["src"] != a.ipv4 and ipv4.fields["src"] != b.ipv4


def burst_port():
    """A NIC port on a 100G link: bursts arrive ~80 ns apart, faster
    than either capture model can drain its backlog."""
    from repro.netsim.engine import Simulator
    from repro.netsim.frame import Frame
    from repro.netsim.link import DuplexLink
    from repro.testbed.nic import DedicatedNIC

    sim = Simulator()
    link = DuplexLink(sim, rate_bps=100e9)
    port = DedicatedNIC("dn0").ports[0]
    port.attach(link, "p1")

    def burst(count=500, size=1000):
        for _ in range(count):
            link.tx.offer(Frame(wire_len=size, head=b"\x00" * 64))

    return sim, port, burst


class TestDropCauseSplit:
    """frames_dropped is attributed: ring vs writer vs (separate) filter."""

    def test_writer_backpressure_counted(self, tmp_path):
        from repro.capture.tcpdump import TcpdumpModel
        sim, port, burst = burst_port()
        session = CaptureSession(
            sim, port, tmp_path / "w.pcap",
            tcpdump_model=TcpdumpModel(snaplen=200, buffer_bytes=800),
        )
        session.start()
        burst()
        sim.run()
        stats = session.stop()
        assert stats.writer_drops > 0
        assert stats.ring_drops == 0
        assert stats.frames_dropped == stats.writer_drops
        assert stats.frames_captured + stats.frames_dropped == \
            stats.frames_seen

    def test_nic_ring_overflow_counted(self, tmp_path):
        from repro.capture.dpdk import DpdkCaptureModel
        sim, port, burst = burst_port()
        session = CaptureSession(
            sim, port, tmp_path / "r.pcap",
            method=CaptureMethod.DPDK,
            dpdk_model=DpdkCaptureModel(cores=1, rx_queue_depth=1),
        )
        session.start()
        burst()
        sim.run()
        stats = session.stop()
        assert stats.ring_drops > 0
        assert stats.writer_drops == 0
        assert stats.frames_dropped == stats.ring_drops

    def test_fpga_filter_is_not_loss(self, world, tmp_path):
        from repro.capture.fpga import FpgaOffloadConfig
        federation, a, b = world
        session = CaptureSession(
            federation.sim, b.nic_port, tmp_path / "f.pcap",
            method=CaptureMethod.FPGA_DPDK,
            fpga_config=FpgaOffloadConfig(truncation=64, sample_one_in=2),
        )
        session.start()
        run_flow(federation, a, b)
        federation.sim.run()
        stats = session.stop()
        assert stats.frames_filtered > 0
        assert stats.frames_dropped == 0
        assert stats.frames_captured + stats.frames_filtered == \
            stats.frames_seen

    def test_split_sums_to_total(self):
        # Every path through _on_frame lands in exactly one bucket.
        from repro.capture.tcpdump import TcpdumpModel
        sim, port, burst = burst_port()
        session = CaptureSession(
            sim, port, None,
            tcpdump_model=TcpdumpModel(snaplen=100, buffer_bytes=400),
        )
        session.start()
        burst()
        sim.run()
        stats = session.stop()
        assert stats.frames_dropped > 0
        assert stats.frames_dropped == stats.ring_drops + stats.writer_drops
        assert stats.frames_seen == (stats.frames_captured +
                                     stats.frames_dropped +
                                     stats.frames_filtered)
