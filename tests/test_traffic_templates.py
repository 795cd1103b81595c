"""Per-shape frame templates: stamping equals a full build.

A flow's frames come from a template built once per (app,
encapsulation, IPv6 or not, frame kind) by whichever flow first needed
that shape; every other flow stamps its own fields into a copy when
something first reads a frame's head.  These tests hold the stamped
bytes to an independent full ``FrameBuilder`` build, pin that a busy
window builds each shape once, and count stamps: a frame nobody reads
is never stamped, and a read frame is stamped once however often it is
sent or mirrored.
"""

import zlib
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import Coordinator, PatchworkConfig, SamplingPlan
from repro.netsim.engine import Simulator
from repro.packets.builder import MIN_FRAME_SIZE, FrameBuilder, FrameSpec
from repro.packets.headers import (
    DNSHeader,
    Ethernet,
    ICMP,
    IPv4,
    IPv6,
    Payload,
    TCP,
    TCP_ACK,
    TCP_FIN,
    TCP_PSH,
    TCP_RST,
    TCP_SYN,
    UDP,
    ipv6_str,
    mac_str,
)
from repro.packets.pcap import PcapReader
from repro.telemetry import SNMPPoller
from repro.testbed import FederationBuilder, TestbedAPI
from repro.traffic.encapsulation import EncapKind, underlay_stack
from repro.traffic.endpoints import TrafficEndpoint
from repro.traffic.flows import STANDARD_APPS, Flow, _incremental_checksum_patch
from repro.traffic.workloads import WORKLOAD_PROFILES, TrafficOrchestrator

TCP_FLAGS = {"data": TCP_ACK | TCP_PSH, "ack": TCP_ACK, "syn": TCP_SYN,
             "fin": TCP_FIN | TCP_ACK, "rst": TCP_RST}


def full_build(flow: Flow, kind: str) -> bytes:
    """The frame a fresh ``FrameBuilder`` build gives for ``flow``'s
    ``kind`` frames, with the flow's own port or ICMP identifier."""
    app = flow.app
    forward = kind != "ack"
    src, dst = (flow.src, flow.dst) if forward else (flow.dst, flow.src)
    stack = underlay_stack(flow.encap, src.mac, dst.mac, flow.vlan_id,
                           flow.mpls_label, inner_src_mac=src.mac,
                           inner_dst_mac=dst.mac)
    stack.append(IPv6(src.ipv6, dst.ipv6) if flow.use_ipv6
                 else IPv4(src.ipv4, dst.ipv4))
    sport, dport = (flow.sport, app.dport) if forward else (app.dport, flow.sport)
    if app.transport == "tcp":
        stack.append(TCP(sport, dport, flags=TCP_FLAGS[kind]))
    elif app.transport == "udp":
        stack.append(UDP(sport, dport))
    else:
        stack.append(ICMP(icmp_type=8 if forward else 0,
                          ident=flow.flow_id & 0xFFFF))
    if kind == "data" and app.app_header is not None:
        seed = zlib.crc32(f"{app.name}/data/{flow.vlan_id}".encode())
        stack.append(app.app_header(np.random.default_rng(seed)))
    if kind == "data":
        inner = app.inner_frame_size
    elif app.request_response:
        inner = max(MIN_FRAME_SIZE, app.inner_frame_size // 2)
    else:
        inner = MIN_FRAME_SIZE + 4
    stack.append(Payload(0))
    target = inner + flow.encap.overhead_bytes
    return FrameBuilder().build(FrameSpec(stack, target_size=target))


def make_flow(src, dst, app, encap=EncapKind.VLAN_MPLS, vlan_id=100,
              mpls_label=16000, use_ipv6=False, flow_id=1, seed=0):
    return Flow(sim=Simulator(), flow_id=flow_id, src=src, dst=dst,
                app=STANDARD_APPS[app], total_bytes=10_000,
                rng=np.random.default_rng(seed), encap=encap,
                vlan_id=vlan_id, mpls_label=mpls_label, use_ipv6=use_ipv6)


endpoints = st.builds(
    lambda mac, v4, v6: TrafficEndpoint(
        "SITE", None, mac_str(mac), ".".join(map(str, v4)), ipv6_str(v6),
        "slice"),
    st.binary(min_size=6, max_size=6),
    st.binary(min_size=4, max_size=4),
    st.binary(min_size=16, max_size=16),
)

shapes = st.sampled_from(sorted(STANDARD_APPS)).flatmap(
    lambda app: st.tuples(
        st.just(app),
        st.sampled_from(list(EncapKind)),
        st.booleans(),
        st.sampled_from(sorted(TCP_FLAGS)
                        if STANDARD_APPS[app].transport == "tcp"
                        else ["ack", "data"])))

flow_fields = st.fixed_dictionaries({
    "src": endpoints, "dst": endpoints,
    "vlan_id": st.integers(100, 3099),
    "mpls_label": st.integers(16000, 19999),
    "flow_id": st.integers(1, 2**32),
    "seed": st.integers(0, 2**32),
})

ZERO_ENDPOINT = TrafficEndpoint("SITE", None, mac_str(bytes(6)), "0.0.0.0",
                                ipv6_str(bytes(16)), "slice")


def zero_flow_fields(flow_id):
    return {"src": ZERO_ENDPOINT, "dst": ZERO_ENDPOINT, "vlan_id": 100,
            "mpls_label": 16000, "flow_id": flow_id, "seed": 0}


class TestStamping:
    @settings(max_examples=300, deadline=None)
    @given(shape=shapes, builder=flow_fields, stamped=flow_fields)
    # Echo identifier 0 over all-zero words: the full build's checksum
    # is 0xFFFF, and stamping must not turn it into 0x0000.
    @example(shape=("icmp", EncapKind.PLAIN, False, "ack"),
             builder=zero_flow_fields(1), stamped=zero_flow_fields(65536))
    def test_stamped_frame_equals_full_build(self, shape, builder, stamped):
        """Whichever flow built the template, another flow of the same
        shape gets the bytes a full build of its own frame gives."""
        app, encap, use_ipv6, kind = shape
        first = make_flow(app=app, encap=encap, use_ipv6=use_ipv6, **builder)
        second = make_flow(app=app, encap=encap, use_ipv6=use_ipv6, **stamped)
        Flow._templates.pop((app, encap, use_ipv6, kind), None)
        for flow in (first, second):  # the first builds, the second stamps
            frame = flow._build_frame(kind)
            expected = full_build(flow, kind)
            assert frame.wire_len == len(expected)
            assert frame.l2 == expected[:12]
            assert frame.head == expected[:len(frame.head)]


def _dns_frame(sport: int) -> bytes:
    """Eth/IPv4/UDP/DNS whose UDP checksum computes to zero at sport
    40893, so ``FrameBuilder`` transmits it as 0xFFFF."""
    return FrameBuilder().build(FrameSpec([
        Ethernet("02:00:00:00:00:01", "02:00:00:00:00:02"),
        IPv4("10.0.0.1", "10.0.0.2"), UDP(sport, 53),
        DNSHeader(ident=31035)]))


class TestChecksumPatch:
    UDP_SPORT, UDP_CHECKSUM = 14 + 20, 14 + 20 + 6

    def test_udp_zero_result_is_sent_as_ffff(self):
        expected = _dns_frame(40893)
        assert expected[self.UDP_CHECKSUM:self.UDP_CHECKSUM + 2] == b"\xff\xff"
        frame = bytearray(_dns_frame(40000))
        _incremental_checksum_patch(frame, self.UDP_SPORT, 40893,
                                    self.UDP_CHECKSUM, udp=True)
        assert bytes(frame) == expected

    def test_tcp_zero_checksum_stays_zero(self):
        def tcp_frame(sport):
            return FrameBuilder().build(FrameSpec([
                Ethernet("02:00:00:00:00:01", "02:00:00:00:00:02"),
                IPv4("10.0.0.1", "10.0.0.2"), TCP(sport, 80)]))
        at = 14 + 20 + 16
        base = tcp_frame(40000)
        # The sport that zeroes the sum moves the checksum down to zero.
        zeroing = (40000 + ((base[at] << 8) | base[at + 1])) % 0xFFFF
        expected = tcp_frame(zeroing)
        assert expected[at:at + 2] == b"\x00\x00"
        frame = bytearray(base)
        _incremental_checksum_patch(frame, 14 + 20, zeroing, at)
        assert bytes(frame) == expected


def test_busy_window_builds_each_shape_once(monkeypatch):
    """A chatty window of thousands of flows runs ``FrameBuilder`` at
    most once per (app, encapsulation, IPv6, kind) shape it uses."""
    builds = []
    original = FrameBuilder.build

    def counting(self, spec):
        builds.append(spec)
        return original(self, spec)

    monkeypatch.setattr(FrameBuilder, "build", counting)
    monkeypatch.setattr(Flow, "_templates", {})
    federation = FederationBuilder(seed=42).build(site_names=["STAR", "MICH"])
    orchestrator = TrafficOrchestrator(
        federation, profiles={"STAR": WORKLOAD_PROFILES["chatty"]}, seed=1,
        scale=0.005)
    flows = orchestrator.generate_window(0.0, 4.0)
    assert len(flows) >= 1000
    shapes = {(flow.app.name, flow.encap, flow.use_ipv6, kind)
              for flow in flows
              for kind in ("data", "ack", "syn")
              if kind != "syn" or flow.app.transport == "tcp"}
    assert 0 < len(builds) <= len(shapes)


ALL_SHAPES = [(app, encap, use_ipv6, kind)
              for app in sorted(STANDARD_APPS)
              for encap in EncapKind
              for use_ipv6 in (False, True)
              for kind in (sorted(TCP_FLAGS)
                           if STANDARD_APPS[app].transport == "tcp"
                           else ["ack", "data"])]


@pytest.mark.parametrize("shape", ALL_SHAPES, ids=str)
def test_l2_is_the_heads_macs(shape):
    """Switches forward on ``l2``; it must be what the head carries."""
    app, encap, use_ipv6, kind = shape
    flow = make_flow(TrafficEndpoint("SITE", None, "02:e0:00:00:00:01",
                                     "10.0.0.1", "fd00::1", "slice"),
                     TrafficEndpoint("SITE", None, "02:e0:00:00:00:02",
                                     "10.0.0.2", "fd00::2", "slice"),
                     app, encap=encap, use_ipv6=use_ipv6)
    frame = flow._build_frame(kind)
    assert frame.l2 == frame.head[:12]


@pytest.fixture()
def stamp_log(monkeypatch):
    """Every head stamp, as (flow id, frame kind)."""
    log = []
    original = Flow.stamp_head

    def counting(self, kind):
        log.append((self.flow_id, kind))
        return original(self, kind)

    monkeypatch.setattr(Flow, "stamp_head", counting)
    return log


def test_unread_frames_are_never_stamped(stamp_log):
    """A chatty site with no capture, INT stamper or NetFlow exporter
    forwards thousands of frames and stamps none of them."""
    federation = FederationBuilder(seed=42).build(site_names=["STAR", "MICH"])
    orchestrator = TrafficOrchestrator(
        federation, profiles={"STAR": WORKLOAD_PROFILES["chatty"]}, seed=1,
        scale=0.005)
    flows = orchestrator.generate_window(0.0, 4.0)
    federation.sim.run(until=10.0)
    assert len(flows) >= 1000
    assert sum(flow.frames_sent for flow in flows) >= 1000
    assert stamp_log == []


def test_captured_sample_stamps_each_frame_once(stamp_log, tmp_path):
    """A profile that mirrors and captures stamps each (flow, kind) at
    most once, though it records many more frames than it stamps."""
    federation = FederationBuilder(seed=42).build(site_names=["STAR", "MICH"])
    poller = SNMPPoller(federation, interval=20.0)
    poller.start()
    orchestrator = TrafficOrchestrator(federation, seed=7, scale=0.02)
    orchestrator.setup()
    orchestrator.generate_window(0.0, 120.0)
    config = PatchworkConfig(output_dir=tmp_path,
                             plan=SamplingPlan(2, 10, 2, 1, 2),
                             desired_instances=1)
    bundle = Coordinator(TestbedAPI(federation), config,
                         poller=poller).run_profile()
    recorded = sum(len(PcapReader(path).read_all())
                   for path in bundle.pcap_paths)
    stamps = Counter(stamp_log)
    assert stamps and max(stamps.values()) == 1
    assert recorded > 2 * len(stamps)


@pytest.mark.parametrize("encap, field", [
    (EncapKind.VLAN, {"vlan_id": 4096}),
    (EncapKind.VLAN_MPLS, {"vlan_id": -1}),
    (EncapKind.VLAN_MPLS, {"mpls_label": 1 << 20}),
    # A pseudowire's second label is the first plus one.
    (EncapKind.VLAN_MPLS_PW, {"mpls_label": (1 << 20) - 1}),
])
def test_out_of_range_fields_fail_at_flow_creation(stamp_log, encap, field):
    """Checked when the flow is created, though its heads are stamped
    later, and also when another flow already built the template."""
    make_flow(ZERO_ENDPOINT, ZERO_ENDPOINT, "iperf-tcp", encap=encap)
    with pytest.raises(ValueError, match="out of range"):
        make_flow(ZERO_ENDPOINT, ZERO_ENDPOINT, "iperf-tcp", encap=encap,
                  **field)
    assert stamp_log == []
