"""Tests for flow generation: encapsulation, frames, pacing, control."""

import numpy as np
import pytest

from repro.analysis.dissect import Dissector
from repro.testbed import FederationBuilder
from repro.traffic.encapsulation import EncapKind, underlay_stack
from repro.traffic.endpoints import EndpointRegistry
from repro.traffic.flows import STANDARD_APPS, AppSpec, Flow


@pytest.fixture()
def world():
    federation = FederationBuilder(seed=42).build(site_names=["STAR", "MICH"])
    registry = EndpointRegistry(federation)
    a = registry.create("STAR", "slice-a")
    b = registry.create("STAR", "slice-a")
    c = registry.create("MICH", "slice-a")
    return federation, a, b, c


def make_flow(federation, src, dst, app="iperf-tcp", total=200_000, **kwargs):
    return Flow(
        sim=federation.sim, flow_id=1, src=src, dst=dst,
        app=STANDARD_APPS[app], total_bytes=total,
        rng=np.random.default_rng(0), **kwargs,
    )


def collect_at(endpoint):
    got = []
    endpoint.nic_port.receive(got.append)
    return got


class TestEncapsulation:
    def test_underlay_overheads(self):
        assert EncapKind.PLAIN.header_depth == 1
        assert EncapKind.VLAN_MPLS_PW.header_depth == 6

    def test_pw_stack_has_inner_ethernet(self):
        stack = underlay_stack(EncapKind.VLAN_MPLS_PW, "02:00:00:00:00:01",
                               "02:00:00:00:00:02", inner_src_mac="02:00:00:00:00:03",
                               inner_dst_mac="02:00:00:00:00:04")
        assert len(stack) == 6
        assert stack[-1].src == "02:00:00:00:00:03"


class TestFlowFrames:
    def test_data_frame_size_includes_underlay(self, world):
        federation, a, b, _c = world
        flow = make_flow(federation, a, b, encap=EncapKind.VLAN_MPLS)
        assert flow._data_frame.wire_len == 1514 + 8

    def test_pw_data_frame_size(self, world):
        federation, a, b, _c = world
        flow = make_flow(federation, a, b, encap=EncapKind.VLAN_MPLS_PW)
        assert flow._data_frame.wire_len == 1514 + 30

    @pytest.mark.parametrize("encap", list(EncapKind))
    def test_overhead_bytes_is_what_the_underlay_adds(self, world, encap):
        """The apps carry an application header, so the header stack is
        over the 60-byte Ethernet minimum under every encapsulation:
        ``FrameBuilder`` sizes shorter stacks a few bytes short of their
        target (see ROADMAP)."""
        federation, a, b, _c = world
        for app in ("http", "ssh", "dns", "ntp"):
            flow = make_flow(federation, a, b, app=app, encap=encap)
            assert (flow._data_frame.wire_len
                    - flow.app.inner_frame_size) == encap.overhead_bytes

    def test_ack_is_small(self, world):
        federation, a, b, _c = world
        flow = make_flow(federation, a, b)
        assert 64 <= flow._ack_frame.wire_len <= 127

    def test_data_frame_dissects_fully(self, world):
        federation, a, b, _c = world
        flow = make_flow(federation, a, b, app="iperf-tcp",
                         encap=EncapKind.VLAN_MPLS_PW)
        names = Dissector().dissect(flow._data_frame.head).names
        assert names[:7] == ("eth", "vlan", "mpls", "mpls", "pw", "eth", "ipv4")
        assert "tcp" in names

    def test_ipv6_flow(self, world):
        federation, a, b, _c = world
        flow = make_flow(federation, a, b, use_ipv6=True)
        names = Dissector().dissect(flow._data_frame.head).names
        assert "ipv6" in names and "ipv4" not in names

    def test_rejects_empty_flow(self, world):
        federation, a, b, _c = world
        with pytest.raises(ValueError):
            make_flow(federation, a, b, total=0)


class TestFlowDynamics:
    def test_delivery_to_destination(self, world):
        federation, a, b, _c = world
        got = collect_at(b)
        flow = make_flow(federation, a, b, total=50_000)
        flow.start()
        federation.sim.run()
        data_frames = [f for f in got if f.wire_len > 1000]
        assert len(data_frames) == flow.expected_data_frames

    def test_acks_flow_backward(self, world):
        federation, a, b, _c = world
        got_at_src = collect_at(a)
        flow = make_flow(federation, a, b, total=100_000)
        flow.start()
        federation.sim.run()
        acks = [f for f in got_at_src if f.wire_len < 200]
        # ack_every=6 for iperf-tcp.
        assert len(acks) >= flow.frames_sent // 6

    def test_tcp_flow_opens_with_syn(self, world):
        federation, a, b, _c = world
        got = collect_at(b)
        flow = make_flow(federation, a, b, total=20_000)
        flow.start()
        federation.sim.run()
        first = Dissector().dissect(got[0].captured_bytes(200))
        tcp = first.first("tcp")
        assert tcp.fields["syn"]

    def test_tcp_flow_closes(self, world):
        federation, a, b, _c = world
        got = collect_at(b)
        flow = make_flow(federation, a, b, total=20_000)
        flow.start()
        federation.sim.run()
        last = Dissector().dissect(got[-1].captured_bytes(200))
        tcp = last.first("tcp")
        assert tcp.fields["fin"] or tcp.fields["rst"]

    def test_stop_time_truncates(self, world):
        federation, a, b, _c = world
        flow = make_flow(federation, a, b, total=10**9, stop_time=0.5)
        flow.start()
        federation.sim.run(until=2.0)
        assert flow.finished
        assert flow.bytes_sent < 10**9

    def test_pacing_matches_rate(self, world):
        federation, a, b, _c = world
        got = collect_at(b)
        flow = make_flow(federation, a, b, total=500_000)
        flow.start()
        federation.sim.run()
        data = [f for f in got if f.wire_len > 1000]
        # ~40 Mbps with 1522 B frames -> ~0.3 ms between frames.
        assert flow._data_interval == pytest.approx(1522 * 8 / 40e6)
        assert len(data) > 100

    def test_rate_scale(self, world):
        federation, a, b, _c = world
        fast = make_flow(federation, a, b, rate_scale=2.0)
        slow = make_flow(federation, a, b, rate_scale=0.5)
        assert fast._data_interval < slow._data_interval

    def test_cross_site_flow_delivery(self, world):
        federation, a, _b, c = world
        got = collect_at(c)
        flow = make_flow(federation, a, c, total=30_000)
        flow.start()
        federation.sim.run()
        assert len(got) > 0

    def test_request_response_app(self, world):
        federation, a, b, _c = world
        got_b = collect_at(b)
        got_a = collect_at(a)
        flow = make_flow(federation, a, b, app="dns", total=90)
        flow.start()
        federation.sim.run()
        assert len(got_b) >= 1   # request(s)
        assert len(got_a) >= 1   # response(s)

    def test_udp_has_no_handshake(self, world):
        federation, a, b, _c = world
        got = collect_at(b)
        flow = make_flow(federation, a, b, app="dns", total=90)
        flow.start()
        federation.sim.run()
        first = Dissector().dissect(got[0].captured_bytes(200))
        assert first.has("udp") and not first.has("tcp")


class TestAppSpecs:
    def test_standard_apps_cover_paper_protocols(self):
        names = set(STANDARD_APPS)
        assert {"iperf-tcp", "iperf-jumbo", "tls-web", "http", "ssh",
                "dns", "ntp", "icmp"} <= names

    def test_bad_transport_rejected(self):
        with pytest.raises(ValueError):
            AppSpec("x", "sctp", 1)

    def test_tiny_inner_frame_rejected(self):
        with pytest.raises(ValueError):
            AppSpec("x", "tcp", 1, inner_frame_size=10)

    def test_jumbo_app_uses_jumbo_frames(self):
        assert STANDARD_APPS["iperf-jumbo"].inner_frame_size > 8000
