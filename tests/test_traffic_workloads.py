"""Tests for workload profiles and the traffic orchestrator."""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.testbed import FederationBuilder
from repro.traffic.flows import STANDARD_APPS
from repro.traffic.workloads import (
    WORKLOAD_PROFILES,
    TrafficOrchestrator,
    WorkloadProfile,
    assign_site_profiles,
)


class TestProfiles:
    def test_all_personalities_exist(self):
        assert {"bulk", "jumbo-bulk", "mixed", "chatty", "quiet"} == set(WORKLOAD_PROFILES)

    def test_pick_app_respects_weights(self):
        rng = np.random.default_rng(0)
        profile = WORKLOAD_PROFILES["bulk"]
        picks = [profile.pick_app(rng).name for _ in range(300)]
        assert picks.count("iperf-tcp") > 200

    def test_pick_encap_returns_kind(self):
        rng = np.random.default_rng(0)
        kind = WORKLOAD_PROFILES["mixed"].pick_encap(rng)
        assert kind in WORKLOAD_PROFILES["mixed"].encap_weights

    @pytest.mark.parametrize("name", sorted(WORKLOAD_PROFILES))
    def test_picks_match_generator_choice_draw_for_draw(self, name):
        """The precomputed-CDF picks are ``Generator.choice(p=...)``'s
        picks from the same stream, one ``random()`` each."""
        profile = WORKLOAD_PROFILES[name]
        apps = list(profile.app_weights)
        app_p = np.array([profile.app_weights[a] for a in apps], dtype=float)
        app_p /= app_p.sum()
        kinds = list(profile.encap_weights)
        kind_p = np.array([profile.encap_weights[k] for k in kinds], dtype=float)
        kind_p /= kind_p.sum()
        ours, reference = np.random.default_rng(5), np.random.default_rng(5)
        for _ in range(3000):
            assert profile.pick_app(ours).name == \
                str(reference.choice(apps, p=app_p))
            assert profile.pick_encap(ours) is \
                kinds[int(reference.choice(len(kinds), p=kind_p))]
        assert ours.random() == reference.random()

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(0.001, 100.0), min_size=1, max_size=8),
           st.integers(0, 2**32))
    def test_picks_match_choice_for_any_weights(self, weights, seed):
        names = sorted(STANDARD_APPS)[:len(weights)]
        profile = WorkloadProfile(name="x", app_weights=dict(zip(names, weights)))
        p = np.array(weights, dtype=float)
        p /= p.sum()
        ours, reference = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(200):
            assert profile.pick_app(ours).name == str(reference.choice(names, p=p))

    def test_assignment_deterministic(self):
        sites = ["A", "B", "C", "D", "E"]
        assert ([p.name for p in assign_site_profiles(sites, seed=7).values()]
                == [p.name for p in assign_site_profiles(sites, seed=7).values()])

    def test_assignment_covers_all_sites(self):
        sites = [f"S{i}" for i in range(30)]
        assigned = assign_site_profiles(sites)
        assert set(assigned) == set(sites)

    def test_quiet_sites_much_quieter_than_chatty(self):
        assert (WORKLOAD_PROFILES["quiet"].flow_rate_per_s
                < WORKLOAD_PROFILES["chatty"].flow_rate_per_s / 100)


class TestOrchestrator:
    @pytest.fixture()
    def orchestrator(self):
        federation = FederationBuilder(seed=42).build(
            site_names=["STAR", "MICH", "UTAH"])
        return TrafficOrchestrator(federation, seed=7, scale=0.05), federation

    def test_setup_creates_endpoints(self, orchestrator):
        orch, _fed = orchestrator
        orch.setup()
        assert len(orch.registry) > 0
        for site in ("STAR", "MICH", "UTAH"):
            assert len(orch.registry.at_site(site)) >= 2

    def test_setup_idempotent(self, orchestrator):
        orch, _fed = orchestrator
        orch.setup()
        count = len(orch.registry)
        orch.setup()
        assert len(orch.registry) == count

    def test_generate_window_creates_flows(self, orchestrator):
        orch, fed = orchestrator
        flows = orch.generate_window(0.0, 30.0)
        assert len(flows) > 0
        fed.sim.run(until=31.0)
        assert any(f.frames_sent > 0 for f in flows)

    def test_generate_restricted_to_sites(self, orchestrator):
        orch, _fed = orchestrator
        flows = orch.generate_window(0.0, 10.0, sites=["STAR"])
        assert all(f.src.site == "STAR" for f in flows)

    def test_traffic_reaches_switches(self, orchestrator):
        orch, fed = orchestrator
        orch.generate_window(0.0, 10.0)
        fed.sim.run(until=11.0)
        total_rx = sum(
            port.counters()["rx_frames"]
            for site in fed.sites.values()
            for port in site.switch.downlinks()
        )
        assert total_rx > 0

    def test_remote_flows_cross_uplinks(self, orchestrator):
        orch, fed = orchestrator
        orch.generate_window(0.0, 20.0)
        fed.sim.run(until=21.0)
        uplink_frames = sum(
            port.counters()["tx_frames"]
            for site in fed.sites.values()
            for port in site.switch.uplinks()
        )
        assert uplink_frames > 0

    def test_ended_flows_are_freed(self, orchestrator):
        # Nothing in the world keeps a flow once it has ended and the
        # simulator has run past it.
        orch, fed = orchestrator
        flows = orch.generate_window(0.0, 5.0, sites=["STAR"])
        fed.sim.run(until=120.0)
        ended = [weakref.ref(f) for f in flows if f.finished]
        assert len(ended) > 10
        del flows
        gc.collect()
        assert [ref for ref in ended if ref() is not None] == []

    def test_scale_reduces_frame_count(self):
        def run(scale):
            fed = FederationBuilder(seed=42).build(site_names=["STAR", "MICH"])
            orch = TrafficOrchestrator(fed, seed=7, scale=scale)
            orch.generate_window(0.0, 10.0)
            fed.sim.run(until=11.0)
            return sum(port.counters()["rx_frames"]
                       for site in fed.sites.values()
                       for port in site.switch.downlinks())
        assert run(0.02) < run(0.3)

    def test_rejects_bad_scale(self):
        fed = FederationBuilder(seed=42).build(site_names=["STAR", "MICH"])
        with pytest.raises(ValueError):
            TrafficOrchestrator(fed, scale=0.0)
