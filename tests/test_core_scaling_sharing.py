"""Tests for the future-work features: dynamic scaling & mirror sharing."""

import pytest

from repro.core.scaling import ScalingAction, ScalingController
from repro.core.sharing import MirrorScheduler
from repro.netsim.engine import Simulator
from repro.testbed import FederationBuilder, TestbedAPI
from repro.testbed.slice_model import NodeRequest, SliceRequest


@pytest.fixture()
def api():
    federation = FederationBuilder(seed=42).build(site_names=["STAR", "MICH"])
    return TestbedAPI(federation)


def drain(api, site, leave):
    free = api.available_resources(site).dedicated_nics
    take = int(free) - leave
    if take > 0:
        api.create_slice(SliceRequest(site=site, nodes=[
            NodeRequest(name=f"u{i}") for i in range(take)],
            name=f"drain-{site}"))


class TestScalingPolicy:
    def test_grow_when_port_rich_and_nics_free(self, api):
        controller = ScalingController(api)
        decision = controller.decide("STAR", eligible_ports=40, slots=4,
                                     extra_nodes=0)
        assert decision.action is ScalingAction.GROW

    def test_hold_when_balanced(self, api):
        controller = ScalingController(api)
        decision = controller.decide("STAR", eligible_ports=8, slots=4,
                                     extra_nodes=0)
        assert decision.action is ScalingAction.HOLD

    def test_hold_when_no_spare_nics(self, api):
        drain(api, "STAR", leave=1)  # only the reserve remains
        controller = ScalingController(api, nic_reserve=1)
        decision = controller.decide("STAR", eligible_ports=40, slots=2,
                                     extra_nodes=0)
        assert decision.action is ScalingAction.HOLD

    def test_nice_shrink_when_site_squeezed(self, api):
        drain(api, "STAR", leave=1)
        controller = ScalingController(api, nice_free_nic_floor=1)
        decision = controller.decide("STAR", eligible_ports=40, slots=4,
                                     extra_nodes=1)
        assert decision.action is ScalingAction.SHRINK
        assert "nice" in decision.reason

    def test_growth_bounded(self, api):
        controller = ScalingController(api, max_extra_nodes=1)
        decision = controller.decide("STAR", eligible_ports=100, slots=2,
                                     extra_nodes=1)
        assert decision.action is ScalingAction.HOLD

    def test_no_slots_holds(self, api):
        controller = ScalingController(api)
        assert controller.decide("STAR", 10, 0, 0).action is ScalingAction.HOLD


class TestScalingMechanics:
    def test_grow_allocates_and_shrink_releases(self, api):
        controller = ScalingController(api)
        before = api.available_resources("STAR").dedicated_nics
        extra = controller.grow("STAR", "patchwork-STAR")
        assert extra is not None
        assert api.available_resources("STAR").dedicated_nics == before - 1
        assert controller.grows == 1
        controller.shrink(extra)
        assert api.available_resources("STAR").dedicated_nics == before
        assert controller.shrinks == 1

    def test_grow_fails_gracefully_when_empty(self, api):
        drain(api, "STAR", leave=0)
        controller = ScalingController(api)
        assert controller.grow("STAR", "p") is None


class TestMirrorScheduler:
    def test_immediate_grant_when_free(self):
        sim = Simulator()
        scheduler = MirrorScheduler(sim)
        grants = []
        scheduler.request("STAR", "p1", "alice", 60.0, grants.append)
        assert len(grants) == 1
        assert scheduler.holder_of("STAR", "p1") == "alice"

    def test_contender_queues_then_rotates(self):
        sim = Simulator()
        scheduler = MirrorScheduler(sim)
        log = []
        scheduler.request("STAR", "p1", "alice", 60.0,
                          lambda l: log.append(("grant", l.holder)),
                          lambda l: log.append(("revoke", l.holder)))
        scheduler.request("STAR", "p1", "bob", 60.0,
                          lambda l: log.append(("grant", l.holder)))
        assert scheduler.queue_length("STAR", "p1") == 1
        sim.run(until=61.0)
        assert log == [("grant", "alice"), ("revoke", "alice"),
                       ("grant", "bob")]
        assert scheduler.holder_of("STAR", "p1") == "bob"

    def test_early_release_hands_over(self):
        sim = Simulator()
        scheduler = MirrorScheduler(sim)
        leases = {}
        scheduler.request("STAR", "p1", "alice", 600.0,
                          lambda l: leases.setdefault("alice", l))
        scheduler.request("STAR", "p1", "bob", 60.0,
                          lambda l: leases.setdefault("bob", l))
        scheduler.release(leases["alice"])
        assert scheduler.holder_of("STAR", "p1") == "bob"
        # Alice's expiry event must not fire later and evict Bob early.
        sim.run(until=30.0)
        assert scheduler.holder_of("STAR", "p1") == "bob"

    def test_ports_independent(self):
        sim = Simulator()
        scheduler = MirrorScheduler(sim)
        holders = []
        scheduler.request("STAR", "p1", "alice", 60.0,
                          lambda l: holders.append(l.holder))
        scheduler.request("STAR", "p2", "bob", 60.0,
                          lambda l: holders.append(l.holder))
        assert holders == ["alice", "bob"]

    def test_lease_capped(self):
        sim = Simulator()
        scheduler = MirrorScheduler(sim, max_lease_seconds=100.0)
        leases = []
        scheduler.request("STAR", "p1", "alice", 1e9, leases.append)
        assert leases[0].duration == 100.0

    def test_release_idempotent(self):
        sim = Simulator()
        scheduler = MirrorScheduler(sim)
        leases = []
        scheduler.request("STAR", "p1", "a", 60.0, leases.append)
        scheduler.release(leases[0])
        scheduler.release(leases[0])

    def test_validation(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            MirrorScheduler(sim, max_lease_seconds=0)
        with pytest.raises(ValueError):
            MirrorScheduler(sim).request("S", "p", "a", 0.0, lambda l: None)
