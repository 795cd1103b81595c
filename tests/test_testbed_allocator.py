"""Tests for the slice allocator: admission, placement, latency, faults."""

import pytest

from repro.testbed.errors import (
    InsufficientResourcesError,
    SliceNotFoundError,
    TransientBackendError,
)
from repro.testbed.faults import FaultInjector
from repro.testbed.federation import FederationBuilder
from repro.testbed.slice_model import NodeRequest, SliceRequest


@pytest.fixture()
def federation():
    return FederationBuilder(seed=42).build(site_names=["STAR", "MICH"])


def request(site="STAR", nodes=1, nics=1):
    return SliceRequest(
        site=site,
        nodes=[NodeRequest(name=f"n{i}", dedicated_nics=nics) for i in range(nodes)],
        name="exp",
    )


class TestAdmission:
    def test_allocate_and_delete(self, federation):
        allocator = federation.allocator
        before = federation.site("STAR").available_resources()
        live = allocator.allocate(request())
        during = federation.site("STAR").available_resources()
        assert during.dedicated_nics == before.dedicated_nics - 1
        assert during.cores == before.cores - 2
        allocator.delete(live.name)
        after = federation.site("STAR").available_resources()
        assert after == before

    def test_insufficient_nics_reported(self, federation):
        free = federation.site("STAR").available_resources().dedicated_nics
        with pytest.raises(InsufficientResourcesError) as excinfo:
            federation.allocator.allocate(request(nodes=1, nics=free + 1))
        assert excinfo.value.resource == "dedicated_nics"

    def test_simulate_does_not_consume(self, federation):
        before = federation.site("STAR").available_resources()
        assert federation.allocator.simulate(request()) is None
        assert federation.site("STAR").available_resources() == before

    def test_simulate_reports_shortfall(self, federation):
        free = federation.site("STAR").available_resources().dedicated_nics
        shortfall = federation.allocator.simulate(request(nics=free + 1))
        assert shortfall is not None and shortfall[0] == "dedicated_nics"

    def test_unknown_site(self, federation):
        with pytest.raises(SliceNotFoundError):
            federation.allocator.allocate(request(site="NOWHERE"))

    def test_delete_unknown_slice(self, federation):
        with pytest.raises(SliceNotFoundError):
            federation.allocator.delete("ghost")

    def test_delete_idempotent(self, federation):
        live = federation.allocator.allocate(request())
        federation.allocator.delete(live.name)
        federation.allocator.delete(live.name)  # no error

    def test_vm_ports_granted(self, federation):
        live = federation.allocator.allocate(request())
        vm = live.vm("n0")
        assert len(vm.nic_ports) == 2  # dual-port dedicated NIC


class TestLatency:
    def test_allocation_charges_time(self, federation):
        start = federation.sim.now
        federation.allocator.allocate(request())
        assert federation.sim.now > start

    def test_large_slices_cost_superlinear(self, federation):
        allocator = federation.allocator
        small = allocator.allocation_latency(request(nodes=1))
        big = allocator.allocation_latency(request(nodes=4))
        # 4x slivers must cost more than 4x the marginal latency.
        assert (big - allocator.BASE_LATENCY) > 4 * (small - allocator.BASE_LATENCY)

    def test_failed_allocation_still_costs_base_latency(self, federation):
        free = federation.site("STAR").available_resources().dedicated_nics
        start = federation.sim.now
        with pytest.raises(InsufficientResourcesError):
            federation.allocator.allocate(request(nics=free + 1))
        assert federation.sim.now >= start + federation.allocator.BASE_LATENCY


class TestFaults:
    def test_outage_window_fails_allocation(self):
        faults = FaultInjector()
        federation = FederationBuilder(seed=42).build(
            site_names=["STAR", "MICH"], faults=faults)
        faults.add_outage(0.0, 1000.0, reason="maintenance")
        with pytest.raises(TransientBackendError):
            federation.allocator.allocate(request())

    def test_outage_scoped_to_sites(self):
        faults = FaultInjector()
        federation = FederationBuilder(seed=42).build(
            site_names=["STAR", "MICH"], faults=faults)
        faults.add_outage(0.0, 1e6, sites={"MICH"})
        federation.allocator.allocate(request(site="STAR"))  # unaffected
        with pytest.raises(TransientBackendError):
            federation.allocator.allocate(request(site="MICH"))

    def test_allocation_succeeds_after_outage(self):
        faults = FaultInjector()
        federation = FederationBuilder(seed=42).build(
            site_names=["STAR", "MICH"], faults=faults)
        faults.add_outage(0.0, 10.0)
        federation.sim.run(until=11.0)
        live = federation.allocator.allocate(request())
        assert live.active


class TestRollback:
    def test_partial_failure_rolls_back(self, federation):
        """If placement fails mid-way, nothing stays allocated."""
        site = federation.site("STAR")
        free_nics = site.available_resources().dedicated_nics
        before = site.available_resources()
        # First node fits; the second node's NIC demand cannot be met,
        # but aggregate admission passes only when totals fit -- so use
        # a shape where aggregate fits but per-worker placement fails:
        # one node requesting more contiguous cores than any worker has.
        workers_cores = max(w.capacity.cores for w in site.workers)
        bad = SliceRequest(site="STAR", nodes=[
            NodeRequest(name="ok", dedicated_nics=0),
            NodeRequest(name="huge", cores=workers_cores + 1, dedicated_nics=0),
        ], name="bad")
        total = site.available_resources()
        if bad.resource_vector().fits_within(total):
            with pytest.raises(InsufficientResourcesError):
                federation.allocator.allocate(bad)
            assert site.available_resources() == before

    def test_slice_request_scaled_down(self):
        req = request(nodes=3)
        smaller = req.scaled_down()
        assert len(smaller.nodes) == 2
        assert smaller.site == req.site
        assert request(nodes=1).scaled_down() is None

    def test_sliver_count(self):
        req = SliceRequest(site="STAR", nodes=[
            NodeRequest(name="a", dedicated_nics=1, fpga_nics=1),
            NodeRequest(name="b", dedicated_nics=0, shared_nic_ports=2),
        ], name="exp")
        # a: vm + nic + fpga = 3; b: vm + 2 vf = 3.
        assert req.sliver_count() == 6
