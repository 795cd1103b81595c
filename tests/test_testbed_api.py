"""Tests for the TestbedAPI facade (Patchwork's only window on FABRIC)."""

import pytest

from repro.testbed.errors import TransientBackendError
from repro.testbed.slice_model import NodeRequest, SliceRequest


def patchwork_request(site):
    return SliceRequest(site=site, nodes=[NodeRequest(name="listener")],
                        name=f"patchwork-{site}")


class TestDiscovery:
    def test_list_sites_sorted(self, api):
        sites = api.list_sites()
        assert sites == sorted(sites)
        assert len(sites) == 4

    def test_available_resources(self, api):
        res = api.available_resources("STAR")
        assert res.cores > 0 and res.dedicated_nics >= 2

    def test_list_switch_ports_kinds(self, api):
        kinds = {kind for _pid, kind in api.list_switch_ports("STAR")}
        assert kinds == {"downlink", "uplink"}

    def test_port_rate(self, api):
        pid, _kind = api.list_switch_ports("STAR")[0]
        assert api.port_rate_bps("STAR", pid) == 100e9


class TestTime:
    def test_wait_advances(self, api):
        t0 = api.now
        api.wait(5.0)
        assert api.now == t0 + 5.0

    def test_wait_rejects_negative(self, api):
        with pytest.raises(ValueError):
            api.wait(-1.0)


class TestSlicesAndMirrors:
    def test_slice_lifecycle(self, api):
        live = api.create_slice(patchwork_request("STAR"))
        vm = live.vm("listener")
        assert len(vm.nic_ports) == 2
        api.delete_slice(live.name)
        assert live.deleted

    def test_mirror_lifecycle(self, api):
        live = api.create_slice(patchwork_request("STAR"))
        dest = api.switch_port_for_nic_port("STAR", live.vm("listener").nic_ports[0])
        source = next(pid for pid, kind in api.list_switch_ports("STAR")
                      if kind == "downlink" and pid != dest)
        session = api.create_port_mirror(live, source, dest)
        assert session in live.mirror_sessions
        api.delete_port_mirror(live, session)
        assert live.mirror_sessions == []

    def test_retarget(self, api):
        live = api.create_slice(patchwork_request("STAR"))
        dest = api.switch_port_for_nic_port("STAR", live.vm("listener").nic_ports[0])
        ports = [pid for pid, kind in api.list_switch_ports("STAR")
                 if kind == "downlink" and pid != dest]
        session = api.create_port_mirror(live, ports[0], dest)
        new = api.retarget_port_mirror(live, session, ports[1])
        assert new.source_port_id == ports[1]
        assert new in live.mirror_sessions
        assert session not in live.mirror_sessions

    def test_slice_delete_removes_mirrors(self, api):
        live = api.create_slice(patchwork_request("STAR"))
        dest = api.switch_port_for_nic_port("STAR", live.vm("listener").nic_ports[0])
        source = next(pid for pid, kind in api.list_switch_ports("STAR")
                      if kind == "downlink" and pid != dest)
        api.create_port_mirror(live, source, dest)
        api.delete_slice(live.name)
        assert source not in api.federation.site("STAR").switch.mirrors

    def test_mirror_during_outage_fails(self, api):
        live = api.create_slice(patchwork_request("STAR"))
        api.federation.faults.add_outage(api.now, api.now + 1000.0)
        dest = api.switch_port_for_nic_port("STAR", live.vm("listener").nic_ports[0])
        source = next(pid for pid, kind in api.list_switch_ports("STAR")
                      if kind == "downlink" and pid != dest)
        with pytest.raises(TransientBackendError):
            api.create_port_mirror(live, source, dest)

    def test_simulate_allocation(self, api):
        assert api.simulate_allocation(patchwork_request("STAR")) is None
        big = SliceRequest(site="STAR", nodes=[
            NodeRequest(name=f"n{i}") for i in range(50)], name="big")
        assert api.simulate_allocation(big) is not None
