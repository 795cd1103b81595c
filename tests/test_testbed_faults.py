"""Tests for control-plane fault injection (outage windows and
scheduled mid-run faults)."""

import pytest

from repro.telemetry.snmp import SNMPPoller
from repro.testbed.errors import TransientBackendError, is_retryable
from repro.testbed.faults import FaultInjector, OutageWindow
from repro.testbed.slice_model import NodeRequest, SliceRequest


def request(site, nodes=1):
    return SliceRequest(
        site=site,
        nodes=[NodeRequest(name=f"listener{i}") for i in range(nodes)],
        name="exp",
    )


class TestOutageWindow:
    def test_start_inclusive_end_exclusive(self):
        window = OutageWindow(10.0, 20.0)
        assert window.covers(10.0, "STAR")
        assert window.covers(19.999, "STAR")
        assert not window.covers(20.0, "STAR")
        assert not window.covers(9.999, "STAR")

    def test_global_window_covers_every_site(self):
        window = OutageWindow(0.0, 5.0)
        assert window.covers(1.0, "STAR")
        assert window.covers(1.0, "anything")

    def test_site_scoped_window(self):
        window = OutageWindow(0.0, 5.0, sites={"STAR", "MICH"})
        assert window.covers(1.0, "STAR")
        assert window.covers(1.0, "MICH")
        assert not window.covers(1.0, "UTAH")

    def test_overlapping_windows_first_reason_wins(self):
        faults = FaultInjector()
        faults.add_outage(0.0, 10.0, reason="incident A")
        faults.add_outage(5.0, 15.0, reason="incident B")
        assert faults.failure_reason(7.0, "STAR") == "incident A"
        assert faults.failure_reason(12.0, "STAR") == "incident B"
        assert faults.failure_reason(20.0, "STAR") is None

    def test_add_outage_validation(self):
        faults = FaultInjector()
        with pytest.raises(ValueError):
            faults.add_outage(10.0, 10.0)
        with pytest.raises(ValueError):
            faults.add_outage(10.0, 5.0)

    def test_injected_failures_counted(self):
        faults = FaultInjector()
        faults.add_outage(0.0, 10.0)
        faults.failure_reason(1.0, "STAR")
        faults.failure_reason(2.0, "STAR")
        faults.failure_reason(99.0, "STAR")
        assert faults.injected_failures == 2

    def test_transient_errors_are_retryable(self):
        exc = TransientBackendError("STAR: incident")
        assert is_retryable(exc)
        assert not is_retryable(ValueError("nope"))


class TestScheduledVmDeath:
    def test_vm_vanishes_from_worker_but_not_slice(self, api):
        live = api.create_slice(request("STAR", nodes=2))
        sim = api.federation.sim
        fault = api.federation.faults.schedule_vm_death(
            sim, live, sim.now + 10.0)
        sim.run(until=sim.now + 20.0)
        assert fault.fired
        assert fault.outcome.startswith("killed")
        hosted = [vm for vm in live.vms.values() if vm.name in vm.worker.vms]
        assert len(live.vms) == 2       # still listed in the slice
        assert len(hosted) == 1          # but one host lost it
        assert api.federation.faults.mid_run_faults_fired == 1

    def test_named_victim(self, api):
        live = api.create_slice(request("STAR", nodes=2))
        sim = api.federation.sim
        fault = api.federation.faults.schedule_vm_death(
            sim, live, sim.now + 5.0, vm_name="listener1")
        sim.run(until=sim.now + 10.0)
        assert "listener1" in fault.outcome
        vm = live.vm("listener0")
        assert vm.name in vm.worker.vms

    def test_noop_when_slice_deleted_first(self, api):
        live = api.create_slice(request("STAR"))
        sim = api.federation.sim
        fault = api.federation.faults.schedule_vm_death(
            sim, live, sim.now + 10.0)
        api.delete_slice(live.name)
        sim.run(until=sim.now + 20.0)
        assert fault.fired
        assert fault.outcome == "no-op"
        assert api.federation.faults.mid_run_faults_fired == 0

    def test_delete_slice_tolerates_dead_vm(self, api):
        live = api.create_slice(request("STAR", nodes=2))
        sim = api.federation.sim
        api.federation.faults.schedule_vm_death(sim, live, sim.now + 5.0)
        sim.run(until=sim.now + 10.0)
        api.delete_slice(live.name)   # must not raise
        assert live.deleted

    def test_cannot_schedule_in_the_past(self, api):
        live = api.create_slice(request("STAR"))
        sim = api.federation.sim
        sim.run(until=100.0)
        with pytest.raises(ValueError):
            api.federation.faults.schedule_vm_death(sim, live, 50.0)


class TestScheduledMirrorDrop:
    def _mirrored(self, api):
        live = api.create_slice(request("STAR"))
        dest = api.switch_port_for_nic_port(
            "STAR", live.vm("listener0").nic_ports[0])
        source = next(pid for pid, kind in api.list_switch_ports("STAR")
                      if kind == "downlink" and pid != dest)
        session = api.create_port_mirror(live, source, dest)
        return live, source, session

    def test_session_dropped(self, api):
        live, source, _session = self._mirrored(api)
        sim = api.federation.sim
        switch = api.federation.site("STAR").switch
        fault = api.federation.faults.schedule_mirror_drop(
            sim, "STAR", switch, sim.now + 5.0)
        sim.run(until=sim.now + 10.0)
        assert fault.outcome == f"dropped mirror on {source}"
        assert source not in switch.mirrors

    def test_noop_when_nothing_mirrored(self, api):
        sim = api.federation.sim
        switch = api.federation.site("STAR").switch
        fault = api.federation.faults.schedule_mirror_drop(
            sim, "STAR", switch, sim.now + 5.0)
        sim.run(until=sim.now + 10.0)
        assert fault.outcome == "no-op"

    def test_retarget_heals_dropped_session(self, api):
        live, source, session = self._mirrored(api)
        sim = api.federation.sim
        switch = api.federation.site("STAR").switch
        api.federation.faults.schedule_mirror_drop(
            sim, "STAR", switch, sim.now + 5.0, source_port_id=source)
        sim.run(until=sim.now + 10.0)
        assert source not in switch.mirrors
        new_source = next(
            pid for pid, kind in api.list_switch_ports("STAR")
            if kind == "downlink"
            and pid not in (source, session.dest_port_id))
        healed = api.retarget_port_mirror(live, session, new_source)
        assert healed.source_port_id == new_source
        assert new_source in switch.mirrors

    def test_delete_dropped_session_is_noop(self, api):
        live, source, session = self._mirrored(api)
        sim = api.federation.sim
        switch = api.federation.site("STAR").switch
        api.federation.faults.schedule_mirror_drop(
            sim, "STAR", switch, sim.now + 5.0, source_port_id=source)
        sim.run(until=sim.now + 10.0)
        api.delete_port_mirror(live, session)   # must not raise
        assert session not in live.mirror_sessions


class TestScheduledPollerOutage:
    def test_poller_silenced_and_restored(self, federation):
        poller = SNMPPoller(federation, interval=10.0)
        poller.start()
        sim = federation.sim
        fault = federation.faults.schedule_poller_outage(
            sim, poller, start=20.0, duration=50.0)
        sim.run(until=30.0)
        assert fault.fired
        assert not poller.running
        sim.run(until=100.0)
        assert poller.running

    def test_duration_validation(self, federation):
        poller = SNMPPoller(federation, interval=10.0)
        with pytest.raises(ValueError):
            federation.faults.schedule_poller_outage(
                federation.sim, poller, start=0.0, duration=0.0)


class TestIdempotentTeardown:
    def test_double_delete_slice(self, api):
        live = api.create_slice(request("STAR"))
        api.delete_slice(live.name)
        api.delete_slice(live.name)   # no KeyError, no state change
        assert live.deleted

    def test_double_delete_mirror(self, api):
        live = api.create_slice(request("STAR"))
        dest = api.switch_port_for_nic_port(
            "STAR", live.vm("listener0").nic_ports[0])
        source = next(pid for pid, kind in api.list_switch_ports("STAR")
                      if kind == "downlink" and pid != dest)
        session = api.create_port_mirror(live, source, dest)
        api.delete_port_mirror(live, session)
        api.delete_port_mirror(live, session)   # idempotent
        assert live.mirror_sessions == []

    def test_teardown_respects_outage_windows(self, api):
        live = api.create_slice(request("STAR"))
        sim = api.federation.sim
        api.federation.faults.add_outage(sim.now, sim.now + 100.0,
                                         sites={"STAR"})
        with pytest.raises(TransientBackendError):
            api.delete_slice(live.name)
        sim.run(until=sim.now + 200.0)
        api.delete_slice(live.name)
        assert live.deleted
