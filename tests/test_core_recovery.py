"""End-to-end tests for the fault-recovery layer: resilient control
plane, instance restart, and coordinator re-dispatch."""

import pytest

from repro.core import (
    Coordinator,
    PatchworkConfig,
    RecoveryConfig,
    SamplingPlan,
    recovery_summary,
)
from repro.core.instance import PatchworkInstance
from repro.core.retry import ResilientAPI
from repro.core.status import RunOutcome
from repro.telemetry import SNMPPoller
from repro.testbed import FederationBuilder, TestbedAPI
from repro.traffic.workloads import TrafficOrchestrator

pytestmark = pytest.mark.slow

SITES = ["STAR", "MICH", "UTAH"]


def small_plan():
    return SamplingPlan(sample_duration=2, sample_interval=10,
                        samples_per_run=2, runs_per_cycle=1, cycles=2)


def build_world(tmp_path, recovery, instances=1):
    federation = FederationBuilder(seed=42).build(site_names=SITES)
    api = TestbedAPI(federation)
    poller = SNMPPoller(federation, interval=20.0)
    poller.start()
    orchestrator = TrafficOrchestrator(federation, seed=7, scale=0.02)
    orchestrator.setup()
    orchestrator.generate_window(0.0, 120.0)
    config = PatchworkConfig(output_dir=tmp_path, plan=small_plan(),
                             desired_instances=instances, recovery=recovery)
    return federation, api, poller, config


class TestRetryThroughOutage:
    def test_recovery_off_fails_recovery_on_profiles(self, tmp_path):
        outcomes = {}
        for enabled in (False, True):
            federation, api, poller, config = build_world(
                tmp_path / str(enabled), RecoveryConfig(enabled=enabled))
            federation.faults.add_outage(0.0, 300.0, reason="incident",
                                         sites={"STAR"})
            coordinator = Coordinator(api, config, poller=poller)
            bundle = coordinator.run_profile()
            outcomes[enabled] = bundle.results["STAR"]
        assert outcomes[False].outcome is RunOutcome.FAILED
        assert outcomes[False].retries == 0
        recovered = outcomes[True]
        assert recovered.outcome in (RunOutcome.SUCCESS, RunOutcome.DEGRADED)
        assert recovered.retries > 0

    def test_retry_delays_are_jittered_sim_time(self, tmp_path):
        federation, api, poller, config = build_world(
            tmp_path, RecoveryConfig(enabled=True))
        federation.faults.add_outage(0.0, 300.0, reason="incident",
                                     sites={"STAR"})
        coordinator = Coordinator(api, config, poller=poller)
        bundle = coordinator.run_profile()
        log = bundle.results["STAR"].log
        retry_times = [e.time for e in log.events
                       if e.kind == "retry" and "retrying" in e.message]
        assert len(retry_times) >= 2
        # No two consecutive retries at the same sim timestamp.
        assert all(b > a for a, b in zip(retry_times, retry_times[1:]))
        # Each retry logged its jittered delay.
        delays = [e.data["delay"] for e in log.events
                  if e.kind == "retry" and "retrying" in e.message]
        assert len(set(delays)) == len(delays)

    def test_instance_wraps_api_once(self, tmp_path):
        _federation, api, poller, config = build_world(
            tmp_path, RecoveryConfig(enabled=True))
        coordinator = Coordinator(api, config, poller=poller)
        instance = PatchworkInstance(
            api=ResilientAPI(api), mflib=coordinator.mflib, config=config,
            site="STAR", label="x", poller=poller,
            rng=coordinator.seeds.rng("x"))
        assert isinstance(instance.api, ResilientAPI)
        assert not isinstance(instance.api.inner, ResilientAPI)


class TestInstanceRestart:
    def _run_with_vm_death(self, tmp_path, instances, restart_limit=1):
        federation, api, poller, config = build_world(
            tmp_path, RecoveryConfig(enabled=True, restart_limit=restart_limit),
            instances=instances)
        sim = federation.sim
        coordinator = Coordinator(api, config, poller=poller)
        instance = PatchworkInstance(
            api=api, mflib=coordinator.mflib, config=config, site="STAR",
            label="occasion0/STAR", poller=poller,
            rng=coordinator.seeds.rng("occasion0/STAR"))
        sim.schedule(0.0, instance.start)

        def arm_kill():
            acq = instance.acquisition
            if instance.finished:
                return
            if acq is not None and acq.live_slice is not None:
                federation.faults.schedule_vm_death(
                    sim, acq.live_slice, sim.now + 1.0)
            else:
                sim.schedule(5.0, arm_kill)

        sim.schedule(5.0, arm_kill)
        sim.run(until=2500.0)
        assert instance.finished
        return federation, instance.result

    def test_vm_death_restarts_and_degrades(self, tmp_path):
        federation, result = self._run_with_vm_death(tmp_path, instances=2)
        assert federation.faults.mid_run_faults_fired == 1
        assert result.restarts == 1
        assert result.recovered
        assert result.outcome is RunOutcome.DEGRADED
        assert len(result.samples) > 0
        assert len(result.pcap_paths) > 0

    def test_lone_vm_death_aborts_but_salvages(self, tmp_path):
        _federation, result = self._run_with_vm_death(tmp_path, instances=1)
        # Every slot died with the only VM: nothing to restart onto.
        assert result.outcome is RunOutcome.INCOMPLETE
        assert "no usable slots" in result.abort_reason
        # abort still gathered the partial pcaps and the log.
        assert len(result.pcap_paths) > 0
        assert result.log is not None

    def test_restart_limit_zero_aborts(self, tmp_path):
        _federation, result = self._run_with_vm_death(
            tmp_path, instances=2, restart_limit=0)
        assert result.outcome is RunOutcome.INCOMPLETE
        assert result.restarts == 0

    def test_storage_exhaustion_never_restarts(self, tmp_path):
        federation, api, poller, config = build_world(
            tmp_path, RecoveryConfig(enabled=True))
        config.plan = SamplingPlan(sample_duration=2, sample_interval=10,
                                   samples_per_run=4, runs_per_cycle=2,
                                   cycles=2)
        coordinator = Coordinator(api, config, poller=poller)
        instance = PatchworkInstance(
            api=api, mflib=coordinator.mflib, config=config, site="STAR",
            label="occasion0/STAR", poller=poller,
            rng=coordinator.seeds.rng("occasion0/STAR"))
        sim = federation.sim
        sim.schedule(0.0, instance.start)

        def shrink_quota():
            if instance._watchdog is not None:
                instance._watchdog.disk_quota_bytes = 1.0
            elif not instance.finished:
                sim.schedule(5.0, shrink_quota)

        sim.schedule(5.0, shrink_quota)
        sim.run(until=2500.0)
        result = instance.result
        assert result.outcome is RunOutcome.INCOMPLETE
        assert "storage" in result.abort_reason
        assert result.restarts == 0


class TestCoordinatorRedispatch:
    def test_failed_site_redispatched_and_recovers(self, tmp_path):
        federation, api, poller, config = build_world(
            tmp_path, RecoveryConfig(enabled=True, retry_attempts=2,
                                     retry_base_delay=5.0, retry_max_delay=10.0,
                                     retry_deadline=30.0))
        federation.faults.add_outage(0.0, 160.0, reason="long incident",
                                     sites={"MICH"})
        coordinator = Coordinator(api, config, poller=poller)
        bundle = coordinator.run_profile()
        result = bundle.results["MICH"]
        assert bundle.redispatches == 1
        assert result.redispatched
        assert result.outcome in (RunOutcome.SUCCESS, RunOutcome.DEGRADED)
        # The healthy sites were not re-dispatched.
        assert not bundle.results["STAR"].redispatched
        assert not bundle.results["UTAH"].redispatched

    def test_redispatch_flagged_even_when_retry_fails(self, tmp_path):
        federation, api, poller, config = build_world(
            tmp_path, RecoveryConfig(enabled=True, retry_attempts=2,
                                     retry_base_delay=5.0, retry_max_delay=10.0,
                                     retry_deadline=30.0))
        federation.faults.add_outage(0.0, 1e9, reason="permanent incident",
                                     sites={"MICH"})
        coordinator = Coordinator(api, config, poller=poller)
        bundle = coordinator.run_profile()
        result = bundle.results["MICH"]
        assert bundle.redispatches == 1
        assert result.redispatched
        assert result.outcome is RunOutcome.FAILED

    def test_no_redispatch_when_recovery_disabled(self, tmp_path):
        federation, api, poller, config = build_world(
            tmp_path, RecoveryConfig(enabled=False))
        federation.faults.add_outage(0.0, 160.0, sites={"MICH"})
        coordinator = Coordinator(api, config, poller=poller)
        bundle = coordinator.run_profile()
        assert bundle.redispatches == 0
        assert not any(r.redispatched for r in bundle.results.values())


class TestRunRecordAccounting:
    def test_records_carry_recovery_counters(self, tmp_path):
        federation, api, poller, config = build_world(
            tmp_path, RecoveryConfig(enabled=True))
        federation.faults.add_outage(0.0, 300.0, sites={"STAR"})
        coordinator = Coordinator(api, config, poller=poller)
        bundle = coordinator.run_profile()
        by_site = {r.site: r for r in bundle.run_records}
        assert by_site["STAR"].retries > 0
        assert by_site["MICH"].retries == 0
        summary = recovery_summary(bundle.run_records)
        assert summary["retries"] == by_site["STAR"].retries
        assert summary["redispatched_runs"] == 0

    def test_disabled_recovery_keeps_counters_zero(self, tmp_path):
        _federation, api, poller, config = build_world(
            tmp_path, RecoveryConfig(enabled=False))
        coordinator = Coordinator(api, config, poller=poller)
        bundle = coordinator.run_profile()
        summary = recovery_summary(bundle.run_records)
        assert all(v == 0 for v in summary.values())
