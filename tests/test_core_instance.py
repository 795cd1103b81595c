"""Tests for the per-site Patchwork instance."""

import numpy as np
import pytest

from repro.core.config import PatchworkConfig, SamplingPlan
from repro.core.instance import PatchworkInstance
from repro.core.status import RunOutcome
from repro.telemetry import MFlib, SNMPPoller
from repro.testbed import FederationBuilder, TestbedAPI
from repro.testbed.slice_model import NodeRequest, SliceRequest
from repro.traffic.workloads import TrafficOrchestrator


def small_plan(**overrides):
    defaults = dict(sample_duration=2, sample_interval=10, samples_per_run=2,
                    runs_per_cycle=1, cycles=2)
    defaults.update(overrides)
    return SamplingPlan(**defaults)


@pytest.fixture()
def world(tmp_path):
    federation = FederationBuilder(seed=42).build(site_names=["STAR", "MICH"])
    api = TestbedAPI(federation)
    poller = SNMPPoller(federation, interval=5.0)
    poller.start()
    orchestrator = TrafficOrchestrator(federation, seed=7, scale=0.02)
    orchestrator.setup()
    orchestrator.generate_window(0.0, 250.0)
    config = PatchworkConfig(output_dir=tmp_path, plan=small_plan(),
                             desired_instances=2)
    return federation, api, poller, config


def run_instance(federation, api, poller, config, site="STAR", **kwargs):
    instance = PatchworkInstance(
        api=api, mflib=MFlib(poller.store), config=config, site=site,
        label=f"pw-{site}", poller=poller, rng=np.random.default_rng(0),
        **kwargs)
    instance.start()
    deadline = federation.sim.now + 10_000
    while not instance.finished and federation.sim.now < deadline:
        if not federation.sim.step():
            break
    return instance


class TestSuccessPath:
    def test_full_run_succeeds(self, world):
        federation, api, poller, config = world
        instance = run_instance(federation, api, poller, config)
        result = instance.result
        assert result.outcome is RunOutcome.SUCCESS
        # 2 cycles x 1 run x 2 samples x 4 slots (2 NICs x 2 ports).
        assert len(result.samples) == 16
        assert result.log is not None

    def test_pcaps_written(self, world):
        federation, api, poller, config = world
        instance = run_instance(federation, api, poller, config)
        paths = instance.result.pcap_paths
        assert len(paths) == 16
        assert all(p.exists() for p in paths)
        assert any(p.stat().st_size > 24 for p in paths)

    def test_resources_returned_after_run(self, world):
        federation, api, poller, config = world
        before = api.available_resources("STAR")
        run_instance(federation, api, poller, config)
        after = api.available_resources("STAR")
        assert after == before

    def test_mirrors_cleaned_up(self, world):
        federation, api, poller, config = world
        run_instance(federation, api, poller, config)
        assert federation.site("STAR").switch.mirrors == {}

    def test_port_cycling_changes_ports(self, world, tmp_path):
        # The round-robin selector guarantees the mirrors move between
        # cycles (busiest-bias may legitimately revisit a small pool of
        # busy ports; its rotation rules are unit-tested separately).
        federation, api, poller, _config = world
        config = PatchworkConfig(output_dir=tmp_path / "cycle",
                                 plan=small_plan(), desired_instances=2,
                                 selector="all")
        instance = run_instance(federation, api, poller, config)
        by_cycle = {}
        for sample in instance.result.samples:
            by_cycle.setdefault(sample.cycle, set()).add(sample.mirrored_port)
        assert len(by_cycle) == 2
        assert by_cycle[0] != by_cycle[1]

    def test_busiest_bias_targets_busy_ports(self, world):
        """With working telemetry, the default heuristic points mirrors
        at ports that actually carry traffic."""
        federation, api, poller, config = world
        instance = run_instance(federation, api, poller, config)
        assert instance.result.bytes_captured > 0
        seen_ports = {s.mirrored_port for s in instance.result.samples}
        busy = {r.port_id for r in instance.mflib.busiest_ports(
            "STAR", federation.sim.now - 600, federation.sim.now)
            if r.total_bps > 1000}
        assert seen_ports & busy

    def test_congestion_checked_each_sample(self, world):
        federation, api, poller, config = world
        instance = run_instance(federation, api, poller, config)
        assert all(s.congestion is not None for s in instance.result.samples)

    def test_samples_capture_traffic(self, world):
        federation, api, poller, config = world
        instance = run_instance(federation, api, poller, config)
        assert instance.result.bytes_captured > 0


class TestDegradedAndFailed:
    def drain(self, api, site, leave):
        free = api.available_resources(site).dedicated_nics
        take = int(free) - leave
        if take > 0:
            api.create_slice(SliceRequest(site=site, nodes=[
                NodeRequest(name=f"u{i}") for i in range(take)],
                name=f"drain-{site}"))

    def test_degraded_on_shortage(self, world):
        federation, api, poller, config = world
        self.drain(api, "STAR", leave=1)
        instance = run_instance(federation, api, poller, config)
        assert instance.result.outcome is RunOutcome.DEGRADED
        assert instance.acquisition.backoffs == 1
        # Degraded still profiles: 2 slots instead of 4.
        assert len(instance.result.samples) == 8

    def test_failed_when_no_nics(self, world):
        federation, api, poller, config = world
        self.drain(api, "STAR", leave=0)
        instance = run_instance(federation, api, poller, config)
        assert instance.result.outcome is RunOutcome.FAILED
        assert instance.result.samples == []

    def test_failed_on_outage(self, world):
        federation, api, poller, config = world
        federation.faults.add_outage(federation.sim.now,
                                     federation.sim.now + 1e6)
        instance = run_instance(federation, api, poller, config)
        assert instance.result.outcome is RunOutcome.FAILED

    def test_crash_gives_incomplete(self, world):
        federation, api, poller, config = world
        instance = run_instance(federation, api, poller, config,
                                crash_probability=1.0)
        assert instance.result.outcome is RunOutcome.INCOMPLETE
        # Resources are still yielded back on crash.
        assert federation.site("STAR").switch.mirrors == {}

    def test_abort_is_idempotent(self, world):
        federation, api, poller, config = world
        instance = run_instance(federation, api, poller, config)
        instance.abort("late abort")  # already finished: no effect
        assert instance.result.outcome is RunOutcome.SUCCESS


class TestSelectors:
    def test_uplinks_only_selector(self, world, tmp_path):
        federation, api, poller, _config = world
        config = PatchworkConfig(output_dir=tmp_path / "up", plan=small_plan(),
                                 desired_instances=1, selector="uplinks")
        instance = run_instance(federation, api, poller, config)
        uplinks = {p.port_id for p in federation.site("STAR").switch.uplinks()}
        assert instance.result.samples
        assert all(s.mirrored_port in uplinks for s in instance.result.samples)

    def test_fixed_selector(self, world, tmp_path):
        federation, api, poller, _config = world
        # Target a shared-NIC port: dedicated-NIC ports may become the
        # instance's own mirror destinations (and are then ineligible).
        site = federation.site("STAR")
        target = site.switch_port_for(site.shared_nics[0].ports[0])
        config = PatchworkConfig(output_dir=tmp_path / "fx", plan=small_plan(),
                                 desired_instances=1, selector="fixed",
                                 fixed_ports=[target])
        instance = run_instance(federation, api, poller, config)
        assert instance.result.samples
        assert all(s.mirrored_port == target for s in instance.result.samples)

    def test_on_done_callback(self, world):
        federation, api, poller, config = world
        done = []
        instance = PatchworkInstance(
            api=api, mflib=MFlib(poller.store), config=config, site="STAR",
            label="pw-star", poller=poller, rng=np.random.default_rng(0),
            on_done=lambda inst: done.append(inst.site))
        instance.start()
        while not instance.finished and federation.sim.step():
            pass
        assert done == ["STAR"]
