"""Integration tests: dynamic scaling inside a running instance."""

import numpy as np
import pytest

from repro.core.config import PatchworkConfig, SamplingPlan
from repro.core.instance import PatchworkInstance
from repro.core.scaling import ScalingController
from repro.core.status import RunOutcome
from repro.telemetry import MFlib, SNMPPoller
from repro.testbed import FederationBuilder, TestbedAPI
from repro.traffic.workloads import TrafficOrchestrator


def run_to_completion(federation, instance):
    instance.start()
    deadline = federation.sim.now + 20_000
    while not instance.finished and federation.sim.now < deadline:
        if not federation.sim.step():
            break
    return instance


@pytest.fixture()
def world(tmp_path):
    federation = FederationBuilder(seed=42).build(site_names=["STAR", "MICH"])
    api = TestbedAPI(federation)
    poller = SNMPPoller(federation, interval=5.0)
    poller.start()
    orchestrator = TrafficOrchestrator(federation, seed=7, scale=0.02)
    orchestrator.setup()
    orchestrator.generate_window(0.0, 400.0)
    config = PatchworkConfig(
        output_dir=tmp_path,
        plan=SamplingPlan(sample_duration=2, sample_interval=10,
                          samples_per_run=1, runs_per_cycle=1, cycles=4),
        desired_instances=1,
    )
    return federation, api, poller, config


class TestInstanceScaling:
    def test_instance_grows_when_port_rich(self, world):
        federation, api, poller, config = world
        controller = ScalingController(api, ports_per_slot_threshold=2.0,
                                       max_extra_nodes=2)
        instance = PatchworkInstance(
            api=api, mflib=MFlib(poller.store), config=config, site="STAR",
            label="pw-star",
            poller=poller, rng=np.random.default_rng(0), scaling=controller)
        run_to_completion(federation, instance)
        assert instance.result.outcome is RunOutcome.SUCCESS
        assert controller.grows >= 1
        assert instance.log.of_kind("scaling")
        # Later cycles sample with more slots than the first.
        slots_by_cycle = {}
        for sample in instance.result.samples:
            slots_by_cycle.setdefault(sample.cycle, set()).add(sample.slot)
        assert max(len(v) for v in slots_by_cycle.values()) > \
            len(slots_by_cycle[0])

    def test_all_resources_returned_after_scaled_run(self, world):
        federation, api, poller, config = world
        before = api.available_resources("STAR")
        controller = ScalingController(api, ports_per_slot_threshold=2.0)
        instance = PatchworkInstance(
            api=api, mflib=MFlib(poller.store), config=config, site="STAR",
            label="pw-star",
            poller=poller, rng=np.random.default_rng(0), scaling=controller)
        run_to_completion(federation, instance)
        assert api.available_resources("STAR") == before

    def test_no_scaling_without_controller(self, world):
        federation, api, poller, config = world
        instance = PatchworkInstance(
            api=api, mflib=MFlib(poller.store), config=config, site="STAR",
            label="pw-star",
            poller=poller, rng=np.random.default_rng(0))
        run_to_completion(federation, instance)
        assert instance.log.of_kind("scaling") == []
