"""Ablation: dynamic resource scaling (future-work feature, Section 6.3).

Runs one Patchwork instance on a port-rich site with and without the
dynamic-scaling controller.  With scaling, the instance grows extra
listening nodes mid-run when NICs are free, covering more ports per
cycle; everything is still yielded back at teardown.
"""

import numpy as np

from repro.core.config import PatchworkConfig, SamplingPlan
from repro.core.instance import PatchworkInstance
from repro.core.scaling import ScalingController
from repro.core.status import RunOutcome
from repro.telemetry import MFlib, SNMPPoller
from repro.testbed import FederationBuilder, TestbedAPI
from repro.traffic.workloads import TrafficOrchestrator
from repro.util.tables import Table


def run_instance(tmp_path, with_scaling):
    federation = FederationBuilder(seed=42).build(site_names=["STAR", "MICH"])
    api = TestbedAPI(federation)
    poller = SNMPPoller(federation, interval=5.0)
    poller.start()
    orchestrator = TrafficOrchestrator(federation, seed=7, scale=0.02)
    orchestrator.setup()
    orchestrator.generate_window(0.0, 400.0)
    config = PatchworkConfig(
        output_dir=tmp_path / ("scaled" if with_scaling else "fixed"),
        plan=SamplingPlan(sample_duration=2, sample_interval=10,
                          samples_per_run=1, runs_per_cycle=1, cycles=4),
        desired_instances=1,
    )
    controller = (ScalingController(api, ports_per_slot_threshold=2.0,
                                    max_extra_nodes=2)
                  if with_scaling else None)
    instance = PatchworkInstance(
        api=api, mflib=MFlib(poller.store), config=config, site="STAR",
        label="pw-star",
        poller=poller, rng=np.random.default_rng(0), scaling=controller)
    instance.start()
    while not instance.finished and federation.sim.step():
        pass
    leftovers = api.available_resources("STAR")
    return instance, controller, leftovers, federation


def test_ablation_scaling(benchmark, tmp_path):
    def run():
        fixed, _none, fixed_left, fed_a = run_instance(tmp_path, False)
        scaled, controller, scaled_left, fed_b = run_instance(tmp_path, True)
        return fixed, scaled, controller, fixed_left, scaled_left, fed_a, fed_b

    (fixed, scaled, controller, fixed_left, scaled_left,
     fed_a, fed_b) = benchmark.pedantic(run, rounds=1, iterations=1)

    def ports_covered(instance):
        return len({s.mirrored_port for s in instance.result.samples})

    table = Table(["variant", "outcome", "samples", "ports_covered", "grows"],
                  title="Dynamic scaling ablation (4 cycles, 1 initial node)")
    table.add_row(["fixed", fixed.result.outcome.value,
                   len(fixed.result.samples), ports_covered(fixed), 0])
    table.add_row(["scaled", scaled.result.outcome.value,
                   len(scaled.result.samples), ports_covered(scaled),
                   controller.grows])
    print("\n" + table.render())

    assert fixed.result.outcome is RunOutcome.SUCCESS
    assert scaled.result.outcome is RunOutcome.SUCCESS
    assert controller.grows >= 1
    # Growth translates into strictly more samples and port coverage.
    assert len(scaled.result.samples) > len(fixed.result.samples)
    assert ports_covered(scaled) >= ports_covered(fixed)
    # Nothing leaks: both variants return the site to its full inventory.
    assert fixed_left == scaled_left
