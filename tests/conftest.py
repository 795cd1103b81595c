"""Shared fixtures.

The expensive fixtures (a federation with live traffic, a completed
Patchwork profile) are session-scoped so the whole suite pays for them
once; tests that need to mutate state build their own small worlds.
"""

from __future__ import annotations


import pytest

from repro.core import Coordinator, PatchworkConfig, SamplingPlan
from repro.telemetry import MFlib, SNMPPoller
from repro.testbed import FederationBuilder, TestbedAPI
from repro.traffic.workloads import TrafficOrchestrator

SMALL_SITES = ["STAR", "MICH", "UTAH", "TACC"]


@pytest.fixture()
def federation():
    """A fresh four-site federation (function-scoped: mutate freely)."""
    return FederationBuilder(seed=42).build(site_names=SMALL_SITES)


@pytest.fixture()
def api(federation):
    return TestbedAPI(federation)


@pytest.fixture()
def poller(federation):
    p = SNMPPoller(federation, interval=10.0)
    p.start()
    return p


@pytest.fixture()
def mflib(poller):
    return MFlib(poller.store)


@pytest.fixture(scope="session")
def profiled_bundle_and_pipeline(tmp_path_factory):
    """One completed Patchwork profile over live traffic, plus analysis.

    Session-scoped: several integration tests read from it.
    """
    from repro.analysis import AnalysisPipeline

    fed = FederationBuilder(seed=42).build(site_names=SMALL_SITES)
    api = TestbedAPI(fed)
    poller = SNMPPoller(fed, interval=15.0)
    poller.start()
    orch = TrafficOrchestrator(fed, seed=7, scale=0.05)
    orch.setup()
    for window in range(3):
        orch.generate_window(window * 100.0, 100.0)
    out = tmp_path_factory.mktemp("profile")
    config = PatchworkConfig(
        output_dir=out,
        plan=SamplingPlan(sample_duration=5, sample_interval=30,
                          samples_per_run=2, runs_per_cycle=1, cycles=2),
        desired_instances=2,
    )
    coordinator = Coordinator(api, config, poller=poller)
    bundle = coordinator.run_profile()
    pipeline = AnalysisPipeline()
    report = pipeline.run(bundle.pcap_paths)
    return bundle, pipeline, report
