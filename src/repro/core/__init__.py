"""Patchwork: the paper's primary contribution.

Patchwork is a network profiler that runs *as an experiment* on the
testbed it profiles.  The package mirrors the paper's Section 6 design:

* :mod:`repro.core.config` -- user-tunable fidelity knobs (R5): sample
  duration, samples per run, runs between cycles, truncation size,
  capture method, pre-processing.
* :mod:`repro.core.coordinator` -- the out-of-testbed coordinator that
  configures and starts Patchwork at every chosen site, later gathers
  compressed results, and yields resources back (Fig 7's workflow).
* :mod:`repro.core.instance` -- one site's profiling instance: a slice
  with a listening VM + dedicated NIC, port mirrors, capture sessions,
  and the port-cycling loop.
* :mod:`repro.core.backoff` -- iterative back-off during resource
  acquisition (R1/A2): scale the request down one NIC+VM at a time.
* :mod:`repro.core.cycling` -- port-selection heuristics, including the
  default "busiest-port bias, 1/n other non-idle port".
* :mod:`repro.core.congestion` -- switch congestion inference from
  telemetry (R3): Mirrored(Tx) + Mirrored(Rx) vs. the mirror port rate.
* :mod:`repro.core.watchdog` -- detects successful and unsuccessful
  termination (e.g. storage exhaustion).
* :mod:`repro.core.retry` -- the fault-recovery layer's control-plane
  client: sim-time jittered retries with attempt/deadline budgets and a
  per-site circuit breaker wrapped around :class:`TestbedAPI`.
* :mod:`repro.core.status` / :mod:`repro.core.logs` -- run outcomes
  (Fig 10's Success / Degraded / Failed / Incomplete) and instance logs.
* :mod:`repro.core.gather` -- the gathering phase: per-site compressed
  archives with checksum manifests (Section 6.2.3).
* :mod:`repro.core.scaling` / :mod:`repro.core.sharing` -- the paper's
  Section-6.3 future-work features, implemented: a dynamic-scaling
  controller (grow/nice-down at cycle boundaries) and a mirror-port
  lease scheduler that lets multiple users share one mirrored port.
"""

from repro.core.config import (PatchworkConfig, RecoveryConfig, SamplingPlan,
                               TelemetryConfig)
from repro.core.status import (RunOutcome, RunRecord, publish_outcomes,
                               recovery_summary)
from repro.core.retry import (
    BreakerState,
    CircuitBreaker,
    CircuitOpenError,
    ResilientAPI,
    RetryPolicy,
    RetryStats,
)
from repro.core.logs import InstanceLog, LogEvent
from repro.core.cycling import (
    AllPortsSelector,
    BusiestBiasSelector,
    FixedPortsSelector,
    PortSelector,
    SelectionContext,
    UplinksOnlySelector,
    make_selector,
)
from repro.core.backoff import AcquisitionResult, acquire_with_backoff
from repro.core.congestion import CongestionDetector, CongestionVerdict
from repro.core.instance import InstanceResult, PatchworkInstance
from repro.core.watchdog import Watchdog
from repro.core.coordinator import Coordinator, ProfileBundle
from repro.core.scaling import ScalingAction, ScalingController, ScalingDecision
from repro.core.sharing import MirrorLease, MirrorScheduler
from repro.core.gather import (
    GatheredSite,
    extract_archive,
    gather_bundle,
    gather_site,
    verify_archive,
)
from repro.core.checkpoint import (
    CampaignCheckpointer,
    CampaignLog,
    CheckpointStore,
    WalCorruptionError,
    describe_run,
    list_runs,
)
from repro.core.campaign import (
    CampaignManifest,
    CampaignRunner,
    CampaignSummary,
    resume_campaign,
)

__all__ = [
    "PatchworkConfig",
    "RecoveryConfig",
    "SamplingPlan",
    "TelemetryConfig",
    "RunOutcome",
    "RunRecord",
    "recovery_summary",
    "BreakerState",
    "CircuitBreaker",
    "CircuitOpenError",
    "ResilientAPI",
    "RetryPolicy",
    "RetryStats",
    "InstanceLog",
    "LogEvent",
    "AllPortsSelector",
    "BusiestBiasSelector",
    "FixedPortsSelector",
    "PortSelector",
    "SelectionContext",
    "UplinksOnlySelector",
    "make_selector",
    "AcquisitionResult",
    "acquire_with_backoff",
    "CongestionDetector",
    "CongestionVerdict",
    "InstanceResult",
    "PatchworkInstance",
    "Watchdog",
    "Coordinator",
    "ProfileBundle",
    "ScalingAction",
    "ScalingController",
    "ScalingDecision",
    "MirrorLease",
    "MirrorScheduler",
    "GatheredSite",
    "extract_archive",
    "gather_bundle",
    "gather_site",
    "verify_archive",
    "CampaignCheckpointer",
    "CampaignLog",
    "CheckpointStore",
    "WalCorruptionError",
    "describe_run",
    "list_runs",
    "CampaignManifest",
    "CampaignRunner",
    "CampaignSummary",
    "resume_campaign",
]
