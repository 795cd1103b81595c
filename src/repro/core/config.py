"""Patchwork configuration (requirement R5: tunable fidelity).

"The user sets the duration of each sample, number of samples in each
run, and the number of runs between cycles.  The user also configures
packet truncation size and capture pre-processing" (Section 6.2.2).
The defaults here are the paper's production settings: 20-second
samples taken at 5-minute intervals, 200-byte truncation, tcpdump as
the default capture method.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional, Sequence

from repro.capture.session import CaptureMethod

FrameTransform = Callable[[bytes], bytes]


@dataclass(frozen=True)
class SamplingPlan:
    """Timing structure of a profile: cycles > runs > samples.

    A *run* is ``samples_per_run`` samples of ``sample_duration``
    seconds, ``sample_interval`` seconds apart.  After
    ``runs_per_cycle`` runs, the instance cycles its mirrors to new
    ports.  ``cycles`` bounds the whole profiling session.
    """

    sample_duration: float = 20.0
    sample_interval: float = 300.0
    samples_per_run: int = 3
    runs_per_cycle: int = 1
    cycles: int = 2

    def __post_init__(self) -> None:
        if self.sample_duration <= 0:
            raise ValueError("sample_duration must be positive")
        if self.sample_interval < self.sample_duration:
            raise ValueError("sample_interval must cover the sample itself")
        if min(self.samples_per_run, self.runs_per_cycle, self.cycles) < 1:
            raise ValueError("samples/runs/cycles must be at least 1")

    @property
    def total_samples(self) -> int:
        return self.samples_per_run * self.runs_per_cycle * self.cycles

    @property
    def approximate_duration(self) -> float:
        """Rough wall-clock length of the sampling phase."""
        return self.total_samples * self.sample_interval


@dataclass(frozen=True)
class RecoveryConfig:
    """Fault-recovery knobs (all layers; disabled by default).

    With ``enabled`` False the system behaves like the paper's original
    Patchwork: transient failures are retried a couple of times at
    essentially the same instant, a watchdog trip loses the site, and
    failed sites stay failed for the occasion -- the behaviour behind
    Fig 10's ~20 % failure share.  Enabling recovery turns on:

    * jittered exponential retries with a sim-time deadline budget and
      a per-site circuit breaker on every control-plane mutation
      (:mod:`repro.core.retry`),
    * a bounded restart of the sampling loop after a watchdog trip
      (salvaging already-written samples; outcome ``DEGRADED``), and
    * one coordinator-level re-dispatch of failed sites within the
      occasion budget.
    """

    enabled: bool = False
    # Control-plane retry policy (see repro.core.retry.RetryPolicy).
    retry_attempts: int = 5
    retry_base_delay: float = 15.0
    retry_max_delay: float = 240.0
    retry_jitter: float = 0.5
    retry_deadline: float = 900.0
    # Per-site circuit breaker.
    breaker_threshold: int = 5
    breaker_cooldown: float = 120.0
    # Instance-level recovery.
    restart_limit: int = 1
    restart_delay: float = 30.0
    # Coordinator-level recovery.
    redispatch_limit: int = 1

    def __post_init__(self) -> None:
        if self.retry_attempts < 1:
            raise ValueError("retry_attempts must be at least 1")
        if self.restart_limit < 0 or self.redispatch_limit < 0:
            raise ValueError("recovery limits cannot be negative")


@dataclass(frozen=True)
class TelemetryConfig:
    """Streaming-telemetry knobs (:mod:`repro.telemetry.query`).

    Disabled by default: the paper's Patchwork only has the SNMP poller.
    Enabling turns on (a) the two standing switch-side queries shipping
    a sketch report every ``window`` seconds, (b) INT-style in-band
    stamping of mirrored clones, and (c) the sketch/in-band congestion
    detectors scored alongside the SNMP verdict on every sample ledger.
    ``seed`` feeds the sketch hash derivation (campaign seed in
    practice) so reports are byte-identical across runs and shard-worker
    counts.
    """

    enabled: bool = False
    window: float = 1.0              # tumbling-window period (seconds)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.window <= 0:
            raise ValueError("telemetry window must be positive")


@dataclass
class PatchworkConfig:
    """Everything a user chooses before starting Patchwork."""

    # Where captures and logs land (per-site subdirectories are created).
    output_dir: Path = field(default_factory=lambda: Path("patchwork-out"))
    # all-experiment mode profiles everything; single-experiment mode is
    # restricted to ports of one slice (set ``slice_name``).
    all_experiment: bool = True
    slice_name: Optional[str] = None
    # Sites to profile; None means every site (all-experiment mode).
    sites: Optional[Sequence[str]] = None
    plan: SamplingPlan = field(default_factory=SamplingPlan)
    # Capture knobs.
    capture_method: CaptureMethod = CaptureMethod.TCPDUMP
    snaplen: int = 200
    # Prefixed onto every pcap file name.  Durable campaigns set
    # "o<occasion>_" so pcaps from different occasions sharing one
    # captures directory keep globally unique, content-addressable names
    # (the audit keys samples by "<site>/<pcap name>").
    pcap_prefix: str = ""
    transform: Optional[FrameTransform] = None
    # Port selection: "busiest-bias" (default), "fixed", "uplinks", "all".
    selector: str = "busiest-bias"
    selector_n: int = 4          # the n of "1/n other non-idle port"
    fixed_ports: Sequence[str] = ()
    idle_threshold_bps: float = 1_000.0
    # Resource acquisition.
    desired_instances: int = 2   # listening nodes requested per site
    max_backoffs: int = 4
    transient_retries: int = 2
    # Base delay between transient-error retries during acquisition
    # (jittered; spent as sim time so retries can outlast an outage).
    transient_retry_delay: float = 5.0
    # Telemetry window used for busiest/idle ranking (seconds).
    telemetry_window: float = 600.0
    # Streaming telemetry: query operators, in-band stamping, detectors.
    telemetry: TelemetryConfig = field(default_factory=TelemetryConfig)
    # Fault recovery (off by default: the paper's original behaviour).
    recovery: RecoveryConfig = field(default_factory=RecoveryConfig)

    def __post_init__(self) -> None:
        self.output_dir = Path(self.output_dir)
        if self.snaplen <= 0:
            raise ValueError("snaplen must be positive")
        if self.desired_instances < 1:
            raise ValueError("need at least one instance")
        if self.transient_retry_delay < 0:
            raise ValueError("transient_retry_delay cannot be negative")
        if not self.all_experiment and not self.slice_name:
            raise ValueError("single-experiment mode needs a slice name")
