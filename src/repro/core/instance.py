"""One site's Patchwork profiling instance (Fig 7, Fig 8).

An instance owns a slice at its site (listening VMs + dedicated NICs),
creates port mirrors toward its NIC ports, and runs the sampling loop:

    for each cycle:            # ports change here (port cycling)
        select ports, point the mirrors at them
        for each run:
            for each sample:
                capture sample_duration seconds on every slot
                congestion-check the mirrored ports via telemetry

Each dedicated NIC contributes two mirror *slots* (it is dual-port).
Everything is event-driven on the shared simulator so instances at
different sites genuinely run concurrently, like the real system's
independent per-site instances (finding A1).

With ``config.recovery.enabled`` the instance becomes self-healing:
its control-plane calls go through a :class:`~repro.core.retry.ResilientAPI`
(jittered retries + per-site circuit breaker), and a watchdog trip
triggers a *bounded restart* of the sampling loop that salvages
already-written samples and pcaps -- the run ends ``DEGRADED`` instead
of ``INCOMPLETE`` when the restart succeeds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.capture.session import CaptureSession, CaptureStats
from repro.core.backoff import AcquisitionResult, acquire_with_backoff
from repro.core.config import PatchworkConfig
from repro.core.congestion import CongestionDetector, CongestionVerdict
from repro.core.cycling import PortSelector, SelectionContext, make_selector
from repro.core.logs import InstanceLog
from repro.core.retry import ResilientAPI, RetryPolicy
from repro.core.scaling import ScalingAction, ScalingController
from repro.core.status import RunOutcome
from repro.core.watchdog import Watchdog
from repro.obs import get_obs
from repro.obs.ledger import LedgerRecorder, SampleLedger
from repro.util.rng import derive_rng
from repro.telemetry.mflib import MFlib
from repro.telemetry.query import (
    InbandCongestionDetector,
    IntStamper,
    QueryRuntime,
    SketchCongestionDetector,
    SketchReport,
    snmp_reading,
)
from repro.telemetry.snmp import SNMPPoller, walk_bytes
from repro.testbed.api import TestbedAPI
from repro.testbed.errors import MirrorConflictError, TestbedError
from repro.testbed.nic import NicPort
from repro.testbed.switch import MirrorSession


@dataclass
class SampleRecord:
    """One completed sample on one slot."""

    cycle: int
    run: int
    sample: int
    slot: int
    mirrored_port: str
    pcap_path: Optional[Path]
    stats: CaptureStats
    congestion: Optional[CongestionVerdict]
    # Frame-conservation accounting for this sample's capture window.
    ledger: Optional[SampleLedger] = None


@dataclass
class InstanceResult:
    """Everything one instance produced."""

    site: str
    outcome: RunOutcome
    acquisition: Optional[AcquisitionResult]
    samples: List[SampleRecord] = field(default_factory=list)
    log: Optional[InstanceLog] = None
    abort_reason: str = ""
    # Recovery accounting (all zero when recovery is disabled).
    retries: int = 0
    breaker_opens: int = 0
    restarts: int = 0
    recovered: bool = False
    redispatched: bool = False

    @property
    def pcap_paths(self) -> List[Path]:
        return [s.pcap_path for s in self.samples if s.pcap_path is not None]

    @property
    def bytes_captured(self) -> int:
        return sum(s.stats.bytes_captured for s in self.samples)


class _MirrorSlot:
    """One (NIC port, mirror session) pair."""

    def __init__(self, index: int, nic_port: NicPort, dest_port_id: str, rate_bps: float):
        self.index = index
        self.nic_port = nic_port
        self.dest_port_id = dest_port_id
        self.rate_bps = rate_bps
        self.session: Optional[MirrorSession] = None
        self.current_source: Optional[str] = None
        self.capture: Optional[CaptureSession] = None
        self.open_ledger = None  # conservation window for the live capture


class PatchworkInstance:
    """The per-site profiler."""

    def __init__(
        self,
        api: TestbedAPI,
        mflib: MFlib,
        config: PatchworkConfig,
        site: str,
        label: str,
        poller: Optional[SNMPPoller] = None,
        rng: Optional[np.random.Generator] = None,
        crash_probability: float = 0.0,
        on_done: Optional[Callable[["PatchworkInstance"], None]] = None,
        scaling: Optional[ScalingController] = None,
        on_sample: Optional[
            Callable[["PatchworkInstance", SampleRecord], None]] = None,
    ):
        self.mflib = mflib
        self.config = config
        self.site = site
        self.poller = poller
        self.rng = rng if rng is not None \
            else derive_rng(0, "instance/default")
        self.crash_probability = crash_probability
        self.on_done = on_done
        # Sample-level progress hook (the durable campaign layer's WAL
        # row writer): called once per completed or salvaged sample.
        self.on_sample = on_sample
        # The caller's label names the instance (the coordinator passes
        # its occasion/site label), so instance identity, and the slice
        # named after it, depend only on the seeded scenario.
        self.instance_id = label
        self.log = InstanceLog(site, self.instance_id)
        recovery = config.recovery
        if recovery.enabled and not isinstance(api, ResilientAPI):
            api = ResilientAPI(
                api,
                policy=RetryPolicy(
                    max_attempts=recovery.retry_attempts,
                    base_delay=recovery.retry_base_delay,
                    max_delay=recovery.retry_max_delay,
                    jitter=recovery.retry_jitter,
                    deadline=recovery.retry_deadline,
                ),
                breaker_threshold=recovery.breaker_threshold,
                breaker_cooldown=recovery.breaker_cooldown,
                log=self.log,
                rng=self.rng,
            )
        self.api = api
        self.resilient: Optional[ResilientAPI] = \
            api if isinstance(api, ResilientAPI) else None
        self.selector: PortSelector = make_selector(
            config.selector, n=config.selector_n, fixed_ports=config.fixed_ports
        )
        self.detector = CongestionDetector(mflib)
        # Streaming telemetry (repro.telemetry.query): the runtime and
        # stamper are installed in _build_slots once the mirror
        # destinations are known; the two extra detectors are judged on
        # every sample alongside the SNMP verdict.
        self._telemetry_runtime: Optional[QueryRuntime] = None
        self._telemetry_reports: List[SketchReport] = []
        self._poll_snapshot = 0
        if config.telemetry.enabled:
            self._sketch_detector: Optional[SketchCongestionDetector] = \
                SketchCongestionDetector()
            self._inband_detector: Optional[InbandCongestionDetector] = \
                InbandCongestionDetector()
        else:
            self._sketch_detector = None
            self._inband_detector = None
        self.scaling = scaling
        self.acquisition: Optional[AcquisitionResult] = None
        self.result: Optional[InstanceResult] = None
        self.samples: List[SampleRecord] = []
        self._slots: List[_MirrorSlot] = []
        self._extra_slices: List = []  # slices added by dynamic scaling
        self._history: Dict[str, int] = {}
        self._cycle = 0
        self._run = 0
        self._sample = 0
        self._watchdog: Optional[Watchdog] = None
        self._ledgers: Optional[LedgerRecorder] = None
        self._finished = False
        self._obs_span = None  # the instance's trace span (opened in start)
        # Recovery state: the pending sampling-loop event (cancelled on
        # restart), a generation counter that invalidates in-flight loop
        # frames after a restart, and restart accounting.
        self._loop_event = None
        self._epoch = 0
        self._restarts = 0
        self._recovered = False
        # VMs whose death has been acknowledged by a restart: the
        # liveness probe ignores them so one loss trips the watchdog
        # exactly once instead of on every later check.
        self._dead_vms: set = set()

    # -- lifecycle ------------------------------------------------------------

    @property
    def finished(self) -> bool:
        return self._finished

    def start(self) -> None:
        """Run the setup phase and arm the sampling loop."""
        self._obs_span = get_obs().tracer.start_span(
            "instance", site=self.site, instance=self.instance_id)
        self.log.info(self.api.now, "setup", "starting instance",
                      mode="all" if self.config.all_experiment else "single")
        self.acquisition = acquire_with_backoff(
            self.api, self.site, self.config.desired_instances, self.log,
            max_backoffs=self.config.max_backoffs,
            transient_retries=self.config.transient_retries,
            retry_delay=self.config.transient_retry_delay,
            rng=self.rng,
            slice_name=f"patchwork-{self.site}-{self.instance_id}",
        )
        if not self.acquisition.acquired:
            self.log.error(self.api.now, "setup",
                           f"acquisition failed: {self.acquisition.failure_reason}")
            self._finish(RunOutcome.FAILED, self.acquisition.failure_reason)
            return
        self._build_slots()
        if not self._slots:
            self._finish(RunOutcome.FAILED, "no usable NIC ports")
            return
        disk_quota = sum(vm.disk_gb for vm in self.acquisition.live_slice.vms.values()) * 1e9
        self._watchdog = Watchdog(
            sim=self.api.federation.sim,
            log=self.log,
            disk_quota_bytes=disk_quota,
            used_bytes_fn=self._bytes_used,
            on_abort=self._on_watchdog_trip,
            interval=max(1.0, self.config.plan.sample_duration / 2),
            crash_probability_per_check=self.crash_probability,
            rng=self.rng,
            liveness_fn=self._check_liveness,
        )
        self._watchdog.start()
        self._start_cycle()

    def abort(self, reason: str) -> None:
        """Unsuccessful termination (watchdog or external).

        Partial work is still gathered: in-flight captures are stopped
        and salvaged into the sample list, so their pcaps and the
        instance log travel with the result.
        """
        if self._finished:
            return
        self.log.error(self.api.now, "abort", reason)
        self._finish(RunOutcome.INCOMPLETE, reason)

    # -- recovery -------------------------------------------------------------

    def _check_liveness(self) -> Optional[str]:
        """Watchdog probe: are all of the slice's VMs still hosted?"""
        if self.acquisition is None or self.acquisition.live_slice is None:
            return None
        for live in [self.acquisition.live_slice] + list(self._extra_slices):
            if live.deleted:
                continue
            for vm in live.vms.values():
                if vm.name not in vm.worker.vms and vm.name not in self._dead_vms:
                    return f"vm {vm.name} died"
        return None

    def _on_watchdog_trip(self, reason: str) -> None:
        """Recover from a trip when allowed; otherwise abort as before."""
        if self._finished:
            return
        recovery = self.config.recovery
        # Storage exhaustion is not recoverable by restarting: the data
        # that filled the disk is still there.
        recoverable = not reason.startswith("storage")
        if recovery.enabled and recoverable and self._restarts < recovery.restart_limit:
            self._restart(reason)
        else:
            self.abort(reason)

    def _restart(self, reason: str) -> None:
        """Bounded restart of the sampling loop after a watchdog trip."""
        self._restarts += 1
        self._recovered = True
        self._epoch += 1  # invalidate any in-flight loop frame
        self.log.error(self.api.now, "recovery",
                       f"watchdog tripped ({reason}); restarting sampling loop",
                       restart=self._restarts,
                       limit=self.config.recovery.restart_limit)
        if self._loop_event is not None:
            self._loop_event.cancel()
            self._loop_event = None
        self._salvage_captures("recovery")
        self._prune_dead_slots()
        if not self._slots:
            self.abort(f"{reason}; no usable slots after restart")
            return
        self._watchdog.rearm()
        delay = self.config.recovery.restart_delay * (0.75 + 0.5 * self.rng.random())
        self.log.info(self.api.now, "recovery", "sampling loop restart scheduled",
                      delay=round(delay, 3), cycle=self._cycle)
        self._loop_event = self.api.federation.sim.schedule(
            delay, self._start_cycle, self._epoch)

    def _salvage_captures(self, kind: str) -> int:
        """Stop in-flight captures, keeping their pcaps as partial samples."""
        if self._telemetry_runtime is not None:
            # The window ends with the fault; salvaged samples carry no
            # detector readings (the signal was interrupted mid-window).
            self._telemetry_runtime.finalize(self.api.now)
        salvaged = 0
        for slot in self._slots:
            if slot.capture is None:
                continue
            stats = slot.capture.stop()
            slot.capture = None
            ledger = None
            if slot.open_ledger is not None:
                # Salvaged mid-window: clones still in flight will never
                # be collected, so the close charges them (and any
                # mirror-gap frames) to the fault-window cause.
                ledger = slot.open_ledger.close(stats, verdict=None,
                                                aborted=True)
                slot.open_ledger = None
            if slot.current_source is None:
                continue
            record = SampleRecord(
                cycle=self._cycle, run=self._run, sample=self._sample,
                slot=slot.index, mirrored_port=slot.current_source,
                pcap_path=stats.pcap_path, stats=stats, congestion=None,
                ledger=ledger,
            )
            self.samples.append(record)
            if self.on_sample is not None:
                self.on_sample(self, record)
            salvaged += 1
        if salvaged:
            self.log.info(self.api.now, kind, "salvaged partial samples",
                          count=salvaged)
        return salvaged

    def _prune_dead_slots(self) -> None:
        """Drop mirror slots whose backing VM no longer exists."""
        alive_ports = set()
        for live in [self.acquisition.live_slice] + list(self._extra_slices):
            for vm in live.vms.values():
                if vm.name in vm.worker.vms:
                    alive_ports.update(vm.nic_ports)
                else:
                    self._dead_vms.add(vm.name)
        dead = [s for s in self._slots if s.nic_port not in alive_ports]
        if not dead:
            return
        main = self.acquisition.live_slice
        for slot in dead:
            if slot.session is not None:
                try:
                    self.api.delete_port_mirror(main, slot.session)
                except TestbedError:
                    pass
                slot.session = None
        self._slots = [s for s in self._slots if s.nic_port in alive_ports]
        self.log.warning(self.api.now, "recovery", "dropped slots on dead VMs",
                         dropped=len(dead), remaining=len(self._slots))

    # -- setup internals ------------------------------------------------------

    def _build_slots(self) -> None:
        live = self.acquisition.live_slice
        self._ledgers = LedgerRecorder(
            self.api.federation.site(self.site).switch, self.site,
            instance=self.instance_id)
        index = 0
        for vm in live.vms.values():
            for nic_port in vm.nic_ports:
                dest = self.api.switch_port_for_nic_port(self.site, nic_port)
                rate = self.api.port_rate_bps(self.site, dest)
                self._slots.append(_MirrorSlot(index, nic_port, dest, rate))
                index += 1
        self.log.info(self.api.now, "setup", "mirror slots ready",
                      slots=len(self._slots))
        if self.config.telemetry.enabled and self._slots:
            self._install_telemetry()

    def _install_telemetry(self) -> None:
        """Arm the streaming-telemetry subsystem on this site's switch.

        Two standing queries run switch-side against the mirror
        destination Tx channels (where the cloned traffic serializes):

        * ``egress-load`` -- count-min over bytes per egress port, the
          signal the sketch congestion detector thresholds against the
          destination line rate;
        * ``top-talkers`` -- heavy-hitter top-k source MACs by bytes,
          the Sonata-style application query riding the same runtime.

        The INT stamper rides the mirror clone path of the same switch.
        """
        telemetry = self.config.telemetry
        switch = self.api.federation.site(self.site).switch
        switch.int_stamper = IntStamper()
        self._telemetry_runtime = QueryRuntime(
            sim=self.api.federation.sim, site=self.site,
            seed=telemetry.seed, on_report=self._on_telemetry_report,
            window=telemetry.window)
        self._telemetry_runtime.install(
            switch, {slot.dest_port_id for slot in self._slots})
        self.log.info(self.api.now, "setup", "telemetry queries installed",
                      queries=len(self._telemetry_runtime.queries),
                      window=telemetry.window)

    def _on_telemetry_report(self, report: SketchReport) -> None:
        self._telemetry_reports.append(report)
        get_obs().journal.emit("telemetry-report", t=report.window_end,
                               site=self.site, **report.to_event())

    def _eligible_ports(self) -> List[str]:
        """Ports this instance may mirror.

        All-experiment mode: every port except our own mirror
        destinations.  Single-experiment mode: only ports named in
        ``config.fixed_ports`` (the user's slice attachment points).
        """
        ours = {slot.dest_port_id for slot in self._slots}
        ports = [pid for pid, _kind in self.api.list_switch_ports(self.site)
                 if pid not in ours]
        if not self.config.all_experiment:
            allowed = set(self.config.fixed_ports)
            ports = [p for p in ports if p in allowed]
        return ports

    def _bytes_used(self) -> float:
        live_bytes = sum(
            slot.capture.stats.bytes_captured
            for slot in self._slots if slot.capture is not None
        )
        return sum(s.stats.bytes_captured for s in self.samples) + live_bytes

    # -- the sampling loop ------------------------------------------------------

    def _stale(self, epoch: int) -> bool:
        """True if a restart superseded the frame that captured ``epoch``."""
        return self._finished or epoch != self._epoch

    def _start_cycle(self, epoch: Optional[int] = None) -> None:
        if epoch is None:
            epoch = self._epoch
        if self._stale(epoch):
            return
        ctx = SelectionContext(
            site=self.site,
            candidates=self._eligible_ports(),
            uplink_ids=[pid for pid, kind in self.api.list_switch_ports(self.site)
                        if kind == "uplink"],
            mflib=self.mflib,
            now=self.api.now,
            window=self.config.telemetry_window,
            idle_threshold_bps=self.config.idle_threshold_bps,
            cycle_index=self._cycle,
            history=self._history,
            rng=self.rng,
        )
        targets = self.selector.select_instrumented(ctx, slots=len(self._slots))
        if not targets:
            self.log.warning(self.api.now, "cycle", "no ports selected; skipping cycle",
                             cycle=self._cycle)
            self._advance_after_cycle(epoch)
            return
        assignments = list(zip(self._slots, targets))
        # Tear down mirrors that must move first: pointing slot A at a
        # port still mirrored by slot B would otherwise conflict.  If a
        # teardown fails transiently, the old mirror is still live on
        # the switch -- keep the slot pointed at it (and sampling it)
        # rather than losing track of the session.
        live = self.acquisition.live_slice
        blocked = set()
        for slot, port_id in assignments:
            if slot.session is not None and slot.current_source != port_id:
                try:
                    self.api.delete_port_mirror(live, slot.session)
                except TestbedError as exc:
                    self.log.warning(self.api.now, "cycle",
                                     f"mirror teardown failed: {exc}")
                    blocked.add(slot.index)
                    continue
                slot.session = None
                slot.current_source = None
            if self._stale(epoch):
                return
        for slot, port_id in assignments:
            if slot.index in blocked:
                continue
            try:
                self._point_mirror(slot, port_id)
            except (MirrorConflictError, TestbedError) as exc:
                self.log.warning(self.api.now, "cycle",
                                 f"could not mirror {port_id}: {exc}")
                slot.current_source = None
            if self._stale(epoch):
                return
        for port_id in targets:
            self._history[port_id] = self._cycle
        self.log.info(self.api.now, "cycle", "mirrors pointed",
                      cycle=self._cycle, ports=",".join(targets))
        self._run = 0
        self._sample = 0
        self._begin_sample(epoch)

    def _point_mirror(self, slot: _MirrorSlot, port_id: str) -> None:
        live = self.acquisition.live_slice
        if slot.session is None:
            slot.session = self.api.create_port_mirror(live, port_id, slot.dest_port_id)
            slot.current_source = port_id

    def _begin_sample(self, epoch: Optional[int] = None) -> None:
        if epoch is None:
            epoch = self._epoch
        if self._stale(epoch):
            return
        if self.poller is not None:
            self.poller.poll_now()  # fresh rates bracketing the sample
            self._poll_snapshot = self.poller.polls_completed
        start = self.api.now
        for slot in self._slots:
            if slot.current_source is None:
                continue
            pcap = (self.config.output_dir / self.site /
                    f"{self.config.pcap_prefix}"
                    f"c{self._cycle}_r{self._run}_s{self._sample}"
                    f"_slot{slot.index}_{slot.current_source}.pcap")
            slot.capture = CaptureSession(
                sim=self.api.federation.sim,
                nic_port=slot.nic_port,
                pcap_path=pcap,
                method=self.config.capture_method,
                snaplen=self.config.snaplen,
                transform=self.config.transform,
                int_strip=self.config.telemetry.enabled,
            )
            slot.capture.start()
            # Open the conservation window in the same event as the
            # capture subscription: no frame can be delivered between
            # the two, so delivered-in-window == frames the capture saw.
            directions = (slot.session.directions
                          if slot.session is not None else ("rx", "tx"))
            slot.open_ledger = self._ledgers.open(
                mirrored_port=slot.current_source,
                dest_port=slot.dest_port_id,
                directions=directions,
                cycle=self._cycle, run=self._run, sample=self._sample,
                slot=slot.index,
                pcap=f"{self.site}/{pcap.name}",
                method=self.config.capture_method.value,
            )
        if self._telemetry_runtime is not None:
            # Same-event arming: the window clock starts exactly when
            # the captures subscribe, so sketch windows and in-band
            # stamps line up with the ledger window.
            self._telemetry_reports = []
            stamper = self.api.federation.site(self.site).switch.int_stamper
            if stamper is not None:
                stamper.reset()
            self._telemetry_runtime.arm(start)
        self._loop_event = self.api.federation.sim.schedule(
            self.config.plan.sample_duration, self._end_sample, start, epoch
        )

    def _end_sample(self, sample_start: float, epoch: Optional[int] = None) -> None:
        if epoch is None:
            epoch = self._epoch
        if self._stale(epoch):
            return
        if self.poller is not None:
            self.poller.poll_now()
        if self._telemetry_runtime is not None:
            # Force-flush the partial window before judging the sample,
            # so the sketch detector sees evidence up to this instant.
            self._telemetry_runtime.finalize(self.api.now)
        for slot in self._slots:
            if slot.capture is None:
                continue
            capture = slot.capture
            stats = capture.stop()
            verdict = self.detector.check(
                self.site, slot.current_source, slot.rate_bps,
                sample_start, self.api.now, log=self.log,
            )
            detectors = None
            if self._telemetry_runtime is not None:
                detectors = self._detector_readings(
                    slot, capture, stats, verdict, sample_start, self.api.now)
            ledger = None
            if slot.open_ledger is not None:
                ledger = slot.open_ledger.close(
                    stats,
                    verdict=verdict.overloaded if verdict is not None else None,
                    detectors=detectors)
                slot.open_ledger = None
            record = SampleRecord(
                cycle=self._cycle, run=self._run, sample=self._sample,
                slot=slot.index, mirrored_port=slot.current_source,
                pcap_path=stats.pcap_path, stats=stats, congestion=verdict,
                ledger=ledger,
            )
            self.samples.append(record)
            slot.capture = None
            if self.on_sample is not None:
                self.on_sample(self, record)
        self.log.info(self.api.now, "sample", "sample complete",
                      cycle=self._cycle, run=self._run, sample=self._sample)
        self._after_sample_bookkeeping(epoch)

    def _after_sample_bookkeeping(self, epoch: int) -> None:
        """Advance the sample/run/cycle cursors and schedule the next step."""
        self._sample += 1
        plan = self.config.plan
        if self._sample < plan.samples_per_run:
            gap = plan.sample_interval - plan.sample_duration
            self._loop_event = self.api.federation.sim.schedule(
                gap, self._begin_sample, epoch)
            return
        self._sample = 0
        self._run += 1
        if self._run < plan.runs_per_cycle:
            gap = plan.sample_interval - plan.sample_duration
            self._loop_event = self.api.federation.sim.schedule(
                gap, self._begin_sample, epoch)
            return
        self._advance_after_cycle(epoch)

    def _detector_readings(self, slot: _MirrorSlot, capture: CaptureSession,
                           stats: CaptureStats,
                           verdict: Optional[CongestionVerdict],
                           start: float, end: float) -> Dict[str, Dict[str, object]]:
        """Judge all three congestion detectors for one closed sample.

        The SNMP reading reuses the verdict already computed (evidence
        only exists once the bracketing end-of-sample poll lands, so its
        latency is the full window).  The sketch and in-band readings
        come from this sample's reports and peeled stamps.
        """
        readings: Dict[str, Dict[str, object]] = {}
        snmp_bytes = 0
        if self.poller is not None:
            walks = max(0, self.poller.polls_completed - self._poll_snapshot) + 1
            port_count = len(self.api.federation.site(self.site).switch.ports)
            snmp_bytes = walk_bytes(port_count, walks)
        readings["snmp"] = snmp_reading(
            verdict.overloaded if verdict is not None else None,
            end - start, snmp_bytes).to_dict()
        readings["sketch"] = self._sketch_detector.check(
            self._telemetry_reports, slot.dest_port_id, slot.rate_bps,
            start, end).to_dict()
        readings["inband"] = self._inband_detector.check(
            capture.int_stamps, stats.frames_seen, start, end).to_dict()
        return readings

    def _apply_scaling(self) -> None:
        """Consult the dynamic-scaling policy at a cycle boundary."""
        if self.scaling is None or self.acquisition is None or \
                self.acquisition.live_slice is None:
            return
        decision = self.scaling.decide(
            self.site, len(self._eligible_ports()), len(self._slots),
            len(self._extra_slices))
        if decision.action is ScalingAction.GROW:
            extra = self.scaling.grow(
                self.site, self.acquisition.live_slice.name)
            if extra is None:
                self.log.info(self.api.now, "scaling", "grow refused")
                return
            self._extra_slices.append(extra)
            for vm in extra.vms.values():
                for nic_port in vm.nic_ports:
                    dest = self.api.switch_port_for_nic_port(self.site, nic_port)
                    rate = self.api.port_rate_bps(self.site, dest)
                    self._slots.append(_MirrorSlot(len(self._slots), nic_port,
                                                   dest, rate))
            self.log.info(self.api.now, "scaling",
                          f"grew by one node: {decision.reason}",
                          slots=len(self._slots))
        elif decision.action is ScalingAction.SHRINK and self._extra_slices:
            extra = self._extra_slices.pop()
            doomed = {self.api.switch_port_for_nic_port(self.site, p)
                      for vm in extra.vms.values() for p in vm.nic_ports}
            keep = []
            main = self.acquisition.live_slice
            for slot in self._slots:
                if slot.dest_port_id in doomed:
                    if slot.session is not None:
                        try:
                            # Mirror sessions are registered on the main
                            # slice regardless of which node's NIC they
                            # feed.
                            self.api.delete_port_mirror(main, slot.session)
                        except TestbedError:
                            pass
                else:
                    keep.append(slot)
            self._slots = keep
            self.scaling.shrink(extra)
            self.log.info(self.api.now, "scaling",
                          f"shrank by one node: {decision.reason}",
                          slots=len(self._slots))

    def _advance_after_cycle(self, epoch: Optional[int] = None) -> None:
        if epoch is None:
            epoch = self._epoch
        if self._stale(epoch):
            return
        self._cycle += 1
        if self._cycle < self.config.plan.cycles:
            # Scaling decisions only make sense with cycles left to run.
            self._apply_scaling()
            if self._stale(epoch):
                return
        if self._cycle < self.config.plan.cycles:
            gap = self.config.plan.sample_interval - self.config.plan.sample_duration
            self._loop_event = self.api.federation.sim.schedule(
                gap, self._start_cycle, epoch)
            return
        if not self.samples:
            self._finish(RunOutcome.FAILED, "no samples taken")
            return
        degraded = (self.acquisition is not None and self.acquisition.degraded) \
            or self._recovered
        self._finish(RunOutcome.DEGRADED if degraded else RunOutcome.SUCCESS)

    # -- teardown ------------------------------------------------------------

    def _finish(self, outcome: RunOutcome, reason: str = "") -> None:
        if self._finished:
            return
        self._finished = True
        if self._watchdog is not None:
            self._watchdog.stop()
        if self._loop_event is not None:
            self._loop_event.cancel()
            self._loop_event = None
        # Gather partial work even on abort: in-flight pcaps are closed
        # and recorded so they travel with the result.
        self._salvage_captures("teardown")
        if self._telemetry_runtime is not None:
            self._telemetry_runtime.uninstall()
            self._telemetry_runtime = None
            self.api.federation.site(self.site).switch.int_stamper = None
        for extra in self._extra_slices:
            try:
                self.api.delete_slice(extra.name)
            except TestbedError as exc:
                self.log.warning(self.api.now, "teardown",
                                 f"extra-slice delete failed: {exc}")
        self._extra_slices.clear()
        if self.acquisition is not None and self.acquisition.live_slice is not None:
            try:
                self.api.delete_slice(self.acquisition.live_slice.name)
            except TestbedError as exc:
                self.log.warning(self.api.now, "teardown", f"delete failed: {exc}")
        self.log.info(self.api.now, "teardown", "instance finished",
                      outcome=outcome.value, samples=len(self.samples),
                      restarts=self._restarts)
        if self._obs_span is not None:
            self._obs_span.end(outcome=outcome.value,
                               samples=len(self.samples),
                               restarts=self._restarts)
            self._obs_span = None
        stats = self.resilient.stats if self.resilient is not None else None
        self.result = InstanceResult(
            site=self.site,
            outcome=outcome,
            acquisition=self.acquisition,
            samples=self.samples,
            log=self.log,
            abort_reason=reason,
            retries=stats.retries if stats else 0,
            breaker_opens=stats.breaker_opens if stats else 0,
            restarts=self._restarts,
            recovered=self._recovered,
        )
        if self.on_done is not None:
            self.on_done(self)
