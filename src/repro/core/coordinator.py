"""The Patchwork coordinator (Fig 7).

The coordinator runs *outside* the testbed.  It (1) decides which sites
to profile and with what configuration, (2) starts an independent
Patchwork instance at each site, (3) lets the instances sample and
cycle on their own (no inter-instance coordination, per R3), then
(4) gathers each instance's captures and logs into a
:class:`ProfileBundle` and (5) yields all testbed resources back.

One ``run_profile()`` call is one *occasion* in the paper's terms --
the unit of Fig 10's success/degraded/failed/incomplete accounting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence


from repro.core.config import PatchworkConfig
from repro.core.instance import InstanceResult, PatchworkInstance
from repro.core.status import RunOutcome, RunRecord, publish_outcomes
from repro.obs import get_obs
from repro.obs.ledger import (
    CongestionScorecard,
    DetectorScorecard,
    detector_scorecards_from_ledgers,
    scorecard_from_ledgers,
)
from repro.telemetry.mflib import MFlib
from repro.telemetry.snmp import SNMPPoller
from repro.testbed.api import TestbedAPI
from repro.util.rng import SeedSequenceFactory


@dataclass
class ProfileBundle:
    """The gathered output of one profiling occasion."""

    started_at: float
    finished_at: float
    results: Dict[str, InstanceResult] = field(default_factory=dict)
    # Sites whose failed first attempt was re-dispatched this occasion.
    redispatches: int = 0
    # Per-site congestion-detector scorecards (verdict vs ground-truth
    # mirror-egress drops from the conservation ledger).
    scorecards: Dict[str, CongestionScorecard] = field(default_factory=dict)
    # Per-site, per-detector scorecards with latency/bytes axes; only
    # populated when the run carried streaming-telemetry readings.
    detector_scorecards: Dict[str, Dict[str, DetectorScorecard]] = \
        field(default_factory=dict)

    @property
    def scorecard(self) -> CongestionScorecard:
        """All sites merged into one confusion matrix."""
        merged = CongestionScorecard()
        for site in sorted(self.scorecards):
            merged.merge(self.scorecards[site])
        return merged

    def merged_detector_scorecards(self) -> Dict[str, DetectorScorecard]:
        """All sites merged, keyed by detector name."""
        merged: Dict[str, DetectorScorecard] = {}
        for site in sorted(self.detector_scorecards):
            for name in sorted(self.detector_scorecards[site]):
                merged.setdefault(name, DetectorScorecard()).merge(
                    self.detector_scorecards[site][name])
        return merged

    @property
    def ledgers(self) -> List:
        """Every conservation ledger row this occasion produced."""
        rows = []
        for site in sorted(self.results):
            for record in self.results[site].samples:
                if record.ledger is not None:
                    rows.append(record.ledger)
        return rows

    @property
    def run_records(self) -> List[RunRecord]:
        """Fig 10 rows: one record per site."""
        records = []
        for site, result in sorted(self.results.items()):
            acquisition = result.acquisition
            records.append(RunRecord(
                site=site,
                started_at=self.started_at,
                outcome=result.outcome,
                reason=result.abort_reason or (
                    acquisition.failure_reason if acquisition else ""
                ),
                backoffs=acquisition.backoffs if acquisition else 0,
                instances=acquisition.granted_nodes if acquisition else 0,
                samples_taken=len(result.samples),
                pcap_files=len(result.pcap_paths),
                retries=result.retries,
                breaker_opens=result.breaker_opens,
                restarts=result.restarts,
                recovered=result.recovered,
                redispatched=result.redispatched,
            ))
        return records

    @property
    def pcap_paths(self) -> List[Path]:
        paths: List[Path] = []
        for result in self.results.values():
            paths.extend(result.pcap_paths)
        return sorted(paths)

    def write_logs(self, out_dir: "str | Path") -> List[Path]:
        """Persist every instance log (the gather step's log half)."""
        out_dir = Path(out_dir)
        written = []
        for site, result in sorted(self.results.items()):
            if result.log is None:
                continue
            written.append(result.log.write_to(out_dir / site / "instance.log"))
        return written

    def outcome_counts(self) -> Dict[RunOutcome, int]:
        counts = {outcome: 0 for outcome in RunOutcome}
        for result in self.results.values():
            counts[result.outcome] += 1
        return counts


class Coordinator:
    """Runs profiling occasions over a federation."""

    def __init__(
        self,
        api: TestbedAPI,
        config: PatchworkConfig,
        poller: Optional[SNMPPoller] = None,
        seed: int = 5,
        checkpointer=None,
    ):
        self.api = api
        self.config = config
        self.poller = poller or SNMPPoller(api.federation)
        self.mflib = MFlib(self.poller.store)
        self.seeds = SeedSequenceFactory(seed)
        self.occasions_run = 0
        # Durable campaign layer (repro.core.checkpoint): when set, the
        # coordinator journals sample-level progress into the campaign
        # WAL and skips occasions the WAL already shows committed.
        self.checkpointer = checkpointer
        self._current_occasion: Optional[int] = None
        # The all-sites ("*") scorecard row.  A shard worker profiles a
        # single site, so its "overall" row would just duplicate the
        # per-site row once per shard in the merged journal; sharded
        # runs disable it and derive fleet totals from per-site rows.
        self.emit_overall_scorecard = True

    def target_sites(self) -> List[str]:
        """Sites this occasion will profile."""
        if self.config.sites is not None:
            return list(self.config.sites)
        return self.api.list_sites()

    def run_profile(
        self,
        crash_probability: float = 0.0,
        deadline_margin: float = 3.0,
        stagger: float = 5.0,
    ) -> Optional[ProfileBundle]:
        """Run one occasion across the target sites and gather results.

        ``crash_probability`` is the per-watchdog-check chance of an
        injected instance crash (reproducing the paper's "Incomplete"
        class).  ``stagger`` spaces instance start-ups so site
        acquisitions do not pile onto the allocator at one instant.
        """
        sim = self.api.federation.sim
        obs = get_obs()
        started_at = sim.now
        occasion = self.occasions_run
        if (self.checkpointer is not None
                and self.checkpointer.occasion_committed(occasion)):
            # Resume: this occasion already committed durably; its
            # artifacts were verified by the campaign runner.
            self.occasions_run += 1
            return None
        self.occasions_run += 1
        self._current_occasion = occasion
        sites = self.target_sites()
        obs.registry.counter("coordinator.occasions",
                             help="profiling occasions run").inc()
        # The occasion span stays open (and current) while the simulator
        # drives the instances, so every span started from a simulator
        # callback -- instance lifetimes, selection rounds, capture
        # sessions -- parents under it.
        with obs.tracer.span("occasion", occasion=occasion,
                             sites=list(sites)):
            instances = [
                self._make_instance(site, f"occasion{occasion}/{site}",
                                    crash_probability)
                for site in sites
            ]
            for i, instance in enumerate(instances):
                sim.schedule(i * stagger, instance.start)
            # The sampling phase is bounded; give stragglers headroom, then
            # run until every instance reports done.  One budget covers the
            # whole occasion, including any recovery re-dispatch wave.
            budget = (
                len(instances) * stagger
                + self.config.plan.approximate_duration * deadline_margin
                + 600.0
            )
            deadline = sim.now + budget
            self._run_wave(sim, instances, deadline)
            bundle = ProfileBundle(started_at=started_at, finished_at=sim.now)
            for instance in instances:
                bundle.results[instance.site] = instance.result
            self._redispatch_failed(sim, bundle, occasion, crash_probability,
                                    stagger, deadline)
            bundle.finished_at = sim.now
            obs.registry.counter(
                "coordinator.redispatches",
                help="failed-site re-dispatch attempts").inc(bundle.redispatches)
            self._score_detector(bundle, obs)
            publish_outcomes(bundle.run_records, t=sim.now)
        obs.snapshot_to_journal()
        return bundle

    def _score_detector(self, bundle: ProfileBundle, obs) -> None:
        """Judge every sample's CongestionVerdict against ledger truth."""
        for site in sorted(bundle.results):
            rows = [record.ledger
                    for record in bundle.results[site].samples
                    if record.ledger is not None]
            if not rows:
                continue
            card = scorecard_from_ledgers(rows)
            bundle.scorecards[site] = card
            obs.journal.emit("scorecard", site=site, **card.to_dict())
            # Three-way detector comparison: only when rows carry
            # streaming-telemetry readings, so telemetry-off journals
            # stay byte-identical to pre-telemetry builds.
            if any(row.detectors for row in rows):
                cards = detector_scorecards_from_ledgers(rows)
                bundle.detector_scorecards[site] = cards
                for name in sorted(cards):
                    obs.journal.emit("detector-scorecard", site=site,
                                     detector=name, **cards[name].to_dict())
        if bundle.scorecards:
            overall = bundle.scorecard
            if self.emit_overall_scorecard:
                obs.journal.emit("scorecard", site="*", **overall.to_dict())
                merged = bundle.merged_detector_scorecards()
                for name in sorted(merged):
                    obs.journal.emit("detector-scorecard", site="*",
                                     detector=name, **merged[name].to_dict())
            registry = obs.registry
            registry.counter(
                "scorecard.true_positives",
                help="congestion verdicts confirmed by ledger truth").inc(
                overall.tp)
            registry.counter(
                "scorecard.false_positives",
                help="congestion verdicts refuted by ledger truth").inc(
                overall.fp)
            registry.counter(
                "scorecard.false_negatives",
                help="mirror overloads the detector missed").inc(overall.fn)
            registry.counter(
                "scorecard.true_negatives",
                help="clean samples correctly called clean").inc(overall.tn)
            registry.counter(
                "scorecard.unanswerable",
                help="samples with no verdict to judge").inc(
                overall.unanswerable)

    def _make_instance(
        self, site: str, rng_label: str, crash_probability: float
    ) -> PatchworkInstance:
        return PatchworkInstance(
            api=self.api,
            mflib=self.mflib,
            config=self.config,
            site=site,
            poller=self.poller,
            rng=self.seeds.rng(rng_label),
            crash_probability=crash_probability,
            # Deterministic identity: the label names the instance, so
            # journals from two runs of the same seeded scenario are
            # byte-identical.
            label=rng_label,
            on_sample=self._on_sample if self.checkpointer else None,
        )

    def _on_sample(self, instance: PatchworkInstance, record) -> None:
        """Journal one completed sample into the campaign WAL."""
        sim = self.api.federation.sim
        self.checkpointer.record_sample(
            self._current_occasion, instance.site, record, t=sim.now)

    def _run_wave(
        self,
        sim,
        instances: Sequence[PatchworkInstance],
        deadline: float,
    ) -> None:
        """Drive the simulator until every instance finishes or time runs out."""
        while sim.now < deadline and not all(inst.finished for inst in instances):
            if not sim.step():
                break
        for instance in instances:
            if not instance.finished:
                instance.abort("coordinator deadline reached")

    def _redispatch_failed(
        self,
        sim,
        bundle: ProfileBundle,
        occasion: int,
        crash_probability: float,
        stagger: float,
        deadline: float,
    ) -> None:
        """Give FAILED sites one fresh attempt inside the occasion budget.

        Part of the recovery layer: a site whose first attempt failed
        outright (acquisition never completed) gets a brand-new instance
        while budget remains.  The retry result replaces the original
        only if it actually profiled the site; either way the record is
        flagged ``redispatched`` so the accounting stays visible.
        """
        recovery = self.config.recovery
        if not recovery.enabled or recovery.redispatch_limit < 1:
            return
        failed = sorted(
            site for site, result in bundle.results.items()
            if result.outcome is RunOutcome.FAILED
        )
        if not failed or sim.now >= deadline:
            return
        retries = [
            self._make_instance(site, f"occasion{occasion}/{site}/retry",
                                crash_probability)
            for site in failed
        ]
        for i, instance in enumerate(retries):
            sim.schedule(i * stagger, instance.start)
        self._run_wave(sim, retries, deadline)
        for instance in retries:
            result = instance.result
            bundle.redispatches += 1
            if result.outcome in (RunOutcome.SUCCESS, RunOutcome.DEGRADED):
                result.redispatched = True
                bundle.results[instance.site] = result
            else:
                bundle.results[instance.site].redispatched = True
