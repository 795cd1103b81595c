"""Crash-safe campaigns: durable checkpoint/resume over many occasions.

A campaign is the paper's real workload -- months of profiling occasions
-- and the process driving it *will* die at some point.  This module
makes that survivable with deterministic recovery:

* a :class:`CampaignManifest` pins every knob (seed, sites, plan) so a
  resuming process provably reruns *the same* campaign;
* every occasion derives its RNG streams from ``(seed, label)`` pairs
  (:mod:`repro.util.rng`) recorded in the WAL, so re-running an occasion
  reproduces it byte for byte -- checkpoints never pickle live state;
* the :class:`repro.core.checkpoint.CampaignLog` WAL +
  :class:`repro.core.checkpoint.CheckpointStore` snapshots make occasion
  completion durable (see that module for the commit protocol);
* the final ``journal.jsonl`` is the byte-concatenation of per-occasion
  journal segments, each rebased with ``RunJournal.reseq``, so a resumed
  campaign's journal is **byte-identical** to an uninterrupted one --
  the oracle the chaos harness (:mod:`repro.testbed.chaos`) checks.

Two resume modes:

* **strict** (default): any occasion that is not durably committed --
  including one that crashed mid-run -- is re-run in full from its
  journaled seeds.  Output is byte-identical to never having crashed.
* **salvage** (``--salvage``): the crashed occasion's completed samples
  (the WAL's sample rows) are adopted as a DEGRADED outcome without
  re-running, mirroring the instance watchdog's salvage path.  Faster,
  but explicitly *not* byte-identical to the uninterrupted run.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.checkpoint import (CHECKPOINT_DIR, MANIFEST_NAME, SEGMENT_DIR,
                                   WAL_NAME, CampaignCheckpointer, CampaignLog,
                                   CheckpointStore, RecoveryState,
                                   WalCorruptionError, canonical_json,
                                   sha256_bytes, sha256_file)
from repro.core.config import (PatchworkConfig, RecoveryConfig, SamplingPlan,
                               TelemetryConfig)
from repro.core.status import RunOutcome, RunRecord, success_rate
from repro.util.atomio import (FileIO, atomic_write_bytes, atomic_write_text,
                               sweep_tmp_files)
from repro.util.rng import SeedSequenceFactory

#: Labels of the independent RNG streams derived per occasion.
SEED_STREAMS = ("world", "traffic", "coordinator")


@dataclass(frozen=True)
class CampaignManifest:
    """Everything needed to re-derive a campaign deterministically."""

    seed: int = 42
    sites: Tuple[str, ...] = ("STAR", "MICH", "UTAH", "TACC")
    occasions: int = 3
    traffic_scale: float = 0.05
    sample_duration: float = 5.0
    sample_interval: float = 30.0
    samples_per_run: int = 2
    runs_per_cycle: int = 1
    cycles: int = 2
    desired_instances: int = 2
    snaplen: int = 200
    method: str = "tcpdump"
    crash_probability: float = 0.0
    recovery_enabled: bool = False
    workers: int = 1
    # Output-neutral (DESIGN.md section 6): False only skips the acap cache.
    cache_enabled: bool = True
    # Seconds of traffic to pre-generate per occasion; 0.0 means the
    # conservative formula in ``sharding.run_world`` (plan duration
    # x sites + 600).
    # Small campaigns (the chaos harness) pin a tight span: generating
    # flows the occasion never simulates dominates wall time otherwise.
    traffic_span: float = 0.0
    # Sharded execution: each site's instance runs in its own world
    # (own simulator, own per-site RNG streams, own journal segment)
    # and the per-site segments are merged deterministically.  Part of
    # the manifest -- not a runtime knob -- because it changes seed
    # derivation and therefore the canonical event stream; the *worker
    # count* is the runtime knob (same bytes at any parallelism).
    sharded: bool = False
    # Streaming telemetry: switch-side query operators + in-band
    # stamping + the sketch/in-band congestion detectors.  Manifest
    # state (not a runtime knob) because enabling it changes the
    # canonical event stream.
    telemetry_queries: bool = False
    telemetry_window: float = 1.0
    # Prefix-preserving address anonymization of every captured frame,
    # with the fixed default key so the pcaps stay deterministic.
    anonymize: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "sites", tuple(self.sites))
        if self.occasions < 1:
            raise ValueError("a campaign needs at least one occasion")

    def to_dict(self) -> Dict[str, Any]:
        data = asdict(self)
        data["sites"] = list(self.sites)
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "CampaignManifest":
        return cls(**{**data, "sites": tuple(data["sites"])})

    @property
    def sha256(self) -> str:
        return sha256_bytes((canonical_json(self.to_dict()) + "\n")
                            .encode("utf-8"))

    def plan(self) -> SamplingPlan:
        return SamplingPlan(
            sample_duration=self.sample_duration,
            sample_interval=self.sample_interval,
            samples_per_run=self.samples_per_run,
            runs_per_cycle=self.runs_per_cycle,
            cycles=self.cycles)

    def occasion_seeds(self, occasion: int) -> Dict[str, int]:
        """Derive this occasion's independent RNG stream seeds.

        Stateless: ``(campaign seed, occasion, stream label)`` fully
        determines each value, so a resuming process re-derives exactly
        what the crashed process journaled (and ``begin_occasion``
        cross-checks the two).
        """
        factory = SeedSequenceFactory(self.seed)
        return {stream: factory.integer(f"occasion{occasion}/{stream}",
                                        0, 2 ** 31)
                for stream in SEED_STREAMS}

    def shard_seeds(self, occasion: int, site: str) -> Dict[str, int]:
        """Derive one shard's independent RNG stream seeds.

        The factory child is keyed by the site label, so a shard's
        streams depend only on ``(campaign seed, site, occasion,
        stream)`` -- independent of worker count, scheduling order, or
        process start method (fork vs spawn), which is what makes the
        merged output byte-identical at any parallelism.
        """
        factory = SeedSequenceFactory(self.seed).child(f"site/{site}")
        return {stream: factory.integer(f"occasion{occasion}/{stream}",
                                        0, 2 ** 31)
                for stream in SEED_STREAMS}

    def occasion_shard_seeds(self, occasion: int) -> Dict[str, Dict[str, int]]:
        """All shard seeds of one occasion, keyed by site."""
        return {site: self.shard_seeds(occasion, site)
                for site in self.sites}


def occasion_config(manifest: CampaignManifest, occasion: int,
                    run_dir: Union[str, Path],
                    sites: Optional[Sequence[str]] = None) -> PatchworkConfig:
    """Build one occasion's :class:`PatchworkConfig`.

    ``sites`` restricts the profile to a subset (a shard worker passes
    its single target site); the default profiles every manifest site.
    """
    from repro.analysis.anonymize import Anonymizer
    from repro.capture.session import CaptureMethod

    run_dir = Path(run_dir)
    return PatchworkConfig(
        output_dir=run_dir / "captures",
        sites=list(sites if sites is not None else manifest.sites),
        plan=manifest.plan(),
        desired_instances=manifest.desired_instances,
        snaplen=manifest.snaplen,
        capture_method=CaptureMethod(manifest.method),
        pcap_prefix=f"o{occasion}_",
        transform=Anonymizer().transform if manifest.anonymize else None,
        recovery=RecoveryConfig(enabled=manifest.recovery_enabled),
        telemetry=TelemetryConfig(enabled=manifest.telemetry_queries,
                                  window=manifest.telemetry_window,
                                  seed=manifest.seed))


@dataclass
class CampaignSummary:
    """What one ``CampaignRunner.run()`` call accomplished."""

    run_dir: str
    occasions: int
    executed: List[int] = field(default_factory=list)
    skipped: List[int] = field(default_factory=list)
    salvaged: List[int] = field(default_factory=list)
    success_rate: float = 0.0
    audit_ok: bool = True
    journal_path: str = ""
    journal_sha256: str = ""
    records_sha256: str = ""
    resumed: bool = False
    noop: bool = False
    torn_wal: bool = False

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)


class CampaignRunner:
    """Drives a durable campaign: fresh start, strict resume, salvage.

    Layout of one run directory::

        campaign.manifest   pinned knobs (atomic canonical JSON)
        campaign.wal        the write-ahead log
        checkpoints/        occNNNN.ckpt snapshots (atomic, checksummed)
        journal/            occNNNN.jsonl journal segments
        journal.jsonl       final journal = byte-concat of the segments
        records.json        final Fig 10 run records (canonical JSON)
        captures/<site>/    pcaps, oN_-prefixed for global uniqueness
        acap-cache/         content-addressed digests (encode_acap bytes)
        logs/occNNNN/       per-occasion instance logs
    """

    def __init__(self, run_dir: Union[str, Path],
                 manifest: Optional[CampaignManifest] = None,
                 io: Optional[FileIO] = None,
                 shard_workers: int = 1):
        self.run_dir = Path(run_dir)
        self.manifest = manifest
        self.io = io if io is not None else FileIO()
        # Worker-pool size for sharded manifests.  A runtime knob, not
        # manifest state: the merged output is byte-identical at any
        # value, so a campaign begun at one parallelism may be resumed
        # at another.
        self.shard_workers = max(int(shard_workers), 1)
        # Parent-side wall-clock trace (built by run()): spans for
        # verify/reuse, salvage, shard dispatch/land, merge, and commit
        # land in run_dir/trace.jsonl -- a *non-deterministic* journal,
        # deliberately outside the byte-identity contract, which is why
        # these spans don't go into the canonical journal (shard-land
        # order varies with worker count).
        self._trace_obs = None

    @property
    def trace(self):
        """The parent-side tracer (inert until run() builds a live one)."""
        if self._trace_obs is None:
            from repro.obs import Observability
            self._trace_obs = Observability.disabled()
        return self._trace_obs.tracer

    # -- paths ---------------------------------------------------------------

    @property
    def manifest_path(self) -> Path:
        return self.run_dir / MANIFEST_NAME

    @property
    def journal_path(self) -> Path:
        return self.run_dir / "journal.jsonl"

    def segment_path(self, occasion: int) -> Path:
        return self.run_dir / SEGMENT_DIR / f"occ{occasion:04d}.jsonl"

    def shard_segment_dir(self, occasion: int) -> Path:
        return self.run_dir / SEGMENT_DIR / f"occ{occasion:04d}.shards"

    # -- entry point ---------------------------------------------------------

    def run(self, resume: bool = False, salvage: bool = False,
            quiet: bool = True) -> CampaignSummary:
        """Run (or resume) the campaign to completion.

        ``resume=False`` on an existing run directory raises rather than
        clobbering durable state; ``resume=True`` on a fresh directory
        just starts the campaign (crashing before anything durable was
        written *is* the zero-progress resume case).
        """
        manifest = self._load_or_write_manifest(resume)
        log = CampaignLog(self.run_dir / WAL_NAME, io=self.io)
        store = CheckpointStore(self.run_dir / CHECKPOINT_DIR, io=self.io)
        store.sweep()
        # A crash between temp-file write and os.replace leaves .*.tmp
        # orphans; they hold no committed state.
        sweep_tmp_files(self.run_dir)
        sweep_tmp_files(self.run_dir / SEGMENT_DIR)
        if (self.run_dir / SEGMENT_DIR).is_dir():
            for shard_dir in sorted(
                    (self.run_dir / SEGMENT_DIR).glob("occ*.shards")):
                sweep_tmp_files(shard_dir)
        from repro.core.checkpoint import fold_records
        from repro.obs import Observability
        records = log.open()
        state = fold_records(records, torn=log.torn_on_open)
        summary = CampaignSummary(run_dir=str(self.run_dir),
                                  occasions=manifest.occasions,
                                  resumed=bool(records),
                                  torn_wal=log.torn_on_open)
        # Wall-clock tracing of the parent's own work (verify, shard
        # dispatch/land, merge, commit).  Written to trace.jsonl, not
        # the canonical journal: arrival order varies with worker
        # count, so these spans must stay outside the byte-identity
        # contract.
        self._trace_obs = Observability.create(deterministic=False)
        run_span = self.trace.start_span(
            "campaign.run", occasions=manifest.occasions,
            sharded=manifest.sharded, workers=self.shard_workers,
            resumed=bool(records))
        try:
            if state.manifest_sha is None:
                log.append("campaign-begin",
                           {"manifest_sha": manifest.sha256}, commit=True)
            elif state.manifest_sha != manifest.sha256:
                raise WalCorruptionError(
                    f"{self.manifest_path}: manifest does not match the one "
                    "this WAL was begun with; refusing to resume a different "
                    "campaign")
            if state.ended is not None:
                return self._already_complete(state, summary)
            checkpointer = CampaignCheckpointer(self.run_dir, log, store,
                                                state=state)
            all_records: Dict[int, List[Dict[str, Any]]] = {}
            salvage_budget = salvage
            for occasion in range(manifest.occasions):
                committed = state.committed.get(occasion)
                if committed is not None:
                    verify_span = self.trace.start_span(
                        "occasion.verify", occasion=occasion)
                    intact = self._verify_commit(committed)
                    verify_span.end(intact=intact)
                    if intact:
                        summary.skipped.append(occasion)
                        all_records[occasion] = \
                            list(committed.get("records", []))
                        continue
                    # Demote: an artifact the commit names is damaged or
                    # missing.  Clear the occasion's durable-state entries
                    # so Coordinator.occasion_committed doesn't skip the
                    # re-run and salvage can't adopt the stale sample rows.
                    state.committed.pop(occasion, None)
                    state.samples.pop(occasion, None)
                rows = state.salvageable(occasion)
                if salvage_budget and rows:
                    # Only the crashed (first uncommitted) occasion has
                    # rows to adopt; later ones never began.
                    salvage_budget = False
                    with self.trace.span("occasion.salvage",
                                         occasion=occasion, rows=len(rows)):
                        commit = self._salvage_occasion(
                            manifest, checkpointer, occasion, rows)
                    summary.salvaged.append(occasion)
                else:
                    run = (self._run_occasion_sharded if manifest.sharded
                           else self._run_occasion)
                    with self.trace.span("occasion.run", occasion=occasion,
                                         sharded=manifest.sharded):
                        commit = run(manifest, checkpointer, occasion)
                    summary.executed.append(occasion)
                all_records[occasion] = list(commit.get("records", []))
            with self.trace.span("campaign.finalize"):
                self._finalize(manifest, log, all_records, summary)
        finally:
            run_span.end()
            if self.run_dir.is_dir():
                self._trace_obs.journal.write(self.run_dir / "trace.jsonl")
            log.close()
        return summary

    # -- phases --------------------------------------------------------------

    def _load_or_write_manifest(self, resume: bool) -> CampaignManifest:
        if self.manifest_path.exists():
            on_disk = CampaignManifest.from_dict(
                json.loads(self.manifest_path.read_text()))
            if not resume and (self.run_dir / WAL_NAME).exists():
                raise FileExistsError(
                    f"{self.run_dir} already holds a campaign; pass "
                    "resume=True (CLI: --resume) to continue it")
            if self.manifest is not None and \
                    self.manifest.sha256 != on_disk.sha256:
                raise WalCorruptionError(
                    f"{self.manifest_path}: on-disk manifest differs from "
                    "the requested one; refusing to mix campaigns")
            self.manifest = on_disk
            return on_disk
        if self.manifest is None:
            raise FileNotFoundError(
                f"{self.manifest_path}: no manifest to resume from")
        data = (canonical_json(self.manifest.to_dict()) + "\n").encode("utf-8")
        atomic_write_bytes(self.manifest_path, data, io=self.io)
        return self.manifest

    def _already_complete(self, state: RecoveryState,
                          summary: CampaignSummary) -> CampaignSummary:
        """Resume of a finished campaign: verify, report, change nothing."""
        ended = state.ended or {}
        summary.noop = True
        summary.success_rate = float(ended.get("success_rate", 0.0))
        summary.audit_ok = bool(ended.get("audit_ok", True))
        summary.journal_path = str(self.journal_path)
        summary.journal_sha256 = str(ended.get("journal_sha256", ""))
        summary.records_sha256 = str(ended.get("records_sha256", ""))
        summary.skipped = sorted(state.committed)
        if self.journal_path.exists() and summary.journal_sha256:
            if sha256_file(self.journal_path) != summary.journal_sha256:
                raise WalCorruptionError(
                    f"{self.journal_path}: final journal does not match the "
                    "campaign-end record")
        records_path = self.run_dir / "records.json"
        if records_path.exists() and summary.records_sha256:
            if sha256_file(records_path) != summary.records_sha256:
                raise WalCorruptionError(
                    f"{records_path}: final records do not match the "
                    "campaign-end record")
        return summary

    def _verify_commit(self, commit: Dict[str, Any]) -> bool:
        """Is every artifact an occasion- or shard-commit names intact?

        Any mismatch -- a checkpoint half-replaced, a segment missing, a
        pcap truncated after the fact -- demotes the occasion (or shard)
        back to "run me again"; determinism makes the re-run safe.
        """
        checks: List[Tuple[Path, Optional[str]]] = []
        if commit.get("checkpoint"):
            checks.append((self.run_dir / CHECKPOINT_DIR / commit["checkpoint"],
                           commit.get("checkpoint_sha256")))
        if commit.get("journal_segment"):
            checks.append((self.run_dir / SEGMENT_DIR /
                           commit["journal_segment"],
                           commit.get("journal_segment_sha256")))
        for rel, sha in (commit.get("pcaps") or {}).items():
            checks.append((self.run_dir / rel, sha))
        return all(path.exists() and (sha is None or sha256_file(path) == sha)
                   for path, sha in checks)

    def _run_occasion(self, manifest: CampaignManifest,
                      checkpointer: CampaignCheckpointer,
                      occasion: int) -> Dict[str, Any]:
        """Execute one occasion as a single all-site world and commit it."""
        from repro.core.sharding import run_world

        seeds = manifest.occasion_seeds(occasion)
        next_seq = self._next_seq(checkpointer.state, occasion)
        checkpointer.begin_occasion(occasion, seeds)
        result = run_world(manifest, occasion, self.run_dir, manifest.sites,
                           manifest.sites, seeds, checkpointer,
                           workers=max(manifest.workers, 1))
        result["journal"].reseq(next_seq)
        return self._commit(manifest, checkpointer, occasion, seeds, **result)

    def _run_occasion_sharded(self, manifest: CampaignManifest,
                              checkpointer: CampaignCheckpointer,
                              occasion: int) -> Dict[str, Any]:
        """Execute one occasion as per-site shards and commit the merge.

        Each pending site runs through :func:`repro.core.sharding.run_shard`
        (serially for ``shard_workers <= 1``, else on a process pool);
        the parent -- the only durable-state writer -- lands each
        shard's segment atomically and fsyncs a ``shard-commit`` WAL
        record, so a crash mid-occasion resumes by reusing every intact
        shard.  When all shards are in, the per-site segments merge
        into the occasion segment ordered by ``(sim_time, site, seq)``
        and the occasion commits exactly like the serial path.
        """
        from repro.core.sharding import iter_shard_results, shard_task
        from repro.obs.journal import RunJournal
        from repro.obs.tracing import TraceContext

        seeds = manifest.occasion_shard_seeds(occasion)
        next_seq = self._next_seq(checkpointer.state, occasion)
        checkpointer.begin_occasion(occasion, seeds)
        shard_dir = self.shard_segment_dir(occasion)
        # Root span id for this occasion's trace tree.  Every shard's
        # top-level spans parent under it via the TraceContext pickled
        # into the shard task, so the merged journal reads as one
        # campaign-rooted tree at any --shard-workers N.
        root_id = f"campaign/occ{occasion}"
        shard_commits: Dict[str, Dict[str, Any]] = {}
        pending: List[str] = []
        with self.trace.span("shard.verify", occasion=occasion):
            for site in manifest.sites:
                commit = checkpointer.state.shards.get(occasion, {}).get(site)
                if commit is not None and self._verify_commit(commit):
                    shard_commits[site] = commit
                else:
                    pending.append(site)
        tasks = [shard_task(manifest, occasion, self.run_dir, site,
                            seeds[site],
                            trace=TraceContext(site=site,
                                               root=root_id).to_dict())
                 for site in pending]
        dispatch_span = self.trace.start_span(
            "shard.dispatch", occasion=occasion, shards=len(tasks),
            reused=len(shard_commits), workers=self.shard_workers)
        for result in iter_shard_results(tasks, self.shard_workers):
            site = str(result["site"])
            land_span = self.trace.start_span("shard.land", site=site,
                                              occasion=occasion)
            segment_rel = f"{shard_dir.name}/{site}.jsonl"
            atomic_write_text(shard_dir / f"{site}.jsonl", result["journal"],
                              io=self.io)
            commit = {
                "journal_segment": segment_rel,
                "journal_segment_sha256": sha256_file(
                    shard_dir / f"{site}.jsonl"),
                "records": result["records"],
                "samples": result["samples"],
                "pcaps": result["pcaps"],
                "sim_end": result["sim_end"],
            }
            checkpointer.commit_shard(occasion, site, commit)
            shard_commits[site] = checkpointer.state.shards[occasion][site]
            land_span.end()
        dispatch_span.end()
        merge_span = self.trace.start_span("journal.merge", occasion=occasion,
                                           segments=len(manifest.sites))
        segments = []
        for site in manifest.sites:
            segment = RunJournal.read(
                self.run_dir / SEGMENT_DIR /
                shard_commits[site]["journal_segment"], strict=True)
            segments.append((site, segment))
        merged = RunJournal.merge(segments, start_seq=0)
        # Wrap the merged shard stream in the occasion root span.  The
        # wrapper is deterministic at any worker count: the open pins
        # t=0.0 and the close pins the latest shard sim end, both pure
        # functions of the (byte-identical) shard journals.
        journal = RunJournal(clock=None, enabled=True)
        journal.merge_warnings = merged.merge_warnings
        journal.emit("span-open", t=0.0, span=root_id, parent=None,
                     name="campaign.occasion",
                     attrs={"occasion": occasion, "sharded": True,
                            "sites": list(manifest.sites)})
        journal.events.extend(merged.events)
        journal.reseq(0)
        close_t = max(
            (float(shard_commits[site]["sim_end"])
             for site in manifest.sites
             if shard_commits[site].get("sim_end") is not None),
            default=0.0)
        journal.emit("span-close", t=close_t, span=root_id,
                     name="campaign.occasion", attrs={})
        journal.reseq(next_seq)
        merge_span.end(events=len(journal.events))
        records = []
        pcaps: Dict[str, str] = {}
        sim_end = {}
        for site in sorted(shard_commits):
            records.extend(shard_commits[site].get("records", []))
            pcaps.update(shard_commits[site].get("pcaps", {}))
            sim_end[site] = shard_commits[site].get("sim_end")
        with self.trace.span("occasion.commit", occasion=occasion):
            return self._commit(manifest, checkpointer, occasion, seeds,
                                journal, records, pcaps, sim_end, sharded=True)

    def _salvage_occasion(self, manifest: CampaignManifest,
                          checkpointer: CampaignCheckpointer,
                          occasion: int,
                          rows: List[Dict[str, Any]]) -> Dict[str, Any]:
        """Adopt a crashed occasion's WAL sample rows without re-running.

        Sites with at least one completed sample become DEGRADED
        (``recovered=True``, like the watchdog's salvage path); sites
        the crash caught with nothing land INCOMPLETE.  The synthetic
        journal segment replays each row's ledger event so the
        conservation audit still covers the salvaged samples.
        """
        from repro.obs.journal import RunJournal

        seeds = (manifest.occasion_shard_seeds(occasion) if manifest.sharded
                 else manifest.occasion_seeds(occasion))
        next_seq = self._next_seq(checkpointer.state, occasion)
        by_site: Dict[str, List[Dict[str, Any]]] = {
            site: [] for site in manifest.sites}
        for row in rows:
            by_site.setdefault(str(row["site"]), []).append(row)
        record_rows = []
        for site in sorted(by_site):
            site_rows = by_site[site]
            if site_rows:
                record = RunRecord(
                    site=site, started_at=0.0, outcome=RunOutcome.DEGRADED,
                    reason="salvaged after coordinator crash",
                    samples_taken=len(site_rows),
                    pcap_files=sum(1 for r in site_rows if r.get("pcap")),
                    recovered=True)
            else:
                record = RunRecord(
                    site=site, started_at=0.0, outcome=RunOutcome.INCOMPLETE,
                    reason="coordinator crash")
            record_rows.append(record.to_dict())
        journal = RunJournal(clock=None, deterministic=True, enabled=True,
                             start_seq=next_seq)
        for row in rows:
            if row.get("ledger") is not None:
                journal.emit("ledger", t=row.get("t"), **row["ledger"])
        journal.emit("salvage", t=None, occasion=occasion,
                     samples=len(rows),
                     sites={site: len(site_rows)
                            for site, site_rows in sorted(by_site.items())})
        pcaps = {str(row["pcap"]): row["pcap_sha256"] for row in rows
                 if row.get("pcap") and row.get("pcap_sha256")
                 and (self.run_dir / str(row["pcap"])).exists()}
        return self._commit(manifest, checkpointer, occasion, seeds, journal,
                            record_rows, pcaps, None, salvaged=True)

    def _commit(self, manifest: CampaignManifest,
                checkpointer: CampaignCheckpointer, occasion: int,
                seeds: Dict[str, Any], journal, records: List[Dict[str, Any]],
                pcaps: Dict[str, str], sim_end: Any,
                **flags: bool) -> Dict[str, Any]:
        """Write the occasion's segment and checkpoint, then commit it.

        ``flags`` (``sharded=True`` or ``salvaged=True``) are recorded in
        the checkpoint; ``salvaged`` also makes the WAL record an
        ``occasion-salvaged`` one.
        """
        segment = journal.write(self.segment_path(occasion), io=self.io)
        segment_sha = sha256_file(segment)
        ckpt_state = {
            "occasion": occasion,
            "seeds": seeds,
            "next_seq": journal.next_seq,
            "records": records,
            "pcaps": pcaps,
            "sim_end": sim_end,
            "manifest_sha": manifest.sha256,
            **flags,
        }
        _path, ckpt_sha = checkpointer.store.save(occasion, ckpt_state)
        checkpointer.commit_occasion(occasion, {
            "checkpoint": checkpointer.store.name_for(occasion),
            "checkpoint_sha256": ckpt_sha,
            "journal_segment": segment.name,
            "journal_segment_sha256": segment_sha,
            "next_seq": journal.next_seq,
            "records": records,
            "pcaps": pcaps,
            "sim_end": sim_end,
        }, salvaged=flags.get("salvaged", False))
        return checkpointer.state.committed[occasion]

    def _next_seq(self, state: RecoveryState, occasion: int) -> int:
        """First journal sequence number of this occasion's segment."""
        if occasion == 0:
            return 0
        previous = state.committed.get(occasion - 1)
        if previous is None:
            raise WalCorruptionError(
                f"occasion {occasion} cannot start: occasion {occasion - 1} "
                "was never committed (out-of-order WAL)")
        return int(previous["next_seq"])

    def _finalize(self, manifest: CampaignManifest, log: CampaignLog,
                  all_records: Dict[int, List[Dict[str, Any]]],
                  summary: CampaignSummary) -> None:
        """Concatenate segments, write final artifacts, append campaign-end."""
        from repro.obs.audit import audit_file

        chunks = []
        for occasion in range(manifest.occasions):
            chunks.append(self.segment_path(occasion).read_bytes())
        journal_bytes = b"".join(chunks)
        atomic_write_bytes(self.journal_path, journal_bytes, io=self.io)
        flat = []
        for occasion in sorted(all_records):
            for row in all_records[occasion]:
                flat.append({**row, "occasion": occasion})
        records_bytes = (canonical_json({"records": flat}) + "\n") \
            .encode("utf-8")
        atomic_write_bytes(self.run_dir / "records.json", records_bytes,
                           io=self.io)
        run_records = [RunRecord.from_dict(row) for row in flat]
        rate = success_rate(run_records)
        audit = audit_file(self.journal_path)
        audit_ok = audit.ok if audit.ledgers else True
        summary.success_rate = rate
        summary.audit_ok = audit_ok
        summary.journal_path = str(self.journal_path)
        summary.journal_sha256 = sha256_bytes(journal_bytes)
        summary.records_sha256 = sha256_bytes(records_bytes)
        log.append("campaign-end", {
            "occasions": manifest.occasions,
            "journal_sha256": summary.journal_sha256,
            "records_sha256": summary.records_sha256,
            "success_rate": rate,
            "audit_ok": audit_ok,
        }, commit=True)


def resume_campaign(run_dir: Union[str, Path], salvage: bool = False,
                    io: Optional[FileIO] = None,
                    shard_workers: int = 1) -> CampaignSummary:
    """Resume an interrupted campaign from its run directory alone."""
    return CampaignRunner(run_dir, io=io, shard_workers=shard_workers) \
        .run(resume=True, salvage=salvage)
