"""Chaos harness: crash-fuzz the campaign commit protocol, then resume.

The durable-campaign design (:mod:`repro.core.campaign`) claims that a
process killed at *any* instant can resume to an end state
byte-identical to never having crashed.  This module earns that claim
empirically instead of by argument:

1. run an uninterrupted **reference** campaign with the plain
   :class:`repro.util.atomio.FileIO` seam and record its total IO op
   count plus the SHA-256 of every final artifact;
2. for each trial, pick a fuzzed crash point -- an op index in
   ``[1, total_ops]`` -- and re-run the same campaign under
   :class:`CrashingIO`, which dies *mid-write* (partial bytes on disk),
   *mid-fsync*, or *mid-rename* (before or after the ``os.replace``)
   when the counter hits the chosen op;
3. resume with ``CampaignRunner.run(resume=True)`` and check three
   oracles:

   * **audit** -- the frame-conservation audit of the final journal is
     clean;
   * **bytes** -- final ``journal.jsonl`` and ``records.json`` hash
     identical to the reference run's, and so does the set of pcaps
     the final WAL's committed occasions name;
   * **samples** -- the set of sample keys (ledger pcap names) equals
     the reference set, with no duplicates (nothing double-counted or
     lost).

Crashes are raised as :class:`SimulatedCrash`, a ``BaseException`` no
recovery handler can swallow -- the closest a test can get to SIGKILL.
"""

from __future__ import annotations

import os
import shutil
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, BinaryIO, Dict, List, Optional, Tuple, Union

from repro.core.campaign import CampaignManifest, CampaignRunner
from repro.core.checkpoint import canonical_json, committed_pcaps, sha256_bytes, sha256_file
from repro.util.atomio import FileIO, SimulatedCrash
from repro.util.rng import derive_rng


class CrashingIO(FileIO):
    """A :class:`FileIO` that dies at a chosen op, mid-operation.

    ``crash_at_op`` is 1-based: the N-th IO operation raises
    :class:`SimulatedCrash` after doing *partial* damage chosen by
    ``rng`` -- a truncated write, a skipped fsync, a rename that did or
    did not land.  ``mode`` pins the rename coin for targeted edge
    tests (``"pre-replace"`` / ``"post-replace"``).
    """

    def __init__(self, crash_at_op: int, rng,
                 mode: Optional[str] = None) -> None:
        super().__init__()
        self.crash_at_op = crash_at_op
        self.rng = rng
        self.mode = mode
        self.crashed = False

    def _tripped(self) -> bool:
        return not self.crashed and self.ops >= self.crash_at_op

    def write(self, handle: BinaryIO, data: bytes) -> int:
        self.ops += 1
        if self._tripped():
            self.crashed = True
            cut = int(self.rng.integers(0, len(data))) if data else 0
            handle.write(data[:cut])
            handle.flush()
            raise SimulatedCrash(f"mid-write at op {self.ops} "
                                 f"({cut}/{len(data)} bytes landed)")
        return handle.write(data)

    def fsync(self, handle: BinaryIO) -> None:
        self.ops += 1
        if self._tripped():
            self.crashed = True
            handle.flush()
            raise SimulatedCrash(f"mid-fsync at op {self.ops}")
        handle.flush()
        os.fsync(handle.fileno())

    def replace(self, src: Union[str, Path], dst: Union[str, Path]) -> None:
        self.ops += 1
        if self._tripped():
            self.crashed = True
            post = (self.mode == "post-replace" or
                    (self.mode is None and bool(self.rng.integers(0, 2))))
            if post:
                os.replace(src, dst)
            raise SimulatedCrash(
                f"mid-rename at op {self.ops} "
                f"({'after' if post else 'before'} the replace landed)")
        os.replace(src, dst)

    def fsync_dir(self, path: Union[str, Path]) -> None:
        self.ops += 1
        if self._tripped():
            self.crashed = True
            raise SimulatedCrash(f"mid-dir-fsync at op {self.ops}")
        super_io = FileIO()
        super_io.fsync_dir(path)


def default_manifest(seed: int = 1,
                     sharded: bool = False) -> CampaignManifest:
    """The smallest campaign that still exercises every crash window:
    two occasions (cross-occasion sequence chaining + skip-on-resume),
    two sites (a federation's minimum), one sample per occasion.
    ``sharded=True`` switches on per-site shard worlds, adding the
    shard-commit records and the deterministic merge to the fuzzed
    surface."""
    return CampaignManifest(
        seed=seed, sites=("STAR", "MICH"), occasions=2, traffic_scale=0.005,
        sample_duration=2.0, sample_interval=10.0, samples_per_run=1,
        runs_per_cycle=1, cycles=1, desired_instances=1, traffic_span=120.0,
        sharded=sharded)


@dataclass
class ChaosReport:
    """Outcome of one chaos batch."""

    trials: int = 0
    passed: int = 0
    reference: Dict[str, Any] = field(default_factory=dict)
    failures: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.trials > 0 and not self.failures

    def to_dict(self) -> Dict[str, Any]:
        return {"trials": self.trials, "passed": self.passed,
                "ok": self.ok, "reference": self.reference,
                "failures": self.failures}

    def render(self) -> str:
        lines = [f"chaos: {self.passed}/{self.trials} trials passed "
                 f"({self.reference.get('total_ops', '?')} fuzzable IO ops)"]
        for failure in self.failures:
            lines.append(f"  FAIL trial {failure['trial']} "
                         f"crash_at={failure['crash_at']}: "
                         f"{'; '.join(failure['oracles'])}")
        return "\n".join(lines)


def sample_keys(journal_path: Union[str, Path]) -> List[str]:
    """Every sample's identity (its ledger's pcap key) in journal order."""
    from repro.obs.journal import RunJournal

    journal = RunJournal.read(journal_path)
    return [str(event.data.get("pcap"))
            for event in journal.of_kind("ledger")]


def pcap_set_sha256(run_dir: Union[str, Path]) -> str:
    """Hash of the committed pcaps' paths and SHA-256s."""
    return sha256_bytes(canonical_json(committed_pcaps(run_dir)).encode())


def run_reference(manifest: CampaignManifest,
                  out_dir: Union[str, Path]) -> Dict[str, Any]:
    """The uninterrupted run: ground truth for every oracle."""
    out_dir = Path(out_dir)
    shutil.rmtree(out_dir, ignore_errors=True)
    io = FileIO()
    runner = CampaignRunner(out_dir, manifest=manifest, io=io)
    summary = runner.run()
    keys = sample_keys(runner.journal_path)
    if len(keys) != len(set(keys)):
        raise RuntimeError("reference run produced duplicate sample keys")
    return {
        "total_ops": io.ops,
        "journal_sha256": summary.journal_sha256,
        "records_sha256": summary.records_sha256,
        "pcap_set_sha256": pcap_set_sha256(out_dir),
        "sample_keys": sorted(keys),
        "success_rate": summary.success_rate,
        "audit_ok": summary.audit_ok,
    }


def run_trial(manifest: CampaignManifest, trial_dir: Union[str, Path],
              crash_at: int, rng, reference: Dict[str, Any],
              mode: Optional[str] = None,
              salvage: bool = False) -> Dict[str, Any]:
    """One crash/resume cycle; returns the oracle verdicts."""
    trial_dir = Path(trial_dir)
    shutil.rmtree(trial_dir, ignore_errors=True)
    io = CrashingIO(crash_at, rng, mode=mode)
    crashed = False
    try:
        CampaignRunner(trial_dir, manifest=manifest, io=io).run()
    except SimulatedCrash as exc:
        crashed = True
        crash_detail = str(exc)
    else:
        crash_detail = "campaign finished before the crash point"
    resumed = CampaignRunner(trial_dir, manifest=manifest).run(
        resume=True, salvage=salvage)
    oracles: List[str] = []
    if not resumed.audit_ok:
        oracles.append("audit: conservation audit failed after resume")
    journal_path = Path(trial_dir) / "journal.jsonl"
    if not journal_path.exists():
        oracles.append("bytes: no final journal was written")
    elif not salvage:
        if sha256_file(journal_path) != reference["journal_sha256"]:
            oracles.append("bytes: resumed journal differs from the "
                           "uninterrupted run")
        if resumed.records_sha256 != reference["records_sha256"]:
            oracles.append("bytes: resumed records.json differs from the "
                           "uninterrupted run")
        if pcap_set_sha256(trial_dir) != reference["pcap_set_sha256"]:
            oracles.append("bytes: resumed pcap set differs from the "
                           "uninterrupted run")
    if journal_path.exists():
        keys = sample_keys(journal_path)
        if len(keys) != len(set(keys)):
            oracles.append("samples: a sample was double-counted")
        if not salvage and sorted(keys) != reference["sample_keys"]:
            oracles.append("samples: sample set differs from the "
                           "uninterrupted run")
        if not salvage:
            # A clean (strict) resume re-runs any interrupted occasion
            # from scratch, so the final journal must contain no span
            # that was opened but never closed -- dangling spans are
            # the signature of adopted partial work.
            from repro.obs.journal import RunJournal
            from repro.obs.trace import TraceTree

            tree = TraceTree.from_journal(RunJournal.read(journal_path))
            dangling = tree.dangling()
            if dangling:
                oracles.append(
                    f"spans: {len(dangling)} dangling span(s) after clean "
                    f"resume (first: {dangling[0].name} "
                    f"[{dangling[0].span_id}])")
    return {
        "crash_at": crash_at,
        "crashed": crashed,
        "crash_detail": crash_detail,
        "oracles": oracles,
        "ok": not oracles,
    }


def _trial_task(task: Tuple) -> Tuple[int, Dict[str, Any]]:
    """Process-pool worker: one fully independent crash/resume trial.

    Module-level (picklable); the trial's damage RNG is re-derived from
    ``(seed, trial)`` so the batch is deterministic regardless of worker
    count or completion order.
    """
    manifest, trial_dir, trial, crash_at, seed, reference = task
    rng = derive_rng(seed, f"chaos/trial{trial}")
    return trial, run_trial(manifest, trial_dir, crash_at, rng, reference)


def run_chaos(out_dir: Union[str, Path], trials: int = 50, seed: int = 1,
              manifest: Optional[CampaignManifest] = None,
              keep_passing: bool = False, workers: int = 0,
              sharded: bool = False) -> ChaosReport:
    """Run a full chaos batch: reference + ``trials`` fuzzed crashes.

    Trials are independent (own run directory, own derived RNG), so
    they fan out over ``workers`` processes (0 = one per CPU).  Passing
    trial directories are deleted (disk stays bounded); failing ones
    are kept for post-mortem.  The reference run is kept either way.
    ``sharded`` fuzzes the sharded campaign path instead (shard worlds
    run serially in-process, so the parent's IO op sequence -- the
    fuzzed crash surface -- stays deterministic).
    """
    out_dir = Path(out_dir)
    manifest = manifest if manifest is not None \
        else default_manifest(seed, sharded=sharded)
    report = ChaosReport()
    report.reference = run_reference(manifest, out_dir / "reference")
    rng = derive_rng(seed, "chaos")
    total_ops = int(report.reference["total_ops"])
    tasks = [(manifest, out_dir / f"trial{trial:03d}", trial,
              int(rng.integers(1, total_ops + 1)), seed, report.reference)
             for trial in range(trials)]
    workers = workers if workers > 0 else (os.cpu_count() or 1)
    workers = max(1, min(workers, trials))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_trial_task, tasks))
    else:
        results = [_trial_task(task) for task in tasks]
    for trial, outcome in results:
        report.trials += 1
        if outcome["ok"]:
            report.passed += 1
            if not keep_passing:
                shutil.rmtree(out_dir / f"trial{trial:03d}",
                              ignore_errors=True)
        else:
            report.failures.append({"trial": trial, **outcome})
    return report
