"""Per-site shard workers: one process per site, merged centrally.

Patchwork's instances are independent by design -- sites interact only
through the control plane (R3: "no inter-instance coordination") -- so
the simulation itself shards cleanly along site boundaries.  Each shard
runs one site's instance in its own process with its own
:class:`~repro.netsim.engine.Simulator`, its own RNG streams (derived
from a ``SeedSequenceFactory`` child keyed by the site label, see
:meth:`repro.core.campaign.CampaignManifest.shard_seeds`), and its own
:class:`~repro.obs.journal.RunJournal` segment.  The parent process --
the campaign runner, and the *only* writer of durable state -- then
merges the per-site segments into one canonical stream with
:meth:`RunJournal.merge`, ordered by ``(sim_time, site, seq)``.

Determinism contract: a sharded occasion's merged journal and records
are **byte-identical regardless of worker count**.  ``--shard-workers 1``
runs the same per-site workers serially in-process; ``N > 1`` fans them
over a process pool.  Both execute :func:`run_shard` with identical
task payloads, so every shard's journal is byte-identical either way,
and the merge is a pure function of the shard journals.  The parity
test (``tests/test_core_sharding.py``) and the chaos harness's
byte-identity oracle enforce this.

One occasion path: :func:`run_world` builds a seeded world, generates
its traffic, profiles, digests and hashes the captures.  A shard is
``run_world`` over ``[site, companion]`` profiling ``[site]``; the
unsharded campaign occasion, which every ``repro profile`` run without
``--shard-workers`` executes, is ``run_world`` over every manifest
site.

Durability: shard workers return their results to the parent; they
never touch the WAL, checkpoints, or journal segments themselves.  The
parent writes each shard segment atomically and appends a fsynced
``shard-commit`` WAL record per finished shard, so a crashed campaign
resumes by re-verifying shard commits and re-running only the shards
that are missing or damaged (see :mod:`repro.core.checkpoint`).
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor, as_completed
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Union

from repro.core.checkpoint import sample_row, sha256_file


class _ShardSampleCollector:
    """The checkpointer facade a shard-local coordinator sees.

    Inside a worker there is no WAL -- the parent owns all durable
    state -- so completed-sample rows are collected in memory and
    shipped back in the shard result for the parent to commit.
    """

    def __init__(self, run_dir: Union[str, Path], occasion: int):
        self.run_dir = Path(run_dir)
        self.occasion = occasion
        self.rows: List[Dict[str, Any]] = []

    def occasion_committed(self, occasion: int) -> bool:
        return False

    def record_sample(self, occasion: int, site: str, record,
                      t: float) -> None:
        self.rows.append(sample_row(self.run_dir, occasion, site, record, t))

    def sample_rows(self, occasion: int) -> List[Dict[str, Any]]:
        return [row for row in self.rows if row["occasion"] == occasion]


def shard_task(manifest, occasion: int, run_dir: Union[str, Path],
               site: str, seeds: Dict[str, int],
               trace: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """Build the picklable work order for one shard.

    ``trace`` is the shard's serialized
    :class:`~repro.obs.tracing.TraceContext` (site namespace + campaign
    root span), minted by the parent so the shard's spans carry
    globally unique ``"<site>/<n>"`` identities and hang off the
    occasion's root in the merged trace tree.
    """
    return {
        "manifest": manifest.to_dict(),
        "occasion": int(occasion),
        "run_dir": str(run_dir),
        "site": str(site),
        "seeds": dict(seeds),
        "trace": dict(trace) if trace is not None else None,
    }


def run_world(manifest, occasion: int, run_dir: Union[str, Path],
              world: Sequence[str], sites: Sequence[str],
              seeds: Dict[str, int], checkpointer, workers: int = 1,
              trace: Optional[Dict[str, Any]] = None,
              overall_scorecard: bool = True) -> Dict[str, Any]:
    """Run one occasion over ``sites`` in a seeded world over ``world``.

    Builds the world, pre-generates traffic at ``sites`` only, runs the
    coordinator with ``checkpointer`` as its sample sink, digests the
    captures with ``workers`` processes and attaches the digests to the
    ledgers.  A zero ``manifest.traffic_span`` covers the sampling plan
    with headroom that scales with the whole campaign's site count, not
    the shard's, so shard coverage never shrinks relative to an
    unsharded occasion.

    Returns ``{journal, records, pcaps, sim_end}``: the live
    :class:`~repro.obs.journal.RunJournal`, Fig 10 record rows,
    content-addressed pcap pointers and the simulator's end time.
    Writes no durable state; the caller commits the result.
    """
    from repro import quickstart_federation
    from repro.analysis import AnalysisPipeline
    from repro.core.campaign import occasion_config
    from repro.core.coordinator import Coordinator
    from repro.obs import Observability, scoped
    from repro.obs.ledger import attach_digests
    from repro.obs.tracing import TraceContext

    run_dir = Path(run_dir)
    config = occasion_config(manifest, occasion, run_dir, sites=sites)
    federation, api, poller, orchestrator = quickstart_federation(
        site_names=list(world), seed=seeds["world"],
        traffic_seed=seeds["traffic"], traffic_scale=manifest.traffic_scale)
    span = (manifest.traffic_span
            or config.plan.approximate_duration * len(manifest.sites) + 600.0)
    window = 0.0
    while window < span:
        orchestrator.generate_window(window, min(150.0, span - window),
                                     sites=sites)
        window += 150.0
    with scoped(Observability.create(sim=federation.sim)) as obs:
        if trace is not None:
            # Namespace span ids ("<site>/<n>") and parent top-level
            # spans under the campaign root, so the merged journal
            # forms one campaign-rooted trace tree.
            obs.tracer.context = TraceContext.from_dict(trace)
        coordinator = Coordinator(api, config, poller=poller,
                                  seed=seeds["coordinator"],
                                  checkpointer=checkpointer)
        coordinator.occasions_run = occasion
        coordinator.emit_overall_scorecard = overall_scorecard
        bundle = coordinator.run_profile(
            crash_probability=manifest.crash_probability)
        bundle.write_logs(run_dir / "logs" / f"occ{occasion:04d}")
        cache_dir = (run_dir / "acap-cache"
                     if manifest.cache_enabled else None)
        pipeline = AnalysisPipeline(max_workers=workers, cache_dir=cache_dir)
        pipeline.run(bundle.pcap_paths)
        attach_digests(bundle.ledgers, pipeline.acaps)
        obs.snapshot_to_journal()
    # Each pcap was hashed for its sample row when its sample ended, and
    # nothing writes it after that, so the commit map reuses that hash.
    hashes = {row["pcap"]: row["pcap_sha256"]
              for row in checkpointer.sample_rows(occasion)}
    pcaps = {}
    for pcap in bundle.pcap_paths:
        rel = str(Path(pcap).relative_to(run_dir))
        pcaps[rel] = hashes.get(rel) or sha256_file(pcap)
    return {
        "journal": obs.journal,
        "records": [r.to_dict() for r in bundle.run_records],
        "pcaps": pcaps,
        "sim_end": federation.sim.now,
    }


def run_shard(task: Dict[str, Any]) -> Dict[str, Any]:
    """Run one site's slice of an occasion; returns a picklable result.

    The shard world is a two-site federation -- the target site plus a
    cyclic *companion* (``FederationBuilder`` requires at least two
    sites for the inter-site fabric to exist).  Only the target site
    generates traffic and only the target site is profiled, but the
    companion is not inert: the target's remote flows pick their far
    end among the companion's endpoints, so dropping it would change
    the shard's traffic (DESIGN.md section 11).  Everything the parent
    needs to commit the shard rides in the return value: the journal
    segment text, Fig 10 record rows, WAL sample rows, content-addressed
    pcap pointers, and the shard simulator's end time.
    """
    from repro.core.campaign import CampaignManifest

    manifest = CampaignManifest.from_dict(task["manifest"])
    occasion = int(task["occasion"])
    site = str(task["site"])
    sites = list(manifest.sites)
    companion = sites[(sites.index(site) + 1) % len(sites)]
    collector = _ShardSampleCollector(task["run_dir"], occasion)
    result = run_world(manifest, occasion, task["run_dir"],
                       [site, companion], [site], task["seeds"], collector,
                       trace=task.get("trace"), overall_scorecard=False)
    return {**result, "site": site, "journal": result["journal"].to_jsonl(),
            "samples": collector.rows}


def iter_shard_results(tasks: Sequence[Dict[str, Any]],
                       workers: int = 1) -> Iterator[Dict[str, Any]]:
    """Run shard tasks, yielding each result as it completes.

    ``workers <= 1`` runs the tasks serially in-process, in task order
    -- the reference execution the parity contract is stated against.
    More workers fan out over a process pool; completion order is then
    scheduling-dependent, which is fine because the parent commits each
    shard independently and the final merge orders by site, never by
    arrival.
    """
    tasks = list(tasks)
    if workers <= 1 or len(tasks) <= 1:
        for task in tasks:
            yield run_shard(task)
        return
    with ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
        futures = [pool.submit(run_shard, task) for task in tasks]
        for future in as_completed(futures):
            yield future.result()
