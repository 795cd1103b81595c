"""The end-to-end analysis pipeline (Fig 9).

``pcaps -> Digest -> acap -> Index -> Analyze -> Process -> CSVs``

:class:`AnalysisPipeline` drives the whole offline phase over the
output directory a Patchwork profile produced (or any set of pcap
files), and returns a :class:`ProfileReport` holding every table the
Process step emits plus the headline statistics the paper quotes.

The Digest step scales out: pcaps are embarrassingly parallel (each
acap depends on exactly one capture file), so with ``max_workers > 1``
they fan out over a process pool.  Results are assembled in input
order, so every downstream table is byte-identical regardless of
worker count or completion order.  An optional content-addressed
:class:`~repro.analysis.cache.AcapCache` skips pcaps digested by an
earlier run.  :class:`PipelineStats` records what happened (per-stage
wall time, throughput, cache hits) for the CLI to surface.

The cache is the only place a digest is persisted, and it never shows
in a run's canonical output.  The parent reads each pcap and looks up
the sha256 of its bytes.  A miss's entry is keyed by the bytes that
were dissected for it: with one worker, the bytes the parent read; in
a pool task, the bytes the task reads itself, so an entry always holds
the digest of the bytes its key names.  The task encodes the
acap once (:func:`~repro.analysis.acap.encode_acap`), writes those
bytes to the entry and returns them, and the parent decodes them into
columns instead of unpickling records; with one worker the dissected
records are kept as they are.  Hits and misses hold the same frames, the
``digest.*`` counters and ``ledger-digest`` events count every acap
alike, and the cache counts and worker count are volatile, so the
canonical journal and ``metrics.prom`` are the same with the cache on
or off, cold or warm, at any worker count.
"""

from __future__ import annotations

import struct
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import cached_property
from itertools import repeat
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.analysis.acap import (AcapFile, decode_acap, digest_pcap,
                                 encode_acap)
from repro.analysis.analyze import ProfileAccumulator
from repro.analysis.cache import AcapCache
from repro.analysis.flows import FlowGroups, FlowKey, FlowStats
from repro.analysis.index import AcapIndex
from repro.analysis.report import profile_tables
from repro.obs import get_obs
from repro.obs.ledger import CongestionScorecard
from repro.util.tables import Table


def _digest_and_store(path: Path, cache: Optional[AcapCache],
                      data: Optional[bytes] = None,
                      key: Optional[str] = None
                      ) -> Tuple[Optional[AcapFile], Optional[bytes]]:
    """Digest one pcap from ``data``, its bytes (read here when None),
    and, given a ``cache``, store the acap's :func:`encode_acap` bytes
    under ``key``, the sha256 of ``data`` (taken here when None).

    Returns the acap and the stored bytes (None when nothing was
    stored).  A file that cannot be read or opened as a pcap (bad
    magic, truncated global header, a record shorter on the wire than
    captured, vanished from disk) is
    analysis-poison: the acap is then None, and the pipeline
    quarantines the pcap and keeps going rather than aborting the run.
    """
    try:
        if data is None:
            data = path.read_bytes()
        acap = digest_pcap(path, data=data)
    except (ValueError, OSError, struct.error):
        return None, None
    if cache is None:
        return acap, None
    entry = encode_acap(acap)
    cache.store(key or AcapCache.key_for(data), entry)
    return acap, entry


def _digest_task(path: Path, cache: Optional[AcapCache]) -> Optional[bytes]:
    """One Digest pool task: :func:`_digest_and_store`, returning the
    acap's :func:`encode_acap` bytes (None when quarantined), which cost
    the parent less to receive and decode than the pickled records.

    Module-level so it stays picklable for the process pool.
    """
    acap, entry = _digest_and_store(path, cache)
    if acap is None:
        return None
    return entry if entry is not None else encode_acap(acap)


@dataclass
class PipelineStats:
    """Observability record for one pipeline run (Fig 9 stages)."""

    pcaps: int = 0
    workers: int = 1
    total_frames: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    # Pcaps too corrupt to digest (bad magic / truncated global header);
    # dropped from the corpus with a journal event instead of aborting.
    quarantined: int = 0
    digest_seconds: float = 0.0
    index_seconds: float = 0.0
    analyze_seconds: float = 0.0

    @property
    def total_seconds(self) -> float:
        return self.digest_seconds + self.index_seconds + self.analyze_seconds

    @property
    def frames_per_second(self) -> float:
        if self.digest_seconds <= 0:
            return 0.0
        return self.total_frames / self.digest_seconds

    def render(self) -> str:
        """One-line human summary for the CLI."""
        return (
            f"digested {self.pcaps} pcaps ({self.total_frames} frames) in "
            f"{self.digest_seconds:.2f}s with {self.workers} worker(s) "
            f"[{self.frames_per_second:,.0f} frames/s, "
            f"cache {self.cache_hits} hit / {self.cache_misses} miss"
            + (f", {self.quarantined} quarantined" if self.quarantined else "")
            + "]; "
            f"index {self.index_seconds:.2f}s, analyze {self.analyze_seconds:.2f}s"
        )

    def to_dict(self) -> Dict[str, Union[int, float]]:
        """Machine-readable form (``--json`` CLI mode, journal events)."""
        return {
            "pcaps": self.pcaps,
            "workers": self.workers,
            "total_frames": self.total_frames,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "quarantined": self.quarantined,
            "digest_seconds": self.digest_seconds,
            "index_seconds": self.index_seconds,
            "analyze_seconds": self.analyze_seconds,
            "total_seconds": self.total_seconds,
            "frames_per_second": self.frames_per_second,
        }

    def publish(self, obs=None) -> None:
        """Publish this run into ``repro.obs``.

        Counts that depend only on the pcaps go in as regular
        instruments.  The cache counts and the worker count depend on
        the cache's state and the run's parallelism, and stage
        durations on wall time, so they are volatile: a deterministic
        journal's metric snapshots and ``pipeline`` event leave them
        out.
        """
        from repro.obs import get_obs as _get_obs

        obs = obs if obs is not None else _get_obs()
        registry = obs.registry
        registry.counter("pipeline.runs", help="analysis pipeline runs").inc()
        registry.counter("pipeline.pcaps",
                         help="pcaps offered to the Digest stage").inc(self.pcaps)
        registry.counter("pipeline.cache_hits", volatile=True,
                         help="acap cache hits").inc(self.cache_hits)
        registry.counter("pipeline.cache_misses", volatile=True,
                         help="acap cache misses").inc(self.cache_misses)
        registry.counter("pipeline.quarantined",
                         help="corrupt pcaps quarantined by Digest").inc(
            self.quarantined)
        for stage in ("digest", "index", "analyze"):
            registry.gauge(f"pipeline.{stage}_seconds", volatile=True,
                           help=f"wall time of the {stage} stage").set(
                getattr(self, f"{stage}_seconds"))
        obs.journal.emit(
            "pipeline",
            pcaps=self.pcaps,
            total_frames=self.total_frames,
            quarantined=self.quarantined,
            volatile={
                "workers": self.workers,
                "cache_hits": self.cache_hits,
                "cache_misses": self.cache_misses,
                "digest_seconds": self.digest_seconds,
                "index_seconds": self.index_seconds,
                "analyze_seconds": self.analyze_seconds,
            },
        )


@dataclass
class ProfileReport:
    """Everything the Process step produced for one profile.

    ``flows`` holds the profile's flows as :class:`FlowGroups` columns,
    which the tables were built from; :attr:`aggregated_flows` builds
    one :class:`FlowKey` and :class:`FlowStats` per flow on first read.
    """

    tables: Dict[str, Table] = field(default_factory=dict)
    total_frames: int = 0
    sites: List[str] = field(default_factory=list)
    ipv6_fraction: float = 0.0
    jumbo_fraction: float = 0.0
    flows_per_sample: List[int] = field(default_factory=list)
    flows: Optional[FlowGroups] = None
    stats: Optional[PipelineStats] = None
    # Congestion-detector quality for the profile that produced these
    # pcaps (attached by the CLI/driver from the coordinator's bundle).
    scorecard: Optional[CongestionScorecard] = None

    @cached_property
    def aggregated_flows(self) -> Dict[FlowKey, FlowStats]:
        """One :class:`FlowStats` per flow, pieced across samples, in
        first-seen order; built once, on first read."""
        return self.flows.stats() if self.flows is not None else {}

    def write_csvs(self, out_dir: Union[str, Path]) -> List[Path]:
        out_dir = Path(out_dir)
        return [table.to_csv(out_dir / f"{name}.csv")
                for name, table in sorted(self.tables.items())]

    def render(self) -> str:
        parts = [table.render(max_rows=40) for _name, table in sorted(self.tables.items())]
        return "\n\n".join(parts)

    def to_dict(self, include_tables: bool = True) -> Dict[str, object]:
        """Machine-readable summary (``--json`` CLI modes)."""
        payload: Dict[str, object] = {
            "total_frames": self.total_frames,
            "sites": list(self.sites),
            "ipv6_fraction": self.ipv6_fraction,
            "jumbo_fraction": self.jumbo_fraction,
            "flows_per_sample": list(self.flows_per_sample),
            "stats": self.stats.to_dict() if self.stats is not None else None,
            "scorecard": (self.scorecard.to_dict()
                          if self.scorecard is not None else None),
        }
        if include_tables:
            payload["tables"] = {name: table.to_dict()
                                 for name, table in sorted(self.tables.items())}
        return payload


class AnalysisPipeline:
    """Digest/Index/Analyze/Process over a set of pcaps.

    ``max_workers`` > 1 fans the Digest step out over a process pool
    (one task per pcap); results are reassembled in input order, so the
    output is deterministic regardless of completion order.
    ``cache_dir`` enables the content-addressed acap cache; re-running
    over an unchanged corpus then skips dissection entirely.
    """

    def __init__(self, max_workers: int = 1,
                 cache_dir: Optional[Union[str, Path]] = None):
        if max_workers < 1:
            raise ValueError("max_workers must be at least 1")
        self.max_workers = max_workers
        self.cache = AcapCache(cache_dir) if cache_dir is not None else None
        self.acaps: List[AcapFile] = []
        self.index: Optional[AcapIndex] = None
        self.stats = PipelineStats()

    # -- Digest ------------------------------------------------------------

    def digest(self, pcap_paths: Sequence[Union[str, Path]],
               keys: Optional[Sequence[Optional[str]]] = None
               ) -> List[AcapFile]:
        """Dissect every pcap into an acap (cached when ``cache_dir``).

        Cached pcaps are served from the acap cache; the rest fan out
        over up to ``max_workers`` processes.  ``keys``, when given, is
        each pcap's sha256 as the caller already knows it (a campaign's
        committed hashes): a pcap is first looked up under it, so a hit
        reads and hashes nothing, and a miss is read, hashed and
        digested as usual.  ``self.acaps`` preserves
        the order of ``pcap_paths`` but **omits quarantined pcaps**
        (corrupt/undissectable inputs, counted in
        ``self.stats.quarantined``), so it can be shorter than the
        input; match acaps to pcaps by each ``AcapFile.source``, not by
        position.
        """
        started = time.perf_counter()  # reprolint: disable=RL001 -- volatile stage timing
        paths = [Path(p) for p in pcap_paths]
        acaps: List[Optional[AcapFile]] = [None] * len(paths)
        stats = self.stats = PipelineStats(pcaps=len(paths))
        with get_obs().tracer.span("analysis.digest", pcaps=len(paths)) as span:
            self._digest(paths, list(keys or [None] * len(paths)), acaps,
                         stats)
            # Close with the quarantine count (the lexical exit's end()
            # is then a no-op); the cache counts are not span attributes
            # because the span is journaled.
            span.end(quarantined=stats.quarantined)
        stats.digest_seconds = time.perf_counter() - started  # reprolint: disable=RL001 -- volatile stage timing
        self._count_digests()
        return self.acaps

    def _count_digests(self) -> None:
        """Count every acap, hit or miss, into the ``digest.*``
        counters, and emit one ``ledger-digest`` event per acap so
        ``repro audit`` can reconcile digested counts against
        capture-side ledger rows from the journal alone.  Pcaps are
        keyed site-qualified ("<parent dir>/<name>"), matching
        ``SampleLedger.pcap``."""
        obs = get_obs()
        registry, journal = obs.registry, obs.journal
        if not (registry.enabled or journal.enabled):
            return
        frames = nbytes = ntrunc = 0
        for acap in self.acaps:
            counts = acap.digest_counts()
            frames += counts.frames
            nbytes += counts.captured_bytes
            ntrunc += counts.truncated
            source = Path(acap.source)
            journal.emit(
                "ledger-digest",
                pcap=f"{source.parent.name}/{source.name}",
                digested=counts.frames,
                truncated=counts.truncated,
                parse_errors=counts.parse_errors,
            )
        registry.counter("digest.pcaps", help="pcaps digested").inc(
            len(self.acaps))
        registry.counter("digest.frames", help="frames digested").inc(frames)
        registry.counter("digest.bytes",
                         help="captured bytes digested").inc(nbytes)
        registry.counter("digest.truncated_frames",
                         help="frames cut short by the snap length").inc(ntrunc)

    def _digest(self, paths: List[Path], known: List[Optional[str]],
                acaps: "List[Optional[AcapFile]]",
                stats: PipelineStats) -> None:
        # Look every pcap up by the sha256 of its bytes: first by the
        # known one, if any, then by hashing what is read.  With one
        # worker a miss is digested at once, from those bytes; with a
        # pool, misses wait for the fan-out below.
        cache = self.cache
        serial = self.max_workers == 1
        todo = []
        for i, path in enumerate(paths):
            data = key = None
            if cache is not None:
                if known[i] is not None:
                    acaps[i] = cache.lookup(known[i], path)
                    if acaps[i] is not None:
                        continue
                try:
                    data = path.read_bytes()
                except OSError:
                    pass  # a miss; digesting it quarantines it
                else:
                    key = AcapCache.key_for(data)
                    if key != known[i]:
                        acaps[i] = cache.lookup(key, path)
                        if acaps[i] is not None:
                            continue
            todo.append(i)
            if serial:
                acaps[i] = _digest_and_store(path, cache, data, key)[0]
        stats.cache_hits = len(paths) - len(todo)
        stats.cache_misses = len(todo)

        # An explicit max_workers is honored as-is (oversubscription is
        # fine; "one per CPU" is decided upstream, by the CLI's
        # --workers 0), but never more than one process per pcap.
        workers = max(1, min(self.max_workers, len(todo)))
        stats.workers = workers
        if workers > 1:
            # map() preserves input order, so completion order -- which
            # varies run to run -- never leaks into the results.
            with ProcessPoolExecutor(max_workers=workers) as pool:
                digested = pool.map(_digest_task, [paths[i] for i in todo],
                                    repeat(cache))
                for i, data in zip(todo, digested):
                    if data is not None:
                        acaps[i] = decode_acap(data)
        elif not serial:
            for i in todo:
                acaps[i] = _digest_and_store(paths[i], cache)[0]

        quarantined = [paths[i] for i in todo if acaps[i] is None]
        stats.quarantined = len(quarantined)
        journal = get_obs().journal
        for path in quarantined:
            journal.emit("pipeline-quarantine",
                         pcap=f"{path.parent.name}/{path.name}")
        self.acaps = [acap for acap in acaps if acap is not None]
        stats.total_frames = sum(len(acap) for acap in self.acaps)

    # -- Index ------------------------------------------------------------

    def build_index(self) -> AcapIndex:
        started = time.perf_counter()  # reprolint: disable=RL001 -- volatile stage timing
        with get_obs().tracer.span("analysis.index", acaps=len(self.acaps)):
            self.index = AcapIndex.build_from_memory(self.acaps)
        self.stats.index_seconds = time.perf_counter() - started  # reprolint: disable=RL001 -- volatile stage timing
        return self.index

    # -- Analyze + Process ----------------------------------------------------

    def analyze(self) -> ProfileReport:
        """Run every analysis and emit the report tables."""
        if self.index is None:
            self.build_index()
        started = time.perf_counter()  # reprolint: disable=RL001 -- volatile stage timing
        with get_obs().tracer.span("analysis.analyze"):
            report = self._analyze()
        self.stats.analyze_seconds = time.perf_counter() - started  # reprolint: disable=RL001 -- volatile stage timing
        report.stats = self.stats
        self.stats.publish()
        return report

    def _analyze(self) -> ProfileReport:
        profile = ProfileAccumulator()
        for acap in self.acaps:
            profile.add(acap, Path(acap.source).parent.name or "unknown")
        return ProfileReport(
            tables=profile_tables(profile),
            total_frames=profile.frames,
            sites=profile.sites(),
            ipv6_fraction=profile.ip_version_shares()["ipv6"],
            jumbo_fraction=profile.jumbo_fraction(),
            flows_per_sample=profile.flows_per_sample,
            flows=profile.flows,
        )

    def run(self, pcap_paths: Sequence[Union[str, Path]],
            keys: Optional[Sequence[Optional[str]]] = None) -> ProfileReport:
        """Convenience: digest + index + analyze in one call (``keys``
        as for :meth:`digest`)."""
        self.digest(pcap_paths, keys)
        self.build_index()
        return self.analyze()
