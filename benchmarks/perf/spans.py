"""Outside-in layer tracing for the perf benchmark's traced rep.

:class:`Tracer` wraps public functions of each layer (named after the
module) for the duration of one timed operation, then restores them.
Each call records a span ``{id, name, parent, start, end, busy, count,
attrs}`` in memory; the hot per-frame ``PcapWriter.write`` is folded
into one span per parent (``count`` calls, ``busy`` seconds) instead of
one per frame.  Calls are properly nested -- the traced rep runs every
shard in-process -- so a span's self time is its busy time minus its
children's.

:func:`layer_metrics` turns the spans of one traced rep, plus the
untraced reps' medians, into the per-layer metrics ``BENCHMARK.json``
lists.
"""

from __future__ import annotations

import os
import statistics
import time
from typing import Any, Callable, Dict, List, Optional

#: Spans that are entry points or glue, not a layer of their own: the
#: timed operation itself and the per-shard glue around each world.
#: ``trace.coverage`` is the share of the traced wall time that the
#: *other* spans' self time accounts for.
GLUE = ("op", "sharding.run_shard")

#: Per-layer counts that repeat exactly for one seed: ``compare.py``
#: and the smoke test require them equal between runs.
COUNTS = ("testbed.worlds", "traffic.flows", "netsim.events",
          "packets.frames_written", "packets.pcap_bytes", "analysis.frames",
          "obs.journal_events", "checkpoint.wal_appends",
          "checkpoint.hashed_bytes", "sharding.shards")


class Tracer:
    """Record nested spans around the calls :meth:`install` wraps."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self._stack: List[Dict[str, Any]] = []
        self._folded: Dict[tuple, Dict[str, Any]] = {}
        self._restore: List[Callable[[], None]] = []
        #: Events in every journal ``RunJournal.write`` wrote.
        self.journal_events = 0

    # -- spans -----------------------------------------------------------

    def open(self, name: str) -> Dict[str, Any]:
        span = {"id": len(self.spans), "name": name,
                "parent": self._stack[-1]["id"] if self._stack else None,
                "start": time.perf_counter(), "end": None, "busy": 0.0, "count": 1,
                "attrs": {}}
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Dict[str, Any]) -> None:
        span["end"] = time.perf_counter()
        span["busy"] = span["end"] - span["start"]
        if self._stack.pop() is not span:
            raise RuntimeError(f"span {span['name']} closed out of order")

    def fold(self, name: str, started: float, **counts) -> None:
        """Add one call of a hot function to its per-parent span."""
        ended = time.perf_counter()
        parent = self._stack[-1]["id"] if self._stack else None
        span = self._folded.get((name, parent))
        if span is None:
            span = {"id": len(self.spans), "name": name, "parent": parent,
                    "start": started, "end": ended, "busy": 0.0, "count": 0,
                    "attrs": {key: 0 for key in counts}}
            self.spans.append(span)
            self._folded[(name, parent)] = span
        span["end"] = ended
        span["busy"] += ended - started
        span["count"] += 1
        for key, value in counts.items():
            span["attrs"][key] += value

    # -- wrappers --------------------------------------------------------

    def _patch(self, owner, attr: str, make: Callable) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        setattr(owner, attr, make(original))
        self._restore.append(lambda: setattr(owner, attr, original))

    def wrap(self, owner, attr: str, name: str,
             before: Optional[Callable] = None,
             after: Optional[Callable] = None) -> None:
        """Trace ``owner.attr``: ``before(args)`` gives a token,
        ``after(args, result, token)`` the span's closing attributes."""
        tracer = self

        def make(original):
            method = getattr(original, "__func__", original)

            def traced(*args, **kwargs):
                token = before(args) if before else None
                span = tracer.open(name)
                try:
                    result = method(*args, **kwargs)
                finally:
                    tracer.close(span)
                if after:
                    span["attrs"].update(after(args, result, token))
                return result
            return classmethod(traced) if isinstance(original, classmethod) \
                else traced
        self._patch(owner, attr, make)

    def install(self) -> None:
        """Wrap one public boundary per layer."""
        import repro
        import repro.core.campaign
        import repro.core.sharding
        import repro.obs.audit
        import repro.obs.ledger
        from repro.analysis import AnalysisPipeline
        from repro.core.checkpoint import CampaignLog, CheckpointStore
        from repro.core.coordinator import Coordinator
        from repro.obs.journal import RunJournal
        from repro.packets.pcap import PcapWriter
        from repro.traffic.workloads import TrafficOrchestrator

        def events(args):
            return args[0].api.federation.sim.events_processed

        self.wrap(repro, "quickstart_federation", "testbed.build")
        self.wrap(TrafficOrchestrator, "generate_window", "traffic.generate",
                  after=lambda a, flows, _: {"flows": len(flows)})
        self.wrap(Coordinator, "run_profile", "core.run_profile",
                  before=events,
                  after=lambda a, _, n0: {"events": events(a) - n0})
        self.wrap(AnalysisPipeline, "digest", "analysis.digest",
                  after=lambda a, _, __: {
                      "frames": a[0].stats.total_frames,
                      "cache_hits": a[0].stats.cache_hits,
                      "cache_misses": a[0].stats.cache_misses})
        self.wrap(AnalysisPipeline, "build_index", "analysis.index")
        self.wrap(AnalysisPipeline, "analyze", "analysis.analyze")
        self.wrap(repro.obs.ledger, "attach_digests", "obs.attach_digests")
        self.wrap(RunJournal, "merge", "obs.merge")
        self.wrap(repro.obs.audit, "audit_file", "obs.audit")
        self.wrap(CampaignLog, "append", "checkpoint.wal")
        self.wrap(CheckpointStore, "save", "checkpoint.save")
        for module in (repro.core.campaign, repro.core.sharding):
            self.wrap(module, "sha256_file", "checkpoint.hash",
                      before=lambda a: os.path.getsize(a[0]),
                      after=lambda a, _, size: {"bytes": size})
        self.wrap(repro.core.sharding, "run_shard", "sharding.run_shard",
                  before=lambda a: a[0]["site"],
                  after=lambda a, _, site: {"site": site})

        tracer = self

        def count_events(original):
            def write(journal, *args, **kwargs):
                tracer.journal_events += len(journal.events)
                return original(journal, *args, **kwargs)
            return write

        def fold_write(original):
            def write(writer, record):
                started = time.perf_counter()
                before = writer.bytes_written
                original(writer, record)
                tracer.fold("packets.pcap_write", started, frames=1,
                            bytes=writer.bytes_written - before)
            return write

        self._patch(RunJournal, "write", count_events)
        self._patch(PcapWriter, "write", fold_write)

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()


# -- from spans to per-layer metrics ----------------------------------------------

def self_times(spans: List[Dict[str, Any]]) -> Dict[int, float]:
    """Busy time minus the busy time of direct children, per span id."""
    own = {span["id"]: span["busy"] for span in spans}
    for span in spans:
        if span["parent"] is not None:
            own[span["parent"]] -= span["busy"]
    return own


def layer_metrics(trace: Dict[str, Any], scale: float, untraced_wall: float,
                  serial_wall: Optional[float],
                  parent_spans: Dict[str, float]) -> Dict[str, float]:
    """Every per-layer metric of one workload.

    ``trace`` is the traced rep's result (``spans``, ``journal_events``,
    ``wall_s``) and ``scale`` its host-speed factor for wall seconds,
    applied to every time so layer times compare with the end-to-end
    ones;
    ``untraced_wall`` the median untraced wall time; ``serial_wall`` the
    median ``shard_workers=1`` setup time (sharded campaigns only);
    ``parent_spans`` the median per-name wall seconds of the campaign
    runner's own ``trace.jsonl`` in the untraced reps.
    """
    spans = trace["spans"]
    own = self_times(spans)

    def total(name: str) -> float:
        return scale * sum(own[s["id"]] for s in spans if s["name"] == name)

    def attr(name: str, key: str) -> int:
        return sum(s["attrs"].get(key, 0) for s in spans if s["name"] == name)

    wall = scale * trace["wall_s"]
    generate_s = total("traffic.generate")
    run_profile_s = total("core.run_profile")
    digest_s = total("analysis.digest")
    flows = attr("traffic.generate", "flows")
    events = attr("core.run_profile", "events")
    frames = attr("analysis.digest", "frames")
    lookups = attr("analysis.digest", "cache_hits") + \
        attr("analysis.digest", "cache_misses")
    shards = [scale * s["busy"] for s in spans
              if s["name"] == "sharding.run_shard"]
    # A traced sharded run is serial, so its baseline is the serial setup.
    baseline = serial_wall if serial_wall else untraced_wall
    median_shard = statistics.median(shards) if shards else 0.0
    return {
        "testbed.build_s": total("testbed.build"),
        "testbed.worlds": sum(1 for s in spans if s["name"] == "testbed.build"),
        "traffic.generate_s": generate_s,
        "traffic.flows": flows,
        "traffic.us_per_flow": 1e6 * generate_s / flows if flows else 0.0,
        "core.run_profile_s": run_profile_s,
        "netsim.events": events,
        "netsim.events_per_s": events / run_profile_s if run_profile_s else 0.0,
        "packets.pcap_write_s": total("packets.pcap_write"),
        "packets.frames_written": attr("packets.pcap_write", "frames"),
        "packets.pcap_bytes": attr("packets.pcap_write", "bytes"),
        "analysis.digest_s": digest_s,
        "analysis.index_s": total("analysis.index"),
        "analysis.analyze_s": total("analysis.analyze"),
        "analysis.frames": frames,
        "analysis.frames_per_s": frames / digest_s if digest_s else 0.0,
        "analysis.cache_hit_ratio": (attr("analysis.digest", "cache_hits")
                                     / lookups if lookups else 0.0),
        "obs.attach_digests_s": total("obs.attach_digests"),
        "obs.merge_s": total("obs.merge"),
        "obs.audit_s": total("obs.audit"),
        "obs.journal_events": trace["journal_events"],
        "checkpoint.wal_appends": sum(1 for s in spans
                                      if s["name"] == "checkpoint.wal"),
        "checkpoint.wal_s": total("checkpoint.wal"),
        "checkpoint.hashed_bytes": attr("checkpoint.hash", "bytes"),
        "checkpoint.hash_s": total("checkpoint.hash"),
        "checkpoint.save_s": total("checkpoint.save"),
        "sharding.shards": len(shards),
        "sharding.shard_s_max": max(shards, default=0.0),
        "sharding.shard_s_median": median_shard,
        "sharding.imbalance": (max(shards) / median_shard
                               if median_shard else 0.0),
        "sharding.serial_wall_s": serial_wall or 0.0,
        "sharding.speedup": (serial_wall / untraced_wall
                             if serial_wall else 0.0),
        "campaign.dispatch_s": parent_spans.get("shard.dispatch", 0.0),
        "campaign.land_s": parent_spans.get("shard.land", 0.0),
        "campaign.merge_s": parent_spans.get("journal.merge", 0.0),
        "campaign.commit_s": parent_spans.get("occasion.commit", 0.0),
        "campaign.verify_s": (parent_spans.get("occasion.verify", 0.0)
                              + parent_spans.get("shard.verify", 0.0)),
        "campaign.finalize_s": parent_spans.get("campaign.finalize", 0.0),
        "trace.coverage": scale * sum(own[s["id"]] for s in spans
                                      if s["name"] not in GLUE) / wall,
        "trace.overhead_pct": 100.0 * (wall - baseline) / baseline,
    }


def slowest_shard(spans: List[Dict[str, Any]]) -> Optional[Dict[str, Any]]:
    """The slowest shard's site and its share of every flow generated."""
    shards = [s for s in spans if s["name"] == "sharding.run_shard"]
    if not shards:
        return None
    slowest = max(shards, key=lambda s: s["busy"])
    generated = [s for s in spans if s["name"] == "traffic.generate"]
    flows = sum(s["attrs"]["flows"] for s in generated)
    own = sum(s["attrs"]["flows"] for s in generated
              if s["parent"] == slowest["id"])
    return {"site": slowest["attrs"]["site"],
            "flow_share": own / flows if flows else 0.0}
