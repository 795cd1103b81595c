"""The perf benchmark's workloads: inputs from a seed, the untimed
setup, the timed operation, and the checks on its outputs.

Every workload is driven through the program's public entry points
(``CampaignRunner``, ``CrashingIO``, ``AnalysisPipeline``,
``FrameBuilder``/``PcapWriter``) and nothing under ``src/`` changes.

Why the campaign inputs are *selected* rather than taken as-is: a
site's traffic is drawn by the program from the campaign seed, and its
cost is heavy-tailed.  One personality (``chatty``) creates ~100x the
flows of another, and each 150-s window scales its arrival rate by a
log-normal intensity (sigma 1.2 for ``mixed``).  The fixed sites
S00-S15 at ``traffic_span=40``, run serially, take 4.0, 5.3 and 7.3 s
(seeds 2, 29, 1) and 15.2 s at seed 3, where S13 is chatty.  A
commit's time on a workload is the median over runs at ten different
seeds, and its bound is checked against their quartile spread, so
with fixed sites no timing bound could hold.
:func:`offered_rates` asks the program itself: it builds the world a
shard or occasion would build and records the personality and the flow
rate the program offers in its first window.  Each workload keeps the
sites (or the campaign seed) whose offered load is the workload's
fixed target.  The seed still decides which sites, which traffic and
every frame; it no longer decides how much work there is.
"""

from __future__ import annotations

import hashlib
import json
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

import repro.traffic.workloads as traffic_workloads
from repro import quickstart_federation
from repro.analysis import AnalysisPipeline
from repro.core.campaign import CampaignManifest, CampaignRunner
from repro.core.checkpoint import CampaignLog, sha256_file
from repro.packets.builder import FrameBuilder, FrameSpec
from repro.packets.headers import (DNSHeader, Ethernet, HTTPPayload, ICMP,
                                   IPv4, IPv6, MPLS, Payload,
                                   PseudoWireControlWord, TCP, TLSRecord,
                                   UDP, VLAN)
from repro.packets.pcap import PcapRecord, PcapWriter
from repro.testbed.chaos import CrashingIO
from repro.traffic.workloads import WORKLOAD_PROFILES, assign_site_profiles
from repro.util.atomio import FileIO, SimulatedCrash
from repro.util.rng import derive_rng

# What the operations import lazily, imported here so that no timed
# region pays for it.
import repro.capture.session  # noqa: E402,F401
import repro.core.coordinator  # noqa: E402,F401
import repro.core.sharding  # noqa: E402,F401
import repro.obs.audit  # noqa: E402,F401
import repro.obs.ledger  # noqa: E402,F401
import repro.obs.tracing  # noqa: E402,F401
import repro.telemetry  # noqa: E402,F401
import repro.testbed  # noqa: E402,F401

#: Manifest fields shared by every campaign workload.  The sampling
#: plan is one 2-s sample per site and occasion, the shape of the
#: repo's sharding and chaos benchmarks.  The acap cache is off: it
#: keys pcaps on size, mtime and leading bytes, so identical (often
#: empty) pcaps of different shards can hit each other's entries, and
#: the journaled hit counts then depend on which shard ran first.  The
#: analyze and reanalyze workloads cover the cache.
CAMPAIGN = dict(sample_duration=2.0, sample_interval=10.0,
                samples_per_run=1, runs_per_cycle=1, cycles=1,
                desired_instances=1, cache_enabled=False)

#: Site labels the shard probe walks through, in sorted order:
#: S00-S99, T00-T99, ..., z99.
POOL = [f"{letter}{i:02d}" for letter in "STUVWXYZabcdefghijklmnopqrstuvwxyz"
        for i in range(100)]


# -- the probe ----------------------------------------------------------------

def offered_rates(seeds: Dict[str, int], sites: List[str],
                  scale: float) -> Dict[str, Tuple[str, float]]:
    """``{site: (personality, flows/s)}`` of the first traffic window of
    the world the program builds from ``seeds`` over ``sites``.

    The rate is the one the program passes to its own
    ``poisson_arrival_times`` in a zero-length window, so the probe
    follows whatever the program draws, and creates no flows.
    """
    _fed, _api, _poller, orchestrator = quickstart_federation(
        site_names=sites, seed=seeds["world"], traffic_seed=seeds["traffic"],
        traffic_scale=scale)
    original = traffic_workloads.poisson_arrival_times
    rates: List[float] = []

    def observe(rng, rate, *args, **kwargs):
        rates.append(float(rate))
        return original(rng, rate, *args, **kwargs)

    traffic_workloads.poisson_arrival_times = observe
    try:
        for site in sites:
            orchestrator.generate_window(0.0, 0.0, sites=[site])
    finally:
        traffic_workloads.poisson_arrival_times = original
    return {site: (orchestrator.profiles[site].name, rate)
            for site, rate in zip(sites, rates)}


def personalities(seeds: Dict[str, int], sites: List[str]) -> Dict[str, str]:
    """The personality each site draws in a world over ``sites``, without
    building the world: a cheap filter before :func:`offered_rates`."""
    return {site: profile.name for site, profile in
            assign_site_profiles(sorted(sites), seeds["traffic"]).items()}


def pick_shards(seed: int, count: int, scale: float, kinds: Tuple[str, ...],
                accept: Callable[[str, float, List[str]], bool]
                ) -> List[Tuple[str, str, float]]:
    """``(site, personality, flows/s)`` of the first ``count`` sites of
    ``POOL`` whose shard world draws one of ``kinds`` and passes
    ``accept(personality, rate, personalities chosen so far)``.

    A shard world is ``[site, next manifest site]`` and personalities
    are drawn in sorted site order, so a site's draw depends on whether
    its companion sorts after it.  The manifest lists the sites in pool
    order: each site's companion is the next one, except the last
    one's, which wraps to the first.  The probe builds that world.
    """
    manifest = CampaignManifest(seed=seed)
    chosen: List[Tuple[str, str, float]] = []
    for label in POOL:
        companion = chosen[0][0] if len(chosen) == count - 1 else label + "~"
        seeds = manifest.shard_seeds(0, label)
        if personalities(seeds, [label, companion])[label] not in kinds:
            continue
        kind, rate = offered_rates(seeds, [label, companion], scale)[label]
        if kind in kinds and accept(kind, rate, [k for _, k, _ in chosen]):
            chosen.append((label, kind, rate))
            if len(chosen) == count:
                return chosen
    raise RuntimeError(f"seed {seed}: site pool exhausted")


def fleet_params(seed: int, smoke: bool = False) -> Dict[str, Any]:
    """16 ``mixed`` sites (4 for ``--smoke``), each offered a third of
    the personality's nominal flow rate (4 flows/s), within 10%.

    ``mixed`` is the application-experiment personality (TLS, HTTP,
    SSH, DNS, NTP, ICMP, iperf over VLAN/MPLS/PseudoWire).  Its cost
    follows the offered rate closely, so the shards balance and the
    work repeats across seeds.  The ``bulk`` personalities would load
    the event loop more, but their cost follows heavy-tailed flow
    sizes the rate does not show: 16 rate-matched ``bulk`` shards gave
    a quartile spread of 19% in events and 34% in wall time over ten
    seeds.  A 40-s span reaches into the capture sample, so capture and
    analysis run too; a longer one only adds flows generated after the
    simulation ends (at 120 s, three times the flows for 8% more
    events).
    """
    target = WORKLOAD_PROFILES["mixed"].flow_rate_per_s / 3

    def accept(kind: str, rate: float, _kinds: List[str]) -> bool:
        return kind == "mixed" and abs(rate - target) <= 0.1 * target

    scale = 0.02
    picked = pick_shards(seed, 4 if smoke else 16, scale, ("mixed",), accept)
    return {
        "manifest": dict(seed=seed, sites=[site for site, _, _ in picked],
                         occasions=1, traffic_scale=scale,
                         traffic_span=40.0, sharded=True, **CAMPAIGN),
        "shard_workers": 2,
    }


def straggler_params(seed: int, smoke: bool = False) -> Dict[str, Any]:
    """One ``chatty`` shard among 15 ``quiet`` ones (3 for ``--smoke``).

    ``traffic_span`` is set so the chatty shard is offered a fixed
    number of flows.  The span stays between 0.5 s and 8 s, so every flow
    generated is simulated and the traffic ends before the capture
    sample, whatever the seed.  At seed 29 the chatty site is S23, the
    ROADMAP's straggler.
    """
    flows = 1000 if smoke else 4000
    quiet = 3 if smoke else 15

    def accept(kind: str, rate: float, kinds: List[str]) -> bool:
        if kind == "chatty":
            return "chatty" not in kinds and 0.5 <= flows / rate <= 8.0
        return kinds.count("quiet") < quiet

    scale = 0.005
    picked = pick_shards(seed, quiet + 1, scale, ("chatty", "quiet"), accept)
    rate = next(rate for _, kind, rate in picked if kind == "chatty")
    return {
        "manifest": dict(seed=seed, sites=[site for site, _, _ in picked],
                         occasions=1, traffic_scale=scale,
                         traffic_span=flows / rate, sharded=True, **CAMPAIGN),
        "shard_workers": 2,
    }


def resume_params(seed: int, smoke: bool = False) -> Dict[str, Any]:
    """A durable, unsharded two-occasion campaign over STAR, MICH, UTAH
    and TACC whose second occasion, the one each rep resumes, is offered
    960 flows (at every size: ``--smoke`` only runs fewer reps).

    The campaign seed is the first of ``seed * 10000, seed * 10000 + 1,
    ...`` whose second occasion offers only ``mixed`` and ``quiet``
    traffic, at a rate that reaches those flows in 30 to 50 s, and whose
    first occasion (run only in setup) offers no ``chatty`` traffic and
    at most half that rate.  ``traffic_span`` is set so the second
    occasion is offered exactly that many flows; the occasion simulates
    52 s, so all of them start, whatever the seed.
    """
    sites = ["STAR", "MICH", "UTAH", "TACC"]
    flows = 960
    scale = 0.02

    def offered(manifest: CampaignManifest, occasion: int,
                allowed: Tuple[str, ...]) -> Optional[float]:
        """Total offered flows/s, or None if a site draws another
        personality than ``allowed``."""
        seeds = manifest.occasion_seeds(occasion)
        if any(kind not in allowed
               for kind in personalities(seeds, sites).values()):
            return None
        rates = offered_rates(seeds, sites, scale).values()
        return sum(r for _, r in rates) \
            if all(k in allowed for k, _ in rates) else None

    for campaign_seed in range(seed * 10000, (seed + 1) * 10000):
        manifest = CampaignManifest(seed=campaign_seed)
        last = offered(manifest, 1, ("mixed", "quiet"))
        if last is None or not 30.0 <= flows / last <= 50.0:
            continue
        first = offered(manifest, 0, tuple(
            name for name in WORKLOAD_PROFILES if name != "chatty"))
        if first is not None and first <= 0.5 * last:
            return {"manifest": dict(seed=campaign_seed, sites=sites,
                                     occasions=2, traffic_scale=scale,
                                     traffic_span=flows / last, **CAMPAIGN)}
    raise RuntimeError(f"seed {seed}: no campaign seed fits")


def analyze_params(seed: int, smoke: bool = False) -> Dict[str, Any]:
    return {"seed": seed, "distinct": 600 if smoke else 4000, "copies": 8,
            "pcaps": 16, "sites": 8, "snaplen": 200, "max_workers": 2}


# -- campaign operations --------------------------------------------------------

def manifest_of(params: Dict[str, Any]) -> CampaignManifest:
    return CampaignManifest(**params["manifest"])


def campaign_outputs(run_dir: Path, summary) -> Dict[str, Any]:
    """What the checks compare: hashes of every final artifact."""
    pcaps = sorted((run_dir / "captures").rglob("*.pcap"))
    listing = "".join(f"{p.relative_to(run_dir)} {sha256_file(p)}\n"
                      for p in pcaps)
    return {
        "audit_ok": bool(summary.audit_ok),
        "journal_sha256": sha256_file(run_dir / "journal.jsonl"),
        "records_sha256": sha256_file(run_dir / "records.json"),
        "pcap_set_sha256": hashlib.sha256(listing.encode()).hexdigest(),
        "pcaps": len(pcaps),
        "executed": list(summary.executed),
        "skipped": list(summary.skipped),
    }


def parent_spans(run_dir: Path) -> Dict[str, float]:
    """Wall seconds per span name in the campaign's own trace.jsonl."""
    totals: Dict[str, float] = {}
    path = run_dir / "trace.jsonl"
    if path.exists():
        for line in path.read_text().splitlines():
            event = json.loads(line)
            if event["kind"] == "span-close":
                name = event["data"]["name"]
                totals[name] = totals.get(name, 0.0) + \
                    float(event["data"].get("wall_s", 0.0))
    return totals


def setup_sharded(params, work: Path) -> Dict[str, Any]:
    """The ``shard_workers=1`` run: the reference the reps must match."""
    run_dir = work / "reference"
    summary = CampaignRunner(run_dir, manifest=manifest_of(params),
                             shard_workers=1).run()
    reference = campaign_outputs(run_dir, summary)
    shutil.rmtree(run_dir)
    return {"reference": reference}


def run_campaign(params, prepared, rep_dir: Path, timed,
                 workers: int) -> Dict[str, Any]:
    run_dir = rep_dir / "run"
    with timed():
        summary = CampaignRunner(run_dir, manifest=manifest_of(params),
                                 shard_workers=workers).run()
    return {**campaign_outputs(run_dir, summary),
            "parent_spans": parent_spans(run_dir)}


def setup_resume(params, work: Path) -> Dict[str, Any]:
    """Reference run, then the same campaign crashed just after the
    last occasion's ``occasion-begin`` WAL record.

    The crash op is found by watching ``CampaignLog.append`` during the
    reference run, so it moves with any change to IO op counts.
    """
    manifest = manifest_of(params)
    last = manifest.occasions - 1
    reference_io = FileIO()
    begin_op: List[int] = []
    original = CampaignLog.append

    def watch(log, kind, data, commit=False):
        record = original(log, kind, data, commit=commit)
        if kind == "occasion-begin" and int(data["occasion"]) == last:
            begin_op.append(reference_io.ops)
        return record

    CampaignLog.append = watch
    try:
        summary = CampaignRunner(work / "reference", manifest=manifest,
                                 io=reference_io).run()
    finally:
        CampaignLog.append = original
    reference = campaign_outputs(work / "reference", summary)
    crash_at = begin_op[0] + 1
    crashing = CrashingIO(crash_at, derive_rng(manifest.seed, "perf/resume"),
                          mode="pre-replace")
    try:
        CampaignRunner(work / "crashed", manifest=manifest, io=crashing).run()
    except SimulatedCrash:
        pass
    if not crashing.crashed:
        raise RuntimeError(f"campaign finished before IO op {crash_at}")
    shutil.rmtree(work / "reference")
    return {"crashed_dir": str(work / "crashed"), "reference": reference}


def run_resume(params, prepared, rep_dir: Path, timed,
               workers: int) -> Dict[str, Any]:
    run_dir = rep_dir / "run"
    shutil.copytree(prepared["crashed_dir"], run_dir)
    with timed():
        summary = CampaignRunner(run_dir).run(resume=True)
    return {**campaign_outputs(run_dir, summary),
            "parent_spans": parent_spans(run_dir)}


# -- the analysis corpus --------------------------------------------------------

def build_corpus(params: Dict[str, Any], root: Path) -> Dict[str, Any]:
    """Write the synthetic capture corpus; returns its ground truth.

    Header shares follow the paper's Fig 12: VLAN on nearly every frame,
    MPLS and PseudoWire pervasive, ~2% IPv6, ~90% TCP, and jumbo data
    frames.  Every distinct frame is written ``copies`` times with
    distinct timestamps, spread over ``pcaps`` files in ``sites``
    site directories, truncated to ``snaplen``.
    """
    rng = np.random.default_rng([params["seed"], 12])
    build = FrameBuilder().build
    frames = []
    ipv6 = 0
    for _ in range(params["distinct"]):
        frame, is_v6 = _random_frame(rng, build)
        frames.append(frame)
        ipv6 += is_v6
    paths = [root / f"SITE{p % params['sites']}" / f"sample{p:02d}.pcap"
             for p in range(params["pcaps"])]
    for path in paths:
        path.parent.mkdir(parents=True, exist_ok=True)
    writers = [PcapWriter(path, snaplen=params["snaplen"]) for path in paths]
    try:
        for copy in range(params["copies"]):
            for i, frame in enumerate(frames):
                writers[(i + copy) % len(writers)].write(PcapRecord(
                    100.0 * copy + 1e-3 * i, frame, orig_len=len(frame)))
    finally:
        for writer in writers:
            writer.close()
    return {"pcaps": [str(p) for p in paths],
            "frames": params["distinct"] * params["copies"],
            "ipv6_frames": ipv6 * params["copies"]}


def _random_frame(rng: np.random.Generator, build) -> Tuple[bytes, bool]:
    def mac() -> str:
        return "02:00:00:%02x:%02x:%02x" % tuple(rng.integers(0, 256, 3))

    host = int(rng.integers(0, 400))
    peer = int(rng.integers(0, 400))
    stack: List[object] = [Ethernet(mac(), mac())]
    if rng.random() < 0.97:
        stack.append(VLAN(int(rng.integers(100, 3100))))
    if rng.random() < 0.85:
        for _ in range(1 + int(rng.random() < 0.5)):
            stack.append(MPLS(int(rng.integers(16000, 20000))))
        if rng.random() < 0.6:
            stack += [PseudoWireControlWord(), Ethernet(mac(), mac())]
    is_v6 = rng.random() < 0.02
    if is_v6:
        stack.append(IPv6(f"2001:db8::{host:x}", f"2001:db8:1::{peer:x}"))
    else:
        stack.append(IPv4(f"10.{host // 250}.{host % 250}.1",
                          f"10.9.{peer // 250}.{peer % 250}"))
    sport = int(rng.integers(32768, 61000))
    kind = rng.random()
    target = None
    if kind < 0.90:
        dport = (443, 80, 5201)[int(rng.choice(3, p=[0.6, 0.2, 0.2]))]
        stack.append(TCP(sport, dport))
        if rng.random() >= 0.35:  # the rest are payload-free ACKs
            if dport == 443:
                stack.append(TLSRecord())
            elif dport == 80:
                stack.append(HTTPPayload())
            stack.append(Payload(0))
            size = rng.random()
            target = (1514 if size < 0.6 else
                      9014 if size < 0.75 else int(rng.integers(200, 1400)))
    elif kind < 0.98:
        stack += [UDP(sport, 53), DNSHeader(ident=int(rng.integers(0, 65536)))]
    else:
        stack += [ICMP(ident=int(rng.integers(0, 65536))), Payload(56)]
    return build(FrameSpec(stack, target_size=target)), is_v6


def analysis_outputs(report, rep_dir: Path) -> Dict[str, Any]:
    """Hash of every report CSV, plus the numbers the checks compare."""
    digest = hashlib.sha256()
    for path in report.write_csvs(rep_dir / "csv"):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    stats = report.stats
    return {"csv_sha256": digest.hexdigest(),
            "total_frames": report.total_frames,
            "ipv6_fraction": report.ipv6_fraction,
            "cache_hits": stats.cache_hits, "cache_misses": stats.cache_misses,
            "pcaps": stats.pcaps}


def setup_analyze(params, work: Path) -> Dict[str, Any]:
    return build_corpus(params, work / "corpus")


def setup_reanalyze(params, work: Path) -> Dict[str, Any]:
    """The corpus, and the cold run that fills the acap cache."""
    corpus = build_corpus(params, work / "corpus")
    pipeline = AnalysisPipeline(max_workers=params["max_workers"],
                                cache_dir=work / "cache")
    cold = analysis_outputs(pipeline.run(corpus["pcaps"]), work)
    return {**corpus, "cache_dir": str(work / "cache"), "reference": cold}


def run_analysis(params, prepared, rep_dir: Path, timed,
                 workers: int) -> Dict[str, Any]:
    cache_dir = prepared.get("cache_dir") or rep_dir / "cache"
    pipeline = AnalysisPipeline(max_workers=workers, cache_dir=cache_dir)
    with timed():
        report = pipeline.run(prepared["pcaps"])
    return analysis_outputs(report, rep_dir)


# -- checks ----------------------------------------------------------------------

def check_campaign(outputs: List[Dict[str, Any]],
                   prepared: Dict[str, Any]) -> List[str]:
    """Per-rep failures: the audit, then journal and records
    byte-identical to ``prepared["reference"]`` (the uninterrupted run
    for ``resume``, the ``shard_workers=1`` setup for sharded ones)."""
    reference = prepared["reference"]
    failures = []
    for out in outputs:
        problems = [] if out["audit_ok"] else ["audit failed"]
        problems += [f"{key} differs from the reference"
                     for key in ("journal_sha256", "records_sha256")
                     if out[key] != reference[key]]
        failures.append("; ".join(problems))
    return failures


def check_analysis(outputs, prepared) -> List[str]:
    """Report CSVs equal to the cold setup run (reanalyze) or to the
    first rep (analyze); frame count and IPv6 share equal to the
    corpus's; with a filled cache, every pcap a hit."""
    reference = prepared.get("reference") or outputs[0]
    failures = []
    for out in outputs:
        problems = []
        if out["csv_sha256"] != reference["csv_sha256"]:
            problems.append("report CSVs differ from the reference")
        if out["total_frames"] != prepared["frames"]:
            problems.append(f"{out['total_frames']} frames analysed, "
                            f"{prepared['frames']} written")
        if out["ipv6_fraction"] != prepared["ipv6_frames"] / prepared["frames"]:
            problems.append("IPv6 share differs from the corpus")
        if "cache_dir" in prepared and out["cache_hits"] != out["pcaps"]:
            problems.append(f"{out['cache_misses']} acap cache misses")
        failures.append("; ".join(problems))
    return failures


def check_resume(outputs, prepared) -> List[str]:
    failures = check_campaign(outputs, prepared)
    return [f or ("" if (o["skipped"], o["executed"]) == ([0], [1]) else
                  f"resumed skipped={o['skipped']} executed={o['executed']}")
            for f, o in zip(failures, outputs)]


# -- the registry ----------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    """``params(seed, smoke)`` picks the inputs; ``setup(params, dir)``
    prepares them, timed as ``setup_s``; ``run(params, prepared,
    rep_dir, timed, workers)`` executes one rep, calling ``timed()``
    around the measured operation; ``check(outputs, prepared)`` returns
    one failure string per rep (empty when the rep is correct)."""

    params: Callable[[int, bool], Dict[str, Any]]
    setup: Callable[[Dict[str, Any], Path], Dict[str, Any]]
    run: Callable[..., Dict[str, Any]]
    check: Callable[[List[Dict[str, Any]], Dict[str, Any]], List[str]]

    def workers(self, params: Dict[str, Any]) -> int:
        return int(params.get("shard_workers") or params.get("max_workers")
                   or 1)

    @property
    def sharded(self) -> bool:
        return self.setup is setup_sharded


WORKLOADS: Dict[str, Workload] = {
    "fleet": Workload(fleet_params, setup_sharded, run_campaign,
                      check_campaign),
    "straggler": Workload(straggler_params, setup_sharded, run_campaign,
                          check_campaign),
    "resume": Workload(resume_params, setup_resume, run_resume, check_resume),
    "analyze": Workload(analyze_params, setup_analyze, run_analysis,
                        check_analysis),
    "reanalyze": Workload(analyze_params, setup_reanalyze, run_analysis,
                          check_analysis),
}
