"""Per-sample frame-conservation ledger.

The simulator, unlike the real testbed, knows the ground truth at every
hop of the mirror path.  This module reconciles that truth into one row
per (instance, cycle, run, sample, slot): every frame offered to the
mirrored port during the capture window is accounted for exactly once,
either as captured or as a drop attributed to a stage/cause pair::

    generated == captured + sum(drops[cause] for cause in CAUSES)

where ``generated = offered_in_window + carry_in`` (clones already in
flight toward the NIC when the window opened).  The identity is a real
cross-layer check, not bookkeeping: the left side comes from switch
channel counters, the right side from the capture model's own counters,
and any wiring bug between them (a lost subscription, a miscounted
drop) breaks it.

Cause taxonomy
--------------
``oversize``             frame exceeded the mirrored channel's MTU and
                         was never seen by the mirror tap.
``fault-window``         the mirror session was absent for part of the
                         window (fault-injected drop), or the capture was
                         salvaged mid-window -- frames lost to the fault.
``mirror-egress``        tail-dropped by the mirror destination port's
                         egress queue: the paper's Section 6.2.2 overload
                         hazard, and the ground truth the congestion
                         scorecard judges ``CongestionVerdict`` against.
``in-flight``            cloned but still queued/serializing/propagating
                         when the capture stopped (not a loss; carried
                         out of the window).
``nic-ring``             DPDK rx-ring overflow in the capture host.
``writer-backpressure``  tcpdump kernel-buffer overflow.
``filtered``             intentionally removed by the FPGA filter or
                         sampler (accounted, not a loss).

Source-port queue drops ("link queue") do NOT appear in the identity:
the mirror tap observes frames *before* the mirrored channel's queue
(like a span configured upstream of an egress queue), so a source-side
tail drop does not reduce the clone population.  They are carried as
context fields (``source_rx_drops``/``source_tx_drops``) instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

# Ordered as frames traverse the path; the audit waterfall renders rows
# in this order.
CAUSES: Tuple[str, ...] = (
    "oversize",
    "fault-window",
    "mirror-egress",
    "in-flight",
    "nic-ring",
    "writer-backpressure",
    "filtered",
)

STAGE_OF_CAUSE: Dict[str, str] = {
    "oversize": "mirror-source",
    "fault-window": "mirror-source",
    "mirror-egress": "mirror-egress",
    "in-flight": "link",
    "nic-ring": "capture",
    "writer-backpressure": "capture",
    "filtered": "capture",
    "parse-error": "digest",
}


def _empty_drops() -> Dict[str, int]:
    return {cause: 0 for cause in CAUSES}


@dataclass
class SampleLedger:
    """One reconciled conservation row for a single capture sample."""

    site: str = ""
    instance: str = ""
    cycle: int = 0
    run: int = 0
    sample: int = 0
    slot: int = 0
    mirrored_port: str = ""
    dest_port: str = ""
    # Site-qualified pcap *name* ("STAR/c0_r0_s0_slot0_p3.pcap"), never a
    # path, so journal rows stay byte-identical across output dirs.
    pcap: str = ""
    method: str = ""
    directions: Tuple[str, ...] = ("rx", "tx")
    start: float = 0.0
    end: float = 0.0
    aborted: bool = False

    # Populations (frames).
    offered: int = 0     # offered to the mirrored channels in the window
    carry_in: int = 0    # clones in flight toward the NIC at window open
    generated: int = 0   # offered + carry_in
    cloned: int = 0      # accepted clone offers at the mirror dest port
    delivered: int = 0   # clones handed to the NIC in the window
    frames_seen: int = 0  # what the capture session says it saw
    captured: int = 0    # written to the pcap

    drops: Dict[str, int] = field(default_factory=_empty_drops)

    # Context (not part of the identity; see module docstring).
    source_rx_drops: int = 0
    source_tx_drops: int = 0

    # Scorecard inputs: the SNMP-derived verdict for this sample (None
    # when unanswerable or the sample was salvaged before detection).
    verdict_overloaded: Optional[bool] = None

    # Streaming-telemetry detector readings, keyed by detector name
    # ("snmp" / "sketch" / "inband"), each a dict with "overloaded",
    # "latency" (seconds from window start; None unless overloaded) and
    # "bytes" (telemetry cost charged to this sample).  Empty when the
    # run had streaming telemetry disabled -- and then omitted from the
    # journal event entirely, keeping telemetry-off journals
    # byte-identical to pre-telemetry builds.
    detectors: Dict[str, Dict[str, object]] = field(default_factory=dict)

    # Digest reconciliation, filled in by :func:`attach_digests`.
    digested: Optional[int] = None
    truncated: int = 0
    parse_errors: int = 0

    @property
    def total_drops(self) -> int:
        return sum(self.drops.values())

    def conservation_error(self) -> int:
        """``generated - captured - sum(drops)``; zero iff conserved."""
        return self.generated - self.captured - self.total_drops

    def wiring_error(self) -> int:
        """Delivered-to-NIC vs seen-by-capture mismatch; zero iff the
        ledger window and the capture subscription were synchronous."""
        return self.delivered - self.frames_seen

    @property
    def ok(self) -> bool:
        return self.conservation_error() == 0 and self.wiring_error() == 0

    @property
    def mirror_overloaded_truth(self) -> bool:
        """Ground truth the scorecard judges the detector against."""
        return self.drops["mirror-egress"] > 0

    def to_event(self) -> Dict[str, object]:
        """Flatten into journal-event data (canonical-JSON friendly)."""
        event: Dict[str, object] = {
            "site": self.site,
            "instance": self.instance,
            "cycle": self.cycle,
            "run": self.run,
            "sample": self.sample,
            "slot": self.slot,
            "mirrored_port": self.mirrored_port,
            "dest_port": self.dest_port,
            "pcap": self.pcap,
            "method": self.method,
            "directions": sorted(self.directions),
            "start": self.start,
            "end": self.end,
            "aborted": self.aborted,
            "offered": self.offered,
            "carry_in": self.carry_in,
            "generated": self.generated,
            "cloned": self.cloned,
            "delivered": self.delivered,
            "frames_seen": self.frames_seen,
            "captured": self.captured,
            "drops": dict(self.drops),
            "source_rx_drops": self.source_rx_drops,
            "source_tx_drops": self.source_tx_drops,
            "verdict": self.verdict_overloaded,
            "conserved": self.conservation_error() == 0,
        }
        if self.detectors:
            event["detectors"] = {name: dict(reading)
                                  for name, reading in
                                  sorted(self.detectors.items())}
        return event

    @classmethod
    def from_event(cls, data: Dict[str, object]) -> "SampleLedger":
        """Rebuild a row from journal-event data (``repro audit``)."""
        drops = _empty_drops()
        drops.update({k: int(v) for k, v in dict(data["drops"]).items()})
        return cls(
            site=str(data["site"]),
            instance=str(data.get("instance", "")),
            cycle=int(data["cycle"]),
            run=int(data["run"]),
            sample=int(data["sample"]),
            slot=int(data["slot"]),
            mirrored_port=str(data["mirrored_port"]),
            dest_port=str(data["dest_port"]),
            pcap=str(data["pcap"]),
            method=str(data["method"]),
            directions=tuple(data.get("directions", ("rx", "tx"))),
            start=float(data["start"]),
            end=float(data["end"]),
            aborted=bool(data.get("aborted", False)),
            offered=int(data["offered"]),
            carry_in=int(data["carry_in"]),
            generated=int(data["generated"]),
            cloned=int(data["cloned"]),
            delivered=int(data["delivered"]),
            frames_seen=int(data["frames_seen"]),
            captured=int(data["captured"]),
            drops=drops,
            source_rx_drops=int(data.get("source_rx_drops", 0)),
            source_tx_drops=int(data.get("source_tx_drops", 0)),
            verdict_overloaded=data.get("verdict"),
            detectors={str(name): dict(reading) for name, reading in
                       dict(data.get("detectors", {})).items()},
        )


class _ChannelSnapshot:
    """Offered/dropped/delivered/oversize counters at one instant."""

    __slots__ = ("offered", "dropped", "delivered", "oversize")

    def __init__(self, channel) -> None:
        stats = channel.stats
        self.offered = stats.offered_frames
        self.dropped = stats.dropped_frames
        self.delivered = stats.delivered_frames
        self.oversize = channel.oversize_drops


class OpenSampleLedger:
    """A ledger window in progress; created by :class:`LedgerRecorder`."""

    def __init__(self, recorder: "LedgerRecorder", meta: Dict[str, object],
                 source_channels: Sequence, dest_tx) -> None:
        self._recorder = recorder
        self._meta = meta
        self._source_channels = tuple(source_channels)
        self._dest_tx = dest_tx
        self._source_snaps = tuple(_ChannelSnapshot(c)
                                   for c in self._source_channels)
        self._dest_snap = _ChannelSnapshot(dest_tx)
        self._start = recorder.sim.now
        self._closed = False

    def close(self, capture_stats, verdict: Optional[bool] = None,
              aborted: bool = False,
              detectors: Optional[Dict[str, Dict[str, object]]] = None,
              ) -> SampleLedger:
        """Reconcile the window against the final capture statistics.

        ``aborted`` marks a salvaged (fault-interrupted) sample: clones
        still in flight are charged to ``fault-window`` rather than
        ``in-flight``, since the capture will never collect them.
        ``detectors`` carries the streaming-telemetry readings (name ->
        overloaded/latency/bytes dict) when that subsystem is enabled.
        """
        if self._closed:
            raise RuntimeError("ledger window already closed")
        self._closed = True

        offered = oversize = src_drops_rx = src_drops_tx = 0
        for channel, snap in zip(self._source_channels, self._source_snaps):
            stats = channel.stats
            offered += stats.offered_frames - snap.offered
            oversize += channel.oversize_drops - snap.oversize
            queue_drops = (stats.dropped_frames - snap.dropped) - \
                (channel.oversize_drops - snap.oversize)
            if channel.name.endswith("/rx"):
                src_drops_rx += queue_drops
            else:
                src_drops_tx += queue_drops

        dest = self._dest_tx.stats
        snap = self._dest_snap
        cloned = dest.offered_frames - snap.offered
        egress_drops = dest.dropped_frames - snap.dropped
        delivered = dest.delivered_frames - snap.delivered
        carry_in = snap.offered - snap.dropped - snap.delivered
        carry_out = self._dest_tx.in_flight_frames
        # Frames offered to the mirrored port while the mirror session
        # was absent (fault-injected drop) were never cloned at all.
        missing = offered - oversize - cloned

        drops = _empty_drops()
        drops["oversize"] = oversize
        drops["mirror-egress"] = egress_drops
        drops["nic-ring"] = capture_stats.ring_drops
        drops["writer-backpressure"] = capture_stats.writer_drops
        drops["filtered"] = capture_stats.frames_filtered
        if aborted:
            drops["fault-window"] = missing + carry_out
        else:
            drops["fault-window"] = missing
            drops["in-flight"] = carry_out

        row = SampleLedger(
            start=self._start,
            end=self._recorder.sim.now,
            aborted=aborted,
            offered=offered,
            carry_in=carry_in,
            generated=offered + carry_in,
            cloned=cloned,
            delivered=delivered,
            frames_seen=capture_stats.frames_seen,
            captured=capture_stats.frames_captured,
            drops=drops,
            source_rx_drops=src_drops_rx,
            source_tx_drops=src_drops_tx,
            verdict_overloaded=verdict,
            detectors=dict(detectors) if detectors else {},
            **self._meta,
        )
        self._recorder.publish(row)
        return row


class LedgerRecorder:
    """Opens/closes conservation windows against one site's switch."""

    def __init__(self, switch, site: str, instance: str = "") -> None:
        self.switch = switch
        self.sim = switch.sim
        self.site = site
        self.instance = instance

    def open(self, *, mirrored_port: str, dest_port: str,
             directions: Iterable[str] = ("rx", "tx"),
             cycle: int = 0, run: int = 0, sample: int = 0, slot: int = 0,
             pcap: str = "", method: str = "") -> OpenSampleLedger:
        """Snapshot the relevant channel counters; call at capture start."""
        directions = tuple(sorted(directions))
        source = self.switch.ports[mirrored_port].link
        channels = [getattr(source, d) for d in directions]
        dest_tx = self.switch.ports[dest_port].link.tx
        meta = {
            "site": self.site,
            "instance": self.instance,
            "cycle": cycle,
            "run": run,
            "sample": sample,
            "slot": slot,
            "mirrored_port": mirrored_port,
            "dest_port": dest_port,
            "pcap": pcap,
            "method": method,
            "directions": directions,
        }
        return OpenSampleLedger(self, meta, channels, dest_tx)

    def publish(self, row: SampleLedger) -> None:
        """Emit the row through the registry and journal (no-ops when
        observability is disabled; the row itself is always returned to
        the caller)."""
        from repro.obs import get_obs

        obs = get_obs()
        registry = obs.registry
        registry.counter("ledger.samples",
                         help="conservation ledger rows closed").inc()
        registry.counter("ledger.generated",
                         help="frames entering ledger windows").inc(
            row.generated)
        registry.counter("ledger.captured",
                         help="frames captured within ledger windows").inc(
            row.captured)
        for cause, count in row.drops.items():
            if count:
                name = "ledger.dropped." + cause.replace("-", "_")
                registry.counter(name,
                                 help=f"ledger drops: {cause}").inc(count)
        if not row.ok:
            registry.counter("ledger.violations",
                             help="conservation identity violations").inc()
        obs.journal.emit("ledger", t=row.end, **row.to_event())


# -- congestion-detector scorecard ------------------------------------------


@dataclass
class CongestionScorecard:
    """Confusion counts for `CongestionVerdict` vs ground-truth drops."""

    tp: int = 0
    fp: int = 0
    fn: int = 0
    tn: int = 0
    unanswerable: int = 0

    def add(self, predicted: Optional[bool], truth: bool) -> None:
        if predicted is None:
            self.unanswerable += 1
        elif predicted and truth:
            self.tp += 1
        elif predicted and not truth:
            self.fp += 1
        elif truth:
            self.fn += 1
        else:
            self.tn += 1

    def merge(self, other: "CongestionScorecard") -> None:
        self.tp += other.tp
        self.fp += other.fp
        self.fn += other.fn
        self.tn += other.tn
        self.unanswerable += other.unanswerable

    @property
    def samples(self) -> int:
        return self.answered + self.unanswerable

    @property
    def answered(self) -> int:
        return self.tp + self.fp + self.fn + self.tn

    @property
    def precision(self) -> Optional[float]:
        positives = self.tp + self.fp
        return self.tp / positives if positives else None

    @property
    def recall(self) -> Optional[float]:
        actual = self.tp + self.fn
        return self.tp / actual if actual else None

    @property
    def accuracy(self) -> Optional[float]:
        return (self.tp + self.tn) / self.answered if self.answered else None

    def to_dict(self) -> Dict[str, object]:
        return {
            "samples": self.samples,
            "answered": self.answered,
            "unanswerable": self.unanswerable,
            "tp": self.tp,
            "fp": self.fp,
            "fn": self.fn,
            "tn": self.tn,
            "precision": self.precision,
            "recall": self.recall,
            "accuracy": self.accuracy,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "CongestionScorecard":
        return cls(tp=int(data["tp"]), fp=int(data["fp"]),
                   fn=int(data["fn"]), tn=int(data["tn"]),
                   unanswerable=int(data["unanswerable"]))

    def describe(self) -> str:
        fmt = lambda v: "n/a" if v is None else f"{v:.3f}"  # noqa: E731
        return (f"tp={self.tp} fp={self.fp} fn={self.fn} tn={self.tn} "
                f"unanswerable={self.unanswerable} "
                f"precision={fmt(self.precision)} recall={fmt(self.recall)}")


def scorecard_from_ledgers(
        ledgers: Iterable[SampleLedger]) -> CongestionScorecard:
    """Judge the SNMP-derived verdict on each row against ground truth."""
    card = CongestionScorecard()
    for row in ledgers:
        card.add(row.verdict_overloaded, row.mirror_overloaded_truth)
    return card


@dataclass
class DetectorScorecard(CongestionScorecard):
    """A scorecard with the streaming-telemetry tradeoff axes.

    Beyond the confusion counts, tracks mean *latency to detect* over
    true positives (how long after the window opened the detector had
    the evidence) and total *telemetry bytes* charged to the judged
    samples -- the two axes the tradeoff benchmark plots per detector.
    """

    latency_total: float = 0.0
    detections: int = 0          # true positives with a known latency
    telemetry_bytes: int = 0

    def add_reading(self, predicted: Optional[bool], truth: bool,
                    latency: Optional[float], tbytes: int) -> None:
        self.add(predicted, truth)
        self.telemetry_bytes += int(tbytes)
        if predicted and truth and latency is not None:
            self.latency_total += float(latency)
            self.detections += 1

    def merge(self, other: "CongestionScorecard") -> None:
        super().merge(other)
        if isinstance(other, DetectorScorecard):
            self.latency_total += other.latency_total
            self.detections += other.detections
            self.telemetry_bytes += other.telemetry_bytes

    @property
    def latency_to_detect(self) -> Optional[float]:
        """Mean seconds from window open to detection (true positives)."""
        if self.detections == 0:
            return None
        return self.latency_total / self.detections

    def to_dict(self) -> Dict[str, object]:
        data = super().to_dict()
        data["latency_to_detect"] = self.latency_to_detect
        data["telemetry_bytes"] = self.telemetry_bytes
        data["detections"] = self.detections
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "DetectorScorecard":
        card = cls(tp=int(data["tp"]), fp=int(data["fp"]),
                   fn=int(data["fn"]), tn=int(data["tn"]),
                   unanswerable=int(data["unanswerable"]),
                   detections=int(data.get("detections", 0)),
                   telemetry_bytes=int(data.get("telemetry_bytes", 0)))
        latency = data.get("latency_to_detect")
        if latency is not None and card.detections:
            card.latency_total = float(latency) * card.detections
        return card

    def describe(self) -> str:
        latency = self.latency_to_detect
        shown = "n/a" if latency is None else f"{latency:.2f}s"
        return (super().describe() +
                f" latency={shown} bytes={self.telemetry_bytes}")


def detector_scorecards_from_ledgers(
        ledgers: Iterable[SampleLedger]) -> Dict[str, DetectorScorecard]:
    """Per-detector scorecards over rows that carry detector readings.

    Rows without readings (telemetry disabled, or salvaged before any
    detector ran) still contribute their SNMP verdict to the ``snmp``
    card -- with no latency or byte accounting -- so the three-way view
    degrades gracefully over legacy journals.
    """
    cards: Dict[str, DetectorScorecard] = {}
    for row in ledgers:
        truth = row.mirror_overloaded_truth
        if row.detectors:
            for name in sorted(row.detectors):
                reading = row.detectors[name]
                latency = reading.get("latency")
                cards.setdefault(name, DetectorScorecard()).add_reading(
                    reading.get("overloaded"),
                    truth,
                    float(latency) if latency is not None else None,
                    int(reading.get("bytes", 0)),
                )
        else:
            cards.setdefault("snmp", DetectorScorecard()).add_reading(
                row.verdict_overloaded, truth, None, 0)
    return cards


def attach_digests(ledgers: Iterable[SampleLedger], acaps) -> int:
    """Reconcile dissected acaps back onto ledger rows by pcap name.

    Keys are site-qualified ("<parent dir>/<file name>"), matching what
    the instance stores in ``SampleLedger.pcap``.  Returns the number of
    rows that found their digest.
    """
    from pathlib import Path

    digests: Dict[str, Tuple[int, int, int]] = {}
    for acap in acaps:
        source = Path(acap.source)
        key = f"{source.parent.name}/{source.name}"
        counts = acap.digest_counts()
        digests[key] = (counts.frames, counts.truncated, counts.parse_errors)
    matched = 0
    for row in ledgers:
        hit = digests.get(row.pcap)
        if hit is not None:
            row.digested, row.truncated, row.parse_errors = hit
            matched += 1
    return matched


def ledgers_of_bundle(bundle) -> List[SampleLedger]:
    """All ledger rows carried by a ProfileBundle's sample records."""
    rows: List[SampleLedger] = []
    for site in sorted(bundle.results):
        for record in bundle.results[site].samples:
            if record.ledger is not None:
                rows.append(record.ledger)
    return rows
