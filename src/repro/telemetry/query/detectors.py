"""Congestion detectors driven by the streaming-telemetry paths.

Both detectors answer the same question as the SNMP-based
:class:`repro.core.congestion.CongestionDetector` -- "did this sample
window overload the mirror-egress port?" -- so all three are judged
against the identical ledger ground truth
(:attr:`SampleLedger.mirror_overloaded_truth`).  What differs is the
signal, and therefore the *latency to detect* and the *telemetry bytes*
each pays:

* **sketch-report**: the ``egress-load`` query meters bytes offered to
  the mirror-destination Tx channel per window; a window whose offered
  rate exceeds the line rate flags overload.  Evidence arrives at window
  boundaries (seconds), not poll boundaries (minutes).
* **in-band**: stamped clones carry egress-queue occupancy to the
  capture host; the first stamp at/above the occupancy threshold flags
  overload the moment it *arrives* -- no window to wait out at all.

Every check returns a :class:`DetectorReading`; the instance attaches
the readings of all three detectors to the sample's ledger row, where
:func:`repro.obs.ledger.detector_scorecards_from_ledgers` turns them
into the three-way scorecard.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional

from repro.telemetry.query.inband import StampLog
from repro.telemetry.query.operators import EGRESS_LOAD_QUERY, SketchReport


@dataclass(frozen=True)
class DetectorReading:
    """One detector's answer for one sample window."""

    name: str
    overloaded: Optional[bool]      # None = signal could not answer
    latency: Optional[float]        # seconds from window start; None
                                    # unless overloaded is True
    telemetry_bytes: int            # signal cost charged to this sample

    def to_dict(self) -> Dict[str, object]:
        return {
            "overloaded": self.overloaded,
            "latency": self.latency,
            "bytes": self.telemetry_bytes,
        }

    @classmethod
    def from_dict(cls, name: str, data: Dict[str, object]) -> "DetectorReading":
        latency = data.get("latency")
        return cls(
            name=name,
            overloaded=data.get("overloaded"),
            latency=float(latency) if latency is not None else None,
            telemetry_bytes=int(data.get("bytes", 0)),
        )


class SketchCongestionDetector:
    """Flags overload from periodic ``egress-load`` sketch reports: a
    window whose estimated rate exceeds the destination line rate."""

    name = "sketch"

    def check(self, reports: Iterable[SketchReport], dest_port: str,
              dest_rate_bps: float, start: float, end: float) -> DetectorReading:
        """Scan the sample's reports for an over-rate window.

        ``reports`` is every sketch report the runtime shipped for this
        sample (any query); only ``egress-load`` windows overlapping
        ``[start, end]`` are consulted, but *all* report bytes shipped in
        the window are charged -- the switch sent them whether or not the
        detector used them.
        """
        total_bytes = 0
        overloaded = False
        latency: Optional[float] = None
        consulted = 0
        for report in reports:
            if report.window_end <= start or report.window_start >= end:
                continue
            total_bytes += report.report_bytes
            if report.query != EGRESS_LOAD_QUERY:
                continue
            consulted += 1
            duration = report.window_end - report.window_start
            if duration <= 0:
                continue
            est_bytes = report.estimate(dest_port)
            rate_bps = est_bytes * 8.0 / duration
            if rate_bps > dest_rate_bps and not overloaded:
                overloaded = True
                # The evidence exists only once the window closes.
                latency = report.window_end - start
        if consulted == 0:
            return DetectorReading(self.name, None, None, total_bytes)
        return DetectorReading(self.name, overloaded, latency, total_bytes)


class InbandCongestionDetector:
    """Flags overload from in-band occupancy stamps.

    The default threshold sits well below saturation on purpose: a
    stamp that would read ~1.0 occupancy rides a frame the full queue
    is about to tail-drop, so near-saturation stamps rarely *survive*
    to the capture host (survivor bias).  Healthy mirrors run their
    egress queue nearly empty -- clean traffic stamps read well under
    0.2 occupancy -- so 0.6 keeps a wide margin on both sides.
    """

    name = "inband"

    def __init__(self, occupancy_threshold: float = 0.6):
        if not 0.0 < occupancy_threshold <= 1.0:
            raise ValueError("occupancy threshold must be in (0, 1]")
        self.threshold_milli = int(round(occupancy_threshold * 1000))

    def check(self, stamps: StampLog, frames_seen: int, start: float,
              end: float) -> DetectorReading:
        """Judge the sample from the stamps its capture host peeled.

        With zero frames seen the in-band channel carried no signal at
        all (mirror dead or window empty): unanswerable.  Frames without
        stamps mean the stamper ran and saw low occupancy throughout --
        a confident "not overloaded" is only claimed when at least one
        stamp arrived; otherwise the signal is absent and the reading is
        unanswerable rather than a blind negative.
        """
        if frames_seen == 0 or len(stamps) == 0:
            return DetectorReading(self.name, None, None,
                                   stamps.telemetry_bytes)
        crossing = stamps.first_crossing(self.threshold_milli)
        if crossing is None:
            return DetectorReading(self.name, False, None,
                                   stamps.telemetry_bytes)
        return DetectorReading(self.name, True, max(0.0, crossing - start),
                               stamps.telemetry_bytes)


def snmp_reading(verdict_overloaded: Optional[bool], latency: Optional[float],
                 telemetry_bytes: int) -> DetectorReading:
    """Wrap the existing SNMP verdict in the common reading shape."""
    if not verdict_overloaded:
        latency = None
    return DetectorReading("snmp", verdict_overloaded, latency,
                           telemetry_bytes)
