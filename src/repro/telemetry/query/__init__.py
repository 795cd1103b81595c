"""Query-driven streaming telemetry.

Three layers, built to beat 5-minute SNMP polling on the
latency-to-detect vs telemetry-bytes tradeoff:

1. Two standing switch-side queries with sketch pre-aggregation
   (:mod:`~repro.telemetry.query.operators`,
   :mod:`~repro.telemetry.query.sketch`): ``egress-load``, a count-min
   sketch of wire bytes per egress port, and ``top-talkers``, a
   heavy-hitter sketch of the top source MACs by wire bytes.
2. An INT-style in-band path stamping per-frame egress queue state into
   a telemetry shim (:mod:`~repro.telemetry.query.inband`).
3. Congestion detectors over both streams
   (:mod:`~repro.telemetry.query.detectors`), scored on the same ledger
   ground truth as the SNMP verdict.
"""

from repro.telemetry.query.detectors import (
    DetectorReading,
    InbandCongestionDetector,
    SketchCongestionDetector,
    snmp_reading,
)
from repro.telemetry.query.inband import (
    SHIM_LEN,
    IntStamper,
    StampLog,
    TelemetryShim,
    peel,
)
from repro.telemetry.query.operators import (
    EGRESS_LOAD_QUERY,
    TOP_TALKERS_QUERY,
    EgressLoad,
    QueryRuntime,
    SketchReport,
    TopTalkers,
)
from repro.telemetry.query.sketch import CountMinSketch, HeavyHitters

__all__ = [
    "EGRESS_LOAD_QUERY",
    "SHIM_LEN",
    "TOP_TALKERS_QUERY",
    "CountMinSketch",
    "DetectorReading",
    "EgressLoad",
    "HeavyHitters",
    "InbandCongestionDetector",
    "IntStamper",
    "QueryRuntime",
    "SketchCongestionDetector",
    "SketchReport",
    "StampLog",
    "TelemetryShim",
    "TopTalkers",
    "peel",
    "snmp_reading",
]
