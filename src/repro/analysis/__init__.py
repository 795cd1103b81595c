"""Offline analysis (paper Section 6.2.4, Fig 9).

Patchwork decouples capture from analysis; this package is the offline
half that runs after the gathering phase:

* **Digest** (:mod:`repro.analysis.dissect`, :mod:`repro.analysis.acap`)
  -- protocol dissectors turn each captured frame prefix into an
  abstract stack of headers ("acap"), discarding unneeded bytes.
* **Index** (:mod:`repro.analysis.index`) -- per-acap summaries so
  later analyses can select the captures they need without re-reading
  gigabytes.
* **Analyze** (:mod:`repro.analysis.analyze`,
  :mod:`repro.analysis.flows`) -- frame-size characterization, header
  occurrence, per-site protocol diversity, and flow classification
  keyed on virtualization tags (VLAN/MPLS) plus network- and
  transport-layer fields.
* **Process** (:mod:`repro.analysis.report`) -- CSV emission of every
  profile aspect the paper graphs.
* **Anonymization** (:mod:`repro.analysis.anonymize`) -- the
  close-to-source pre-processing Patchwork can apply before frames are
  stored.
"""

from repro.analysis.dissect import DissectedFrame, Dissector, HeaderInfo
from repro.analysis.acap import (
    AcapFile,
    AcapRecord,
    digest_pcap,
)
from repro.analysis.cache import AcapCache
from repro.analysis.index import AcapIndex, IndexEntry
from repro.analysis.flows import FlowKey, FlowStats, aggregate_flows, classify_flows
from repro.analysis.analyze import (
    frame_size_distribution,
    header_occurrence,
    site_header_diversity,
    HeaderDiversity,
)
from repro.analysis.anonymize import Anonymizer
from repro.analysis.pipeline import AnalysisPipeline, PipelineStats, ProfileReport
from repro.analysis.compare import (
    ProfileDelta,
    ProfileHistory,
    compare_profiles,
)
from repro.analysis.visualize import render_report_charts, sparkline

__all__ = [
    "DissectedFrame",
    "Dissector",
    "HeaderInfo",
    "AcapCache",
    "AcapFile",
    "AcapRecord",
    "digest_pcap",
    "AcapIndex",
    "IndexEntry",
    "FlowKey",
    "FlowStats",
    "aggregate_flows",
    "classify_flows",
    "frame_size_distribution",
    "header_occurrence",
    "site_header_diversity",
    "HeaderDiversity",
    "Anonymizer",
    "AnalysisPipeline",
    "PipelineStats",
    "ProfileReport",
    "ProfileDelta",
    "ProfileHistory",
    "compare_profiles",
    "render_report_charts",
    "sparkline",
]
