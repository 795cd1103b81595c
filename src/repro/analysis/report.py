"""The Process step: CSV tables describing the profile.

"From the results of analyses, the Process step produces CSV files
that describe different aspects of the profile -- such as the
distribution of different types of frames across FABRIC sites, and the
composition of flows.  Finally, this information is processed by other
scripts to produce graphs or summary statistics."

Each function here turns one analysis into a :class:`~repro.util.tables.Table`
that can be rendered or written as CSV; the benchmark harnesses print
these tables as the paper-figure reproductions.  :func:`profile_tables`
builds them all from one :class:`~repro.analysis.analyze.ProfileAccumulator`,
the flow tables from its flows' columns; the record-level builders run
the same accumulator over their records.
"""

from __future__ import annotations

from typing import Dict, Mapping, Sequence

import numpy as np

from repro.analysis.acap import AcapRecord
from repro.analysis.analyze import ProfileAccumulator
from repro.analysis.flows import FlowKey, FlowStats
from repro.packets.headers import TCP_FIN, TCP_RST, TCP_SYN
from repro.traffic.distributions import PAPER_FRAME_BINS
from repro.util.tables import Table


def profile_tables(profile: ProfileAccumulator) -> Dict[str, Table]:
    """Every table of the report, keyed by CSV name, from one profile;
    the flow tables read its flows' columns."""
    flows = profile.flows
    return {
        "frame_sizes_by_site": _frame_size_table(profile),
        "frame_sizes_overall": _overall_frame_size_table(profile),
        "header_occurrence": _header_occurrence_table(profile),
        "header_diversity": _header_diversity_table(profile),
        "ip_versions": _ip_version_table(profile),
        "flows_per_sample": flows_per_sample_table(profile.flows_per_sample),
        "aggregated_flow_sizes": _flow_size_table(flows.wire_bytes),
        "tcp_flags": _tcp_flag_table(len(flows.frames), [
            int(np.count_nonzero(flows.tcp_flags & flag))
            for flag in (TCP_SYN, TCP_FIN, TCP_RST)]),
    }


def frame_size_table(records_by_site: Mapping[str, Sequence[AcapRecord]]) -> Table:
    """Fig 15: per-site frame-size distribution (plus jumbo share)."""
    return _frame_size_table(ProfileAccumulator.of_sites(records_by_site))


def overall_frame_size_table(records: Sequence[AcapRecord]) -> Table:
    """Section 8.2's headline frame-size shares, aggregated."""
    return _overall_frame_size_table(ProfileAccumulator.of(records))


def header_occurrence_table(records: Sequence[AcapRecord]) -> Table:
    """Fig 12: occurrence of protocol headers (percent of frames)."""
    return _header_occurrence_table(ProfileAccumulator.of(records))


def header_diversity_table(records_by_site: Mapping[str, Sequence[AcapRecord]]) -> Table:
    """Fig 11: distinct headers and deepest stack per (anonymized) site."""
    return _header_diversity_table(ProfileAccumulator.of_sites(records_by_site))


def ip_version_table(records: Sequence[AcapRecord]) -> Table:
    """Finding B6: IPv4 dominance."""
    return _ip_version_table(ProfileAccumulator.of(records))


def _frame_size_table(profile: ProfileAccumulator) -> Table:
    labels = PAPER_FRAME_BINS.labels()
    table = Table(["site"] + labels + ["jumbo_fraction"],
                  title="Frame-size distribution by site")
    for site in profile.sites():
        dist = profile.frame_size_distribution(site)
        table.add_row([site] + [round(dist[label], 5) for label in labels]
                      + [round(profile.jumbo_fraction(site), 5)])
    return table


def _overall_frame_size_table(profile: ProfileAccumulator) -> Table:
    table = Table(["size_bin", "fraction"], title="Frame sizes (all sites)")
    for label, fraction in profile.frame_size_distribution().items():
        table.add_row([label, round(fraction, 5)])
    return table


def _header_occurrence_table(profile: ProfileAccumulator) -> Table:
    table = Table(["header", "percent_of_frames"],
                  title="Occurrence of protocol headers")
    occurrence = profile.header_occurrence()
    for name, percent in sorted(occurrence.items(), key=lambda kv: -kv[1]):
        table.add_row([name, round(percent, 3)])
    return table


def _header_diversity_table(profile: ProfileAccumulator) -> Table:
    table = Table(["site", "distinct_headers", "max_stack_depth", "frames"],
                  title="Per-site protocol diversity")
    for d in profile.header_diversity():
        table.add_row([d.site, d.distinct_headers, d.max_stack_depth, d.frames])
    return table


def _ip_version_table(profile: ProfileAccumulator) -> Table:
    table = Table(["family", "fraction"], title="IP version shares")
    for family, fraction in profile.ip_version_shares().items():
        table.add_row([family, round(fraction, 5)])
    return table


def flows_per_sample_table(counts: Sequence[int],
                           edges: Sequence[int] = (0, 10, 30, 100, 300, 1000,
                                                   3000, 10000, 20000)) -> Table:
    """Fig 13: frequency of flow counts per 20 s sample."""
    table = Table(["flows_bin", "samples"], title="Flows per sample")
    arr = np.asarray(list(counts))
    previous = None
    for edge in edges:
        if previous is None:
            previous = edge
            continue
        n = int(np.count_nonzero((arr > previous) & (arr <= edge)))
        table.add_row([f"{previous + 1}-{edge}", n])
        previous = edge
    table.add_row([f">{edges[-1]}", int(np.count_nonzero(arr > edges[-1]))])
    # The zero/low bin goes first for readability.
    low = int(np.count_nonzero(arr <= edges[0]))
    table.rows.insert(0, [f"<={edges[0]}", low])
    return table


def aggregated_flow_size_table(flows: Mapping[FlowKey, FlowStats],
                               decade_max: int = 12) -> Table:
    """Section 8.2's cross-sample flow-size analysis.

    Buckets aggregated flow sizes by decade of bytes: most flows are
    tiny, a few are enormous.
    """
    return _flow_size_table(
        np.array([stats.wire_bytes for stats in flows.values()]), decade_max)


def tcp_flag_table(flows: Mapping[FlowKey, FlowStats]) -> Table:
    """Control-information summary: SYN/FIN/RST presence across flows."""
    return _tcp_flag_table(len(flows), [
        sum(1 for f in flows.values() if f.syn_seen),
        sum(1 for f in flows.values() if f.fin_seen),
        sum(1 for f in flows.values() if f.rst_seen)])


def _flow_size_table(sizes: np.ndarray, decade_max: int = 12) -> Table:
    table = Table(["size_decade_bytes", "flows"], title="Aggregated flow sizes")
    for decade in range(decade_max):
        lo, hi = 10 ** decade, 10 ** (decade + 1)
        count = int(np.count_nonzero((sizes >= lo) & (sizes < hi)))
        table.add_row([f"1e{decade}-1e{decade + 1}", count])
    return table


def _tcp_flag_table(flows: int, present: Sequence[int]) -> Table:
    """``present`` counts the flows that saw SYN, FIN and RST."""
    table = Table(["flag", "flows", "fraction"], title="TCP control flags seen")
    total = max(1, flows)
    for flag, count in zip(("syn", "fin", "rst"), present):
        table.add_row([flag, count, round(count / total, 5)])
    return table
