"""Tests for the Analyze step's statistics."""

import dataclasses
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import AnalysisPipeline
from repro.analysis.acap import AcapFile, AcapRecord, decode_acap, encode_acap
from repro.analysis.analyze import (
    ProfileAccumulator, encapsulation_examples, frame_size_distribution,
    header_occurrence, ip_version_shares, jumbo_fraction,
    site_header_diversity,
)
from repro.analysis.flows import FlowKey, FlowStats, aggregate_flows, classify_flows
from repro.analysis.report import (
    aggregated_flow_size_table, flows_per_sample_table, frame_size_table,
    header_diversity_table, header_occurrence_table, ip_version_table,
    overall_frame_size_table, tcp_flag_table,
)
from repro.packets.headers import TCP_FIN, TCP_RST, TCP_SYN
from repro.traffic.distributions import JUMBO_THRESHOLD, PAPER_FRAME_BINS
from repro.util.tables import Table


def rec(size=1544, stack=("eth", "vlan", "mpls", "ipv4", "tcp"), ipv=4):
    return AcapRecord(timestamp=0.0, wire_len=size, captured_len=200,
                      stack=tuple(stack), ip_version=ipv)


PW_STACK = ("eth", "vlan", "mpls", "mpls", "pw", "eth", "ipv4", "tcp", "tls")


class TestFrameSizes:
    def test_distribution_keys_are_bin_labels(self):
        dist = frame_size_distribution([rec(100), rec(1544)])
        assert dist["65-127"] == 0.5
        assert dist["1519-2047"] == 0.5

    def test_jumbo_fraction(self):
        records = [rec(1544), rec(9000), rec(100), rec(1500)]
        assert jumbo_fraction(records) == 0.5

    def test_jumbo_fraction_empty(self):
        assert jumbo_fraction([]) == 0.0


class TestHeaderOccurrence:
    def test_percentages(self):
        records = [rec(), rec(stack=("eth", "ipv4", "udp", "dns"))]
        occurrence = header_occurrence(records)
        assert occurrence["eth"] == 100.0
        assert occurrence["vlan"] == 50.0
        assert occurrence["dns"] == 50.0

    def test_ethernet_exceeds_100_with_pseudowires(self):
        """Fig 12: 'Ethernet exceeds 100% because Ethernet frames often
        carry other Ethernet frames.'"""
        records = [rec(stack=PW_STACK), rec()]
        occurrence = header_occurrence(records)
        assert occurrence["eth"] == 150.0

    def test_empty(self):
        assert header_occurrence([]) == {}


class TestDiversity:
    def test_per_site_counts(self):
        by_site = {
            "S0": [rec(), rec(stack=PW_STACK)],
            "S1": [rec(stack=("eth", "ipv4", "tcp"))],
        }
        diversity = site_header_diversity(by_site)
        assert [d.site for d in diversity] == ["S0", "S1"]
        s0 = diversity[0]
        assert s0.distinct_headers == len(set(PW_STACK) | {"eth", "vlan", "mpls", "ipv4", "tcp"})
        assert s0.max_stack_depth == len(PW_STACK)
        assert diversity[1].distinct_headers == 3


class TestIpShares:
    def test_shares(self):
        records = [rec(ipv=4)] * 97 + [rec(ipv=6)] * 2 + [
            rec(stack=("eth", "arp"), ipv=0)]
        shares = ip_version_shares(records)
        assert shares["ipv4"] == 0.97
        assert shares["ipv6"] == 0.02
        assert shares["non-ip"] == 0.01

    def test_empty(self):
        shares = ip_version_shares([])
        assert shares["ipv4"] == 0.0


class TestEncapsulationExamples:
    def test_most_common_first(self):
        records = [rec()] * 3 + [rec(stack=PW_STACK)]
        examples = encapsulation_examples(records, top=2)
        assert examples[0] == ("eth/vlan/mpls/ipv4/tcp", 3)
        assert examples[1][1] == 1


# -- the columnar Analyze step against a per-record reference -----------------

HEADERS = ("eth", "vlan", "mpls", "pw", "ipv4", "ipv6", "tcp", "udp", "icmp",
           "arp", "tls", "data")
ADDRESSES = ("10.0.0.1", "10.0.0.2", "2001:db8::1", "")
PORTS = (0, 53, 443, 40000)
LABELS = (16000, 16001, 17000)


@st.composite
def acap_records(draw):
    return AcapRecord(
        timestamp=draw(st.floats(-1e4, 1e4, allow_nan=False)),
        wire_len=draw(st.one_of(st.integers(0, 10000), st.sampled_from(
            (63, 64, 127, 128, 1518, 1519, 9000)))),
        captured_len=draw(st.integers(0, 200)),
        stack=tuple(draw(st.lists(st.sampled_from(HEADERS), max_size=9))),
        vlan_ids=tuple(draw(st.lists(st.sampled_from((100, 200)), max_size=2))),
        mpls_labels=tuple(draw(st.lists(st.sampled_from(LABELS), max_size=3))),
        ip_version=draw(st.sampled_from((0, 4, 6))),
        src=draw(st.sampled_from(ADDRESSES)),
        dst=draw(st.sampled_from(ADDRESSES)),
        proto=draw(st.sampled_from((0, 1, 6, 17))),
        sport=draw(st.sampled_from(PORTS)),
        dport=draw(st.sampled_from(PORTS)),
        tcp_flags=draw(st.integers(0, 0x3F)),
        truncated=draw(st.booleans()),
    )


def reversed_copy(r, timestamp):
    """The other direction of ``r``'s flow, MPLS labels reordered."""
    return AcapRecord(
        timestamp=timestamp, wire_len=r.wire_len, captured_len=r.captured_len,
        stack=r.stack, vlan_ids=r.vlan_ids, mpls_labels=r.mpls_labels[::-1],
        ip_version=r.ip_version, src=r.dst, dst=r.src, proto=r.proto,
        sport=r.dport, dport=r.sport, tcp_flags=r.tcp_flags,
        truncated=r.truncated)


@st.composite
def loopback_pairs(draw):
    """Both directions of a flow whose two ends share one address, so
    only the ports decide its direction; the labels are a permutation
    of two or three, in a different order each way."""
    r = draw(acap_records())
    labels = tuple(draw(st.permutations(LABELS))[:draw(st.integers(2, 3))])
    address = draw(st.sampled_from(ADDRESSES))
    sport, dport = draw(st.sampled_from([(0, 53), (443, 40000), (53, 53)]))
    forward = r._replace(src=address, dst=address, sport=sport, dport=dport,
                         mpls_labels=labels, ip_version=draw(st.sampled_from((4, 6))))
    return [forward, reversed_copy(forward, draw(st.floats(-1e4, 1e4,
                                                            allow_nan=False)))]


@st.composite
def samples(draw):
    """``[(site, records)]``: empty samples, repeated sites, flows seen
    in both directions and in several samples, tag tuples of mixed
    lengths, and loopback flows told apart by their ports only."""
    pool = draw(st.lists(acap_records(), min_size=1, max_size=6))
    out = []
    for _ in range(draw(st.integers(0, 6))):
        site = draw(st.sampled_from(("A", "B", "C")))
        records = draw(st.lists(st.one_of(
            acap_records(),
            st.sampled_from(pool),
            st.builds(reversed_copy, st.sampled_from(pool),
                      st.floats(-1e4, 1e4, allow_nan=False))), max_size=12))
        for pair in draw(st.lists(loopback_pairs(), max_size=2)):
            records[draw(st.integers(0, len(records))):0] = pair
        out.append((site, records))
    return out


def reference_key(r):
    side_src, side_dst = (r.src, r.sport), (r.dst, r.dport)
    a, b = (side_src, side_dst) if side_src <= side_dst else (side_dst, side_src)
    return FlowKey(r.vlan_ids, tuple(sorted(r.mpls_labels)), r.ip_version, a, b,
                   r.proto)


def reference_flows(records):
    """Today's per-record flow classification."""
    flows = {}
    for r in records:
        if r.ip_version not in (4, 6):
            continue
        key = reference_key(r)
        stats = flows.setdefault(key, FlowStats(key=key))
        stats.frames += 1
        stats.wire_bytes += r.wire_len
        stats.first_seen = min(stats.first_seen, r.timestamp)
        stats.last_seen = max(stats.last_seen, r.timestamp)
        stats.syn_seen |= bool(r.tcp_flags & TCP_SYN)
        stats.fin_seen |= bool(r.tcp_flags & TCP_FIN)
        stats.rst_seen |= bool(r.tcp_flags & TCP_RST)
    return flows


def reference_aggregate(per_sample):
    merged = {}
    for flows in per_sample:
        for key, stats in flows.items():
            if key in merged:
                merged[key].merge(stats)
            else:
                merged[key] = dataclasses.replace(stats)
    return merged


def reference_sizes(records):
    sizes = [r.wire_len for r in records]
    shares = dict(zip(PAPER_FRAME_BINS.labels(),
                      (float(s) for s in PAPER_FRAME_BINS.shares(sizes))))
    jumbo = float(np.mean(np.asarray(sizes) >= JUMBO_THRESHOLD)) if sizes else 0.0
    return shares, jumbo


def reference_occurrence(records):
    counts = Counter()
    for r in records:
        counts.update(r.stack)
    return {name: 100.0 * count / len(records)
            for name, count in sorted(counts.items())} if records else {}


def reference_ip_shares(records):
    if not records:
        return {"ipv4": 0.0, "ipv6": 0.0, "non-ip": 0.0}
    v4 = sum(1 for r in records if r.ip_version == 4)
    v6 = sum(1 for r in records if r.ip_version == 6)
    total = len(records)
    return {"ipv4": v4 / total, "ipv6": v6 / total,
            "non-ip": (total - v4 - v6) / total}


def reference_tables(by_site, everything, counts, aggregated):
    """Today's report tables, one record at a time."""
    labels = PAPER_FRAME_BINS.labels()
    sizes_by_site = Table(["site"] + labels + ["jumbo_fraction"],
                          title="Frame-size distribution by site")
    diversity = Table(["site", "distinct_headers", "max_stack_depth", "frames"],
                      title="Per-site protocol diversity")
    for site in sorted(by_site):
        records = by_site[site]
        shares, jumbo = reference_sizes(records)
        sizes_by_site.add_row([site] + [round(shares[label], 5) for label in labels]
                              + [round(jumbo, 5)])
        names = set()
        for r in records:
            names.update(r.stack)
        diversity.add_row([site, len(names),
                           max((len(r.stack) for r in records), default=0),
                           len(records)])
    overall = Table(["size_bin", "fraction"], title="Frame sizes (all sites)")
    for label, fraction in reference_sizes(everything)[0].items():
        overall.add_row([label, round(fraction, 5)])
    occurrence = Table(["header", "percent_of_frames"],
                       title="Occurrence of protocol headers")
    for name, percent in sorted(reference_occurrence(everything).items(),
                                key=lambda kv: -kv[1]):
        occurrence.add_row([name, round(percent, 3)])
    versions = Table(["family", "fraction"], title="IP version shares")
    for family, fraction in reference_ip_shares(everything).items():
        versions.add_row([family, round(fraction, 5)])
    return {
        "frame_sizes_by_site": sizes_by_site,
        "frame_sizes_overall": overall,
        "header_occurrence": occurrence,
        "header_diversity": diversity,
        "ip_versions": versions,
        "flows_per_sample": flows_per_sample_table(counts),
        "aggregated_flow_sizes": aggregated_flow_size_table(aggregated),
        "tcp_flags": tcp_flag_table(aggregated),
    }


def flow_fields(flows):
    """key fields -> every FlowStats field."""
    return {(k.vlan_ids, k.mpls_labels, k.ip_version, k.endpoint_a,
             k.endpoint_b, k.proto):
            (s.frames, s.wire_bytes, s.first_seen, s.last_seen,
             s.syn_seen, s.fin_seen, s.rst_seen, s.samples)
            for k, s in flows.items()}


def as_dicts(tables):
    return {name: table.to_dict() for name, table in tables.items()}


def as_acaps(drawn, encoded):
    """The drawn samples as acaps: built from their records, or decoded
    from their entries (narrow integer columns, no records)."""
    acaps = [AcapFile(f"corpus/{site}/sample{i}.pcap", list(records))
             for i, (site, records) in enumerate(drawn)]
    if encoded:
        acaps = [decode_acap(encode_acap(acap)) for acap in acaps]
    return acaps


def check_pipeline_against_reference(drawn):
    by_site, everything = {}, []
    for site, records in drawn:
        by_site.setdefault(site, []).extend(records)
        everything.extend(records)
    per_sample = [reference_flows(records) for _site, records in drawn]
    counts = [len(flows) for flows in per_sample]
    aggregated = reference_aggregate(per_sample)
    stacks = {}
    for site, records in drawn:
        stacks.setdefault(site, Counter()).update(r.stack for r in records)

    for encoded in (False, True):
        pipeline = AnalysisPipeline()
        pipeline.acaps = as_acaps(drawn, encoded)
        report = pipeline.analyze()

        assert as_dicts(report.tables) == as_dicts(
            reference_tables(by_site, everything, counts, aggregated))
        assert report.flows_per_sample == counts
        assert flow_fields(report.aggregated_flows) == flow_fields(aggregated)
        # Flows in first-seen order, as the reference dicts insert them.
        assert list(report.aggregated_flows) == list(aggregated)
        assert all(type(key) is FlowKey and key == stats.key
                   for key, stats in report.aggregated_flows.items())
        assert report.total_frames == len(everything)
        assert report.sites == sorted(by_site)
        assert report.ipv6_fraction == reference_ip_shares(everything)["ipv6"]
        assert report.jumbo_fraction == reference_sizes(everything)[1]

        profile = ProfileAccumulator()
        for acap, (site, _records) in zip(pipeline.acaps, drawn):
            profile.add(acap, site)
        # Stack counts in first-seen order, as Counter.update counts.
        assert {site: list(counter.items())
                for site, counter in profile.stacks.items()} == \
            {site: list(counter.items()) for site, counter in stacks.items()}


class TestOnePassModel:
    @settings(max_examples=200, deadline=None)
    @given(drawn=samples())
    def test_pipeline_matches_per_record_reference(self, drawn):
        check_pipeline_against_reference(drawn)

    @pytest.mark.slow
    @settings(max_examples=1000, deadline=None)
    @given(drawn=samples())
    def test_pipeline_matches_per_record_reference_deep(self, drawn):
        check_pipeline_against_reference(drawn)

    @settings(max_examples=100, deadline=None)
    @given(drawn=samples())
    def test_record_level_helpers_match_reference(self, drawn):
        by_site, everything = {}, []
        for site, records in drawn:
            by_site.setdefault(site, []).extend(records)
            everything.extend(records)
        per_sample = [classify_flows(records) for _site, records in drawn]
        reference = [reference_flows(records) for _site, records in drawn]
        assert [flow_fields(f) for f in per_sample] == \
            [flow_fields(f) for f in reference]
        assert flow_fields(aggregate_flows(per_sample)) == \
            flow_fields(reference_aggregate(reference))
        assert header_occurrence(everything) == reference_occurrence(everything)
        assert ip_version_shares(everything) == reference_ip_shares(everything)
        shares, jumbo = reference_sizes(everything)
        assert frame_size_distribution(everything) == shares
        assert jumbo_fraction(everything) == jumbo
        expected = as_dicts(reference_tables(by_site, everything, [], {}))
        assert frame_size_table(by_site).to_dict() == expected["frame_sizes_by_site"]
        assert header_diversity_table(by_site).to_dict() == expected["header_diversity"]
        assert overall_frame_size_table(everything).to_dict() == \
            expected["frame_sizes_overall"]
        assert header_occurrence_table(everything).to_dict() == \
            expected["header_occurrence"]
        assert ip_version_table(everything).to_dict() == expected["ip_versions"]
        assert [FlowKey.from_record(r) for r in everything] == \
            [reference_key(r) for r in everything]
