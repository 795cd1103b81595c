"""Tests for flow classification and cross-sample aggregation."""

import pytest

from repro.analysis.acap import AcapRecord
from repro.analysis.flows import (
    FlowKey,
    aggregate_flows,
    classify_flows,
    flows_per_sample_counts,
)
from repro.packets.headers import TCP_ACK, TCP_FIN, TCP_RST, TCP_SYN


def record(src="10.0.0.1", dst="10.0.0.2", sport=1000, dport=443,
           vlans=(100,), mpls=(16000,), proto=6, ts=0.0, size=1514,
           flags=TCP_ACK, ipv=4):
    return AcapRecord(
        timestamp=ts, wire_len=size, captured_len=200,
        stack=("eth", "vlan", "mpls", "ipv4", "tcp"),
        vlan_ids=tuple(vlans), mpls_labels=tuple(mpls), ip_version=ipv,
        src=src, dst=dst, proto=proto, sport=sport, dport=dport,
        tcp_flags=flags,
    )


class TestFlowKey:
    def test_direction_normalized(self):
        forward = FlowKey.from_record(record(src="10.0.0.1", dst="10.0.0.2",
                                             sport=1000, dport=443))
        reverse = FlowKey.from_record(record(src="10.0.0.2", dst="10.0.0.1",
                                             sport=443, dport=1000))
        assert forward == reverse

    def test_tags_distinguish_slices(self):
        """Same 10/8 five-tuple in different slices = different flows."""
        slice_a = FlowKey.from_record(record(vlans=(100,)))
        slice_b = FlowKey.from_record(record(vlans=(200,)))
        assert slice_a != slice_b

    def test_mpls_labels_distinguish(self):
        a = FlowKey.from_record(record(mpls=(16000,)))
        b = FlowKey.from_record(record(mpls=(17000,)))
        assert a != b

    def test_different_ports_differ(self):
        a = FlowKey.from_record(record(sport=1000))
        b = FlowKey.from_record(record(sport=1001))
        assert a != b


class TestClassify:
    def test_groups_by_flow(self):
        records = [record(ts=i * 0.1) for i in range(10)]
        records += [record(sport=2000, ts=0.5)]
        flows = classify_flows(records)
        assert len(flows) == 2
        sizes = sorted(s.frames for s in flows.values())
        assert sizes == [1, 10]

    def test_bidirectional_counted_once(self):
        records = [record(), record(src="10.0.0.2", dst="10.0.0.1",
                                    sport=443, dport=1000)]
        assert len(classify_flows(records)) == 1

    def test_non_ip_excluded(self):
        arp = AcapRecord(timestamp=0, wire_len=60, captured_len=60,
                         stack=("eth", "arp"))
        assert classify_flows([arp]) == {}

    def test_stats_accumulate(self):
        records = [record(ts=1.0, size=100, flags=TCP_SYN),
                   record(ts=2.0, size=1514),
                   record(ts=3.0, size=200, flags=TCP_FIN)]
        flows = classify_flows(records)
        stats = next(iter(flows.values()))
        assert stats.frames == 3
        assert stats.wire_bytes == 1814
        assert stats.duration == pytest.approx(2.0)
        assert stats.syn_seen and stats.fin_seen and not stats.rst_seen

    def test_rst_tracked(self):
        flows = classify_flows([record(flags=TCP_RST)])
        assert next(iter(flows.values())).rst_seen


class TestAggregate:
    def test_snippets_merge_across_samples(self):
        sample1 = classify_flows([record(ts=0.0), record(ts=1.0)])
        sample2 = classify_flows([record(ts=300.0)])
        merged = aggregate_flows([sample1, sample2])
        assert len(merged) == 1
        stats = next(iter(merged.values()))
        assert stats.frames == 3
        assert stats.samples == 2
        assert stats.duration == pytest.approx(300.0)

    def test_distinct_flows_stay_distinct(self):
        sample1 = classify_flows([record()])
        sample2 = classify_flows([record(vlans=(999,))])
        assert len(aggregate_flows([sample1, sample2])) == 2

    def test_merge_rejects_different_keys(self):
        a = next(iter(classify_flows([record()]).values()))
        b = next(iter(classify_flows([record(sport=9)]).values()))
        with pytest.raises(ValueError):
            a.merge(b)

    def test_counts_per_sample(self):
        samples = [classify_flows([record()]),
                   classify_flows([record(), record(sport=2)]),
                   classify_flows([])]
        assert flows_per_sample_counts(samples) == [1, 2, 0]


class TestWideKeys:
    def test_wide_key_columns_group_like_the_record_key(self):
        """Keys whose columns span more than 63 bits together (full
        port and protocol ranges, 20-bit labels) group exactly as
        :meth:`FlowKey.from_record` keys do, in first-seen order."""
        import random

        rng = random.Random(3)
        records = [record(
            src=f"10.{rng.randrange(256)}.0.{rng.randrange(256)}",
            dst=f"10.9.{rng.randrange(256)}.{rng.randrange(256)}",
            sport=rng.randrange(65536), dport=rng.randrange(65536),
            vlans=(rng.randrange(4096),),
            mpls=tuple(rng.randrange(1 << 20) for _ in range(rng.randrange(3))),
            proto=rng.randrange(256), ts=float(i)) for i in range(300)]
        records += [record(src=r.dst, dst=r.src, sport=r.dport, dport=r.sport,
                           vlans=r.vlan_ids, mpls=r.mpls_labels[::-1],
                           proto=r.proto, ts=1000.0 + i)
                    for i, r in enumerate(records[:100])]
        expected = {}
        for r in records:
            key = FlowKey.from_record(r)
            expected[key] = expected.get(key, 0) + 1
        flows = classify_flows(records)
        assert list(flows) == list(expected)
        assert {key: stats.frames for key, stats in flows.items()} == expected
        assert max(expected.values()) == 2
