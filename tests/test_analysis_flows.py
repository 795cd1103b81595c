"""Tests for flow classification and cross-sample aggregation."""

import io

import pytest

from repro.analysis.acap import AcapFile, AcapRecord, decode_acap, digest_pcap, encode_acap
from repro.analysis.flows import (
    FlowKey,
    FlowStats,
    aggregate_flows,
    classify_flows,
    flows_per_sample_counts,
    group_flows,
)
from repro.packets.builder import FrameBuilder, FrameSpec
from repro.packets.headers import (
    DNSHeader, Ethernet, IPv4, MPLS, TCP, TCP_ACK, TCP_FIN, TCP_RST, TCP_SYN,
    UDP, VLAN,
)
from repro.packets.pcap import PcapRecord, PcapWriter


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


def flows_by_record_key(samples):
    """Each sample's IP records aggregated under
    :meth:`FlowKey.from_record`, flows in first-seen order."""
    flows = {}
    for records in samples:
        seen = set()
        for r in records:
            if r.ip_version not in (4, 6):
                continue
            key = FlowKey.from_record(r)
            stats = flows.get(key)
            if stats is None:
                stats = flows[key] = FlowStats(key, samples=0)
            stats.frames += 1
            stats.wire_bytes += r.wire_len
            stats.first_seen = min(stats.first_seen, r.timestamp)
            stats.last_seen = max(stats.last_seen, r.timestamp)
            stats.syn_seen |= bool(r.tcp_flags & TCP_SYN)
            stats.fin_seen |= bool(r.tcp_flags & TCP_FIN)
            stats.rst_seen |= bool(r.tcp_flags & TCP_RST)
            if key not in seen:
                seen.add(key)
                stats.samples += 1
    return flows


def assert_groups_match_records(acaps):
    """``group_flows`` over ``acaps`` gives the record-key aggregation
    of their records, in the same order."""
    expected = flows_by_record_key([acap.records for acap in acaps])
    groups = group_flows(acaps)
    flows = groups.stats()
    assert list(flows) == list(expected)
    assert flows == expected
    assert groups.per_sample == [
        len(flows_by_record_key([acap.records])) for acap in acaps]
    return flows


class TestRaggedTags:
    """Tag tables stay ragged arrays from Digest to ``group_flows``;
    flows over them must key exactly as :meth:`FlowKey.from_record`."""

    ETH = Ethernet("02:00:00:00:00:01", "02:00:00:00:00:02")

    def frame(self, tags, src="10.0.0.1", dst="10.0.0.2", sport=1000,
              dport=443, flags=TCP_ACK):
        return FrameBuilder().build(FrameSpec(
            [self.ETH] + tags + [IPv4(src, dst), TCP(sport, dport, flags=flags)]))

    @staticmethod
    def pcap(frames, start=0.0):
        buf = io.BytesIO()
        with PcapWriter(buf, snaplen=65535) as writer:
            for i, data in enumerate(frames):
                writer.write(PcapRecord(start + i * 0.001, data,
                                        orig_len=len(data)))
        return buf.getvalue()

    def corpus(self):
        """Three pcaps' bytes: deep VLAN chains (2,000 tags, and 5),
        QinQ, and two-label MPLS stacks in both orders and both
        directions, recurring across the pcaps."""
        deep = FrameBuilder().build(FrameSpec(
            [self.ETH] + [VLAN(vid % 4096) for vid in range(2000)]
            + [IPv4("10.0.0.1", "10.0.0.2"), UDP(5000, 53), DNSHeader()]))
        five = [VLAN(vid) for vid in (7, 8, 9, 10, 11)]
        qinq = [VLAN(100), VLAN(200)]
        labels = [MPLS(16000), MPLS(17000)]
        back = dict(src="10.0.0.2", dst="10.0.0.1", sport=443, dport=1000)
        first = [deep, self.frame(five, flags=TCP_SYN), self.frame(qinq),
                 self.frame([VLAN(5)] + labels),
                 self.frame([VLAN(5)] + labels[::-1], **back)]
        second = [self.frame(qinq[::-1]), self.frame([VLAN(5)] + labels[::-1]),
                  self.frame(five, **back, flags=TCP_FIN), deep,
                  self.frame([VLAN(5)] + labels[:1] * 4)]
        third = [self.frame(labels, sport=7), self.frame(five[:3]),
                 self.frame(five[::-1], flags=TCP_RST), self.frame(qinq, **back)]
        return [self.pcap(first), self.pcap(second, 10.0),
                self.pcap(third, 20.0)]

    def test_walk_records_and_decoded_acaps_group_together(self):
        datas = self.corpus()
        walked = [digest_pcap(f"S{i}/x.pcap", data=data)
                  for i, data in enumerate(datas)]
        mixed = [walked[0],
                 AcapFile("S1/x.pcap", list(walked[1].records)),
                 decode_acap(encode_acap(walked[2]))]
        for acaps in (walked, mixed, mixed[::-1]):
            flows = assert_groups_match_records(acaps)
        vlans = {key.vlan_ids for key in flows}
        assert tuple(range(2000)) in vlans
        assert {(7, 8, 9, 10, 11), (11, 10, 9, 8, 7), (100, 200),
                (200, 100)} <= vlans
        # Either label order, either direction, across pcaps: one flow.
        [both] = [stats for key, stats in flows.items()
                  if key.mpls_labels == (16000, 17000)
                  and key.endpoint_a == ("10.0.0.1", 1000)]
        assert (both.frames, both.samples) == (3, 2)

    def test_deep_rows_key_by_their_whole_tuple(self):
        """Rows past three tags are keyed through the dict fallback:
        equal deep rows in different pcaps are one flow, and a deep row
        never meets a short row whose first tags it shares."""
        deep = [VLAN(vid) for vid in range(1, 9)]
        datas = [self.pcap([self.frame(deep), self.frame(deep[:3])]),
                 self.pcap([self.frame(deep[:4]), self.frame(deep)], 5.0)]
        acaps = [decode_acap(encode_acap(digest_pcap(f"S{i}/x.pcap", data=d)))
                 for i, d in enumerate(datas)]
        flows = assert_groups_match_records(acaps)
        assert sorted((len(key.vlan_ids), stats.samples)
                      for key, stats in flows.items()) == [(3, 1), (4, 1), (8, 2)]

    def test_tags_outside_the_packed_range(self):
        """Record-built tables may hold tags no dissector emits
        (negative, or too wide for 21 bits); they still key by value."""
        records = [record(vlans=(-1,), mpls=()), record(vlans=(), mpls=()),
                   record(vlans=(1 << 21,), mpls=(0,)),
                   record(vlans=((1 << 21) - 1,), mpls=(0,)),
                   record(vlans=(0,), mpls=(1 << 40, 3)),
                   record(vlans=(0,), mpls=(3, 1 << 40))]
        acaps = [AcapFile("a", records[:3]),
                 decode_acap(encode_acap(AcapFile("b", records[2:])))]
        flows = assert_groups_match_records(acaps)
        assert len(flows) == 5
