"""Tests for acap abstraction and serialization."""

import zlib

import pytest

from repro.analysis.acap import (
    _ENTRY_HEADER, AcapFile, AcapRecord, abstract, decode_acap, digest_pcap,
    encode_acap,
)
from repro.analysis.cache import AcapCache
from repro.analysis.dissect import Dissector
from repro.analysis.index import AcapIndex
from repro.analysis.pipeline import AnalysisPipeline
from repro.packets.builder import FrameBuilder, FrameSpec
from repro.packets.headers import (
    Ethernet, IPv4, MPLS, Payload, PseudoWireControlWord, TCP, TLSRecord, VLAN,
)
from repro.packets.pcap import PcapRecord, PcapWriter

E1, E2 = "02:00:00:00:00:01", "02:00:00:00:00:02"


def tls_frame():
    return FrameBuilder().build(FrameSpec([
        Ethernet(E1, E2), VLAN(301), MPLS(17000), MPLS(17001),
        PseudoWireControlWord(), Ethernet(E1, E2),
        IPv4("10.1.2.3", "10.4.5.6"), TCP(50000, 443), TLSRecord(),
        Payload(0)], target_size=1544))


def make_record(frame=None, ts=5.0):
    frame = frame or tls_frame()
    dissected = Dissector().dissect(frame[:200])
    return abstract(dissected, ts, len(frame), 200)


class TestAbstract:
    def test_fields_extracted(self):
        record = make_record()
        assert record.vlan_ids == (301,)
        assert record.mpls_labels == (17000, 17001)
        assert record.ip_version == 4
        assert record.src == "10.1.2.3"
        assert (record.sport, record.dport) == (50000, 443)
        assert record.wire_len == 1544
        assert record.captured_len == 200
        assert record.is_ip

    def test_stack_preserved(self):
        record = make_record()
        assert record.stack[:8] == ("eth", "vlan", "mpls", "mpls", "pw",
                                    "eth", "ipv4", "tcp")
        assert record.depth >= 8

    def test_non_ip_record(self):
        from repro.packets.headers import ARP
        frame = FrameBuilder().build(FrameSpec([Ethernet(E1, E2),
                                                ARP(E1, "10.0.0.1")]))
        dissected = Dissector().dissect(frame)
        record = abstract(dissected, 0.0, len(frame), len(frame))
        assert not record.is_ip
        assert record.ip_version == 0


class TestDigestPcap:
    def test_digest(self, tmp_path):
        path = tmp_path / "c.pcap"
        with PcapWriter(path, snaplen=200) as writer:
            for i in range(10):
                writer.write(PcapRecord(i * 0.1, tls_frame(), orig_len=1544))
        acap = digest_pcap(path)
        assert len(acap) == 10
        assert acap.records[0].wire_len == 1544
        entry = AcapIndex.entry_for(acap, path)
        assert (entry.start, entry.end) == (pytest.approx(0.0),
                                            pytest.approx(0.9))
        assert "tls" in entry.protocols

    def test_empty_pcap(self, tmp_path):
        path = tmp_path / "empty.pcap"
        PcapWriter(path).close()
        acap = digest_pcap(path)
        assert len(acap) == 0
        entry = AcapIndex.entry_for(acap, path)
        assert (entry.start, entry.end) == (0.0, 0.0)


class TestSerialization:
    def test_round_trip(self):
        acap = AcapFile(source="test.pcap", records=[make_record(ts=1.25)])
        loaded = decode_acap(encode_acap(acap))
        assert loaded.source == "test.pcap"
        assert loaded.records == acap.records

    def test_round_trip_empty_fields(self):
        record = AcapRecord(timestamp=0.0, wire_len=60, captured_len=60,
                            stack=("eth",))
        loaded = decode_acap(encode_acap(AcapFile("s", [record])))
        assert loaded.records[0] == record

    def test_rejects_non_acap(self):
        with pytest.raises(ValueError):
            decode_acap(b"not an acap\n")

    def test_rejects_malformed_line(self):
        # A well-formed header and crc over a body whose tables do not
        # parse.
        good = encode_acap(AcapFile("s", [make_record()]))
        magic, version, order, n, _size, _crc = _ENTRY_HEADER.unpack_from(good)
        body = b"\xff" * 16
        with pytest.raises(ValueError):
            decode_acap(_ENTRY_HEADER.pack(magic, version, order, n, len(body),
                                           zlib.crc32(body)) + body)

    def test_file_is_the_encoded_acap(self, tmp_path):
        # The one file a digest persists is its cache entry, and it
        # holds the encoded acap.
        path = tmp_path / "STAR" / "c.pcap"
        path.parent.mkdir()
        with PcapWriter(path, snaplen=200) as writer:
            writer.write(PcapRecord(0.5, tls_frame(), orig_len=1544))
        AnalysisPipeline(cache_dir=tmp_path / "cache").digest([path])
        entries = list((tmp_path / "cache").rglob("*.acap"))
        assert len(entries) == 1
        assert entries[0].read_bytes() == encode_acap(digest_pcap(path))
        key = AcapCache.key_for(path.read_bytes())
        assert entries[0].name == f"{key}.acap"
        acap = AcapCache(tmp_path / "cache").lookup(key, path)
        assert acap.records == digest_pcap(path).records

    def test_rejects_pre_binary_text_file(self):
        # The tab-separated text an acap file held before the binary
        # encoding replaced it.
        with pytest.raises(ValueError):
            decode_acap(
                b"#acap v1 source=out/STAR/c0.pcap\n"
                b"1.250000\t1544\t200\teth/vlan/ipv4/tcp\t301\t-\t4\t"
                b"10.1.2.3\t10.4.5.6\t6\t50000\t443\t24\t0\n")


class TestRecordContract:
    """What the Digest process pool, the acap cache and the Analyze
    step rely on from :class:`AcapRecord`."""

    FIELDS = ("timestamp", "wire_len", "captured_len", "stack", "vlan_ids",
              "mpls_labels", "ip_version", "src", "dst", "proto", "sport",
              "dport", "tcp_flags", "truncated")

    def test_positional_field_order_is_pinned(self):
        assert AcapRecord._fields == self.FIELDS
        values = (1.5, 1544, 200, ("eth", "ipv4", "tcp"), (301,),
                  (17001, 17000), 4, "10.0.0.1", "10.0.0.2", 6, 50000, 443,
                  0x12, True)
        record = AcapRecord(*values)
        assert tuple(record) == values
        assert [getattr(record, name) for name in self.FIELDS] == list(values)

    def test_defaults(self):
        record = AcapRecord(0.0, 60, 60, ("eth", "arp"))
        assert record[4:] == ((), (), 0, "", "", 0, 0, 0, 0, False)
        assert not record.is_ip
        assert record.depth == 2

    def test_assignment_raises(self):
        record = make_record()
        with pytest.raises(AttributeError):
            record.wire_len = 1
        with pytest.raises(AttributeError):
            record.extra = 1

    def test_pickle_round_trip(self, tmp_path):
        import pickle

        path = tmp_path / "c.pcap"
        with PcapWriter(path, snaplen=200) as writer:
            for i in range(3):
                writer.write(PcapRecord(i * 0.1, tls_frame(), orig_len=1544))
        records = digest_pcap(path).records + [make_record()]
        loaded = pickle.loads(pickle.dumps(records))
        assert loaded == records
        assert all(type(r) is AcapRecord for r in loaded)

    def test_write_read_round_trip_with_empty_fields(self):
        records = [
            AcapRecord(0.0, 60, 0, ()),
            AcapRecord(1.000001, 64, 54, ("eth", "vlan", "mpls", "mpls"),
                       vlan_ids=(4095,), mpls_labels=(17001, 16000),
                       truncated=True),
            AcapRecord(2.5, 9014, 200, ("eth", "ipv6", "udp", "dns", "data"),
                       vlan_ids=(100, 200), ip_version=6, src="2001:db8::1",
                       dst="2001:db8:1::2", proto=17, sport=53, dport=40000),
            AcapRecord(3.25, 60, 60, ("eth", "ipv4"), ip_version=4,
                       src="10.0.0.1", dst="", proto=6, tcp_flags=0x3F),
        ]
        loaded = decode_acap(encode_acap(AcapFile("s", records))).records
        assert loaded == records
        assert all(type(r) is AcapRecord for r in loaded)
        # Repeated stacks and tag lists decode to one shared tuple.
        twice = decode_acap(encode_acap(AcapFile("s", records * 2))).records
        assert twice[1].stack is twice[5].stack
        assert twice[2].vlan_ids is twice[6].vlan_ids

    def test_damaged_file_is_a_value_error_naming_it(self):
        data = encode_acap(AcapFile("s", [make_record()]))
        for pos in (0, len(data) // 2, len(data) - 1):
            damaged = bytearray(data)
            damaged[pos] ^= 0x01
            with pytest.raises(ValueError):
                decode_acap(bytes(damaged))
        with pytest.raises(ValueError):
            decode_acap(data[:len(data) // 2])
