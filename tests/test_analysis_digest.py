"""The columnar Digest walk against the generic dissector.

``digest_pcap(path)`` walks every frame of a pcap at once, layer by
layer, into acap columns; ``digest_pcap(path, dissector=Dissector())``
dissects frame by frame and interns the records.  Both must give the
same cache entry, byte for byte: equal records are not enough, since
the entry also fixes the order of the string, stack and tag tables.
The property tests draw header stacks over every header the dissector
knows, cut them at every length, mutate single bytes and mix in runts
and garbage; the tests below them cover the pcap container's edge
cases.
"""

import io
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.acap import digest_pcap, encode_acap
from repro.analysis.dissect import Dissector
from repro.packets.builder import FrameBuilder, FrameSpec
from repro.packets.headers import (
    ARP, DNSHeader, Ethernet, HTTPPayload, ICMP, IPv4, IPv6, MPLS,
    NTPPayload, Payload, PseudoWireControlWord, SSHBanner, TCP, TLSRecord,
    UDP, VLAN,
)
from repro.packets.pcap import PcapReader, PcapRecord, PcapWriter, record_table

APP_PORTS = (443, 22, 53, 80, 123, 5201)

macs = st.binary(min_size=6, max_size=6).map(lambda b: b.hex(":"))
ipv4s = st.ip_addresses(v=4).map(str)
ipv6s = st.ip_addresses(v=6).map(str)
ports = st.one_of(st.sampled_from(APP_PORTS), st.integers(0, 65535))
vids = st.integers(0, 4095)
labels = st.integers(0, (1 << 20) - 1)


@st.composite
def apps(draw):
    """An application layer, or none: every classifier, its near misses
    and opaque payloads."""
    kind = draw(st.sampled_from(
        ["tls", "ssh", "dns", "http", "ntp", "payload", "none"]))
    if kind == "tls":
        return [TLSRecord(content_type=draw(st.sampled_from([20, 23, 24])),
                          version=draw(st.sampled_from([0x0303, 0x0203])))]
    if kind == "ssh":
        return [SSHBanner(software=draw(st.text(
            "abcXYZ_.-0123456789 \r\n", max_size=300)))]
    if kind == "dns":
        return [DNSHeader(ident=draw(st.integers(0, 65535)),
                          response=draw(st.booleans()))]
    if kind == "http":
        method = draw(st.sampled_from(
            ["GET", "POST", "PUT", "HEAD", "DELETE", "OPTIONS", "PATCH",
             "GETX", "get", "CONNECT"]))
        return [HTTPPayload(method=method, response=draw(st.booleans()))]
    if kind == "ntp":
        return [NTPPayload(mode=draw(st.integers(0, 7)))]
    if kind == "payload":
        return [Payload(draw(st.integers(0, 120)),
                        fill=draw(st.sampled_from([0, 0x5A])))]
    return []


@st.composite
def network(draw):
    """IPv4 or IPv6, a transport and an application layer."""
    ip = draw(st.one_of(st.builds(IPv4, ipv4s, ipv4s),
                        st.builds(IPv6, ipv6s, ipv6s)))
    kind = draw(st.sampled_from(["tcp", "udp", "icmp", "none"]))
    if kind == "tcp":
        return [ip, TCP(draw(ports), draw(ports),
                        flags=draw(st.integers(0, 255)))] + draw(apps())
    if kind == "udp":
        return [ip, UDP(draw(ports), draw(ports))] + draw(apps())
    if kind == "icmp":
        return [ip, ICMP(), Payload(draw(st.integers(0, 60)))]
    return [ip, Payload(draw(st.integers(0, 60)))]


@st.composite
def ethernet(draw, depth=0):
    """An Ethernet chain: VLAN tags, then MPLS labels (above a
    pseudowire with its own chain, IP or an opaque remainder), ARP or
    IP."""
    stack = [Ethernet(draw(macs), draw(macs))]
    stack += [VLAN(vid) for vid in draw(st.lists(vids, max_size=4))]
    kind = draw(st.sampled_from(["mpls", "arp", "ip", "ip"]))
    if kind == "mpls":
        stack += [MPLS(label) for label in draw(
            st.lists(labels, min_size=1, max_size=4))]
        below = draw(st.sampled_from(
            ["pw", "ip", "opaque"] if depth < 2 else ["ip", "opaque"]))
        if below == "pw":
            stack.append(PseudoWireControlWord(draw(st.integers(0, 65535))))
            stack += draw(ethernet(depth + 1))
        elif below == "ip":
            stack += draw(network())
        else:
            stack.append(Payload(draw(st.integers(0, 40)), fill=0x5A))
    elif kind == "arp":
        stack.append(ARP(draw(macs), draw(ipv4s)))
    else:
        stack += draw(network())
    return stack


frames = ethernet().map(lambda stack: FrameBuilder().build(FrameSpec(stack)))


def pcap_of(datas, wire_extra=0):
    buf = io.BytesIO()
    with PcapWriter(buf, snaplen=65535) as writer:
        for i, data in enumerate(datas):
            writer.write(PcapRecord(i * 0.001, data,
                                    orig_len=len(data) + wire_extra))
    return buf.getvalue()


def both_routes(data):
    """The entry bytes of the columnar and the generic digest of the
    pcap ``data``."""
    return (encode_acap(digest_pcap("SITE/x.pcap", data=data)),
            encode_acap(digest_pcap("SITE/x.pcap", data=data,
                                    dissector=Dissector())))


def assert_same_entry(data):
    columnar, generic = both_routes(data)
    assert columnar == generic


def every_cut(frame, limit=300):
    """``frame`` cut at every length up to ``limit`` bytes, and whole."""
    return [frame[:n] for n in range(min(len(frame), limit) + 1)] + [frame]


def mutated(frame, edits):
    data = bytearray(frame)
    for at, value in edits:
        if data:
            data[at % len(data)] = value
    return bytes(data)


edits = st.lists(st.tuples(st.integers(0, 2000), st.integers(0, 255)),
                 min_size=1, max_size=3)


def short_on_the_wire(data, pick):
    """The pcap ``data`` with the wire length of one record that
    captured any bytes (the ``pick``-th, modulo their count) set one
    below its captured length."""
    nonempty = []
    pos = 24
    while pos + 16 <= len(data):
        incl = struct.unpack_from(">I", data, pos + 8)[0]
        if incl:
            nonempty.append((pos, incl))
        pos += 16 + incl
    pos, incl = nonempty[pick % len(nonempty)]
    return data[:pos + 12] + struct.pack(">I", incl - 1) + data[pos + 16:]


def assert_both_raise(data):
    with pytest.raises(ValueError):
        digest_pcap("SITE/x.pcap", data=data)
    with pytest.raises(ValueError):
        digest_pcap("SITE/x.pcap", data=data, dissector=Dissector())


def _walk_matches_dissector(stacks, cut, mutations, runts, garbage, extra,
                            short):
    datas = []
    for frame in stacks:
        datas += every_cut(frame) if cut else [frame]
    datas += [mutated(frame, change) for frame in stacks for change in mutations]
    data = pcap_of(datas + runts + garbage, wire_extra=extra)
    if short is None:
        assert_same_entry(data)
    else:
        # PcapRecord's rule: a record cannot be longer than the wire.
        assert_both_raise(short_on_the_wire(data, short))


walk_cases = dict(
    stacks=st.lists(frames, min_size=1, max_size=4),
    cut=st.booleans(),
    mutations=st.lists(edits, max_size=8),
    runts=st.lists(st.binary(max_size=13), max_size=3),
    garbage=st.lists(st.binary(min_size=14, max_size=200), max_size=3),
    extra=st.integers(0, 2000),
    # Mostly None: an intact pcap, whose entries must agree.
    short=st.one_of(st.none(), st.none(), st.none(),
                    st.integers(0, 10_000)),
)


class TestColumnarWalkProperties:
    @given(**walk_cases)
    @settings(max_examples=60, deadline=None)
    def test_walk_matches_dissector(self, stacks, cut, mutations, runts,
                                    garbage, extra, short):
        _walk_matches_dissector(stacks, cut, mutations, runts, garbage, extra,
                                short)

    @pytest.mark.slow
    @given(**walk_cases)
    @settings(max_examples=600, deadline=None)
    def test_walk_matches_dissector_deep(self, stacks, cut, mutations, runts,
                                         garbage, extra, short):
        _walk_matches_dissector(stacks, cut, mutations, runts, garbage, extra,
                                short)

    @given(st.lists(frames, min_size=1, max_size=6))
    @settings(max_examples=40, deadline=None)
    def test_each_frame_alone(self, stacks):
        """Per-pcap tables: each frame's own pcap, and all of them in
        one, in the frames' order."""
        for frame in stacks:
            assert_same_entry(pcap_of([frame]))
        assert_same_entry(pcap_of(stacks))


def swapped(datas):
    """A little-endian ("swapped magic") pcap of ``datas``."""
    out = [struct.pack("<IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, 1)]
    for i, data in enumerate(datas):
        out.append(struct.pack("<IIII", 7 + i, 250000 * i, len(data),
                               len(data) + 4))
        out.append(data)
    return b"".join(out)


class TestPcapEdgeCases:
    FRAME = FrameBuilder().build(FrameSpec([
        Ethernet("02:00:00:00:00:01", "02:00:00:00:00:02"), VLAN(7),
        MPLS(17000), MPLS(17001), PseudoWireControlWord(),
        Ethernet("02:00:00:00:00:03", "02:00:00:00:00:04"), VLAN(8),
        IPv4("10.0.0.1", "10.0.0.2"), TCP(40000, 80), HTTPPayload()]))

    def test_long_chains(self):
        """Stacks and tag tuples longer than one packed key: 30 VLAN
        tags, 12 labels, a pseudowire, cut at every length."""
        frame = FrameBuilder().build(FrameSpec(
            [Ethernet("02:00:00:00:00:01", "02:00:00:00:00:02")]
            + [VLAN(vid) for vid in range(30)]
            + [MPLS(label) for label in range(16000, 16012)]
            + [PseudoWireControlWord(),
               Ethernet("02:00:00:00:00:03", "02:00:00:00:00:04"),
               VLAN(9), IPv4("10.0.0.1", "10.0.0.2"), UDP(5000, 53),
               DNSHeader()]))
        assert_same_entry(pcap_of(every_cut(frame) + every_cut(self.FRAME)))

    def test_deep_chains_do_not_recurse(self):
        """2,000 VLAN tags (an 8 KB frame), and pseudowires nested 400
        deep, each cut at a few lengths: the generic dissector walks
        them in a loop, so both routes digest them."""
        eth = Ethernet("02:00:00:00:00:01", "02:00:00:00:00:02")
        tail = [IPv4("10.0.0.1", "10.0.0.2"), UDP(5000, 53), DNSHeader()]
        tags = FrameBuilder().build(FrameSpec(
            [eth] + [VLAN(vid % 4096) for vid in range(2000)] + tail))
        assert len(tags) > 8000
        nested = FrameBuilder().build(FrameSpec(
            [eth, MPLS(16000), PseudoWireControlWord()] * 400
            + [eth, VLAN(9)] + tail))
        datas = [frame[:n] for frame in (tags, nested)
                 for n in (len(frame), len(frame) - 30, 5000)]
        assert_same_entry(pcap_of(datas))
        acap = digest_pcap("SITE/x.pcap", data=pcap_of([tags]))
        assert acap.records[0].vlan_ids[-1] == 1999

    def test_wire_shorter_than_captured(self):
        """One record whose wire length is below its captured length
        makes the pcap unreadable on both routes, wherever it sits."""
        data = pcap_of(every_cut(self.FRAME, limit=40))
        for pick in (0, 7, 40):
            bad = short_on_the_wire(data, pick)
            with pytest.raises(ValueError):
                record_table(bad)
            with pytest.raises(ValueError):
                PcapReader(io.BytesIO(bad)).read_all()
            assert_both_raise(bad)

    def test_empty_pcap(self):
        data = pcap_of([])
        assert len(digest_pcap("x", data=data)) == 0
        assert_same_entry(data)

    def test_swapped_magic(self):
        data = swapped(every_cut(self.FRAME))
        assert [r.data for r in PcapReader(io.BytesIO(data))] == \
            every_cut(self.FRAME)
        assert_same_entry(data)

    @pytest.mark.parametrize("cut", [1, 8, 15, 16, 17, 40])
    def test_truncated_last_record(self, cut):
        """A final record cut short is dropped, whichever part it loses."""
        whole = pcap_of([self.FRAME, self.FRAME[:50]])
        data = whole[:-cut]
        table = record_table(data)
        reader = PcapReader(io.BytesIO(data))
        assert len(table.starts) == len(reader.read_all()) == 1
        assert table.short_read and reader.short_read
        assert_same_entry(data)

    def test_record_table_matches_reader(self):
        data = pcap_of(every_cut(self.FRAME), wire_extra=3)
        table = record_table(data)
        records = PcapReader(io.BytesIO(data)).read_all()
        assert table.timestamps.tolist() == [r.timestamp for r in records]
        assert table.wire.tolist() == [r.orig_len for r in records]
        assert [data[s:s + c] for s, c in zip(table.starts.tolist(),
                                             table.captured.tolist())] == \
            [r.data for r in records]
        assert not table.short_read

    @pytest.mark.parametrize("data", [b"", b"\xa1\xb2", b"\x00" * 24,
                                      b"\x0a\x0d\x0d\x0a" + b"\x00" * 40])
    def test_not_a_pcap(self, data):
        """A short global header or a bad magic raises, on both routes."""
        with pytest.raises(ValueError):
            record_table(data)
        with pytest.raises(ValueError):
            digest_pcap("x", data=data)
        with pytest.raises(ValueError):
            digest_pcap("x", data=data, dissector=Dissector())
