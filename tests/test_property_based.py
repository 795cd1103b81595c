"""Property-based tests (hypothesis) on core data structures and invariants."""

import io
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.acap import (
    _TAG_BITS, AcapFile, AcapRecord, Ragged, _intern, _intern_runs,
    _positions, decode_acap, encode_acap,
)
from repro.analysis.anonymize import Anonymizer
from repro.analysis.dissect import Dissector
from repro.netsim.engine import Simulator
from repro.packets.builder import FrameBuilder, FrameSpec, MIN_FRAME_SIZE
from repro.packets.checksum import internet_checksum
from repro.packets.headers import Ethernet, IPv4, MPLS, Payload, TCP, VLAN
from repro.packets.pcap import PcapReader, PcapRecord, PcapWriter
from repro.testbed.resources import ResourceCapacity
from repro.traffic.distributions import PAPER_FRAME_BINS
from tests.test_analysis_flows import assert_groups_match_records

E1, E2 = "02:00:00:00:00:01", "02:00:00:00:00:02"

ipv4_addrs = st.tuples(*[st.integers(0, 255)] * 4).map(
    lambda t: ".".join(map(str, t)))
ports = st.integers(1, 65535)


class TestChecksumProperties:
    @given(st.binary(min_size=0, max_size=200))
    def test_checksum_verifies(self, data):
        """Appending the checksum always makes the total zero."""
        if len(data) % 2:
            data += b"\x00"
        checksum = internet_checksum(data)
        assert internet_checksum(data + struct.pack("!H", checksum)) == 0

    @given(st.binary(min_size=1, max_size=100))
    def test_checksum_in_range(self, data):
        assert 0 <= internet_checksum(data) <= 0xFFFF


class TestFrameProperties:
    @given(src=ipv4_addrs, dst=ipv4_addrs, sport=ports, dport=ports,
           vid=st.integers(0, 4095), label=st.integers(0, (1 << 20) - 1),
           target=st.integers(80, 9000))
    @settings(max_examples=60, deadline=None)
    def test_build_dissect_round_trip(self, src, dst, sport, dport, vid,
                                      label, target):
        """Any VLAN/MPLS/IPv4/TCP frame dissects back to its fields."""
        frame = FrameBuilder().build(FrameSpec(
            [Ethernet(E1, E2), VLAN(vid), MPLS(label), IPv4(src, dst),
             TCP(sport, dport), Payload(0)], target_size=target))
        assert len(frame) == max(target, MIN_FRAME_SIZE)
        result = Dissector().dissect(frame[:256])
        assert result.names[:5] == ("eth", "vlan", "mpls", "ipv4", "tcp")
        assert result.first("vlan").fields["vid"] == vid
        assert result.first("mpls").fields["label"] == label
        assert result.first("ipv4").fields["src"] == src
        assert result.first("tcp").fields["sport"] == sport

    @given(st.integers(60, 20000))
    def test_bins_partition_sizes(self, size):
        """Every size lands in exactly one bin."""
        index = PAPER_FRAME_BINS.index_for(size)
        labels = PAPER_FRAME_BINS.labels()
        assert 0 <= index < len(labels)
        histogram = PAPER_FRAME_BINS.histogram([size])
        assert histogram.sum() == 1
        assert histogram[index] == 1


class TestPcapProperties:
    @given(st.lists(
        st.tuples(st.floats(0, 1e6), st.integers(60, 2000), st.integers(60, 256)),
        min_size=0, max_size=20))
    @settings(max_examples=40, deadline=None)
    def test_pcap_round_trip(self, specs):
        buf = io.BytesIO()
        writer = PcapWriter(buf, snaplen=256)
        expected = []
        t = 0.0
        for dt, wire, captured in specs:
            t += abs(dt) % 100
            captured = min(captured, wire)
            writer.write(PcapRecord(t, b"\xaa" * captured, orig_len=wire))
            expected.append((t, min(captured, 256), wire))
        buf.seek(0)
        records = PcapReader(buf).read_all()
        assert len(records) == len(expected)
        for record, (ts, captured, wire) in zip(records, expected):
            assert record.timestamp == pytest.approx(ts, abs=1e-5)
            assert len(record.data) == captured
            assert record.orig_len == wire


class TestAcapProperties:
    stacks = st.lists(st.sampled_from(
        ["eth", "vlan", "mpls", "pw", "ipv4", "ipv6", "tcp", "udp", "tls",
         "dns", "data"]), min_size=1, max_size=12).map(tuple)

    @given(st.lists(st.tuples(
        st.floats(allow_nan=False), st.integers(60, 9000), stacks,
        st.lists(st.integers(0, 4095), max_size=2).map(tuple),
        st.lists(st.integers(0, 99999), max_size=3).map(tuple),
    ), min_size=0, max_size=15))
    @settings(max_examples=40, deadline=None)
    def test_acap_round_trip(self, rows):
        """An encoded acap decodes to the records encoded, timestamps bit
        for bit."""
        records = [
            AcapRecord(timestamp=ts, wire_len=wire, captured_len=60,
                       stack=stack, vlan_ids=vlans, mpls_labels=mpls)
            for ts, wire, stack, vlans, mpls in rows
        ]
        loaded = decode_acap(encode_acap(AcapFile("src", records)))
        assert loaded.records == records
        assert [r.timestamp.hex() for r in loaded.records] == \
            [r.timestamp.hex() for r in records]

    addresses = st.one_of(
        st.just(""), st.ip_addresses(v=4).map(str),
        st.ip_addresses(v=6).map(str),
        # the dissector's uncompressed IPv6 form
        st.lists(st.integers(0, 0xFFFF), min_size=8, max_size=8).map(
            lambda words: ":".join("%x" % w for w in words)))
    timestamps = st.one_of(
        st.just(-0.0), st.just(0.1234567891),  # no exact .6f form
        st.floats(allow_nan=False))
    records = st.builds(
        AcapRecord,
        timestamp=timestamps,
        wire_len=st.integers(0, 2**63 - 1),
        captured_len=st.integers(0, 2**32 - 1),
        stack=st.one_of(st.just(()), stacks),
        vlan_ids=st.lists(st.integers(0, 4095), max_size=3).map(tuple),
        mpls_labels=st.lists(st.integers(0, 2**20 - 1), max_size=4).map(tuple),
        ip_version=st.sampled_from([0, 4, 6]),
        src=addresses,
        dst=addresses,
        proto=st.integers(0, 255),
        sport=st.integers(0, 65535),
        dport=st.integers(0, 65535),
        tcp_flags=st.integers(0, 255),
        truncated=st.booleans(),
    )

    @given(st.one_of(st.just("site/ünïcödé-πcap.pcap"), st.text()),
           st.lists(records, max_size=20))
    @settings(max_examples=200, deadline=None)
    def test_entry_round_trip_is_exact(self, source, records):
        """A binary entry decodes to the very records encoded: equal,
        with ``type()``-equal fields and bit-equal timestamps."""
        loaded = decode_acap(encode_acap(AcapFile(source, records)))
        assert loaded.source == source
        assert loaded.records == records
        assert all(type(r) is AcapRecord for r in loaded.records)
        for got, want in zip(loaded.records, records):
            assert [type(v) for v in got] == [type(v) for v in want]
            assert got.timestamp.hex() == want.timestamp.hex()

    #: Tag tuples of any depth: short and deep rows, repeats, and
    #: values outside the 21 bits a packed key holds.
    tag_values = st.one_of(st.integers(0, 7), st.integers(0, 2**20 - 1),
                           st.sampled_from([-1, 2**21 - 2, 2**21 - 1, 2**40]))
    tag_tuples = st.lists(tag_values, max_size=7).map(tuple)

    @given(st.lists(st.one_of(tag_tuples, st.sampled_from(
        [(), (5,), (5, 6), (6, 5), (1, 2, 3), (1, 2, 3, 4)])), max_size=30))
    @settings(max_examples=150, deadline=None)
    def test_ragged_table_interns_like_tuples(self, entries):
        """A ragged tag table holds its tuples, and interning its rows
        by packed keys gives the tuple interning's table and ids."""
        table = Ragged.of(entries)
        assert table.tuples() == entries
        distinct, ids = _intern_runs(table, _TAG_BITS,
                                     *_positions(table.lengths))
        want_table, want_ids = _intern(entries)
        assert distinct.tuples() == want_table
        assert ids.tolist() == want_ids

    tagged = st.builds(
        AcapRecord,
        timestamp=st.floats(0, 1e6),
        wire_len=st.integers(60, 9000),
        captured_len=st.just(60),
        stack=st.just(("eth", "ipv4", "tcp")),
        vlan_ids=st.one_of(st.sampled_from([(), (7,), (7, 8), (8, 7)]),
                           st.lists(st.integers(0, 4095), max_size=6).map(tuple)),
        mpls_labels=st.one_of(
            st.sampled_from([(), (16,), (16, 17), (17, 16), (1, 2, 3, 4)]),
            tag_tuples),
        ip_version=st.sampled_from([0, 4, 4, 6]),
        src=st.sampled_from(["10.0.0.1", "10.0.0.2", "::1"]),
        dst=st.sampled_from(["10.0.0.1", "10.0.0.2", "::1"]),
        proto=st.sampled_from([6, 17]),
        sport=st.sampled_from([80, 443]),
        dport=st.sampled_from([80, 443]),
        tcp_flags=st.integers(0, 63),
    )

    @given(st.lists(st.tuples(st.lists(tagged, max_size=12), st.booleans()),
                    max_size=5))
    @settings(max_examples=100, deadline=None)
    def test_group_flows_over_ragged_tags(self, samples):
        """Samples built from records and decoded from entries, grouped
        together, give the :meth:`FlowKey.from_record` flows; and an
        entry decodes to the records encoded."""
        acaps = []
        for i, (records, decoded) in enumerate(samples):
            acap = AcapFile(f"s{i}", records)
            if decoded:
                acap = decode_acap(encode_acap(acap))
                assert acap.records == records
            acaps.append(acap)
        assert_groups_match_records(acaps)


class TestResourceProperties:
    vectors = st.builds(
        ResourceCapacity,
        cores=st.integers(0, 1000), ram_gb=st.floats(0, 1e4),
        disk_gb=st.floats(0, 1e6), dedicated_nics=st.integers(0, 10),
        shared_nic_slots=st.integers(0, 400), fpga_nics=st.integers(0, 4))

    @given(vectors, vectors)
    def test_add_sub_inverse(self, a, b):
        result = (a + b) - b
        for (name, got), (_n, want) in zip(result.components(), a.components()):
            assert got == pytest.approx(want, rel=1e-9, abs=1e-6), name

    @given(vectors, vectors)
    def test_fits_within_iff_no_shortfall(self, need, have):
        assert need.fits_within(have) == (need.first_shortfall(have) is None)

    @given(vectors)
    def test_fits_within_self(self, v):
        assert v.fits_within(v)


class TestAnonymizerProperties:
    @given(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_prefix_preservation(self, a, b):
        """The permutation preserves exactly the common-prefix length."""
        anon = Anonymizer(key=b"prop")
        out_a = anon.anonymize_ipv4_int(a)
        out_b = anon.anonymize_ipv4_int(b)

        def prefix(x, y):
            for i in range(32):
                if (x >> (31 - i)) & 1 != (y >> (31 - i)) & 1:
                    return i
            return 32

        assert prefix(out_a, out_b) == prefix(a, b)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_deterministic_and_in_range(self, addr):
        anon = Anonymizer(key=b"prop")
        out = anon.anonymize_ipv4_int(addr)
        assert 0 <= out < 2**32
        assert out == anon.anonymize_ipv4_int(addr)


class TestMirrorSchedulerProperties:
    @given(st.lists(st.tuples(st.integers(0, 4), st.floats(1.0, 50.0)),
                    min_size=1, max_size=20))
    @settings(max_examples=30, deadline=None)
    def test_exclusive_holding_and_full_service(self, requests):
        """At most one holder per port at any instant, and every request
        is eventually granted once leases expire."""
        from repro.core.sharing import MirrorScheduler

        sim = Simulator()
        scheduler = MirrorScheduler(sim, max_lease_seconds=60.0)
        granted = []
        active = {}

        def on_grant(lease, port=None):
            # Exclusive holding: the port must have been free.
            assert active.get(lease.port_id) is None
            active[lease.port_id] = lease.holder
            granted.append(lease.holder)

        def on_revoke(lease):
            assert active.get(lease.port_id) == lease.holder
            active[lease.port_id] = None

        for i, (port_index, duration) in enumerate(requests):
            scheduler.request("S", f"p{port_index}", f"user{i}", duration,
                              on_grant, on_revoke)
        sim.run(until=60.0 * (len(requests) + 1))
        assert len(granted) == len(requests)


class TestSimulatorProperties:
    @given(st.lists(st.floats(0.001, 100.0), min_size=1, max_size=30))
    @settings(max_examples=40, deadline=None)
    def test_events_fire_in_nondecreasing_time(self, delays):
        sim = Simulator()
        fired = []
        for delay in delays:
            sim.schedule(delay, lambda d=delay: fired.append(sim.now))
        sim.run()
        assert fired == sorted(fired)
        assert len(fired) == len(delays)
