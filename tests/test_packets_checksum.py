"""Tests for the Internet checksum implementation."""

import struct

from hypothesis import example, given
from hypothesis import strategies as st

from repro.packets.checksum import (
    PROTO_TCP,
    PROTO_UDP,
    internet_checksum,
    ones_complement_sum,
    pseudo_header_v4,
    pseudo_header_v6,
    transport_checksum,
)


class TestOnesComplement:
    def test_rfc1071_example(self):
        # The classic example from RFC 1071 §3.
        data = bytes([0x00, 0x01, 0xF2, 0x03, 0xF4, 0xF5, 0xF6, 0xF7])
        assert ones_complement_sum(data) == 0xDDF2
        assert internet_checksum(data) == 0x220D

    def test_odd_length_padding(self):
        assert ones_complement_sum(b"\xff") == ones_complement_sum(b"\xff\x00")

    def test_empty(self):
        assert internet_checksum(b"") == 0xFFFF

    def test_verification_property(self):
        # Inserting the checksum makes the total checksum zero.
        data = b"The quick brown fox!"  # even length
        checksum = internet_checksum(data)
        combined = data + struct.pack("!H", checksum)
        assert internet_checksum(combined) == 0

    def test_all_zero(self):
        assert internet_checksum(b"\x00" * 8) == 0xFFFF

    @given(st.one_of(
        st.binary(max_size=300),
        st.integers(0, 300).map(lambda n: b"\x00" * n),
        st.integers(0, 300).map(lambda n: b"\xff" * n)))
    @example(b"\xff\xff")
    @example(b"\xff")
    @example(b"\x00\x01")
    def test_matches_rfc1071_loop(self, data):
        assert ones_complement_sum(data) == rfc1071_sum(data)


def rfc1071_sum(data: bytes) -> int:
    """RFC 1071's word-by-word end-around-carry sum, the oracle."""
    if len(data) % 2:
        data = data + b"\x00"
    total = 0
    for (word,) in struct.iter_unpack("!H", data):
        total += word
        total = (total & 0xFFFF) + (total >> 16)
    return total & 0xFFFF


class TestPseudoHeaders:
    def test_v4_layout(self):
        pseudo = pseudo_header_v4(b"\x0a\x00\x00\x01", b"\x0a\x00\x00\x02", 6, 20)
        assert len(pseudo) == 12
        assert pseudo[9] == 6
        assert struct.unpack("!H", pseudo[10:12])[0] == 20

    def test_v6_layout(self):
        pseudo = pseudo_header_v6(b"\x00" * 16, b"\x01" * 16, 17, 8)
        assert len(pseudo) == 40
        assert pseudo[-1] == 17

    def test_udp_checksum_never_zero(self):
        # A computed zero is transmitted as 0xFFFF (UDP-only rule, RFC 768).
        # Construct data whose checksum would be zero: all 0xFF words.
        pseudo = b"\xff\xff"
        segment = b"\xff\xff"
        assert transport_checksum(pseudo, segment, PROTO_UDP) == 0xFFFF

    def test_tcp_zero_checksum_emitted_as_is(self):
        # TCP has no "no checksum" escape: a computed 0x0000 is legal and
        # must NOT be rewritten to 0xFFFF (regression: the substitution
        # used to apply to every transport protocol).
        pseudo = b"\xff\xff"
        segment = b"\xff\xff"
        assert transport_checksum(pseudo, segment, PROTO_TCP) == 0

    def test_nonzero_checksums_unchanged_for_both(self):
        pseudo = pseudo_header_v4(b"\x0a\x00\x00\x01", b"\x0a\x00\x00\x02", 6, 4)
        segment = b"\x12\x34\x56\x78"
        expected = internet_checksum(pseudo + segment)
        assert expected != 0
        assert transport_checksum(pseudo, segment, PROTO_TCP) == expected
        assert transport_checksum(pseudo, segment, PROTO_UDP) == expected
