"""Internet checksum (RFC 1071) and helpers.

IPv4 headers, and TCP/UDP/ICMP segments, carry the one's-complement
checksum.  The traffic generators fill real checksums so the captures are
well-formed, and the dissectors can optionally validate them.
"""

from __future__ import annotations

import struct


def ones_complement_sum(data: bytes) -> int:
    """Return the 16-bit one's-complement sum over ``data``.

    Odd-length input is zero-padded on the right, per RFC 1071.  The
    end-around-carry sum of the big-endian 16-bit words is their plain
    sum modulo 0xFFFF, and since 2**16 = 1 (mod 0xFFFF) that is the
    bytes read as one integer modulo 0xFFFF.  Like the word-by-word
    loop, the result is 0 only when every word is zero, and 0xFFFF for
    a nonzero multiple of 0xFFFF.
    """
    value = int.from_bytes(data, "big")
    if not value:
        return 0
    if len(data) % 2:
        value <<= 8
    return value % 0xFFFF or 0xFFFF


def internet_checksum(data: bytes) -> int:
    """Return the Internet checksum of ``data`` (RFC 1071)."""
    return (~ones_complement_sum(data)) & 0xFFFF


def pseudo_header_v4(src: bytes, dst: bytes, proto: int, length: int) -> bytes:
    """IPv4 pseudo-header used by the TCP/UDP checksum."""
    return src + dst + struct.pack("!BBH", 0, proto, length)


def pseudo_header_v6(src: bytes, dst: bytes, proto: int, length: int) -> bytes:
    """IPv6 pseudo-header used by the TCP/UDP checksum (RFC 8200 §8.1)."""
    return src + dst + struct.pack("!IHBB", length, 0, 0, proto)


# IP protocol numbers, duplicated here (headers.py imports this module).
PROTO_TCP = 6
PROTO_UDP = 17


def transport_checksum(pseudo: bytes, segment: bytes, proto: int) -> int:
    """Checksum of a transport segment under the given pseudo-header.

    ``proto`` selects protocol-specific encoding rules: a UDP checksum
    of zero means "no checksum present" (RFC 768), so a *computed* zero
    is transmitted as 0xFFFF.  TCP has no such escape -- 0x0000 is a
    perfectly legal TCP checksum and must be emitted as-is.
    """
    checksum = internet_checksum(pseudo + segment)
    if proto == PROTO_UDP and checksum == 0:
        return 0xFFFF
    return checksum
