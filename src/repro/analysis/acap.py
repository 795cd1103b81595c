"""Abstract captures ("acap").

"Using the dissectors' output, for each frame prefix this analysis
produces an abstract stack of headers ('acap')" -- a compact record
retaining the header names, the fields the Analyze step needs (tags,
addresses, ports, flags), and the timing and frame-size metadata from
the original pcap.  Everything else is discarded, which is what makes
later analyses cheap.

Records have one encoding, :func:`encode_acap` / :func:`decode_acap`
(layout below): a versioned, crc-checked binary form that round-trips
every record bit for bit.  An acap cache entry and a Digest pool
task's result are these bytes; the cache
(:class:`~repro.analysis.cache.AcapCache`) is the only place they are
persisted, and its ``lookup`` is their reader.
"""

from __future__ import annotations

import struct
import sys
import zlib
from array import array
from dataclasses import dataclass, field
from functools import partial
from io import BytesIO
from itertools import accumulate, chain, count
from pathlib import Path
from typing import List, NamedTuple, Optional, Sequence, Tuple, Union

from repro.analysis.dissect import DissectedFrame, Dissector
from repro.packets.pcap import PcapReader


class AcapRecord(NamedTuple):
    """One frame's abstraction.

    A ``NamedTuple``: a corpus holds one record per captured frame, and
    a tuple is several times cheaper than a frozen dataclass to build
    and to hold in memory, and :func:`decode_acap` builds records
    straight from column tuples.  It is immutable and picklable; unlike
    a dataclass it compares equal to a plain tuple of the same field
    values.
    """

    timestamp: float
    wire_len: int
    captured_len: int
    stack: Tuple[str, ...]          # header names, outermost first
    vlan_ids: Tuple[int, ...] = ()
    mpls_labels: Tuple[int, ...] = ()
    ip_version: int = 0             # 0 = non-IP
    src: str = ""
    dst: str = ""
    proto: int = 0
    sport: int = 0
    dport: int = 0
    tcp_flags: int = 0
    truncated: bool = False

    @property
    def is_ip(self) -> bool:
        return self.ip_version in (4, 6)

    @property
    def depth(self) -> int:
        return len(self.stack)


@dataclass
class AcapFile:
    """A digested pcap: its records plus provenance."""

    source: str
    records: List[AcapRecord] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)


def abstract(dissected: DissectedFrame, timestamp: float, wire_len: int,
             captured_len: int) -> AcapRecord:
    """Collapse a dissection into an :class:`AcapRecord`."""
    vlan_ids = tuple(int(h.fields["vid"]) for h in dissected.all("vlan"))
    mpls_labels = tuple(int(h.fields["label"]) for h in dissected.all("mpls"))
    ip_version, src, dst, proto = 0, "", "", 0
    ipv4 = dissected.first("ipv4")
    ipv6 = dissected.first("ipv6")
    if ipv4 is not None:
        ip_version = 4
        src, dst = str(ipv4.fields["src"]), str(ipv4.fields["dst"])
        proto = int(ipv4.fields["proto"])
    elif ipv6 is not None:
        ip_version = 6
        src, dst = str(ipv6.fields["src"]), str(ipv6.fields["dst"])
        proto = int(ipv6.fields["next_header"])
    sport = dport = tcp_flags = 0
    tcp = dissected.first("tcp")
    udp = dissected.first("udp")
    if tcp is not None:
        sport, dport = int(tcp.fields["sport"]), int(tcp.fields["dport"])
        tcp_flags = int(tcp.fields["flags"])
    elif udp is not None:
        sport, dport = int(udp.fields["sport"]), int(udp.fields["dport"])
    return AcapRecord(
        timestamp=timestamp,
        wire_len=wire_len,
        captured_len=captured_len,
        stack=dissected.names,
        vlan_ids=vlan_ids,
        mpls_labels=mpls_labels,
        ip_version=ip_version,
        src=src,
        dst=dst,
        proto=proto,
        sport=sport,
        dport=dport,
        tcp_flags=tcp_flags,
        truncated=dissected.truncated,
    )


# -- the Digest hot path ------------------------------------------------------
#
# ``dissect_record`` is a fused rewrite of ``Dissector.dissect`` +
# ``abstract``: it walks the same header chain but extracts *only* the
# fields an AcapRecord keeps, indexing into the frame bytes directly --
# no per-header HeaderInfo objects, field dicts, MAC-address strings, or
# memoryview slices.  Over a large corpus this is the difference between
# the pipeline being dissection-bound and being I/O-bound, and its
# output is bit-identical to the generic path (enforced by tests).

_V6_WORDS = struct.Struct("!8H")
_MPLS_ENTRY = struct.Struct("!I")

_HTTP_METHODS = frozenset(
    ("GET", "POST", "PUT", "HEAD", "DELETE", "OPTIONS", "PATCH"))


class _Truncated(Exception):
    pass


#: Builds an :class:`AcapRecord` from a tuple of all its field values in
#: field order, skipping the generated ``__new__``'s argument binding.
#: The Digest hot paths build one record per frame this way.
_new_record = tuple.__new__


def dissect_record(data: bytes, timestamp: float, wire_len: int) -> AcapRecord:
    """Dissect one frame prefix straight into an :class:`AcapRecord`.

    Equivalent to ``abstract(Dissector().dissect(data), ...)`` but
    several times faster; :func:`digest_pcap` uses it whenever no custom
    dissector is supplied.
    """
    stack: List[str] = []
    vlan_ids: List[int] = []
    mpls_labels: List[int] = []
    ip_version = 0
    src = dst = ""
    proto = sport = dport = tcp_flags = 0
    truncated = False
    pos = 0
    n = len(data)
    try:
        while True:  # one iteration per (pseudowire-encapsulated) Ethernet
            if n - pos < 14:
                raise _Truncated
            stack.append("eth")
            ethertype = (data[pos + 12] << 8) | data[pos + 13]
            pos += 14
            while ethertype == 0x8100:  # 802.1Q VLAN
                if n - pos < 4:
                    raise _Truncated
                stack.append("vlan")
                vlan_ids.append(((data[pos] << 8) | data[pos + 1]) & 0xFFF)
                ethertype = (data[pos + 2] << 8) | data[pos + 3]
                pos += 4
            if ethertype == 0x8847:  # MPLS unicast
                bottom = False
                while not bottom:
                    if n - pos < 4:
                        raise _Truncated
                    (entry,) = _MPLS_ENTRY.unpack_from(data, pos)
                    stack.append("mpls")
                    mpls_labels.append(entry >> 12)
                    bottom = bool(entry & 0x100)
                    pos += 4
                if n - pos < 1:
                    raise _Truncated
                nibble = data[pos] >> 4
                if nibble == 4:
                    ip_kind = 4
                elif nibble == 6:
                    ip_kind = 6
                elif nibble == 0:  # pseudowire control word (RFC 4448)
                    if n - pos < 4:
                        raise _Truncated
                    stack.append("pw")
                    pos += 4
                    continue  # a fresh Ethernet frame follows
                else:
                    break  # opaque remainder
            elif ethertype == 0x0800:
                ip_kind = 4
            elif ethertype == 0x86DD:
                ip_kind = 6
            elif ethertype == 0x0806:  # ARP
                if n - pos < 28:
                    raise _Truncated
                stack.append("arp")
                pos += 28
                break
            else:
                break  # unknown EtherType: everything that follows is opaque

            if ip_kind == 4:
                if n - pos < 20:
                    raise _Truncated
                first = data[pos]
                if first >> 4 != 4:
                    raise _Truncated
                ihl = (first & 0xF) * 4
                if ihl < 20 or n - pos < ihl:
                    raise _Truncated
                stack.append("ipv4")
                ip_version = 4
                proto = data[pos + 9]
                src = "%d.%d.%d.%d" % (
                    data[pos + 12], data[pos + 13], data[pos + 14], data[pos + 15])
                dst = "%d.%d.%d.%d" % (
                    data[pos + 16], data[pos + 17], data[pos + 18], data[pos + 19])
                pos += ihl
            else:
                if n - pos < 40:
                    raise _Truncated
                if data[pos] >> 4 != 6:
                    raise _Truncated
                stack.append("ipv6")
                ip_version = 6
                proto = data[pos + 6]
                src = ":".join("%x" % w for w in _V6_WORDS.unpack_from(data, pos + 8))
                dst = ":".join("%x" % w for w in _V6_WORDS.unpack_from(data, pos + 24))
                pos += 40

            if proto == 6:  # TCP
                if n - pos < 20:
                    raise _Truncated
                offset = (data[pos + 12] >> 4) * 4
                if offset < 20:
                    raise _Truncated
                stack.append("tcp")
                sport = (data[pos] << 8) | data[pos + 1]
                dport = (data[pos + 2] << 8) | data[pos + 3]
                tcp_flags = data[pos + 13]
                pos += offset if offset <= n - pos else n - pos
                pos = _classify_application(data, pos, n, sport, dport, stack)
            elif proto == 17:  # UDP
                if n - pos < 8:
                    raise _Truncated
                stack.append("udp")
                sport = (data[pos] << 8) | data[pos + 1]
                dport = (data[pos + 2] << 8) | data[pos + 3]
                pos += 8
                pos = _classify_application(data, pos, n, sport, dport, stack)
            elif proto == 1 or proto == 58:  # ICMP / ICMPv6
                if n - pos < 8:
                    raise _Truncated
                stack.append("icmp")
                pos += 8
            break
        remainder = n - pos
        if remainder > 0:
            # Short frames are zero-padded to the Ethernet minimum;
            # don't report that padding as an application payload.
            if remainder <= 8 and not any(data[pos:]):
                stack.append("padding")
            else:
                stack.append("data")
    except _Truncated:
        truncated = True
    return _new_record(AcapRecord, (
        timestamp, wire_len, n, tuple(stack), tuple(vlan_ids),
        tuple(mpls_labels), ip_version, src, dst, proto, sport, dport,
        tcp_flags, truncated))


def _classify_application(data: bytes, pos: int, n: int, sport: int,
                          dport: int, stack: List[str]) -> int:
    """Port-classified application layer (mirrors ``Dissector._application``)."""
    if pos >= n:
        return pos
    for port in (dport, sport):
        if port == 443:  # TLS record
            if n - pos < 5:
                continue
            if data[pos] not in (20, 21, 22, 23) or data[pos + 1] != 3:
                continue
            stack.append("tls")
            return pos + 5
        if port == 22:  # SSH banner
            raw = data[pos:pos + 255]
            if not raw.startswith(b"SSH-"):
                continue
            line = raw.partition(b"\r\n")[0]
            stack.append("ssh")
            return min(n, pos + len(line) + 2)
        if port == 53:  # DNS header
            if n - pos < 12:
                continue
            stack.append("dns")
            return pos + 12
        if port == 80:  # HTTP head
            raw = data[pos:pos + 512]
            line = raw.partition(b"\r\n")[0]
            text = line.decode("ascii", "replace")
            if not text.startswith("HTTP/1.") and \
                    text.split(" ", 1)[0] not in _HTTP_METHODS:
                continue
            stack.append("http")
            return pos + len(raw)
        if port == 123:  # NTP
            if n - pos < 48:
                continue
            first = data[pos]
            if (first >> 3) & 0x7 not in (3, 4) or first & 0x7 == 0:
                continue
            stack.append("ntp")
            return pos + 48
        if port == 5201:  # iperf: opaque, consumes the rest
            stack.append("iperf")
            return n
    return pos


def digest_pcap(pcap_path: Union[str, Path],
                dissector: Optional[Dissector] = None,
                data: Optional[bytes] = None) -> AcapFile:
    """The Digest step for one pcap file.

    With no ``dissector`` argument the fused fast path
    (:func:`dissect_record`) is used; passing a custom dissector falls
    back to the generic ``dissect`` + :func:`abstract` route.  ``data``
    is the pcap's bytes when the caller has read them already (the
    pipeline keys the acap cache on them); the file is read otherwise.
    """
    acap = AcapFile(source=str(pcap_path))
    records = acap.records
    with PcapReader(pcap_path if data is None else BytesIO(data)) as reader:
        if dissector is None:
            append = records.append
            for timestamp, frame, orig_len in reader.iter_raw():
                append(dissect_record(frame, timestamp, orig_len))
        else:
            for record in reader:
                dissected = dissector.dissect(record.data)
                records.append(
                    abstract(dissected, record.timestamp, record.orig_len,
                             len(record.data))
                )
    return acap


# -- the acap encoding --------------------------------------------------------
#
# The format of an acap cache entry, and what a Digest pool task
# returns.
#
#   header   magic, format version, byte order, record count, body
#            length and the body's crc32 (fixed size, little-endian)
#   body     source   the source path, UTF-8
#            strings  every address and header name once: their
#                     lengths, then their concatenation in UTF-8
#            stacks   header stacks: their lengths, then string ids
#            tags     VLAN and MPLS tag tuples in one table: their
#                     lengths, then the tags
#            columns  one array per AcapRecord field, in field order;
#                     stacks, tags and addresses as table ids
#
# A byte run is a u32 length and the bytes; a table starts with a u32
# entry count.  An array is its typecode byte, then its items in the
# writer's byte order; int arrays use the narrowest typecode that
# holds every value.  Timestamps are the float64s themselves, so an
# entry decodes to exactly the records that were encoded, bit for bit
# and with the same types.  Decoding builds the tables and the records
# with C-level map/zip, never a per-record Python loop.

_ENTRY_MAGIC = b"\x89acp"
ENTRY_VERSION = 1
_ENTRY_HEADER = struct.Struct("<4sBcQQI")
_BYTE_ORDER = b"<" if sys.byteorder == "little" else b">"
_U32 = struct.Struct("<I")
_INT_CODES = "BHIq"
_FLOAT_CODES = "d"
#: ``truncated`` is stored as 0/1 and decoded through this table, so it
#: comes back as the ``bool`` it was.
_BOOLS = [False, True]
_as_record = partial(tuple.__new__, AcapRecord)


def _int_array(values: Sequence[int]) -> array:
    """``values`` in the narrowest typecode that holds them all."""
    for code in _INT_CODES[:-1]:
        try:
            return array(code, values)
        except OverflowError:
            pass
    return array(_INT_CODES[-1], values)


def _intern(values: Sequence) -> Tuple[list, List[int]]:
    """The distinct ``values`` in first-seen order, and ``values`` as
    ids into that table."""
    table = list(dict.fromkeys(values))
    ids = dict(zip(table, count()))
    return table, list(map(ids.__getitem__, values))


def _split(lengths: Sequence[int], items: Sequence) -> list:
    """``items`` cut into consecutive runs of ``lengths``."""
    ends = list(accumulate(lengths))
    return list(map(items.__getitem__, map(slice, chain((0,), ends), ends)))


class _EntryWriter:
    """Accumulates an entry body."""

    def __init__(self):
        self.parts: List[bytes] = []

    def u32(self, value: int) -> None:
        self.parts.append(_U32.pack(value))

    def blob(self, data: bytes) -> None:
        self.u32(len(data))
        self.parts.append(data)

    def column(self, values: array) -> None:
        self.parts.append(values.typecode.encode())
        self.parts.append(values.tobytes())

    def table(self, entries: Sequence[Sequence]) -> None:
        """Entry count and lengths; the caller writes the items."""
        self.u32(len(entries))
        self.column(_int_array(list(map(len, entries))))


class _EntryReader:
    """Bounds-checked cursor over an entry body."""

    def __init__(self, body: memoryview):
        self.body = body
        self.pos = 0

    def take(self, size: int) -> memoryview:
        end = self.pos + size
        if end > len(self.body):
            raise ValueError("acap entry body ends early")
        chunk = self.body[self.pos:end]
        self.pos = end
        return chunk

    def u32(self) -> int:
        return _U32.unpack(self.take(4))[0]

    def blob(self) -> memoryview:
        return self.take(self.u32())

    def column(self, length: int, codes: str = _INT_CODES) -> array:
        code = chr(self.take(1)[0])
        if code not in codes:
            raise ValueError(f"acap entry has typecode {code!r} where one "
                             f"of {codes!r} belongs")
        arr = array(code)
        arr.frombytes(self.take(length * arr.itemsize))
        return arr

    def table(self) -> array:
        """Entry lengths; the caller reads the items."""
        return self.column(self.u32())


def encode_acap(acap: AcapFile) -> bytes:
    """``acap`` as a binary entry (layout above)."""
    records = acap.records
    n = len(records)
    (timestamps, wire_len, captured_len, stacks, vlan_ids, mpls_labels,
     ip_version, src, dst, proto, sport, dport, tcp_flags, truncated) = \
        zip(*records) if records else [()] * len(AcapRecord._fields)
    stack_table, stack_ids = _intern(stacks)
    tag_table, tag_ids = _intern(vlan_ids + mpls_labels)
    strings, string_ids = _intern(
        src + dst + tuple(chain.from_iterable(stack_table)))
    out = _EntryWriter()
    out.blob(acap.source.encode("utf-8", "surrogatepass"))
    out.table(strings)
    out.blob("".join(strings).encode("utf-8", "surrogatepass"))
    out.table(stack_table)
    out.column(_int_array(string_ids[2 * n:]))
    out.table(tag_table)
    out.column(_int_array(list(chain.from_iterable(tag_table))))
    out.column(array(_FLOAT_CODES, timestamps))
    for column in (wire_len, captured_len, stack_ids, tag_ids[:n],
                   tag_ids[n:], ip_version, string_ids[:n],
                   string_ids[n:2 * n], proto, sport, dport, tcp_flags,
                   truncated):
        out.column(_int_array(column))
    body = b"".join(out.parts)
    return _ENTRY_HEADER.pack(_ENTRY_MAGIC, ENTRY_VERSION, _BYTE_ORDER, n,
                              len(body), zlib.crc32(body)) + body


def decode_acap(data: bytes) -> AcapFile:
    """Inverse of :func:`encode_acap`.

    Raises ``ValueError`` for anything but a whole, intact entry of this
    format version and byte order: a bad magic, an unknown version, a
    byte-order mismatch, a length mismatch or a crc failure.
    """
    if len(data) < _ENTRY_HEADER.size:
        raise ValueError("acap entry is shorter than its header")
    magic, version, order, n, size, crc = _ENTRY_HEADER.unpack_from(data)
    if magic != _ENTRY_MAGIC:
        raise ValueError("not a binary acap entry")
    if version != ENTRY_VERSION:
        raise ValueError(f"acap entry format version {version}, "
                         f"expected {ENTRY_VERSION}")
    if order != _BYTE_ORDER:
        raise ValueError("acap entry was written in the other byte order")
    body = memoryview(data)[_ENTRY_HEADER.size:]
    if len(body) != size:
        raise ValueError(f"acap entry body is {len(body)} bytes, "
                         f"its header says {size}")
    if zlib.crc32(body) != crc:
        raise ValueError("acap entry fails its crc check")
    reader = _EntryReader(body)
    try:
        source = str(reader.blob(), "utf-8", "surrogatepass")
        lengths = reader.table()
        strings = _split(lengths, str(reader.blob(), "utf-8", "surrogatepass"))
        lengths = reader.table()
        names = list(map(strings.__getitem__, reader.column(sum(lengths))))
        stack_table = list(map(tuple, _split(lengths, names)))
        lengths = reader.table()
        tag_table = list(map(tuple, _split(lengths,
                                           reader.column(sum(lengths)))))
        timestamps = reader.column(n, _FLOAT_CODES)
        (wire_len, captured_len, stacks, vlan_ids, mpls_labels, ip_version,
         src, dst, proto, sport, dport, tcp_flags, truncated) = [
            reader.column(n) for _ in range(len(AcapRecord._fields) - 1)]
        if reader.pos != len(body):
            raise ValueError(f"acap entry has {len(body) - reader.pos} "
                             f"bytes past its last column")
        records = list(map(_as_record, zip(
            timestamps, wire_len, captured_len,
            map(stack_table.__getitem__, stacks),
            map(tag_table.__getitem__, vlan_ids),
            map(tag_table.__getitem__, mpls_labels), ip_version,
            map(strings.__getitem__, src), map(strings.__getitem__, dst),
            proto, sport, dport, tcp_flags, map(_BOOLS.__getitem__, truncated))))
    except (IndexError, UnicodeDecodeError) as exc:
        raise ValueError("malformed acap entry") from exc
    return AcapFile(source=source, records=records)
