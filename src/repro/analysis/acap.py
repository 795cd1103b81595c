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
from functools import partial
from io import BytesIO
from itertools import chain, count
from pathlib import Path
from typing import List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

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


class AcapColumns(NamedTuple):
    """An acap as three tables and one array per :class:`AcapRecord`
    field, in field order.

    ``strings`` holds every address and header name once, ``stacks``
    every distinct header stack (tuples of names) and ``tags`` every
    distinct VLAN or MPLS tag tuple.  The ``stack``, ``vlan_ids``,
    ``mpls_labels``, ``src`` and ``dst`` arrays are ids into those
    tables; ``timestamp`` is float64 and the rest are integers
    (``truncated`` as 0/1).  This is the layout :func:`encode_acap`
    writes, so :func:`decode_acap` reads it without building records.
    """

    strings: List[str]
    stacks: List[Tuple[str, ...]]
    tags: List[Tuple[int, ...]]
    timestamp: np.ndarray
    wire_len: np.ndarray
    captured_len: np.ndarray
    stack: np.ndarray
    vlan_ids: np.ndarray
    mpls_labels: np.ndarray
    ip_version: np.ndarray
    src: np.ndarray
    dst: np.ndarray
    proto: np.ndarray
    sport: np.ndarray
    dport: np.ndarray
    tcp_flags: np.ndarray
    truncated: np.ndarray


class DigestCounts(NamedTuple):
    """What the ledger and the ``digest.*`` counters count per acap."""

    frames: int
    captured_bytes: int
    truncated: int
    parse_errors: int      # frames with an empty header stack


class AcapFile:
    """A digested pcap: its frames plus provenance.

    The frames are held as :class:`AcapColumns`, as a list of
    :class:`AcapRecord`, or both: an acap built from records (Digest)
    builds its columns on first read of :attr:`columns`, and one decoded
    from an entry builds its records on first read of :attr:`records`.
    The Index, the Analyze step and the digest counts read columns
    only.  An acap is not modified once built.
    """

    def __init__(self, source: str,
                 records: Optional[List[AcapRecord]] = None,
                 columns: Optional[AcapColumns] = None):
        if records is None and columns is None:
            records = []
        self.source = source
        self._records = records
        self._columns = columns

    @property
    def records(self) -> List[AcapRecord]:
        if self._records is None:
            self._records = _records_of(self._columns)
        return self._records

    @property
    def columns(self) -> AcapColumns:
        if self._columns is None:
            self._columns = _columns_of(self._records)
        return self._columns

    def __len__(self) -> int:
        if self._records is not None:
            return len(self._records)
        return len(self._columns.timestamp)

    def __iter__(self):
        return iter(self.records)

    def digest_counts(self) -> DigestCounts:
        """Frames, captured bytes, truncated frames and parse errors."""
        if not len(self):
            return DigestCounts(0, 0, 0, 0)
        c = self.columns
        empty = _lengths(c.stacks) == 0
        return DigestCounts(
            frames=len(c.timestamp),
            captured_bytes=int(c.captured_len.sum(dtype=np.int64)),
            truncated=int(c.truncated.sum()),
            parse_errors=int(empty[c.stack].sum()))


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
    records: List[AcapRecord] = []
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
    return AcapFile(str(pcap_path), records)


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
# and with the same types.  This is the AcapColumns layout: decoding
# reads each array with np.frombuffer and builds the tables with one
# zip per distinct tuple length, never a per-record or per-tuple
# Python loop.

_ENTRY_MAGIC = b"\x89acp"
ENTRY_VERSION = 1
_ENTRY_HEADER = struct.Struct("<4sBcQQI")
_BYTE_ORDER = b"<" if sys.byteorder == "little" else b">"
_U32 = struct.Struct("<I")
_INT_CODES = "BHIq"
_UNSIGNED_TOPS = ((0xFF, "B"), (0xFFFF, "H"), (0xFFFFFFFF, "I"))
_FLOAT_CODES = "d"
#: ``truncated`` is stored as 0/1 and decoded through this table, so it
#: comes back as the ``bool`` it was.
_BOOLS = [False, True]
_as_record = partial(tuple.__new__, AcapRecord)


def _int_code(values: np.ndarray) -> str:
    """The narrowest of ``_INT_CODES`` that holds every value."""
    if len(values) and values.min() < 0:
        return "q"
    top = int(values.max()) if len(values) else 0
    for limit, code in _UNSIGNED_TOPS:
        if top <= limit:
            return code
    return "q"


def _intern(values: Sequence) -> Tuple[list, List[int]]:
    """The distinct ``values`` in first-seen order, and ``values`` as
    ids into that table."""
    table = list(dict.fromkeys(values))
    ids = dict(zip(table, count()))
    return table, list(map(ids.__getitem__, values))


def _columns_of(records: Sequence[AcapRecord]) -> AcapColumns:
    """``records`` as tables and arrays, the tables in first-seen order."""
    n = len(records)
    (timestamps, wire_len, captured_len, stacks, vlan_ids, mpls_labels,
     ip_version, src, dst, proto, sport, dport, tcp_flags, truncated) = \
        zip(*records) if records else [()] * len(AcapRecord._fields)
    stack_table, stack_ids = _intern(stacks)
    tag_table, tag_ids = _intern(vlan_ids + mpls_labels)
    strings, string_ids = _intern(
        src + dst + tuple(chain.from_iterable(stack_table)))

    def ints(values) -> np.ndarray:
        return np.array(values, dtype=np.int64)

    return AcapColumns(
        strings, stack_table, tag_table,
        np.array(timestamps, dtype=np.float64), ints(wire_len),
        ints(captured_len), ints(stack_ids), ints(tag_ids[:n]),
        ints(tag_ids[n:]), ints(ip_version), ints(string_ids[:n]),
        ints(string_ids[n:2 * n]), ints(proto), ints(sport), ints(dport),
        ints(tcp_flags), ints(truncated))


def _records_of(columns: AcapColumns) -> List[AcapRecord]:
    """The records ``columns`` hold, built with C-level ``map``/``zip``."""
    c = columns
    return list(map(_as_record, zip(
        c.timestamp.tolist(), c.wire_len.tolist(), c.captured_len.tolist(),
        map(c.stacks.__getitem__, c.stack.tolist()),
        map(c.tags.__getitem__, c.vlan_ids.tolist()),
        map(c.tags.__getitem__, c.mpls_labels.tolist()),
        c.ip_version.tolist(),
        map(c.strings.__getitem__, c.src.tolist()),
        map(c.strings.__getitem__, c.dst.tolist()),
        c.proto.tolist(), c.sport.tolist(), c.dport.tolist(),
        c.tcp_flags.tolist(), map(_BOOLS.__getitem__, c.truncated.tolist()))))


def _lengths(entries: Sequence[Sequence]) -> np.ndarray:
    return np.fromiter(map(len, entries), np.int64, len(entries))


def _tuples(lengths: np.ndarray, items: np.ndarray,
            table: Optional[list] = None) -> list:
    """``items`` cut into consecutive tuples of ``lengths``, each item
    looked up in ``table`` when one is given.

    Entries of one length are built together, by one ``zip`` over that
    length's item columns, then put back in entry order.
    """
    if not len(lengths):
        return []
    starts = np.cumsum(lengths) - lengths
    built: list = []
    for size in np.flatnonzero(np.bincount(lengths)).tolist():
        at = starts[lengths == size]
        if not size:
            built += [()] * len(at)
            continue
        columns = [items[at + j].tolist() for j in range(size)]
        if table is not None:
            columns = [list(map(table.__getitem__, column))
                       for column in columns]
        built += zip(*columns)
    # ``built`` lists the entries by length, then by position: the
    # stable argsort of the lengths.
    place = np.empty(len(lengths), np.int64)
    place[np.argsort(lengths, kind="stable")] = np.arange(len(lengths))
    return list(map(built.__getitem__, place.tolist()))


def _check_ids(ids: np.ndarray, size: int) -> None:
    """Every id in ``ids`` indexes a table of ``size`` entries."""
    if len(ids) and (ids.min() < 0 or ids.max() >= size):
        raise ValueError("acap entry has a table id out of range")


class _EntryWriter:
    """Accumulates an entry body."""

    def __init__(self):
        self.parts: List[bytes] = []

    def u32(self, value: int) -> None:
        self.parts.append(_U32.pack(value))

    def blob(self, data: bytes) -> None:
        self.u32(len(data))
        self.parts.append(data)

    def column(self, values: np.ndarray, code: Optional[str] = None) -> None:
        """``values`` under ``code``, by default the narrowest int code."""
        code = code or _int_code(values)
        self.parts.append(code.encode())
        self.parts.append(values.astype(code).tobytes())

    def table(self, entries: Sequence[Sequence]) -> None:
        """Entry count and lengths; the caller writes the items."""
        self.u32(len(entries))
        self.column(_lengths(entries))


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

    def column(self, length: int, codes: str = _INT_CODES) -> np.ndarray:
        code = chr(self.take(1)[0])
        if code not in codes:
            raise ValueError(f"acap entry has typecode {code!r} where one "
                             f"of {codes!r} belongs")
        dtype = np.dtype(code)
        return np.frombuffer(self.take(length * dtype.itemsize), dtype)

    def table(self) -> np.ndarray:
        """Entry lengths; the caller reads the items."""
        lengths = self.column(self.u32())
        if len(lengths) and lengths.min() < 0:
            raise ValueError("acap entry has a negative table length")
        return lengths


def encode_acap(acap: AcapFile) -> bytes:
    """``acap`` as a binary entry (layout above)."""
    c = acap.columns
    string_ids = dict(zip(c.strings, count()))
    out = _EntryWriter()
    out.blob(acap.source.encode("utf-8", "surrogatepass"))
    out.table(c.strings)
    out.blob("".join(c.strings).encode("utf-8", "surrogatepass"))
    out.table(c.stacks)
    out.column(np.fromiter(
        map(string_ids.__getitem__, chain.from_iterable(c.stacks)), np.int64))
    out.table(c.tags)
    out.column(np.fromiter(chain.from_iterable(c.tags), np.int64))
    out.column(c.timestamp, _FLOAT_CODES)
    for name in AcapRecord._fields[1:]:
        out.column(getattr(c, name))
    body = b"".join(out.parts)
    return _ENTRY_HEADER.pack(_ENTRY_MAGIC, ENTRY_VERSION, _BYTE_ORDER,
                              len(c.timestamp), len(body),
                              zlib.crc32(body)) + body


def decode_acap(data: bytes) -> AcapFile:
    """Inverse of :func:`encode_acap`: an acap holding the entry's
    columns, whose records are built only if read.

    Raises ``ValueError`` for anything but a whole, intact entry of this
    format version and byte order: a bad magic, an unknown version, a
    byte-order mismatch, a length mismatch, a crc failure, an unknown
    typecode or a table id out of range.
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
        text = str(reader.blob(), "utf-8", "surrogatepass")
        if int(lengths.sum()) != len(text):
            raise ValueError("acap entry strings do not fill their table")
        ends = np.cumsum(lengths).tolist()
        strings = list(map(text.__getitem__,
                           map(slice, chain((0,), ends), ends)))
        lengths = reader.table()
        names = reader.column(int(lengths.sum()))
        _check_ids(names, len(strings))
        stacks = _tuples(lengths, names, strings)
        lengths = reader.table()
        tags = _tuples(lengths, reader.column(int(lengths.sum())))
        timestamp = reader.column(n, _FLOAT_CODES)
        ints = [reader.column(n) for _ in AcapRecord._fields[1:]]
    except UnicodeDecodeError as exc:
        raise ValueError("malformed acap entry") from exc
    if reader.pos != len(body):
        raise ValueError(f"acap entry has {len(body) - reader.pos} "
                         f"bytes past its last column")
    columns = AcapColumns(strings, stacks, tags, timestamp, *ints)
    for ids, table in ((columns.stack, stacks), (columns.vlan_ids, tags),
                       (columns.mpls_labels, tags), (columns.src, strings),
                       (columns.dst, strings)):
        _check_ids(ids, len(table))
    return AcapFile(source, columns=columns)
