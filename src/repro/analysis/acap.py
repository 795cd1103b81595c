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
from itertools import accumulate, chain, count
from pathlib import Path
from typing import List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from repro.analysis.dissect import DissectedFrame, Dissector
from repro.packets.pcap import PcapReader, RecordTable, record_table


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


class Ragged(NamedTuple):
    """A table of int tuples as two arrays: each entry's length (int64),
    then every entry's items end to end."""

    lengths: np.ndarray
    items: np.ndarray

    @classmethod
    def of(cls, entries: Sequence[Sequence[int]]) -> "Ragged":
        return cls(_lengths(entries),
                   np.fromiter(chain.from_iterable(entries), np.int64))

    def subset(self, rows: np.ndarray) -> "Ragged":
        """Entries ``rows``, given in ascending order."""
        keep = np.zeros(len(self.lengths), bool)
        keep[rows] = True
        return Ragged(self.lengths[rows],
                      self.items[np.repeat(keep, self.lengths)])

    def tuples(self) -> list:
        """Every entry as a tuple."""
        return _cut(self.lengths, self.items)


class AcapColumns(NamedTuple):
    """An acap as three tables and one array per :class:`AcapRecord`
    field, in field order.

    ``strings`` holds every address and header name once, ``stacks``
    every distinct header stack (tuples of names) and ``tags`` every
    distinct VLAN or MPLS tag tuple, as a :class:`Ragged` table: the
    tags stay arrays from the Digest walk through the cache entry to
    the flow grouping, and become tuples only when :attr:`AcapFile.records`
    is read.  The ``stack``, ``vlan_ids``, ``mpls_labels``, ``src`` and
    ``dst`` arrays are ids into those tables; ``timestamp`` is float64
    and the rest are integers (``truncated`` as 0/1).  This is the
    layout :func:`encode_acap` writes, so :func:`decode_acap` reads it
    without building records or tag tuples.
    """

    strings: List[str]
    stacks: List[Tuple[str, ...]]
    tags: Ragged
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


# -- the Digest walk ----------------------------------------------------------
#
# With no custom dissector, Digest walks all of a pcap's frames at once,
# one header layer at a time, over arrays of frame indices and byte
# positions (DESIGN.md §20).  It follows ``Dissector.dissect`` layer for
# layer and yields exactly the columns ``abstract`` would give, frame by
# frame (enforced by tests), without a per-frame Python step.

#: Every header name the walk emits; a stack is recorded as ids into it.
_NAMES = ("eth", "vlan", "mpls", "pw", "arp", "ipv4", "ipv6", "tcp", "udp",
          "icmp", "tls", "ssh", "dns", "http", "ntp", "iperf", "padding",
          "data")
_NAME_IDS = {name: i for i, name in enumerate(_NAMES)}
#: Bits per item when a header stack (name ids) or a tag tuple (12-bit
#: VLAN ids, 20-bit MPLS labels) is packed into an int64 key, and the
#: shift of each item within the key.
_NAME_BITS, _TAG_BITS = 5, 21
_SHIFTS = {bits: 1 << np.arange(0, 63 // bits * bits, bits)
           for bits in (_NAME_BITS, _TAG_BITS)}


def _lookup(size: int, kinds: dict) -> np.ndarray:
    """A lookup table of ``size`` entries: ``kinds[value]``, else 0."""
    table = np.zeros(size, np.uint8)
    for value, kind in kinds.items():
        table[value] = kind
    return table


# What a value leads to, as an index into the layer names beside it;
# "rest" is the padding/data remainder.
_ETHERTYPES = _lookup(1 << 16, {0x8100: 1, 0x8847: 2, 0x0800: 3,
                                0x86DD: 4, 0x0806: 5})
_AFTER_ETHERTYPE = ("rest", "vlan", "mpls", "ipv4", "ipv6", "arp")
_NIBBLES = _lookup(16, {0: 1, 4: 2, 6: 3})      # first nibble under MPLS
_AFTER_MPLS = ("rest", "pw", "ipv4", "ipv6")
_PROTOS = _lookup(256, {6: 1, 17: 2, 1: 3, 58: 3})
_AFTER_IP = ("rest", "tcp", "udp", "icmp")
#: By first byte, an IPv4 header's length, and by its thirteenth byte
#: the bytes a TCP header needs; a byte that makes the header bad needs
#: more than any frame has left (a u32 ``incl_len`` at most), so it
#: fails the frame's length test.
_NEVER = 1 << 40
_IHL = np.array([(b & 15) * 4 if b >> 4 == 4 and b & 15 >= 5 else _NEVER
                 for b in range(256)])
_TCP_NEED = np.array([20 if b >> 4 >= 5 else _NEVER for b in range(256)])


#: The walk takes these layers in order, each with all the frames queued
#: for it.  A layer comes after every layer that leads to it, except
#: Ethernet behind a pseudowire, which starts the order over; so each
#: layer from ARP on runs once, after every frame's Ethernet chains.
_LAYERS = ("eth", "vlan", "mpls", "below", "pw", "arp", "ipv4", "ipv6",
           "tcp", "udp", "icmp", "app")

# The application layer: a port's classifier, as an index into _APPS.
_PORTS = _lookup(1 << 16, {443: 1, 22: 2, 53: 3, 80: 4, 123: 5, 5201: 6})
_APPS = (None, "tls", "ssh", "dns", "http", "ntp", "iperf")
_APP_NAME_IDS = np.array([0] + [_NAMES.index(app) for app in _APPS[1:]])
#: TLS record heads by their first two bytes (content type, major
#: version), and NTP first bytes (version 3 or 4, a nonzero mode).
_TLS_HEADS = np.zeros(1 << 16, bool)
_TLS_HEADS[[kind << 8 | 3 for kind in (20, 21, 22, 23)]] = True
_NTP_FIRST = np.array([(b >> 3) & 7 in (3, 4) and b & 7 != 0
                       for b in range(256)])
_HTTP_HEAD = np.frombuffer(b"HTTP/1.", np.uint8)
_SSH_HEAD = np.frombuffer(b"SSH-", np.uint8)
_METHODS = (b"GET", b"POST", b"PUT", b"HEAD", b"DELETE", b"OPTIONS",
            b"PATCH")
#: Each request method as 8 bytes, zero-filled, read as one integer.
_METHOD_WORDS = np.frombuffer(b"".join(m.ljust(8, b"\0") for m in _METHODS),
                              np.uint64)
_METHOD_MASKS = np.frombuffer(b"".join(b"\xff" * len(m) + b"\0" * (8 - len(m))
                                       for m in _METHODS), np.uint64)
_METHOD_LENGTHS = np.array([len(m) for m in _METHODS])

#: The walk reads windows past a frame's last byte and masks what it
#: read there; the digested bytes are padded so no read leaves them.
_SLACK = 256
_V6_WORDS = struct.Struct("!8H")
#: Address keys: -1 is the "" of a non-IP frame, an IPv4 address is its
#: u32 value and the i-th distinct IPv6 address is ``_V6_KEYS + i``.
_V6_KEYS = 1 << 32
_OCTET_SHIFTS = np.array([24, 16, 8, 0])
_DECIMAL = [str(i) for i in range(256)]


def _merge(groups: List[np.ndarray]) -> np.ndarray:
    """One group from several."""
    if len(groups) == 1:
        return groups[0]
    return np.concatenate(groups, axis=1)


def _split(kinds: np.ndarray, group: np.ndarray) -> List[tuple]:
    """``(kind, the group's frames of that kind)`` for each kind present."""
    counts = np.bincount(kinds).tolist()
    present = [kind for kind, size in enumerate(counts) if size]
    if len(present) == 1:
        return [(present[0], group)]
    group = group.take(np.argsort(kinds, kind="stable"), axis=1)
    groups, start = [], 0
    for kind in present:
        stop = start + counts[kind]
        groups.append((kind, group[:, start:stop]))
        start = stop
    return groups


# Rows of _Walk.fields: one column per frame.
_VERSION, _PROTO, _SPORT, _DPORT, _FLAGS, _TRUNCATED = range(6)


class _Walk:
    """One pcap's frames, walked a layer at a time.

    A group is an int64 array with one column per frame: its index, the
    byte position of its next header and its end (rows 0, 1 and 2).  A
    layer handler reads each field with one gather at a fixed offset
    from the positions, writes the columns of the frames that hold the
    header and queues them for the layers that follow.  A frame whose
    bytes run out mid-header is marked truncated and leaves the walk
    with the layers it has.  Header names and tags are logged per group
    and put in frame order at the end.  A handler owns the group it is
    given and may move its positions in place.
    """

    def __init__(self, data: bytes, table: RecordTable):
        padded = data + bytes(_SLACK)
        size = len(padded)
        self.u8 = np.frombuffer(padded, np.uint8)
        # Element i is the big-endian u16 / u32 at byte offset i.
        self.u16 = np.ndarray((size - 1,), ">u2", padded, strides=(1,))
        self.u32 = np.ndarray((size - 3,), ">u4", padded, strides=(1,))
        self.table = table
        n = self.n = len(table.starts)
        self.fields = np.zeros((6, n), np.int64)
        self.addresses = np.full((2, n), -1, np.int64)  # src, dst keys
        self.v6: dict = {}              # IPv6 address bytes -> index
        self.named: List[np.ndarray] = []   # frames given a header name
        self.names: List[int] = []          # and its id in _NAMES
        # Frames given a value each: a name id (kind 0), a VLAN id (1)
        # or an MPLS label (2).
        self.logged: List[np.ndarray] = []
        self.kinds: List[int] = []
        self.values: List[np.ndarray] = []
        self.rest: List[np.ndarray] = []
        self.todo = {"eth": [np.stack([np.arange(n), table.starts,
                                       table.starts + table.captured])]}

    def columns(self) -> AcapColumns:
        todo, at = self.todo, 0
        while at < len(_LAYERS):
            layer = _LAYERS[at]
            at += 1
            if layer in todo:
                getattr(self, "_" + layer)(_merge(todo.pop(layer)))
                if "eth" in todo:   # behind a pseudowire
                    at = 0
        if self.rest:
            self._rest(_merge(self.rest))
        return self._finish()

    # -- plumbing ------------------------------------------------------------

    def _name(self, frames: np.ndarray, name: str) -> None:
        self.named.append(frames)
        self.names.append(_NAME_IDS[name])

    def _log(self, frames: np.ndarray, kind: int, values: np.ndarray) -> None:
        self.logged.append(frames)
        self.kinds.append(kind)
        self.values.append(values)

    def _queue(self, layer: str, group: np.ndarray) -> None:
        if layer == "rest":
            self.rest.append(group[:3])
        elif group.shape[1]:
            self.todo.setdefault(layer, []).append(group)

    def _route(self, kinds: np.ndarray, layers: Tuple[str, ...],
               group: np.ndarray, again: int = -1) -> np.ndarray:
        """Queue each frame for the layer its kind names, except frames
        of kind ``again``, which are returned to take the same layer
        once more."""
        more = group[:, :0]
        for kind, frames in _split(kinds, group):
            if kind == again:
                more = frames
            else:
                self._queue(layers[kind], frames)
        return more

    def _keep(self, ok: np.ndarray, group: np.ndarray) -> np.ndarray:
        """The frames where ``ok`` holds; the others are truncated."""
        if np.count_nonzero(ok) == len(ok):
            return group
        self.fields[_TRUNCATED, group[0].compress(~ok)] = 1
        return group.compress(ok, axis=1)

    def _need(self, group: np.ndarray, size: int) -> np.ndarray:
        """The frames with ``size`` bytes left."""
        return self._keep(group[2] - group[1] >= size, group)

    def _window(self, p: np.ndarray, width: int) -> np.ndarray:
        return self.u8[p[:, None] + np.arange(width)]

    # -- layers ------------------------------------------------------------------

    def _eth(self, g) -> None:
        g = self._need(g, 14)
        self._name(g[0], "eth")
        kinds = _ETHERTYPES[self.u16[g[1] + 12]]
        g[1] += 14
        self._route(kinds, _AFTER_ETHERTYPE, g)

    def _vlan(self, g) -> None:
        while g.shape[1]:
            g = self._need(g, 4)
            self._name(g[0], "vlan")
            tci, kinds = self.u16[g[1]], self.u16[g[1] + 2]
            self._log(g[0], 1, tci & 0xFFF)
            g[1] += 4
            g = self._route(_ETHERTYPES[kinds], _AFTER_ETHERTYPE, g, again=1)

    def _mpls(self, g) -> None:
        while g.shape[1]:
            g = self._need(g, 4)
            self._name(g[0], "mpls")
            entry = self.u32[g[1]]
            self._log(g[0], 2, entry >> 12)
            g[1] += 4
            g = self._route((entry >> 8) & 1, ("mpls", "below"), g, again=0)

    def _below(self, g) -> None:
        """Under the bottom label: IPv4, IPv6 or a pseudowire control
        word by the first nibble, else an opaque remainder."""
        g = self._need(g, 1)
        self._route(_NIBBLES[self.u8[g[1]] >> 4], _AFTER_MPLS, g)

    def _pw(self, g) -> None:
        g = self._need(g, 4)
        self._name(g[0], "pw")
        g[1] += 4
        self._queue("eth", g)

    def _arp(self, g) -> None:
        g = self._need(g, 28)
        self._name(g[0], "arp")
        g[1] += 28
        self._queue("rest", g)

    def _ipv4(self, g) -> None:
        # A byte read past a frame's end is never used: every test on it
        # also requires the bytes to be there.
        ihl = _IHL[self.u8[g[1]]]
        ok = g[2] - g[1] >= ihl
        kept = self._keep(ok, g)
        if kept is not g:
            g, ihl = kept, ihl[ok]
        self._name(g[0], "ipv4")
        self.fields[_VERSION, g[0]] = 4
        proto = self.u8[g[1] + 9]
        self.fields[_PROTO, g[0]] = proto
        self.addresses[0, g[0]] = self.u32[g[1] + 12]
        self.addresses[1, g[0]] = self.u32[g[1] + 16]
        g[1] += ihl
        self._route(_PROTOS[proto], _AFTER_IP, g)

    def _ipv6(self, g) -> None:
        g = self._keep((g[2] - g[1] >= 40) & (self.u8[g[1]] >> 4 == 6), g)
        self._name(g[0], "ipv6")
        self.fields[_VERSION, g[0]] = 6
        proto = self.u8[g[1] + 6]
        self.fields[_PROTO, g[0]] = proto
        # Each distinct address gets the next key; see _V6_KEYS.
        addresses = self._window(g[1] + 8, 32).view("V16").ravel().tolist()
        v6 = self.v6
        for address in dict.fromkeys(addresses):
            v6.setdefault(address, len(v6))
        keys = np.fromiter(map(v6.__getitem__, addresses), np.int64,
                           len(addresses)) + _V6_KEYS
        self.addresses[0, g[0]] = keys[0::2]
        self.addresses[1, g[0]] = keys[1::2]
        g[1] += 40
        self._route(_PROTOS[proto], _AFTER_IP, g)

    def _tcp(self, g) -> None:
        byte = self.u8[g[1] + 12]
        ok = g[2] - g[1] >= _TCP_NEED[byte]
        kept = self._keep(ok, g)
        if kept is not g:
            g, byte = kept, byte[ok]
        offset = (byte >> 4).astype(np.int64) * 4
        self._name(g[0], "tcp")
        self.fields[_FLAGS, g[0]] = self.u8[g[1] + 13]
        self._ports(g, np.minimum(offset, g[2] - g[1]))

    def _udp(self, g) -> None:
        g = self._need(g, 8)
        self._name(g[0], "udp")
        self._ports(g, 8)

    def _ports(self, g, size) -> None:
        sport, dport = self.u16[g[1]], self.u16[g[1] + 2]
        self.fields[_SPORT, g[0]] = sport
        self.fields[_DPORT, g[0]] = dport
        g = np.concatenate([g, sport[None], dport[None]])
        g[1] += size
        self._queue("app", g)

    def _icmp(self, g) -> None:
        g = self._need(g, 8)
        self._name(g[0], "icmp")
        g[1] += 8
        self._queue("rest", g)

    # -- the port-classified application layer -------------------------------

    def _app(self, g) -> None:
        """Try the destination port's classifier, then the source
        port's; a frame neither claims keeps its position.  Rows 3 and
        4 of ``g`` are the source and destination ports."""
        source, destination = _PORTS[g[3:5]]
        known = destination != 0
        kinds = np.where(known, destination, source)
        second = np.where(known, source, 0)
        g = g[:3]
        while g.shape[1]:
            ok, moved = self._classify(kinds, g[1], g[2])
            self._log(g[0][ok], 0, _APP_NAME_IDS[kinds[ok]])
            self.rest.append(np.stack([g[0], moved, g[2]]).compress(ok, axis=1))
            # A frame whose first classifier fails tries the second.
            failed = ~ok
            again = failed & (second != 0)
            self.rest.append(g.compress(failed & ~again, axis=1))
            g, kinds = g.compress(again, axis=1), second[again]
            second = np.zeros_like(kinds)

    def _classify(self, kinds, p, end):
        """Whether each frame holds the application header its kind
        (an index into ``_APPS``) names, and where that header ends."""
        rem = end - p
        ok = np.choose(kinds, (
            False,
            (rem >= 5) & _TLS_HEADS[self.u16[p]],
            False,
            rem >= 12,
            False,
            (rem >= 48) & _NTP_FIRST[self.u8[p]],
            rem > 0))
        moved = np.choose(kinds, (p, p + 5, p, p + 12, p, p + 48, end))
        for kind, check in ((2, self._ssh), (4, self._http)):
            at = np.flatnonzero(kinds == kind)
            if len(at):
                ok[at], moved[at] = check(p[at], rem[at], end[at])
        return ok, moved

    def _ssh(self, p, rem, end):
        raw = self._window(p, 255)
        ok = (rem >= 4) & (raw[:, :4] == _SSH_HEAD).all(1)
        # The banner line ends at the first CRLF within the first 255
        # bytes, or at the end of those bytes.
        seen = np.minimum(rem, 255)[:, None]
        crlf = ((raw[:, :-1] == 13) & (raw[:, 1:] == 10)
                & (np.arange(1, 255) < seen))
        line = np.where(crlf.any(1), crlf.argmax(1), seen[:, 0])
        return ok, np.minimum(p + line + 2, end)

    def _http(self, p, rem, end):
        raw = self._window(p, 9)
        rem = rem[:, None]
        response = (rem[:, 0] >= 7) & (raw[:, :7] == _HTTP_HEAD).all(1)
        # A request line's first word, up to a space, a CRLF or the end
        # of the frame, must be a method.
        size = _METHOD_LENGTHS
        after = raw[:, size]
        method = ((raw[:, :8].copy().view(np.uint64) & _METHOD_MASKS
                   == _METHOD_WORDS) & (rem >= size)
                  & ((rem == size) | (after == 32)
                     | ((after == 13) & (raw[:, size + 1] == 10)
                        & (rem > size + 1))))
        return response | method.any(1), p + np.minimum(rem[:, 0], 512)

    def _rest(self, g) -> None:
        """Name what is left of each frame: zero padding to the Ethernet
        minimum, or data."""
        rem = g[2] - g[1]
        left = rem > 0
        f, p, rem = g[0][left], g[1][left], rem[left]
        zero = (self._window(p, 8) == 0) | (np.arange(8) >= rem[:, None])
        padding = (rem <= 8) & zero.all(1)
        self._log(f, 0, np.where(padding, _NAME_IDS["padding"],
                                 _NAME_IDS["data"]))

    # -- columns -------------------------------------------------------------

    def _finish(self) -> AcapColumns:
        n = self.n
        # Put the logged header names, VLAN ids and MPLS labels in
        # order: by kind (0, 1, 2), frame and walk order.  That is 3n
        # ragged entries: each frame's names, then each frame's VLAN
        # ids, then each frame's labels; the names and the tags are
        # interned as two tables.
        logged = self.named + self.logged
        sizes = list(map(len, logged))
        kinds = [0] * len(self.named) + self.kinds
        rows = np.concatenate(logged) + n * np.repeat(np.array(kinds), sizes)
        values = np.concatenate(
            [np.repeat(np.array(self.names), sizes[:len(self.named)])]
            + self.values)
        values = values[np.argsort(rows, kind="stable")]
        named = sum(size for size, kind in zip(sizes, kinds) if not kind)
        lengths = np.bincount(rows, minlength=3 * n)
        rows, at = _positions(lengths)
        stacks, stack_ids = _intern_runs(
            Ragged(lengths[:n], values[:named]), _NAME_BITS,
            rows[:named], at[:named])
        stacks = _cut(stacks.lengths, stacks.items, _NAMES)
        tags, tag_ids = _intern_runs(
            Ragged(lengths[n:], values[named:]), _TAG_BITS,
            rows[named:] - n, at[named:])
        keys = self.addresses.ravel()
        first, address_ids = _first_seen(keys)
        strings = _address_strings(keys[first], list(self.v6))
        strings += dict.fromkeys(chain.from_iterable(stacks))
        table, fields = self.table, self.fields
        return AcapColumns(
            strings, stacks, tags, table.timestamps, table.wire,
            table.captured, stack_ids, tag_ids[:n], tag_ids[n:],
            fields[_VERSION], address_ids[:n], address_ids[n:],
            fields[_PROTO], fields[_SPORT], fields[_DPORT], fields[_FLAGS],
            fields[_TRUNCATED])


def _positions(lengths: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """For each item of a :class:`Ragged` table with entries of
    ``lengths``, its entry and its index within that entry."""
    starts = np.cumsum(lengths) - lengths
    rows = np.repeat(np.arange(len(lengths)), lengths)
    return rows, np.arange(len(rows)) - starts[rows]


def _run_keys(table: Ragged, bits: int, rows: np.ndarray,
              at: np.ndarray) -> np.ndarray:
    """One int64 per entry of ``table``, equal for two entries exactly
    when their items are; ``rows`` and ``at`` are the items'
    :func:`_positions`.

    An entry of up to ``63 // bits`` items, each in ``0 .. 2 ** bits -
    2``, is keyed by its items plus one packed into the int64, read
    from a grid no wider than that whatever the longest entry.  Any
    other entry (garbage can hold hundreds of VLAN tags) is keyed by its
    index among the distinct other entries, negated.
    """
    lengths, items = table
    per = 63 // bits
    grid = np.zeros((len(lengths), per + 1), np.int64)
    grid.ravel()[rows * (per + 1) + np.minimum(at, per)] = np.add(
        items, 1, dtype=np.int64)
    keys = grid[:, :per] @ _SHIFTS[bits]
    other = lengths > per
    top = (1 << bits) - 1
    if len(items) and (items.min() < 0 or items.max() >= top):
        other[rows[(items < 0) | (items >= top)]] = True
    other = np.flatnonzero(other)
    if len(other):
        ends = np.cumsum(lengths)[other].tolist()
        longer: dict = {}
        for entry, end, length in zip(other.tolist(), ends,
                                      lengths[other].tolist()):
            values = tuple(items[end - length:end].tolist())
            keys[entry] = -1 - longer.setdefault(values, len(longer))
    return keys


def _intern_runs(table: Ragged, bits: int, rows: np.ndarray,
                 at: np.ndarray) -> Tuple[Ragged, np.ndarray]:
    """The distinct entries of ``table``, first seen first, and each
    entry's index among them (the order :func:`_intern` gives); see
    :func:`_run_keys` for the rest."""
    first, ids = _first_seen(_run_keys(table, bits, rows, at))
    return table.subset(first), ids


def _first_seen(keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Where each distinct key first occurs, in the order they first
    occur, and each key's index in that order (the order
    :func:`_intern` gives)."""
    order = np.argsort(keys, kind="stable")
    ordered = keys[order]
    new = np.empty(len(keys), bool)
    new[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
    first = order[new]      # each distinct key's first index, by key
    seen = np.argsort(first)
    rank = np.empty(len(first), np.int64)
    rank[seen] = np.arange(len(first))
    ids = np.empty(len(keys), np.int64)
    ids[order] = rank[np.cumsum(new) - 1]
    return first[seen], ids


def _address_strings(keys: np.ndarray, v6: List[bytes]) -> List[str]:
    """The text of each address key (see ``_V6_KEYS``)."""
    octets = ((keys[:, None] >> _OCTET_SHIFTS) & 0xFF).T.tolist()
    strings = list(map(".".join, zip(*(map(_DECIMAL.__getitem__, column)
                                       for column in octets))))
    for i in np.flatnonzero((keys < 0) | (keys >= _V6_KEYS)).tolist():
        key = int(keys[i])
        strings[i] = "" if key < 0 else ":".join(
            "%x" % w for w in _V6_WORDS.unpack(v6[key - _V6_KEYS]))
    return strings


def digest_pcap(pcap_path: Union[str, Path],
                dissector: Optional[Dissector] = None,
                data: Optional[bytes] = None) -> AcapFile:
    """The Digest step for one pcap file.

    With no ``dissector`` argument every frame is dissected at once by
    the columnar walk above, into :class:`AcapColumns`; passing a custom
    dissector takes the generic ``dissect`` + :func:`abstract` route,
    one record per frame.  ``data`` is the pcap's bytes when the caller
    has read them already (the pipeline keys the acap cache on them);
    the file is read otherwise.  A pcap with a bad magic, a short
    global header or a record whose wire length is below its captured
    length raises ``ValueError``; one whose last record is cut short is
    digested up to that record.
    """
    if dissector is None:
        if data is None:
            data = Path(pcap_path).read_bytes()
        table = record_table(data)
        if not len(table.starts):
            return AcapFile(str(pcap_path), [])
        return AcapFile(str(pcap_path), columns=_Walk(data, table).columns())
    records: List[AcapRecord] = []
    with PcapReader(pcap_path if data is None else BytesIO(data)) as reader:
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
# reads each array with np.frombuffer, keeps the tag table as those
# arrays and cuts the stacks table from one list of its names, never a
# per-record Python loop.

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


def _int_codes(columns: Sequence[np.ndarray]) -> List[str]:
    """For each of ``columns``, all of one length, the narrowest of
    ``_INT_CODES`` that holds every value."""
    if not len(columns[0]):
        return ["B"] * len(columns)
    stacked = np.stack(columns)
    codes = []
    for low, top in zip(stacked.min(1).tolist(), stacked.max(1).tolist()):
        code = "q"
        if low >= 0:
            for limit, unsigned in _UNSIGNED_TOPS:
                if top <= limit:
                    code = unsigned
                    break
        codes.append(code)
    return codes


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
        strings, stack_table, Ragged.of(tag_table),
        np.array(timestamps, dtype=np.float64), ints(wire_len),
        ints(captured_len), ints(stack_ids), ints(tag_ids[:n]),
        ints(tag_ids[n:]), ints(ip_version), ints(string_ids[:n]),
        ints(string_ids[n:2 * n]), ints(proto), ints(sport), ints(dport),
        ints(tcp_flags), ints(truncated))


def _records_of(columns: AcapColumns) -> List[AcapRecord]:
    """The records ``columns`` hold, built with C-level ``map``/``zip``."""
    c = columns
    tags = c.tags.tuples()
    return list(map(_as_record, zip(
        c.timestamp.tolist(), c.wire_len.tolist(), c.captured_len.tolist(),
        map(c.stacks.__getitem__, c.stack.tolist()),
        map(tags.__getitem__, c.vlan_ids.tolist()),
        map(tags.__getitem__, c.mpls_labels.tolist()),
        c.ip_version.tolist(),
        map(c.strings.__getitem__, c.src.tolist()),
        map(c.strings.__getitem__, c.dst.tolist()),
        c.proto.tolist(), c.sport.tolist(), c.dport.tolist(),
        c.tcp_flags.tolist(), map(_BOOLS.__getitem__, c.truncated.tolist()))))


def _lengths(entries: Sequence[Sequence]) -> np.ndarray:
    return np.fromiter(map(len, entries), np.int64, len(entries))


def _cut(lengths: np.ndarray, items: np.ndarray,
         table: Optional[Sequence] = None) -> list:
    """``items`` cut into consecutive tuples of ``lengths``, each item
    looked up in ``table`` when one is given: one ``tolist``, one
    lookup per item and one slice per tuple."""
    values = items.tolist()
    values = tuple(values if table is None else map(table.__getitem__, values))
    ends = list(accumulate(lengths.tolist()))
    return list(map(values.__getitem__, map(slice, chain((0,), ends), ends)))


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
        code = code or _int_codes([values])[0]
        self.parts.append(code.encode())
        self.parts.append(values.astype(code).tobytes())

    def table(self, lengths: np.ndarray) -> None:
        """Entry count and lengths; the caller writes the items."""
        self.u32(len(lengths))
        self.column(lengths)


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
    out.table(_lengths(c.strings))
    out.blob("".join(c.strings).encode("utf-8", "surrogatepass"))
    out.table(_lengths(c.stacks))
    out.column(np.fromiter(
        map(string_ids.__getitem__, chain.from_iterable(c.stacks)), np.int64))
    out.table(c.tags.lengths)
    out.column(c.tags.items)
    out.column(c.timestamp, _FLOAT_CODES)
    ints = c[4:]
    for values, code in zip(ints, _int_codes(ints)):
        out.column(values, code)
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
        stacks = _cut(lengths, names, strings)
        lengths = reader.table()
        tags = Ragged(lengths.astype(np.int64),
                      reader.column(int(lengths.sum())))
        timestamp = reader.column(n, _FLOAT_CODES)
        ints = [reader.column(n) for _ in AcapRecord._fields[1:]]
    except UnicodeDecodeError as exc:
        raise ValueError("malformed acap entry") from exc
    if reader.pos != len(body):
        raise ValueError(f"acap entry has {len(body) - reader.pos} "
                         f"bytes past its last column")
    columns = AcapColumns(strings, stacks, tags, timestamp, *ints)
    for ids, size in ((columns.stack, len(stacks)),
                      (columns.vlan_ids, len(tags.lengths)),
                      (columns.mpls_labels, len(tags.lengths)),
                      (columns.src, len(strings)), (columns.dst, len(strings))):
        _check_ids(ids, size)
    return AcapFile(source, columns=columns)
