"""Classic libpcap file format reader/writer.

All three of the paper's capture methods "produce pcap files", and the
offline analysis pipeline consumes them.  We implement the classic
``.pcap`` container (magic ``0xa1b2c3d4``, microsecond timestamps,
LINKTYPE_ETHERNET) so files written here are readable by tcpdump and
Wireshark, and vice versa.

Truncation ("snaplen") is a first-class concept: the paper captures the
first 64/200 bytes of each frame, so a record's ``incl_len`` (captured
bytes) can be smaller than its ``orig_len`` (bytes on the wire).

A capture process killed mid-write (the crash the campaign layer
recovers from) leaves a pcap whose *final record* is cut short.  By
default the reader surfaces that as a flagged short read -- iteration
stops cleanly and :attr:`PcapReader.short_read` is set -- so analysis
can quarantine the file instead of dying in ``struct``; ``strict=True``
restores the old raise-on-truncation behaviour.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Iterator, List, NamedTuple, Optional, Tuple, Union

import numpy as np

PCAP_MAGIC = 0xA1B2C3D4
PCAP_MAGIC_SWAPPED = 0xD4C3B2A1
PCAP_VERSION = (2, 4)
LINKTYPE_ETHERNET = 1

_GLOBAL_HEADER = struct.Struct("!IHHiIII")
_GLOBAL_HEADER_LE = struct.Struct("<IHHiIII")
_RECORD_HEADER = struct.Struct("!IIII")
_RECORD_HEADER_LE = struct.Struct("<IIII")


@dataclass
class PcapRecord:
    """One captured frame.

    ``timestamp`` is seconds since the epoch (float, microsecond
    resolution survives a round trip); ``orig_len`` is the frame's length
    on the wire, which exceeds ``len(data)`` when the capture truncated.
    """

    timestamp: float
    data: bytes
    orig_len: Optional[int] = None

    def __post_init__(self) -> None:
        if self.orig_len is None:
            self.orig_len = len(self.data)
        if self.orig_len < len(self.data):
            raise ValueError("orig_len cannot be smaller than captured data")

    @property
    def truncated(self) -> bool:
        """True when the record captured fewer bytes than were on the wire."""
        return self.orig_len > len(self.data)


class PcapWriter:
    """Writes classic pcap files (big-endian, microsecond timestamps).

    Can be used as a context manager:

    >>> with PcapWriter("/tmp/sample.pcap", snaplen=200) as w:  # doctest: +SKIP
    ...     w.write(PcapRecord(0.0, frame_bytes))
    """

    def __init__(self, path: Union[str, Path, BinaryIO], snaplen: int = 65535):
        if snaplen <= 0:
            raise ValueError("snaplen must be positive")
        self.snaplen = snaplen
        self.records_written = 0
        self.bytes_written = 0
        self._closed = False
        if hasattr(path, "write"):
            self._handle: BinaryIO = path  # type: ignore[assignment]
            self._owns_handle = False
        else:
            self._handle = open(path, "wb")
            self._owns_handle = True
        self._write_global_header()

    def _write_global_header(self) -> None:
        header = _GLOBAL_HEADER.pack(
            PCAP_MAGIC, PCAP_VERSION[0], PCAP_VERSION[1], 0, 0, self.snaplen, LINKTYPE_ETHERNET
        )
        self._handle.write(header)
        self.bytes_written += len(header)

    def write(self, record: PcapRecord) -> None:
        """Write one record, truncating its data to the file's snaplen."""
        data = record.data[: self.snaplen]
        ts_sec = int(record.timestamp)
        ts_usec = int(round((record.timestamp - ts_sec) * 1_000_000))
        if ts_usec >= 1_000_000:
            ts_sec += 1
            ts_usec -= 1_000_000
        header = _RECORD_HEADER.pack(ts_sec, ts_usec, len(data), record.orig_len)
        self._handle.write(header)
        self._handle.write(data)
        self.records_written += 1
        self.bytes_written += len(header) + len(data)

    def flush(self) -> None:
        """Push buffered records down to the underlying handle."""
        self._handle.flush()

    def close(self) -> None:
        """Flush unconditionally; close the handle only if we opened it.

        A caller-owned handle stays open (the caller may keep writing to
        it), but its buffered records are flushed so readers never
        observe a truncated pcap after ``close()`` returns.
        """
        if self._closed:
            return
        self._closed = True
        self._handle.flush()
        if self._owns_handle:
            self._handle.close()

    def __enter__(self) -> "PcapWriter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def _global_header(raw: bytes) -> Tuple[str, tuple]:
    """The byte order (``">"`` or ``"<"``) and the fields of a pcap's
    global header ``raw``; ``ValueError`` for a short one or a bad magic."""
    if len(raw) < _GLOBAL_HEADER.size:
        raise ValueError("not a pcap file: truncated global header")
    (magic,) = struct.unpack("!I", raw[:4])
    if magic == PCAP_MAGIC:
        return ">", _GLOBAL_HEADER.unpack(raw[:_GLOBAL_HEADER.size])
    if magic == PCAP_MAGIC_SWAPPED:
        return "<", _GLOBAL_HEADER_LE.unpack(raw[:_GLOBAL_HEADER.size])
    raise ValueError(f"not a pcap file: bad magic 0x{magic:08x}")


class PcapReader:
    """Reads classic pcap files in either byte order.

    Iterating yields :class:`PcapRecord` objects:

    >>> for record in PcapReader("/tmp/sample.pcap"):  # doctest: +SKIP
    ...     dissect(record.data)
    """

    def __init__(self, path: Union[str, Path, BinaryIO],
                 strict: bool = False):
        self.strict = strict
        # Set when a truncated final record was dropped (non-strict
        # mode): the signature of a capture killed mid-write.
        self.short_read = False
        if hasattr(path, "read"):
            self._handle: BinaryIO = path  # type: ignore[assignment]
            self._owns_handle = False
        else:
            self._handle = open(path, "rb")
            self._owns_handle = True
        order, fields = _global_header(self._handle.read(_GLOBAL_HEADER.size))
        self._record_struct = _RECORD_HEADER if order == ">" else _RECORD_HEADER_LE
        _, _vmaj, _vmin, _tz, _sig, self.snaplen, self.linktype = fields
        # Bindings for __next__, which runs once per captured frame.
        self._read = self._handle.read
        self._rec_size = self._record_struct.size
        self._rec_unpack = self._record_struct.unpack

    def __iter__(self) -> Iterator[PcapRecord]:
        return self

    def __next__(self) -> PcapRecord:
        raw = self._read(self._rec_size)
        if not raw:
            raise StopIteration
        if len(raw) < self._rec_size:
            if self.strict:
                raise ValueError("truncated pcap record header")
            self.short_read = True
            raise StopIteration
        ts_sec, ts_usec, incl_len, orig_len = self._rec_unpack(raw)
        data = self._read(incl_len)
        if len(data) < incl_len:
            if self.strict:
                raise ValueError("truncated pcap record body")
            self.short_read = True
            raise StopIteration
        return PcapRecord(ts_sec + ts_usec / 1_000_000, data, orig_len)

    def read_all(self) -> List[PcapRecord]:
        """Read every remaining record into a list."""
        return list(self)

    def close(self) -> None:
        if self._owns_handle:
            self._handle.close()

    def __enter__(self) -> "PcapReader":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class RecordTable(NamedTuple):
    """A pcap's records as columns, one entry per whole record.

    ``starts`` is the offset of each frame's first byte in the pcap,
    ``captured`` its ``incl_len`` and ``wire`` its ``orig_len``;
    ``timestamps`` are float64 seconds, equal to
    :attr:`PcapRecord.timestamp`.  ``short_read`` is set as
    :attr:`PcapReader.short_read` is.
    """

    starts: np.ndarray
    captured: np.ndarray
    wire: np.ndarray
    timestamps: np.ndarray
    short_read: bool


_NO_RECORDS = RecordTable(*(np.zeros(0, np.int64) for _ in range(3)),
                          np.zeros(0, np.float64), False)


def record_table(data: bytes) -> RecordTable:
    """The record table of the pcap ``data``, read in one pass.

    The rules are :class:`PcapReader`'s (non-strict): a short global
    header, a bad magic or a whole record whose wire length is below
    its captured length raises ``ValueError``, and a final record cut
    short ends the table with ``short_read`` set.  A pcap with no whole
    record returns without touching numpy.
    """
    order, _fields = _global_header(data[:_GLOBAL_HEADER.size])
    incl_len = struct.Struct(order + "I").unpack_from
    size = len(data)
    offsets: List[int] = []
    append = offsets.append
    pos = _GLOBAL_HEADER.size
    while pos <= size - 16:     # a whole 16-byte record header left
        end = pos + 16 + incl_len(data, pos + 8)[0]
        if end > size:
            break
        append(pos)
        pos = end
    short_read = pos != size
    if not offsets:
        return _NO_RECORDS._replace(short_read=short_read)
    heads_at = np.fromiter(offsets, np.int64, len(offsets))
    heads = np.frombuffer(data, np.uint8).take(
        heads_at[:, None] + np.arange(16)).view(order + "u4")
    ts_sec, ts_usec, captured, wire = heads.astype(np.int64).T
    if (wire < captured).any():     # PcapRecord's rule
        raise ValueError("orig_len cannot be smaller than captured data")
    return RecordTable(heads_at + 16, captured, wire,
                       ts_sec + ts_usec / 1_000_000, short_read)
