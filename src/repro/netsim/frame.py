"""The unit of dataplane traffic.

A :class:`Frame` carries its full on-the-wire length plus only the *head*
bytes of the serialized frame.  This mirrors what the reproduction needs:
the paper's captures truncate every frame to its first 200 bytes anyway,
so simulating megabytes of opaque payload content would buy nothing.  The
head always contains the complete header stack (built by
:mod:`repro.packets.builder`), so the analysis dissectors see real bytes.

A frame may be built without its head: it then refers to a *source*
that serializes the head on the first read of :attr:`Frame.head`.  Most
simulated frames are only forwarded and counted, never recorded, so
their bytes are never made.  Forwarding reads :attr:`Frame.l2`, the
destination and source MACs, which every frame carries eagerly.
"""

from __future__ import annotations

from typing import Optional, Protocol

# How many leading bytes of each frame the generators serialize.  This
# comfortably exceeds the deepest encapsulation stack the paper reports
# (12 headers) plus the paper's largest truncation length (200 B).
DEFAULT_HEAD_BYTES = 256


class HeadSource(Protocol):
    """What serializes an unstamped frame's head: a traffic flow, or
    the original frame of a mirror clone."""

    def stamp_head(self, kind: str) -> bytes:
        """The head bytes of the source's ``kind`` frames."""


class Frame:
    """One Ethernet frame in flight.

    ``wire_len`` is the frame's size on the wire excluding FCS (matching
    pcap's ``orig_len``).  ``head`` holds at least the header stack.
    ``l2`` is the head's first 12 bytes (destination MAC, then source
    MAC), the switch's forwarding key.  The metadata fields
    (``flow_id``, ``slice_id``, ``site``) exist for bookkeeping and
    validation in tests -- the capture and analysis code never reads
    them, it works from the bytes like the real system.

    Pass either ``head``, or ``l2``, ``source`` and ``kind``: the first
    read of :attr:`head` then calls ``source.stamp_head(kind)`` and keeps
    the bytes.  Nothing mutates a frame in flight, so a traffic source
    may send one frame object many times.

    A plain slotted class rather than a dataclass: one is built per
    mirrored copy, so construction is on the dataplane's hot path.  A
    frame has no id: nothing it writes may depend on how many frames the
    process built before.
    """

    __slots__ = ("wire_len", "l2", "_head", "_source", "_kind", "flow_id",
                 "slice_id", "site")

    def __init__(self, wire_len: int, head: Optional[bytes] = None,
                 flow_id: int = 0, slice_id: str = "", site: str = "", *,
                 l2: Optional[bytes] = None,
                 source: Optional[HeadSource] = None, kind: str = ""):
        if wire_len <= 0:
            raise ValueError("frame must have positive wire length")
        if head is None:
            if l2 is None or source is None:
                raise ValueError("a frame without head bytes needs l2 and a source")
        elif len(head) > wire_len:
            raise ValueError("head cannot exceed wire length")
        self.wire_len = wire_len
        self.l2 = bytes(head[:12]) if l2 is None else l2
        self._head = head
        self._source = source
        self._kind = kind
        self.flow_id = flow_id
        self.slice_id = slice_id
        self.site = site

    @property
    def head(self) -> bytes:
        """The serialized head, stamped on first read if the frame was
        built without it."""
        head = self._head
        if head is None:
            head = self._head = self._source.stamp_head(self._kind)
        return head

    def stamp_head(self, kind: str) -> bytes:
        """This frame's head: a clone's source is its original."""
        return self.head

    def __repr__(self) -> str:
        head = "unstamped" if self._head is None else f"{len(self._head)} B"
        return (f"Frame(wire_len={self.wire_len}, head=<{head}>, "
                f"flow_id={self.flow_id}, slice_id={self.slice_id!r}, "
                f"site={self.site!r})")

    def captured_bytes(self, snaplen: int) -> bytes:
        """The bytes a capture with the given snap length would record.

        If the requested snaplen exceeds the serialized head, the head is
        zero-padded -- payload bytes are opaque filler by construction.
        """
        head = self.head
        if snaplen <= len(head):
            return head[:snaplen]
        want = min(snaplen, self.wire_len)
        return head + b"\x00" * (want - len(head))

    def clone(self) -> "Frame":
        """A new frame with the same content (used by port mirroring).

        The clone of an unstamped frame reads its head through the
        original, so however often a frame is mirrored, its head is
        stamped at most once.
        """
        return Frame(self.wire_len, self._head, self.flow_id, self.slice_id,
                     self.site, l2=self.l2, source=self)
