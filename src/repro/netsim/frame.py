"""The unit of dataplane traffic.

A :class:`Frame` carries its full on-the-wire length plus only the *head*
bytes of the serialized frame.  This mirrors what the reproduction needs:
the paper's captures truncate every frame to its first 200 bytes anyway,
so simulating megabytes of opaque payload content would buy nothing.  The
head always contains the complete header stack (built by
:mod:`repro.packets.builder`), so the analysis dissectors see real bytes.
"""

from __future__ import annotations

# How many leading bytes of each frame the generators serialize.  This
# comfortably exceeds the deepest encapsulation stack the paper reports
# (12 headers) plus the paper's largest truncation length (200 B).
DEFAULT_HEAD_BYTES = 256


class Frame:
    """One Ethernet frame in flight.

    ``wire_len`` is the frame's size on the wire excluding FCS (matching
    pcap's ``orig_len``).  ``head`` holds at least the header stack.  The
    metadata fields (``flow_id``, ``slice_id``, ``site``) exist for
    bookkeeping and validation in tests -- the capture and analysis code
    never reads them, it works from the bytes like the real system.

    A plain slotted class rather than a dataclass: one is built per
    generated frame and per mirrored copy, so construction is on the
    dataplane's hot path.  A frame has no id: nothing it writes may
    depend on how many frames the process built before.
    """

    __slots__ = ("wire_len", "head", "created_at", "flow_id", "slice_id",
                 "site")

    def __init__(self, wire_len: int, head: bytes, created_at: float = 0.0,
                 flow_id: int = 0, slice_id: str = "", site: str = ""):
        if wire_len <= 0:
            raise ValueError("frame must have positive wire length")
        if len(head) > wire_len:
            raise ValueError("head cannot exceed wire length")
        self.wire_len = wire_len
        self.head = head
        self.created_at = created_at
        self.flow_id = flow_id
        self.slice_id = slice_id
        self.site = site

    def __repr__(self) -> str:
        return (f"Frame(wire_len={self.wire_len}, head=<{len(self.head)} B>, "
                f"created_at={self.created_at}, flow_id={self.flow_id}, "
                f"slice_id={self.slice_id!r}, site={self.site!r})")

    def captured_bytes(self, snaplen: int) -> bytes:
        """The bytes a capture with the given snap length would record.

        If the requested snaplen exceeds the serialized head, the head is
        zero-padded -- payload bytes are opaque filler by construction.
        """
        if snaplen <= len(self.head):
            return self.head[:snaplen]
        want = min(snaplen, self.wire_len)
        return self.head + b"\x00" * (want - len(self.head))

    def clone(self) -> "Frame":
        """A new frame with the same content (used by port mirroring)."""
        return Frame(self.wire_len, self.head, self.created_at,
                     self.flow_id, self.slice_id, self.site)
