"""Flow classification and aggregation (Section 6.2.4, Fig 13).

"Flows are classified by using the virtualization tags (MPLS and VLAN)
and network- and transport-layer fields -- thus even if the same 10/8
addresses are used in different slices, they are treated as different
flows."  The flow key therefore includes the tag tuples, and two
conversations with identical 5-tuples in different slices never merge.

Keys are direction-normalized so a flow's two directions count as one
flow, matching how flow counts are usually reported.

The Analyze step classifies a corpus's frames into plain accumulators
and builds one :class:`FlowKey` and :class:`FlowStats` per *aggregated*
flow at the end (DESIGN.md §18).  :func:`sample_flows` is the one
per-record pass: it maps each :func:`flow_key` -- a flat tuple, so one
allocation per frame -- to ``[frames, wire_bytes, first_seen,
last_seen, tcp_flags_or, samples]``.  :func:`merge_flows` pieces samples
together and :func:`flow_stats` lifts the result; :func:`classify_flows`
and :func:`aggregate_flows` are those steps over records and over
``FlowStats`` respectively.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, NamedTuple, Tuple

from repro.analysis.acap import AcapRecord
from repro.packets.headers import TCP_FIN, TCP_RST, TCP_SYN

#: A flow accumulator: ``[frames, wire_bytes, first_seen, last_seen,
#: tcp_flags_or, samples]``.
FlowAccumulator = List


class FlowKey(NamedTuple):
    """The classification key: tags + network + transport fields."""

    vlan_ids: Tuple[int, ...]
    mpls_labels: Tuple[int, ...]
    ip_version: int
    endpoint_a: Tuple[str, int]
    endpoint_b: Tuple[str, int]
    proto: int

    @classmethod
    def from_record(cls, record: AcapRecord) -> "FlowKey":
        """Build the direction-normalized key for one acap record."""
        return _lift(flow_key(
            record.vlan_ids, record.mpls_labels, record.ip_version,
            record.src, record.sport, record.dst, record.dport, record.proto))


def flow_key(vlan_ids: Tuple[int, ...], mpls_labels: Tuple[int, ...],
             ip_version: int, src: str, sport: int, dst: str, dport: int,
             proto: int) -> tuple:
    """The direction-normalized key, flat: ``(vlan_ids, mpls_labels,
    ip_version, address_a, port_a, address_b, port_b, proto)``.

    The lower ``(address, port)`` side comes first and the MPLS labels
    are sorted, so a flow's two directions, and its labels in either
    stack order, share one key.
    """
    if len(mpls_labels) > 1:
        mpls_labels = tuple(sorted(mpls_labels))
    if src < dst or (src == dst and sport <= dport):
        return (vlan_ids, mpls_labels, ip_version, src, sport, dst, dport, proto)
    return (vlan_ids, mpls_labels, ip_version, dst, dport, src, sport, proto)


def _lift(flat: tuple) -> FlowKey:
    vlan_ids, mpls_labels, ip_version, addr_a, port_a, addr_b, port_b, proto = flat
    return FlowKey(vlan_ids, mpls_labels, ip_version, (addr_a, port_a),
                   (addr_b, port_b), proto)


def _flatten(key: FlowKey) -> tuple:
    vlan_ids, mpls_labels, ip_version, (addr_a, port_a), (addr_b, port_b), proto = key
    return (vlan_ids, mpls_labels, ip_version, addr_a, port_a, addr_b, port_b, proto)


@dataclass
class FlowStats:
    """Aggregated statistics for one flow (or flow snippet)."""

    key: FlowKey
    frames: int = 0
    wire_bytes: int = 0
    first_seen: float = float("inf")
    last_seen: float = float("-inf")
    syn_seen: bool = False
    fin_seen: bool = False
    rst_seen: bool = False
    samples: int = 1

    @property
    def duration(self) -> float:
        if self.frames == 0:
            return 0.0
        return max(0.0, self.last_seen - self.first_seen)

    def merge(self, other: "FlowStats") -> None:
        """Piece a snippet from another sample into this flow."""
        if other.key != self.key:
            raise ValueError("cannot merge different flows")
        self.frames += other.frames
        self.wire_bytes += other.wire_bytes
        self.first_seen = min(self.first_seen, other.first_seen)
        self.last_seen = max(self.last_seen, other.last_seen)
        self.syn_seen = self.syn_seen or other.syn_seen
        self.fin_seen = self.fin_seen or other.fin_seen
        self.rst_seen = self.rst_seen or other.rst_seen
        self.samples += other.samples


def sample_flows(records: Iterable[AcapRecord]) -> Dict[tuple, FlowAccumulator]:
    """Group one sample's records into flow accumulators.

    Non-IP records (ARP, unparseable) are excluded -- they have no
    transport-layer identity to classify on.  Every accumulator counts
    one sample.
    """
    flows: Dict[tuple, FlowAccumulator] = {}
    get = flows.get
    for (timestamp, wire_len, _captured, _stack, vlan_ids, mpls_labels,
         ip_version, src, dst, proto, sport, dport, tcp_flags,
         _truncated) in records:
        if ip_version != 4 and ip_version != 6:
            continue
        key = flow_key(vlan_ids, mpls_labels, ip_version, src, sport, dst,
                       dport, proto)
        acc = get(key)
        if acc is None:
            flows[key] = [1, wire_len, timestamp, timestamp, tcp_flags, 1]
        else:
            acc[0] += 1
            acc[1] += wire_len
            if timestamp < acc[2]:
                acc[2] = timestamp
            if timestamp > acc[3]:
                acc[3] = timestamp
            acc[4] |= tcp_flags
    return flows


def merge_flows(merged: Dict[tuple, FlowAccumulator],
                sample: Dict[tuple, FlowAccumulator]) -> None:
    """Piece one sample's accumulators into ``merged``, by key.

    ``merged`` adopts the sample's accumulator lists, so the sample
    must not be used afterwards.
    """
    get = merged.get
    for key, acc in sample.items():
        into = get(key)
        if into is None:
            merged[key] = acc
        else:
            into[0] += acc[0]
            into[1] += acc[1]
            if acc[2] < into[2]:
                into[2] = acc[2]
            if acc[3] > into[3]:
                into[3] = acc[3]
            into[4] |= acc[4]
            into[5] += acc[5]


def flow_stats(flows: Dict[tuple, FlowAccumulator]) -> Dict[FlowKey, FlowStats]:
    """One :class:`FlowStats` per accumulator; a flag is seen if any of
    the flow's frames carried it."""
    stats: Dict[FlowKey, FlowStats] = {}
    for flat, (frames, wire_bytes, first, last, flags, samples) in flows.items():
        key = _lift(flat)
        stats[key] = FlowStats(key, frames, wire_bytes, first, last,
                               bool(flags & TCP_SYN), bool(flags & TCP_FIN),
                               bool(flags & TCP_RST), samples)
    return stats


def classify_flows(records: Iterable[AcapRecord]) -> Dict[FlowKey, FlowStats]:
    """Group one sample's records into flows (see :func:`sample_flows`)."""
    return flow_stats(sample_flows(records))


def aggregate_flows(per_sample: Iterable[Dict[FlowKey, FlowStats]]) -> Dict[FlowKey, FlowStats]:
    """Piece together flow snippets across samples (Section 8.2).

    The same flow observed in several 20-second samples merges into one
    aggregate; this is the analysis behind "most flows are short ...
    but some flows were around 100 GB in size".
    """
    merged: Dict[tuple, FlowAccumulator] = {}
    for sample in per_sample:
        merge_flows(merged, {
            _flatten(key): [s.frames, s.wire_bytes, s.first_seen, s.last_seen,
                            TCP_SYN * s.syn_seen | TCP_FIN * s.fin_seen
                            | TCP_RST * s.rst_seen, s.samples]
            for key, s in sample.items()})
    return flow_stats(merged)


def flows_per_sample_counts(per_sample: Iterable[Dict[FlowKey, FlowStats]]) -> List[int]:
    """Fig 13's x-values: distinct flows seen in each sample."""
    return [len(sample) for sample in per_sample]
