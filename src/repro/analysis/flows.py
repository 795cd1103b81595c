"""Flow classification and aggregation (Section 6.2.4, Fig 13).

"Flows are classified by using the virtualization tags (MPLS and VLAN)
and network- and transport-layer fields -- thus even if the same 10/8
addresses are used in different slices, they are treated as different
flows."  The flow key therefore includes the tag tuples, and two
conversations with identical 5-tuples in different slices never merge.

Keys are direction-normalized so a flow's two directions count as one
flow, matching how flow counts are usually reported.

:func:`group_flows` is the one classification pass (DESIGN.md §18): it
groups the IP frames of many samples' acap columns into flows with
array operations over table ids, and builds one :class:`FlowKey` and
:class:`FlowStats` per flow only when asked (:meth:`FlowGroups.stats`).
:func:`classify_flows` runs it over one record list;
:func:`aggregate_flows` pieces ``FlowStats`` dicts together.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from itertools import chain
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.acap import (_TAG_BITS, AcapFile, AcapRecord, Ragged,
                                 _intern, _intern_runs, _positions)
from repro.packets.headers import TCP_FIN, TCP_RST, TCP_SYN


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
        """The direction-normalized key for one acap record.

        The lower ``(address, port)`` side comes first and the MPLS
        labels are sorted, so a flow's two directions, and its labels
        in either stack order, share one key.
        """
        side_src = (record.src, record.sport)
        side_dst = (record.dst, record.dport)
        a, b = ((side_src, side_dst) if side_src <= side_dst
                else (side_dst, side_src))
        return cls(record.vlan_ids, tuple(sorted(record.mpls_labels)),
                   record.ip_version, a, b, record.proto)


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


@dataclass(frozen=True)
class FlowGroups:
    """The flows of a run of samples, in first-seen order, as columns.

    Entry ``i`` of every per-flow array describes flow ``i``: its key
    fields, frame and byte sums, first and last timestamp, the OR of
    its TCP flags and the number of samples it was seen in.  Tags and
    addresses are ids into the shared tables: ``vlan_ids`` into
    ``tags``, ``mpls_labels`` into ``labels`` (each entry's labels
    sorted) and both addresses into ``addresses``.  ``per_sample`` is
    each sample's flow count.  The report reads the columns;
    :meth:`stats` builds tag tuples and flow objects for callers that
    want them.
    """

    tags: Ragged
    labels: Ragged
    addresses: List[str]
    vlan_ids: np.ndarray
    mpls_labels: np.ndarray
    ip_version: np.ndarray
    address_a: np.ndarray
    port_a: np.ndarray
    address_b: np.ndarray
    port_b: np.ndarray
    proto: np.ndarray
    frames: np.ndarray
    wire_bytes: np.ndarray
    first_seen: np.ndarray
    last_seen: np.ndarray
    tcp_flags: np.ndarray
    samples: np.ndarray
    per_sample: List[int]

    @classmethod
    def empty(cls, samples: int) -> "FlowGroups":
        ints, floats = np.zeros(0, np.int64), np.zeros(0, np.float64)
        table = Ragged(ints, ints)
        return cls(table, table, [], ints, ints, ints, ints, ints, ints,
                   ints, ints, ints, ints, floats, floats, ints, ints,
                   [0] * samples)

    def stats(self) -> Dict[FlowKey, FlowStats]:
        """One :class:`FlowKey` and :class:`FlowStats` per flow; a flag
        is seen if any of the flow's frames carried it."""
        tags, labels = self.tags.tuples(), self.labels.tuples()
        addresses = self.addresses
        keys = list(map(
            FlowKey, map(tags.__getitem__, self.vlan_ids.tolist()),
            map(labels.__getitem__, self.mpls_labels.tolist()),
            self.ip_version.tolist(),
            zip(map(addresses.__getitem__, self.address_a.tolist()),
                self.port_a.tolist()),
            zip(map(addresses.__getitem__, self.address_b.tolist()),
                self.port_b.tolist()),
            self.proto.tolist()))
        flags = self.tcp_flags
        return dict(zip(keys, map(
            FlowStats, keys, self.frames.tolist(), self.wire_bytes.tolist(),
            self.first_seen.tolist(), self.last_seen.tolist(),
            ((flags & TCP_SYN) != 0).tolist(), ((flags & TCP_FIN) != 0).tolist(),
            ((flags & TCP_RST) != 0).tolist(), self.samples.tolist())))


def _pack(columns: Sequence[np.ndarray]) -> np.ndarray:
    """One int64 per row, equal for two rows exactly when every column is.

    The columns are mixed-radix digits; when the next digit would
    overflow int64, the key so far is first renumbered densely.
    """
    key = np.zeros(len(columns[0]), np.int64)
    span = 1
    for column in columns:
        low = column.min()
        radix = int(column.max() - low) + 1
        if span * radix >= 1 << 63:
            key = np.unique(key, return_inverse=True)[1]
            span = int(key.max()) + 1
        key = key * radix + (column - low)
        span *= radix
    return key


def group_flows(acaps: Sequence[AcapFile]) -> FlowGroups:
    """Group the IP frames of ``acaps``, one sample each, into flows.

    Non-IP frames (ARP, unparseable) are excluded: they have no
    transport-layer identity to classify on.  Each acap's table ids
    are mapped to ids of tables interned across all acaps, so one sort
    of packed key ids groups every sample's frames at once, and each
    flow's sums come from ``reduceat`` over the sorted frames.
    """
    parts = []
    for sample, acap in enumerate(acaps):
        if len(acap):
            c = acap.columns
            ip = np.flatnonzero((c.ip_version == 4) | (c.ip_version == 6))
            if len(ip):
                parts.append((sample, c, ip))
    if not parts:
        return FlowGroups.empty(len(acaps))

    # Intern every acap's tables together, and map each acap's ids to
    # the shared tables' ids.
    strings, string_ids = _intern(list(chain.from_iterable(
        c.strings for _, c, _ in parts)))
    tags = Ragged(np.concatenate([c.tags.lengths for _, c, _ in parts]),
                  np.concatenate([c.tags.items for _, c, _ in parts]))
    tags, tag_ids = _intern_runs(tags, _TAG_BITS,
                                 *_positions(tags.lengths))
    string_ids = np.array(string_ids)
    to_string, to_tag = [], []
    strings_at = tags_at = 0
    for _, c, _ in parts:
        to_string.append(string_ids[strings_at:strings_at + len(c.strings)])
        to_tag.append(tag_ids[tags_at:tags_at + len(c.tags.lengths)])
        strings_at += len(c.strings)
        tags_at += len(c.tags.lengths)

    def column(name: str, ids: Optional[List[np.ndarray]] = None,
               dtype: type = np.int64) -> np.ndarray:
        """Field ``name`` of every acap's IP frames, end to end."""
        pieces = [getattr(c, name)[ip] for _, c, ip in parts]
        if ids is not None:
            pieces = [to[piece] for to, piece in zip(ids, pieces)]
        return np.concatenate(pieces).astype(dtype, copy=False)

    vlan, mpls = column("vlan_ids", to_tag), column("mpls_labels", to_tag)
    src, dst = column("src", to_string), column("dst", to_string)
    sport, dport = column("sport"), column("dport")
    sample = np.concatenate([np.full(len(ip), i) for i, _, ip in parts])

    # MPLS labels in either stack order are one flow: sort the items of
    # each shared tag entry, then intern the sorted entries.
    rows, within = _positions(tags.lengths)
    labels, label_ids = _intern_runs(
        tags._replace(items=tags.items[np.lexsort((tags.items, rows))]),
        _TAG_BITS, rows, within)
    mpls = label_ids[mpls]

    # Direction: the lower (address, port) side first, comparing
    # addresses by their rank in sorted string order.
    by_text = sorted(range(len(strings)), key=strings.__getitem__)
    addresses = list(map(strings.__getitem__, by_text))
    rank = np.empty(len(strings), np.int64)
    rank[by_text] = np.arange(len(strings))
    src, dst = rank[src], rank[dst]
    forward = (src < dst) | ((src == dst) & (sport <= dport))
    address_a, port_a = np.where(forward, src, dst), np.where(forward, sport, dport)
    address_b, port_b = np.where(forward, dst, src), np.where(forward, dport, sport)

    version, proto = column("ip_version"), column("proto")
    key = _pack((vlan, mpls, version, address_a, port_a, address_b, port_b,
                 proto))
    perm = np.argsort(key, kind="stable")
    key, sample = key[perm], sample[perm]
    head = np.ones(len(key), bool)           # a flow's first frame
    np.not_equal(key[1:], key[:-1], out=head[1:])
    starts = np.flatnonzero(head)
    seen = head.copy()                       # its first frame in a sample
    seen[1:] |= sample[1:] != sample[:-1]
    # The stable sort keeps each flow's frames in corpus order, so its
    # first sorted frame is its first frame; flows go in that order.
    first = perm[starts]
    order = np.argsort(first, kind="stable")
    at = first[order]

    def per_flow(reduce: np.ufunc, values: np.ndarray) -> np.ndarray:
        return reduce.reduceat(values[perm], starts)[order]

    timestamp = column("timestamp", dtype=np.float64)

    return FlowGroups(
        tags=tags,
        labels=labels,
        addresses=addresses,
        vlan_ids=vlan[at],
        mpls_labels=mpls[at],
        ip_version=version[at],
        address_a=address_a[at],
        port_a=port_a[at],
        address_b=address_b[at],
        port_b=port_b[at],
        proto=proto[at],
        frames=np.diff(np.append(starts, len(key)))[order],
        wire_bytes=per_flow(np.add, column("wire_len")),
        first_seen=per_flow(np.minimum, timestamp),
        last_seen=per_flow(np.maximum, timestamp),
        tcp_flags=per_flow(np.bitwise_or, column("tcp_flags")),
        samples=np.add.reduceat(seen.astype(np.int64), starts)[order],
        per_sample=np.bincount(sample[seen], minlength=len(acaps)).tolist())


def classify_flows(records: Iterable[AcapRecord]) -> Dict[FlowKey, FlowStats]:
    """Group one sample's records into flows (see :func:`group_flows`)."""
    return group_flows([AcapFile("", list(records))]).stats()


def aggregate_flows(per_sample: Iterable[Dict[FlowKey, FlowStats]]) -> Dict[FlowKey, FlowStats]:
    """Piece together flow snippets across samples (Section 8.2).

    The same flow observed in several 20-second samples merges into one
    aggregate; this is the analysis behind "most flows are short ...
    but some flows were around 100 GB in size".
    """
    merged: Dict[FlowKey, FlowStats] = {}
    for sample in per_sample:
        for key, stats in sample.items():
            into = merged.get(key)
            if into is None:
                merged[key] = dataclasses.replace(stats)
            else:
                into.merge(stats)
    return merged


def flows_per_sample_counts(per_sample: Iterable[Dict[FlowKey, FlowStats]]) -> List[int]:
    """Fig 13's x-values: distinct flows seen in each sample."""
    return [len(sample) for sample in per_sample]
