"""The Analyze step: profile statistics over acap records.

Implements the analyses behind the paper's profile figures:

* frame-size distributions, overall and per site (Section 8.2 "Frame
  sizes", Fig 15);
* header occurrence -- the fraction of frames containing each protocol
  header, where Ethernet exceeds 100 % because pseudowires nest
  Ethernet in Ethernet (Fig 12);
* per-site protocol diversity -- distinct headers observed and the
  deepest header stack (Fig 11).

:class:`ProfileAccumulator` computes all of them, and the flow
statistics, from one pass over each acap's records.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.acap import AcapRecord
from repro.analysis.flows import (
    FlowAccumulator,
    FlowKey,
    FlowStats,
    flow_stats,
    merge_flows,
    sample_flows,
)
from repro.traffic.distributions import FrameSizeBins, JUMBO_THRESHOLD, PAPER_FRAME_BINS


@dataclass(frozen=True)
class HeaderDiversity:
    """Fig 11's two y-values for one site."""

    site: str
    distinct_headers: int
    max_stack_depth: int
    frames: int


class ProfileAccumulator:
    """The Analyze step's one pass over a corpus (DESIGN.md §18).

    :meth:`add` folds in one sample -- one acap's records -- and keeps
    only what the report needs:

    * per site, every wire length and a count per distinct header stack;
    * the sample's flows (:func:`~repro.analysis.flows.sample_flows`),
      merged by key into one accumulator per flow, and the sample's
      flow count.

    Every statistic is then computed from those: header occurrence,
    distinct headers and stack depth from the distinct stacks times
    their counts, IP-version counts from the flows' frame counts.  The
    record-level functions below are this class over one record list.
    """

    def __init__(self) -> None:
        self.sizes: Dict[str, List[int]] = {}
        self.stacks: Dict[str, Counter] = {}
        self.flows: Dict[tuple, FlowAccumulator] = {}
        self.flows_per_sample: List[int] = []

    @classmethod
    def of(cls, records: Iterable[AcapRecord]) -> "ProfileAccumulator":
        """One sample's records, at one unnamed site."""
        return cls.of_sites({"": records})

    @classmethod
    def of_sites(cls, records_by_site: Mapping[str, Iterable[AcapRecord]]
                 ) -> "ProfileAccumulator":
        """One sample per site."""
        profile = cls()
        for site, records in records_by_site.items():
            profile.add(list(records), site)
        return profile

    def add(self, records: Sequence[AcapRecord], site: str) -> None:
        """Fold one sample, captured at ``site``, into the profile."""
        sizes = self.sizes.get(site)
        if sizes is None:
            sizes = self.sizes[site] = []
            self.stacks[site] = Counter()
        sizes += [r.wire_len for r in records]
        self.stacks[site].update([r.stack for r in records])
        sample = sample_flows(records)
        self.flows_per_sample.append(len(sample))
        merge_flows(self.flows, sample)

    # -- statistics ------------------------------------------------------

    @property
    def frames(self) -> int:
        return sum(len(sizes) for sizes in self.sizes.values())

    def sites(self) -> List[str]:
        return sorted(self.sizes)

    def frame_sizes(self, site: Optional[str] = None) -> List[int]:
        """Every wire length at ``site``, or at every site."""
        if site is not None:
            return self.sizes[site]
        return [size for sizes in self.sizes.values() for size in sizes]

    def frame_size_distribution(self, site: Optional[str] = None,
                                bins: FrameSizeBins = PAPER_FRAME_BINS
                                ) -> Dict[str, float]:
        """Fraction of frames per size bin, keyed by bin label."""
        shares = bins.shares(self.frame_sizes(site))
        return dict(zip(bins.labels(), (float(s) for s in shares)))

    def jumbo_fraction(self, site: Optional[str] = None) -> float:
        """Fraction of frames at/above the jumbo threshold (1519 B)."""
        sizes = self.frame_sizes(site)
        if not sizes:
            return 0.0
        return float(np.mean(np.asarray(sizes) >= JUMBO_THRESHOLD))

    def header_occurrence(self) -> Dict[str, float]:
        """Occurrences of each header per frame, as percentages.

        A header appearing twice in one frame (Ethernet inside a
        pseudowire) counts twice, which is why Ethernet can exceed
        100 % -- matching how the paper's Fig 12 is computed.
        """
        total = self.frames
        if not total:
            return {}
        counts: Counter = Counter()
        for stacks in self.stacks.values():
            for stack, frames in stacks.items():
                for name in stack:
                    counts[name] += frames
        return {name: 100.0 * count / total
                for name, count in sorted(counts.items())}

    def encapsulation_examples(self, top: int = 5) -> List[Tuple[str, int]]:
        """The most common full header stacks, rendered tshark-style."""
        counts: Counter = Counter()
        for stacks in self.stacks.values():
            for stack, frames in stacks.items():
                counts["/".join(stack)] += frames
        return counts.most_common(top)

    def header_diversity(self) -> List[HeaderDiversity]:
        """Per-site distinct header counts and deepest stacks."""
        return [HeaderDiversity(
                    site=site,
                    distinct_headers=len(set().union(*self.stacks[site])),
                    max_stack_depth=max(map(len, self.stacks[site]), default=0),
                    frames=len(self.sizes[site]))
                for site in self.sites()]

    def ip_version_shares(self) -> Dict[str, float]:
        """Fraction of frames by IP version (finding B6: IPv6 < 2 %).

        Every IP frame belongs to exactly one flow, whose key carries
        its IP version, so the flows' frame counts are the counts.
        """
        total = self.frames
        if not total:
            return {"ipv4": 0.0, "ipv6": 0.0, "non-ip": 0.0}
        v4 = v6 = 0
        for key, acc in self.flows.items():
            if key[2] == 4:
                v4 += acc[0]
            else:
                v6 += acc[0]
        return {
            "ipv4": v4 / total,
            "ipv6": v6 / total,
            "non-ip": (total - v4 - v6) / total,
        }

    def aggregated_flows(self) -> Dict[FlowKey, FlowStats]:
        """One :class:`FlowStats` per flow, pieced across samples."""
        return flow_stats(self.flows)


def frame_size_distribution(
    records: Iterable[AcapRecord], bins: FrameSizeBins = PAPER_FRAME_BINS
) -> Dict[str, float]:
    """Fraction of frames per size bin, keyed by bin label."""
    return ProfileAccumulator.of(records).frame_size_distribution(bins=bins)


def jumbo_fraction(records: Iterable[AcapRecord]) -> float:
    """Fraction of frames at/above the jumbo threshold (1519 B)."""
    return ProfileAccumulator.of(records).jumbo_fraction()


def header_occurrence(records: Sequence[AcapRecord]) -> Dict[str, float]:
    """Occurrences of each header per frame, as percentages (Fig 12)."""
    return ProfileAccumulator.of(records).header_occurrence()


def site_header_diversity(
    records_by_site: Mapping[str, Sequence[AcapRecord]]
) -> List[HeaderDiversity]:
    """Per-site distinct header counts and deepest stacks."""
    return ProfileAccumulator.of_sites(records_by_site).header_diversity()


def ip_version_shares(records: Sequence[AcapRecord]) -> Dict[str, float]:
    """Fraction of frames by IP version (finding B6: IPv6 < 2 %)."""
    return ProfileAccumulator.of(records).ip_version_shares()


def encapsulation_examples(records: Sequence[AcapRecord], top: int = 5) -> List[Tuple[str, int]]:
    """The most common full header stacks, rendered tshark-style."""
    return ProfileAccumulator.of(records).encapsulation_examples(top)
