"""The Analyze step: profile statistics over acap columns.

Implements the analyses behind the paper's profile figures:

* frame-size distributions, overall and per site (Section 8.2 "Frame
  sizes", Fig 15);
* header occurrence -- the fraction of frames containing each protocol
  header, where Ethernet exceeds 100 % because pseudowires nest
  Ethernet in Ethernet (Fig 12);
* per-site protocol diversity -- distinct headers observed and the
  deepest header stack (Fig 11).

:class:`ProfileAccumulator` computes all of them, and the flow
statistics, from the columns of each acap (DESIGN.md §18).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.acap import AcapFile, AcapRecord
from repro.analysis.flows import FlowGroups, group_flows
from repro.traffic.distributions import FrameSizeBins, JUMBO_THRESHOLD, PAPER_FRAME_BINS


@dataclass(frozen=True)
class HeaderDiversity:
    """Fig 11's two y-values for one site."""

    site: str
    distinct_headers: int
    max_stack_depth: int
    frames: int


class ProfileAccumulator:
    """The Analyze step over a corpus (DESIGN.md §18).

    :meth:`add` folds in one sample -- one acap -- and keeps only what
    the report needs:

    * per site, the sample's wire-length column and a count per
      distinct header stack, in first-seen order;
    * the acap itself, whose flows are grouped with every other
      sample's by :func:`~repro.analysis.flows.group_flows` on first
      read of :attr:`flows`.

    Every statistic is then computed from those: header occurrence,
    distinct headers and stack depth from the distinct stacks times
    their counts, IP-version counts from the flows' frame counts.  The
    record-level functions below are this class over one record list.
    """

    def __init__(self) -> None:
        self.sizes: Dict[str, List[np.ndarray]] = {}
        self.stacks: Dict[str, Counter] = {}
        self.samples: List[AcapFile] = []
        self._flows: Optional[FlowGroups] = None

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
            profile.add(AcapFile(site, list(records)), site)
        return profile

    def add(self, acap: AcapFile, site: str) -> None:
        """Fold one sample, captured at ``site``, into the profile."""
        sizes = self.sizes.get(site)
        if sizes is None:
            sizes = self.sizes[site] = []
            self.stacks[site] = Counter()
        self.samples.append(acap)
        self._flows = None
        if not len(acap):
            return
        c = acap.columns
        sizes.append(c.wire_len)
        # Counting stack ids keeps their first-seen order.
        counter = self.stacks[site]
        for stack, frames in Counter(c.stack.tolist()).items():
            counter[c.stacks[stack]] += frames

    @property
    def flows(self) -> FlowGroups:
        """Every sample's flows, grouped together."""
        if self._flows is None:
            self._flows = group_flows(self.samples)
        return self._flows

    @property
    def flows_per_sample(self) -> List[int]:
        return self.flows.per_sample

    # -- statistics ------------------------------------------------------

    @property
    def frames(self) -> int:
        return sum(map(len, chain.from_iterable(self.sizes.values())))

    def sites(self) -> List[str]:
        return sorted(self.sizes)

    def frame_sizes(self, site: Optional[str] = None) -> np.ndarray:
        """Every wire length at ``site``, or at every site."""
        columns = (self.sizes[site] if site is not None
                   else list(chain.from_iterable(self.sizes.values())))
        return np.concatenate(columns) if columns else np.zeros(0, np.int64)

    def frame_size_distribution(self, site: Optional[str] = None,
                                bins: FrameSizeBins = PAPER_FRAME_BINS
                                ) -> Dict[str, float]:
        """Fraction of frames per size bin, keyed by bin label."""
        shares = bins.shares(self.frame_sizes(site))
        return dict(zip(bins.labels(), (float(s) for s in shares)))

    def jumbo_fraction(self, site: Optional[str] = None) -> float:
        """Fraction of frames at/above the jumbo threshold (1519 B)."""
        sizes = self.frame_sizes(site)
        if not len(sizes):
            return 0.0
        return float(np.mean(sizes >= JUMBO_THRESHOLD))

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
                    frames=sum(map(len, self.sizes[site])))
                for site in self.sites()]

    def ip_version_shares(self) -> Dict[str, float]:
        """Fraction of frames by IP version (finding B6: IPv6 < 2 %).

        Every IP frame belongs to exactly one flow, whose key carries
        its IP version, so the flows' frame counts are the counts.
        """
        total = self.frames
        if not total:
            return {"ipv4": 0.0, "ipv6": 0.0, "non-ip": 0.0}
        flows = self.flows
        v4 = int(flows.frames[flows.ip_version == 4].sum())
        v6 = int(flows.frames[flows.ip_version == 6].sum())
        return {
            "ipv4": v4 / total,
            "ipv6": v6 / total,
            "non-ip": (total - v4 - v6) / total,
        }


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
