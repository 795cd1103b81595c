"""The Index step.

"Since a single profile often produces dozens of gigabytes of data, an
Index step is carried out to allow subsequent analyses to more quickly
locate the acap files needed."  An :class:`AcapIndex` summarizes each
digested pcap -- frame count, time range, protocols seen, site (parsed
from Patchwork's output layout) -- and supports the selection queries
the Analyze step uses.  It is built in memory from the acaps Digest
returns; digests themselves are persisted only in the acap cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Iterable, List, Optional

import numpy as np

from repro.analysis.acap import AcapFile


@dataclass(frozen=True)
class IndexEntry:
    """Summary of one digested pcap."""

    path: str
    site: str
    frames: int
    start: float
    end: float
    protocols: frozenset


def _site_from_path(path: Path) -> str:
    """Patchwork writes captures under ``<out>/<SITE>/...``."""
    if len(path.parts) >= 2:
        return path.parts[-2]
    return ""


class AcapIndex:
    """An index over a set of acaps."""

    def __init__(self, entries: Optional[List[IndexEntry]] = None):
        self.entries: List[IndexEntry] = entries or []

    @classmethod
    def build_from_memory(cls, acaps: Iterable[AcapFile]) -> "AcapIndex":
        """Index in-memory acap objects (used by the pipeline)."""
        return cls([cls.entry_for(acap, Path(acap.source)) for acap in acaps])

    @staticmethod
    def entry_for(acap: AcapFile, path: Path) -> IndexEntry:
        # The time range is the timestamp column's min and max, and the
        # protocols are the names in the stacks some frame uses.
        start = end = 0.0
        protocols: frozenset = frozenset()
        if len(acap):
            c = acap.columns
            start, end = float(c.timestamp.min()), float(c.timestamp.max())
            used = np.flatnonzero(np.bincount(c.stack, minlength=len(c.stacks)))
            protocols = frozenset(chain.from_iterable(
                map(c.stacks.__getitem__, used.tolist())))
        return IndexEntry(
            path=str(path),
            site=_site_from_path(path),
            frames=len(acap),
            start=start,
            end=end,
            protocols=protocols,
        )

    # -- queries ------------------------------------------------------------

    def sites(self) -> List[str]:
        return sorted({e.site for e in self.entries if e.site})

    def for_site(self, site: str) -> List[IndexEntry]:
        return [e for e in self.entries if e.site == site]

    def with_protocol(self, protocol: str) -> List[IndexEntry]:
        return [e for e in self.entries if protocol in e.protocols]

    def in_window(self, start: float, end: float) -> List[IndexEntry]:
        """Entries overlapping [start, end]."""
        return [e for e in self.entries if e.end >= start and e.start <= end]

    def total_frames(self) -> int:
        return sum(e.frames for e in self.entries)

    def __len__(self) -> int:
        return len(self.entries)
