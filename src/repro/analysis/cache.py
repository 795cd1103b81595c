"""Content-addressed acap cache.

The paper's offline phase re-ran over a 13-month, testbed-wide corpus
many times as analyses evolved; dissecting the same pcaps again on
every run is pure waste because a pcap, once gathered, never changes.
:class:`AcapCache` memoizes the Digest step: an entry's key is the
**sha256 of the exact pcap bytes that were dissected**, and the entry
is the acap dissected from them.  A re-run over an unchanged corpus
skips dissection entirely (a "warm" run); a pcap whose bytes change has
another key, so an entry can never disagree with its key, whatever the
file's path, size or mtime.  Two pcaps with the same bytes (the empty
pcaps of quiet sites, say) share one entry.

The cache is the only on-disk store of digests.  An entry holds
:func:`repro.analysis.acap.encode_acap` bytes (versioned header, body crc32,
interned tables, one array per record field), laid out
``<cache_dir>/<key[:2]>/<key>.acap`` so a directory never collects
millions of siblings.  Entries are written atomically (a temporary
file renamed into place), so a process that dies mid-write leaves no
entry rather than a shorter one, and two processes that write one
entry both write the digest of the same bytes.  A torn, corrupt,
unreadable or old-format entry is a miss and is dropped.

The cache is invisible in a campaign's output: a hit decodes to
exactly the records a miss dissects, and hit and miss counts are
volatile (:mod:`repro.analysis.pipeline`), so the canonical journal,
``records.json``, the pcaps and ``metrics.prom`` are the same with the
cache on or off, cold or warm.
"""

from __future__ import annotations

import hashlib
from pathlib import Path
from typing import Optional, Union

from repro.analysis.acap import AcapFile, decode_acap
from repro.util.atomio import atomic_write_bytes


class AcapCache:
    """Digest-step memoization keyed on pcap content.

    >>> cache = AcapCache("/tmp/acap-cache")          # doctest: +SKIP
    >>> data = Path("site/sample.pcap").read_bytes()  # doctest: +SKIP
    >>> cache.lookup(AcapCache.key_for(data), "site/sample.pcap")  # doctest: +SKIP
    """

    def __init__(self, cache_dir: Union[str, Path]):
        self.cache_dir = Path(cache_dir)

    @staticmethod
    def key_for(data: bytes) -> str:
        """The key of the digest of ``data``, a pcap's bytes."""
        return hashlib.sha256(data).hexdigest()

    def entry_path(self, key: str) -> Path:
        return self.cache_dir / key[:2] / f"{key}.acap"

    def lookup(self, key: str, source: Union[str, Path]) -> Optional[AcapFile]:
        """The cached digest under ``key``, or None on a miss.

        A hit's ``source`` is set to ``source``, so site attribution
        follows the *caller's* path even if the entry was stored by
        another pcap with the same bytes.
        """
        entry = self.entry_path(key)
        try:
            acap = decode_acap(entry.read_bytes())
        except FileNotFoundError:
            return None
        except (OSError, ValueError):
            # Torn, corrupt or old-format entry: drop it, count a miss.
            entry.unlink(missing_ok=True)
            return None
        acap.source = str(source)
        return acap

    def store(self, key: str, entry: bytes) -> None:
        """Write ``entry``, :func:`encode_acap` bytes, under ``key``,
        atomically."""
        atomic_write_bytes(self.entry_path(key), entry)
