"""Content-addressed acap cache.

The paper's offline phase re-ran over a 13-month, testbed-wide corpus
many times as analyses evolved; dissecting the same pcaps again on
every run is pure waste because a pcap, once gathered, never changes.
:class:`AcapCache` memoizes the Digest step: each pcap is keyed by its
**size, mtime, and a hash of its leading bytes**, and the digested acap
is stored under that key.  A re-run with an unchanged corpus skips
dissection entirely (a "warm" run); touching or rewriting a pcap
changes its key, so stale entries are never served.

The cache is the only on-disk store of digests.  An entry holds
:func:`repro.analysis.acap.encode_acap` bytes (versioned header, body crc32,
interned tables, one array per record field), laid out
``<cache_dir>/<key[:2]>/<key>.acap`` so a directory never collects
millions of siblings.  Entries are written atomically (a temporary
file renamed into place), so a process that dies mid-write leaves no
entry rather than a shorter one.  The Digest worker that dissects a
pcap writes its entry itself (:mod:`repro.analysis.pipeline`), under
the key its caller took *before* dissection (:meth:`AcapCache.lookup`),
so a pcap that changes while it is digested is keyed by its old
identity and re-digested on the next run.  A torn, corrupt, unreadable
or old-format entry (including a text entry from before the binary
format) is a miss and is dropped.
"""

from __future__ import annotations

import hashlib
import os
from pathlib import Path
from typing import Optional, Tuple, Union

from repro.analysis.acap import AcapFile, decode_acap, encode_acap
from repro.util.atomio import atomic_write_bytes

# How many leading bytes participate in the key.  Covers the pcap
# global header plus the first few record headers -- enough to tell
# apart same-sized files written at the same second.
HEADER_HASH_BYTES = 4096


class AcapCache:
    """Digest-step memoization keyed on pcap identity.

    >>> cache = AcapCache("/tmp/acap-cache")   # doctest: +SKIP
    >>> cache.get("site/sample.pcap")          # doctest: +SKIP
    """

    def __init__(self, cache_dir: Union[str, Path]):
        self.cache_dir = Path(cache_dir)
        self.hits = 0
        self.misses = 0

    # -- keying ------------------------------------------------------------

    @staticmethod
    def key_for(pcap_path: Union[str, Path]) -> str:
        """Content-addressed key: file size + mtime + header hash."""
        path = Path(pcap_path)
        stat = os.stat(path)
        digest = hashlib.sha256()
        digest.update(str(stat.st_size).encode())
        digest.update(str(stat.st_mtime_ns).encode())
        with open(path, "rb") as handle:
            digest.update(handle.read(HEADER_HASH_BYTES))
        return digest.hexdigest()

    def entry_path(self, key: str) -> Path:
        return self.cache_dir / key[:2] / f"{key}.acap"

    # -- lookup / store ------------------------------------------------------

    def get(self, pcap_path: Union[str, Path]) -> Optional[AcapFile]:
        """Return the cached digest of ``pcap_path``, or None on a miss."""
        return self.lookup(pcap_path)[0]

    def lookup(self, pcap_path: Union[str, Path]
               ) -> Tuple[Optional[AcapFile], Optional[Path]]:
        """``(acap, None)`` on a hit; ``(None, entry)`` on a miss.

        ``entry`` is where the digest of ``pcap_path`` *as it is now*
        belongs; it is None when the pcap cannot be keyed (unreadable or
        gone).  A hit's ``source`` is rewritten to ``pcap_path`` so site
        attribution follows the *caller's* layout even if the entry was
        stored under a different path to the same content.
        """
        try:
            entry = self.entry_path(self.key_for(pcap_path))
        except OSError:
            self.misses += 1
            return None, None
        try:
            acap = decode_acap(entry.read_bytes())
        except FileNotFoundError:
            self.misses += 1
            return None, entry
        except (OSError, ValueError):
            # Torn, corrupt or old-format entry: drop it, count a miss.
            entry.unlink(missing_ok=True)
            self.misses += 1
            return None, entry
        acap.source = str(pcap_path)
        self.hits += 1
        return acap, None

    def put(self, pcap_path: Union[str, Path], acap: AcapFile) -> Path:
        """Store ``acap`` as the digest of ``pcap_path``, atomically."""
        entry = self.entry_path(self.key_for(pcap_path))
        atomic_write_bytes(entry, encode_acap(acap))
        return entry

    # -- invalidation ------------------------------------------------------

    def invalidate(self, pcap_path: Union[str, Path]) -> bool:
        """Drop the entry for ``pcap_path``.  True if one was removed."""
        try:
            entry = self.entry_path(self.key_for(pcap_path))
        except OSError:
            return False
        if entry.exists():
            entry.unlink()
            return True
        return False

    def clear(self) -> int:
        """Remove every cache entry.  Returns the number removed."""
        removed = 0
        if not self.cache_dir.exists():
            return 0
        for entry in self.cache_dir.rglob("*.acap"):
            entry.unlink()
            removed += 1
        return removed

    def __len__(self) -> int:
        if not self.cache_dir.exists():
            return 0
        return sum(1 for _ in self.cache_dir.rglob("*.acap"))
