"""Tests for the content-addressed acap cache."""

import hashlib
import os
import shutil

import pytest

from repro.analysis import AnalysisPipeline
from repro.analysis.acap import (ENTRY_VERSION, AcapFile, decode_acap,
                                 digest_pcap, encode_acap)
from repro.analysis.cache import AcapCache
from repro.obs import Observability, scoped
from repro.packets.builder import FrameBuilder, FrameSpec
from repro.packets.headers import Ethernet, IPv4, Payload, TCP
from repro.packets.pcap import PcapRecord, PcapWriter

E1, E2 = "02:00:00:00:00:01", "02:00:00:00:00:02"


def write_pcap(path, n=5, sport=40000):
    frame = FrameBuilder().build(FrameSpec([
        Ethernet(E1, E2), IPv4("10.0.0.1", "10.0.0.2"),
        TCP(sport, 443), Payload(64)]))
    path.parent.mkdir(parents=True, exist_ok=True)
    with PcapWriter(path) as writer:
        for i in range(n):
            writer.write(PcapRecord(i * 0.01, frame))
    return path


def key_of(pcap):
    return AcapCache.key_for(pcap.read_bytes())


def entries(cache_dir):
    return sorted(cache_dir.rglob("*.acap"))


@pytest.fixture
def pcap(tmp_path):
    return write_pcap(tmp_path / "sample.pcap")


@pytest.fixture
def cache(tmp_path):
    return AcapCache(tmp_path / "cache")


class TestLookup:
    def test_empty_cache_misses(self, cache, pcap):
        assert cache.lookup(key_of(pcap), pcap) is None

    def test_store_then_lookup_hits(self, cache, pcap):
        acap = digest_pcap(pcap)
        cache.store(key_of(pcap), encode_acap(acap))
        cached = cache.lookup(key_of(pcap), pcap)
        assert cached is not None
        assert cached.records == acap.records

    def test_hit_takes_the_callers_path(self, cache, pcap, tmp_path):
        cache.store(key_of(pcap), encode_acap(digest_pcap(pcap)))
        copy = tmp_path / "MICH" / "copy.pcap"
        copy.parent.mkdir()
        shutil.copyfile(pcap, copy)
        assert cache.lookup(key_of(copy), copy).source == str(copy)

    def test_entries_are_sharded(self, cache, pcap):
        key = key_of(pcap)
        cache.store(key, encode_acap(digest_pcap(pcap)))
        [entry] = entries(cache.cache_dir)
        assert entry == cache.entry_path(key)
        assert entry.parent.name == key[:2]
        assert entry.name == f"{key}.acap"


class TestContentKey:
    def test_key_is_the_sha256_of_the_bytes(self, pcap):
        data = pcap.read_bytes()
        assert AcapCache.key_for(data) == hashlib.sha256(data).hexdigest()

    def test_touched_pcap_still_hits(self, tmp_path, pcap):
        AnalysisPipeline(cache_dir=tmp_path / "cache").digest([pcap])
        stat = os.stat(pcap)
        os.utime(pcap, ns=(stat.st_atime_ns, stat.st_mtime_ns + 10**9))
        rerun = AnalysisPipeline(cache_dir=tmp_path / "cache")
        rerun.digest([pcap])
        assert rerun.stats.cache_hits == 1

    def test_rewritten_pcap_misses_with_size_and_mtime_pinned(self, tmp_path):
        pcap = write_pcap(tmp_path / "a.pcap", sport=40000)
        AnalysisPipeline(cache_dir=tmp_path / "cache").digest([pcap])
        stat = os.stat(pcap)
        write_pcap(pcap, sport=40001)
        os.utime(pcap, ns=(stat.st_atime_ns, stat.st_mtime_ns))
        assert os.stat(pcap).st_size == stat.st_size
        rerun = AnalysisPipeline(cache_dir=tmp_path / "cache")
        [acap] = rerun.digest([pcap])
        assert rerun.stats.cache_misses == 1
        assert {r.sport for r in acap.records} == {40001}

    @pytest.mark.parametrize("workers", [1, 2])
    def test_pcaps_with_the_same_bytes_share_one_entry(self, tmp_path,
                                                       workers):
        # Empty captures of quiet sites: the 24-byte global header only.
        pcaps = [write_pcap(tmp_path / site / "s0.pcap", n=0)
                 for site in ("STAR", "MICH", "UTAH")]
        for run in ("cold", "warm"):
            pipeline = AnalysisPipeline(max_workers=workers,
                                        cache_dir=tmp_path / "cache")
            acaps = pipeline.digest(pcaps)
            assert [a.source for a in acaps] == [str(p) for p in pcaps], run
            assert len(entries(tmp_path / "cache")) == 1, run
        assert pipeline.stats.cache_hits == len(pcaps)


class TestCorruption:
    def test_corrupt_entry_dropped_and_missed(self, cache, pcap):
        key = key_of(pcap)
        cache.store(key, encode_acap(digest_pcap(pcap)))
        entry = cache.entry_path(key)
        entry.write_text("not an acap\n")
        assert cache.lookup(key, pcap) is None
        assert not entry.exists()  # corrupt entry evicted


class TestAtomicStore:
    """A ``store`` that dies before its rename leaves no entry behind,
    so the next lookup misses instead of serving a shorter acap."""

    @staticmethod
    def _interrupted_store(cache, pcap, monkeypatch):
        def die(src, dst):
            raise OSError("process died before the rename")

        with monkeypatch.context() as patch:
            patch.setattr(os, "replace", die)
            with pytest.raises(OSError):
                cache.store(key_of(pcap), encode_acap(digest_pcap(pcap)))

    def test_interrupted_store_leaves_no_entry(self, cache, tmp_path,
                                               monkeypatch):
        pcap = write_pcap(tmp_path / "ten.pcap", n=10)
        self._interrupted_store(cache, pcap, monkeypatch)
        assert entries(cache.cache_dir) == []
        assert cache.lookup(key_of(pcap), pcap) is None

    def test_next_pipeline_run_redigests_every_frame(self, cache, tmp_path,
                                                      monkeypatch):
        pcap = write_pcap(tmp_path / "ten.pcap", n=10)
        self._interrupted_store(cache, pcap, monkeypatch)
        pipeline = AnalysisPipeline(cache_dir=cache.cache_dir)
        report = pipeline.run([pcap])
        assert (pipeline.stats.cache_hits, pipeline.stats.cache_misses) == (0, 1)
        assert report.total_frames == 10
        warm = AnalysisPipeline(cache_dir=cache.cache_dir)
        assert warm.run([pcap]).total_frames == 10
        assert warm.stats.cache_hits == 1


class TestBinaryEntries:
    """Entries are :func:`encode_acap` bytes.  Anything but a whole,
    intact entry of this format is a miss that evicts it, and the next
    pipeline run rewrites it as a binary entry with every frame."""

    FRAMES = 10

    @pytest.fixture
    def pcap(self, tmp_path):
        return write_pcap(tmp_path / "ten.pcap", n=self.FRAMES)

    def assert_miss_then_rewritten(self, cache, pcap, data):
        entry = cache.entry_path(key_of(pcap))
        entry.parent.mkdir(parents=True, exist_ok=True)
        entry.write_bytes(data)
        assert cache.lookup(key_of(pcap), pcap) is None
        assert not entry.exists()  # evicted
        entry.write_bytes(data)
        pipeline = AnalysisPipeline(cache_dir=cache.cache_dir)
        assert pipeline.run([pcap]).total_frames == self.FRAMES
        assert (pipeline.stats.cache_hits, pipeline.stats.cache_misses) == (0, 1)
        rewritten = decode_acap(entry.read_bytes())
        assert rewritten.records == digest_pcap(pcap).records

    def test_entry_is_the_binary_encoding(self, tmp_path, pcap):
        AnalysisPipeline(cache_dir=tmp_path / "cache").digest([pcap])
        [entry] = entries(tmp_path / "cache")
        assert entry.read_bytes() == encode_acap(digest_pcap(pcap))

    def test_entry_truncated_at_every_length_is_a_miss(self, cache, pcap):
        data = encode_acap(digest_pcap(pcap))
        entry = cache.entry_path(key_of(pcap))
        entry.parent.mkdir(parents=True)
        for size in range(len(data)):
            entry.write_bytes(data[:size])
            assert cache.lookup(key_of(pcap), pcap) is None, size
            assert not entry.exists(), size
        self.assert_miss_then_rewritten(cache, pcap, data[:len(data) // 2])

    def test_flipped_byte_is_a_miss(self, cache, pcap):
        data = encode_acap(digest_pcap(pcap))
        entry = cache.entry_path(key_of(pcap))
        entry.parent.mkdir(parents=True)
        for pos in range(len(data)):
            flipped = bytearray(data)
            flipped[pos] ^= 0x10
            entry.write_bytes(flipped)
            assert cache.lookup(key_of(pcap), pcap) is None, pos
            assert not entry.exists(), pos
        body = bytearray(data)
        body[-3] ^= 0x01  # inside the last column: only the crc sees it
        self.assert_miss_then_rewritten(cache, pcap, bytes(body))

    def test_unknown_version_is_a_miss(self, cache, pcap):
        data = bytearray(encode_acap(digest_pcap(pcap)))
        assert data[4] == ENTRY_VERSION
        data[4] = ENTRY_VERSION + 1  # the crc covers the body only
        with pytest.raises(ValueError, match="version"):
            decode_acap(bytes(data))
        self.assert_miss_then_rewritten(cache, pcap, bytes(data))

    @pytest.mark.parametrize("column", ["stack", "vlan_ids", "mpls_labels",
                                        "src", "dst"])
    def test_out_of_range_table_id_is_a_miss(self, cache, pcap, column):
        # A whole entry with a valid crc whose stack, tag or string id
        # points past the end of its table.
        acap = digest_pcap(pcap)
        ids = getattr(acap.columns, column).copy()
        ids[-1] = {"stack": len(acap.columns.stacks),
                   "vlan_ids": len(acap.columns.tags.lengths),
                   "mpls_labels": len(acap.columns.tags.lengths),
                   "src": len(acap.columns.strings),
                   "dst": len(acap.columns.strings)}[column]
        data = encode_acap(AcapFile(
            acap.source, columns=acap.columns._replace(**{column: ids})))
        with pytest.raises(ValueError, match="out of range"):
            decode_acap(data)
        self.assert_miss_then_rewritten(cache, pcap, data)

    def test_old_text_entry_is_a_miss(self, cache, pcap):
        # An entry in the tab-separated text form that acap files and
        # cache entries had before the binary encoding.
        text = (b"#acap v1 source=" + str(pcap).encode() + b"\n"
                b"0.000000\t60\t60\teth/ipv4/tcp\t-\t-\t4\t10.0.0.1\t"
                b"10.0.0.2\t6\t1000\t80\t24\t0\n")
        self.assert_miss_then_rewritten(cache, pcap, text)


class TestEntryHoldsWhatItsKeyNames:
    """An entry's key is the sha256 of the bytes that were dissected
    for it, so a pcap that changes during Digest can never leave an
    entry that disagrees with its key, and one that vanishes does not
    abort the run."""

    @staticmethod
    def assert_entries_match_their_keys(cache_dir, versions):
        """Every entry decodes to the digest of the pcap bytes, among
        ``versions``, whose sha256 names it."""
        by_key = {AcapCache.key_for(data): data for data in versions}
        for entry in entries(cache_dir):
            key = entry.name[:-len(".acap")]
            assert key in by_key, entry
            fresh = digest_pcap("x.pcap", data=by_key[key])
            assert decode_acap(entry.read_bytes()).records == fresh.records

    @pytest.mark.parametrize("workers", [1, 2])
    def test_pcap_rewritten_after_lookup(self, tmp_path, monkeypatch,
                                         workers):
        grows = write_pcap(tmp_path / "STAR" / "grows.pcap", n=10)
        other = write_pcap(tmp_path / "MICH" / "other.pcap", n=3)
        versions = [grows.read_bytes(), other.read_bytes()]
        real = AcapCache.lookup

        def lookup_then_grow(cache, key, source):
            acap = real(cache, key, source)
            if source == grows and acap is None:
                write_pcap(grows, n=15)
            return acap

        cache_dir = tmp_path / "cache"
        monkeypatch.setattr(AcapCache, "lookup", lookup_then_grow)
        first = AnalysisPipeline(max_workers=workers, cache_dir=cache_dir)
        # One worker digests the bytes it looked up; a pool task reads
        # the pcap again and digests what it finds.  Either way the
        # entry is keyed by the bytes it holds.
        assert first.run([grows, other]).total_frames == \
            {1: 13, 2: 18}[workers]
        assert first.stats.workers == workers
        monkeypatch.undo()
        versions.append(grows.read_bytes())
        self.assert_entries_match_their_keys(cache_dir, versions)

        second = AnalysisPipeline(max_workers=workers, cache_dir=cache_dir)
        assert second.run([grows, other]).total_frames == 18
        assert second.stats.cache_hits == {1: 1, 2: 2}[workers]
        self.assert_entries_match_their_keys(cache_dir, versions)
        third = AnalysisPipeline(max_workers=workers, cache_dir=cache_dir)
        assert third.run([grows, other]).total_frames == 18
        assert third.stats.cache_hits == 2

    @pytest.mark.parametrize("workers", [1, 2])
    def test_pcap_removed_after_lookup_is_quarantined(self, tmp_path,
                                                      monkeypatch, workers):
        goes = write_pcap(tmp_path / "STAR" / "goes.pcap", n=10)
        stays = write_pcap(tmp_path / "MICH" / "stays.pcap", n=3)
        real = AcapCache.lookup

        def lookup_then_remove(cache, key, source):
            acap = real(cache, key, source)
            if source == goes:
                goes.unlink()
            return acap

        monkeypatch.setattr(AcapCache, "lookup", lookup_then_remove)
        pipeline = AnalysisPipeline(max_workers=workers,
                                    cache_dir=tmp_path / "cache")
        # One worker digests the bytes it already read; a pool task
        # finds the file gone and quarantines it.
        assert pipeline.run([goes, stays]).total_frames == \
            {1: 13, 2: 3}[workers]
        assert pipeline.stats.quarantined == {1: 0, 2: 1}[workers]
        monkeypatch.undo()
        warm = AnalysisPipeline(max_workers=workers,
                                cache_dir=tmp_path / "cache")
        assert warm.run([stays]).total_frames == 3
        assert warm.stats.cache_hits == 1


class TestCacheIsInvisible:
    """The cache's state never reaches a deterministic journal: the
    same pcaps give the same events with no cache, a cold cache and a
    warm one, at one worker and at two."""

    @staticmethod
    def journal_of(pcaps, workers, cache_dir):
        with scoped(Observability.create()) as obs:
            AnalysisPipeline(max_workers=workers, cache_dir=cache_dir).run(pcaps)
            obs.snapshot_to_journal()
        return obs.journal.to_jsonl()

    def test_journal_is_the_same_in_every_cache_state(self, tmp_path):
        pcaps = [write_pcap(tmp_path / "STAR" / "a.pcap", n=7),
                 write_pcap(tmp_path / "MICH" / "b.pcap", n=4, sport=40001),
                 write_pcap(tmp_path / "UTAH" / "e.pcap", n=0),
                 write_pcap(tmp_path / "TACC" / "e.pcap", n=0)]
        journals = {}
        for workers in (1, 2):
            cache_dir = tmp_path / f"cache-w{workers}"
            journals["none", workers] = self.journal_of(pcaps, workers, None)
            journals["cold", workers] = self.journal_of(pcaps, workers,
                                                        cache_dir)
            journals["warm", workers] = self.journal_of(pcaps, workers,
                                                        cache_dir)
        reference = journals["none", 1]
        assert '"digest.frames"' in reference
        assert '"ledger-digest"' in reference
        for state, journal in journals.items():
            assert journal == reference, state


class TestWarmRunReadsColumns:
    def test_warm_run_builds_no_records(self, tmp_path, monkeypatch):
        """Served from the cache, Digest, the digest counts, the Index,
        the Analyze step and the ledger read columns only."""
        from repro.obs.ledger import attach_digests

        pcaps = [write_pcap(tmp_path / "STAR" / "a.pcap", n=7),
                 write_pcap(tmp_path / "MICH" / "b.pcap", n=4, sport=40001),
                 write_pcap(tmp_path / "UTAH" / "e.pcap", n=0)]
        cache_dir = tmp_path / "cache"
        cold = AnalysisPipeline(cache_dir=cache_dir).run(pcaps)
        reads = []
        records = AcapFile.records
        monkeypatch.setattr(AcapFile, "records", property(
            lambda acap: reads.append(acap.source) or records.fget(acap)))
        with scoped(Observability.create()):
            pipeline = AnalysisPipeline(cache_dir=cache_dir)
            warm = pipeline.run(pcaps)
            attach_digests([], pipeline.acaps)
        assert pipeline.stats.cache_hits == len(pcaps)
        assert warm.tables.keys() == cold.tables.keys()
        assert all(warm.tables[name].to_dict() == cold.tables[name].to_dict()
                   for name in cold.tables)
        assert reads == []
        assert len(pipeline.acaps[0].records) == 7
        assert reads == [str(pcaps[0])]
