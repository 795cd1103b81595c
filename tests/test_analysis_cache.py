"""Tests for the content-addressed acap cache."""

import multiprocessing
import os
from pathlib import Path

import pytest

import repro.analysis.pipeline as pipeline_module
from repro.analysis import AnalysisPipeline
from repro.analysis.acap import (ENTRY_VERSION, decode_acap, digest_pcap,
                                 encode_acap)
from repro.analysis.cache import AcapCache
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


@pytest.fixture
def pcap(tmp_path):
    return write_pcap(tmp_path / "sample.pcap")


@pytest.fixture
def cache(tmp_path):
    return AcapCache(tmp_path / "cache")


class TestLookup:
    def test_empty_cache_misses(self, cache, pcap):
        assert cache.get(pcap) is None
        assert (cache.hits, cache.misses) == (0, 1)

    def test_put_then_get_hits(self, cache, pcap):
        acap = digest_pcap(pcap)
        entry = cache.put(pcap, acap)
        assert entry.exists()
        cached = cache.get(pcap)
        assert cached is not None
        assert cached.records == acap.records
        assert (cache.hits, cache.misses) == (1, 0)

    def test_hit_rewrites_source_to_caller_path(self, cache, pcap, tmp_path):
        cache.put(pcap, digest_pcap(pcap))
        # Same content under a different path: different mtime => miss,
        # but a hit on the original path reports the original path.
        cached = cache.get(pcap)
        assert cached.source == str(pcap)

    def test_missing_pcap_is_a_miss(self, cache, tmp_path):
        assert cache.get(tmp_path / "nope.pcap") is None
        assert cache.misses == 1

    def test_entries_are_sharded(self, cache, pcap):
        entry = cache.put(pcap, digest_pcap(pcap))
        key = AcapCache.key_for(pcap)
        assert entry.parent.name == key[:2]
        assert entry.name == f"{key}.acap"


class TestKeyRotation:
    def test_mtime_change_rotates_key(self, cache, pcap):
        before = AcapCache.key_for(pcap)
        cache.put(pcap, digest_pcap(pcap))
        stat = os.stat(pcap)
        os.utime(pcap, ns=(stat.st_atime_ns, stat.st_mtime_ns + 1_000_000_000))
        assert AcapCache.key_for(pcap) != before
        assert cache.get(pcap) is None  # stale entry never served

    def test_content_change_rotates_key(self, cache, tmp_path):
        pcap = write_pcap(tmp_path / "a.pcap", sport=40000)
        before = AcapCache.key_for(pcap)
        stat = os.stat(pcap)
        write_pcap(tmp_path / "a.pcap", sport=40001)
        # Pin size+mtime so only the header hash distinguishes them.
        os.utime(pcap, ns=(stat.st_atime_ns, stat.st_mtime_ns))
        assert AcapCache.key_for(pcap) != before

    def test_same_file_key_is_stable(self, pcap):
        assert AcapCache.key_for(pcap) == AcapCache.key_for(pcap)


class TestInvalidation:
    def test_invalidate_removes_entry(self, cache, pcap):
        cache.put(pcap, digest_pcap(pcap))
        assert cache.invalidate(pcap) is True
        assert cache.get(pcap) is None

    def test_invalidate_without_entry(self, cache, pcap):
        assert cache.invalidate(pcap) is False

    def test_invalidate_missing_pcap(self, cache, tmp_path):
        assert cache.invalidate(tmp_path / "gone.pcap") is False

    def test_clear(self, cache, tmp_path):
        for name in ("a", "b", "c"):
            p = write_pcap(tmp_path / f"{name}.pcap", sport=hash(name) % 1000 + 1024)
            cache.put(p, digest_pcap(p))
        assert len(cache) == 3
        assert cache.clear() == 3
        assert len(cache) == 0

    def test_clear_empty_cache_dir(self, cache):
        assert cache.clear() == 0
        assert len(cache) == 0


class TestCorruption:
    def test_corrupt_entry_dropped_and_missed(self, cache, pcap):
        entry = cache.put(pcap, digest_pcap(pcap))
        entry.write_text("not an acap\n")
        assert cache.get(pcap) is None
        assert not entry.exists()  # corrupt entry evicted
        assert cache.misses == 1


class TestAtomicPut:
    """A ``put`` that dies before its rename leaves no entry behind, so
    the next lookup misses instead of serving a shorter acap."""

    @staticmethod
    def _interrupted_put(cache, pcap, monkeypatch):
        def die(src, dst):
            raise OSError("process died before the rename")

        with monkeypatch.context() as patch:
            patch.setattr(os, "replace", die)
            with pytest.raises(OSError):
                cache.put(pcap, digest_pcap(pcap))

    def test_interrupted_put_leaves_no_entry(self, cache, tmp_path, monkeypatch):
        pcap = write_pcap(tmp_path / "ten.pcap", n=10)
        self._interrupted_put(cache, pcap, monkeypatch)
        assert not cache.entry_path(AcapCache.key_for(pcap)).exists()
        assert len(cache) == 0
        assert cache.get(pcap) is None

    def test_next_pipeline_run_redigests_every_frame(self, cache, tmp_path,
                                                      monkeypatch):
        pcap = write_pcap(tmp_path / "ten.pcap", n=10)
        self._interrupted_put(cache, pcap, monkeypatch)
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
        entry = cache.entry_path(AcapCache.key_for(pcap))
        entry.parent.mkdir(parents=True, exist_ok=True)
        entry.write_bytes(data)
        assert cache.get(pcap) is None
        assert not entry.exists()  # evicted
        entry.write_bytes(data)
        pipeline = AnalysisPipeline(cache_dir=cache.cache_dir)
        assert pipeline.run([pcap]).total_frames == self.FRAMES
        assert (pipeline.stats.cache_hits, pipeline.stats.cache_misses) == (0, 1)
        rewritten = decode_acap(entry.read_bytes())
        assert rewritten.records == digest_pcap(pcap).records

    def test_entry_is_the_binary_encoding(self, cache, pcap):
        acap = digest_pcap(pcap)
        entry = cache.put(pcap, acap)
        assert entry.read_bytes() == encode_acap(acap)

    def test_entry_truncated_at_every_length_is_a_miss(self, cache, pcap):
        data = encode_acap(digest_pcap(pcap))
        entry = cache.entry_path(AcapCache.key_for(pcap))
        entry.parent.mkdir(parents=True)
        for size in range(len(data)):
            entry.write_bytes(data[:size])
            assert cache.get(pcap) is None, size
            assert not entry.exists(), size
        assert cache.hits == 0
        self.assert_miss_then_rewritten(cache, pcap, data[:len(data) // 2])

    def test_flipped_byte_is_a_miss(self, cache, pcap):
        data = encode_acap(digest_pcap(pcap))
        entry = cache.entry_path(AcapCache.key_for(pcap))
        entry.parent.mkdir(parents=True)
        for pos in range(len(data)):
            flipped = bytearray(data)
            flipped[pos] ^= 0x10
            entry.write_bytes(flipped)
            assert cache.get(pcap) is None, pos
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

    def test_old_text_entry_is_a_miss(self, cache, pcap):
        # An entry in the tab-separated text form that acap files and
        # cache entries had before the binary encoding.
        text = (b"#acap v1 source=" + str(pcap).encode() + b"\n"
                b"0.000000\t60\t60\teth/ipv4/tcp\t-\t-\t4\t10.0.0.1\t"
                b"10.0.0.2\t6\t1000\t80\t24\t0\n")
        self.assert_miss_then_rewritten(cache, pcap, text)


def _parallel(workers):
    """Pool runs see a monkeypatched ``digest_pcap`` only in forked
    workers."""
    if workers > 1 and multiprocessing.get_start_method() != "fork":
        pytest.skip("pool workers do not inherit the monkeypatch")
    return workers


class TestKeyTakenBeforeDigest:
    """The cache key is taken before a pcap is dissected, so a pcap that
    changes during Digest is never cached under its new identity with
    its old records, and one that vanishes after Digest does not abort
    the run."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_pcap_growing_during_digest_is_redigested(self, tmp_path,
                                                      monkeypatch, workers):
        workers = _parallel(workers)
        grows = write_pcap(tmp_path / "STAR" / "grows.pcap", n=10)
        other = write_pcap(tmp_path / "MICH" / "other.pcap", n=3)
        real = pipeline_module.digest_pcap

        def digest_then_grow(path):
            acap = real(path)
            if Path(path) == grows:
                write_pcap(grows, n=15)
            return acap

        cache_dir = tmp_path / "cache"
        monkeypatch.setattr(pipeline_module, "digest_pcap", digest_then_grow)
        first = AnalysisPipeline(max_workers=workers, cache_dir=cache_dir)
        assert first.run([grows, other]).total_frames == 13
        assert first.stats.workers == workers
        monkeypatch.undo()

        second = AnalysisPipeline(max_workers=workers, cache_dir=cache_dir)
        assert second.run([grows, other]).total_frames == 18
        assert (second.stats.cache_hits, second.stats.cache_misses) == (1, 1)
        third = AnalysisPipeline(max_workers=workers, cache_dir=cache_dir)
        assert third.run([grows, other]).total_frames == 18
        assert third.stats.cache_hits == 2

    @pytest.mark.parametrize("workers", [1, 2])
    def test_pcap_removed_after_digest_does_not_abort(self, tmp_path,
                                                      monkeypatch, workers):
        workers = _parallel(workers)
        goes = write_pcap(tmp_path / "STAR" / "goes.pcap", n=10)
        stays = write_pcap(tmp_path / "MICH" / "stays.pcap", n=3)
        real = pipeline_module.digest_pcap

        def digest_then_remove(path):
            acap = real(path)
            if Path(path) == goes:
                goes.unlink()
            return acap

        monkeypatch.setattr(pipeline_module, "digest_pcap", digest_then_remove)
        pipeline = AnalysisPipeline(max_workers=workers,
                                    cache_dir=tmp_path / "cache")
        assert pipeline.run([goes, stays]).total_frames == 13
        assert (pipeline.stats.workers, pipeline.stats.quarantined) == (workers, 0)
        monkeypatch.undo()
        warm = AnalysisPipeline(max_workers=workers,
                                cache_dir=tmp_path / "cache")
        assert warm.run([stays]).total_frames == 3
        assert warm.stats.cache_hits == 1
