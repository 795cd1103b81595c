"""Parallel digestion, caching, and fast-path parity for the pipeline.

The Digest fan-out must be invisible in the output: running with one
worker, many workers, or a warm cache has to yield byte-identical CSVs.
These tests build a small multi-site corpus on disk and compare whole
runs end to end.
"""

import os
import random

import pytest

from repro.analysis.acap import (AcapRecord, abstract, digest_pcap,
                                 encode_acap)
from repro.analysis.cache import AcapCache
from repro.analysis.dissect import Dissector
from repro.analysis.pipeline import AnalysisPipeline, PipelineStats
from repro.packets.builder import FrameBuilder, FrameSpec
from repro.packets.headers import (
    ARP, DNSHeader, Ethernet, HTTPPayload, ICMP, IPProto, IPv4, IPv6, MPLS,
    NTPPayload, Payload, PseudoWireControlWord, SSHBanner, TCP, TLSRecord,
    UDP, VLAN,
)
from repro.packets.pcap import PcapRecord, PcapWriter

E1, E2 = "02:00:00:00:00:01", "02:00:00:00:00:02"


def corpus_frames():
    """A varied stack mix: VLAN, MPLS+pseudowire, v4/v6, every app layer."""
    build = FrameBuilder().build
    return [
        build(FrameSpec([Ethernet(E1, E2), IPv4("10.0.0.1", "10.0.0.2"),
                         TCP(50000, 443), TLSRecord(), Payload(0)],
                        target_size=900)),
        build(FrameSpec([Ethernet(E1, E2), VLAN(301), MPLS(17000), MPLS(17001),
                         PseudoWireControlWord(), Ethernet(E1, E2),
                         IPv4("10.1.2.3", "10.4.5.6"), TCP(50001, 80),
                         HTTPPayload(), Payload(0)], target_size=1200)),
        build(FrameSpec([Ethernet(E1, E2), VLAN(2), VLAN(3),
                         IPv6("2001:db8::1", "2001:db8::2"),
                         UDP(50002, 53), DNSHeader()])),
        build(FrameSpec([Ethernet(E1, E2), IPv4("10.0.0.3", "10.0.0.4"),
                         UDP(50003, 123), NTPPayload()])),
        build(FrameSpec([Ethernet(E1, E2), IPv4("10.0.0.5", "10.0.0.6"),
                         TCP(50004, 22), SSHBanner()])),
        build(FrameSpec([Ethernet(E1, E2), IPv4("10.0.0.7", "10.0.0.8"),
                         TCP(50005, 5201), Payload(400)])),
        build(FrameSpec([Ethernet(E1, E2), ARP(E1, "10.0.0.9")])),
        build(FrameSpec([Ethernet(E1, E2), IPv4("10.0.0.10", "10.0.0.11",
                                                proto=IPProto.ICMP), ICMP()])),
    ]


def make_corpus(root, sites=3, pcaps_per_site=2, frames_per_pcap=40):
    """Write a deterministic multi-site pcap corpus; returns sorted paths."""
    rng = random.Random(1234)
    frames = corpus_frames()
    paths = []
    for s in range(sites):
        site_dir = root / f"site{s}"
        site_dir.mkdir(parents=True, exist_ok=True)
        for p in range(pcaps_per_site):
            path = site_dir / f"sample{p}.pcap"
            with PcapWriter(path, snaplen=200) as writer:
                for i in range(frames_per_pcap):
                    frame = frames[rng.randrange(len(frames))]
                    writer.write(PcapRecord(i * 0.001, frame[:200],
                                            orig_len=len(frame)))
            paths.append(path)
    return sorted(paths)


def csv_bytes(report, out_dir):
    return {p.name: p.read_bytes() for p in report.write_csvs(out_dir)}


class TestParallelEquivalence:
    def test_parallel_output_byte_identical_to_serial(self, tmp_path):
        pcaps = make_corpus(tmp_path / "pcaps")
        serial = AnalysisPipeline().run(pcaps)
        parallel = AnalysisPipeline(max_workers=4).run(pcaps)
        assert csv_bytes(serial, tmp_path / "csv-s") == \
            csv_bytes(parallel, tmp_path / "csv-p")

    def test_parallel_acaps_match_serial_in_order(self, tmp_path):
        pcaps = make_corpus(tmp_path / "pcaps")
        serial = AnalysisPipeline()
        parallel = AnalysisPipeline(max_workers=4)
        serial.digest(pcaps)
        parallel.digest(pcaps)
        assert [a.source for a in parallel.acaps] == \
            [a.source for a in serial.acaps]
        assert [a.records for a in parallel.acaps] == \
            [a.records for a in serial.acaps]

    @pytest.mark.parametrize("cached", [False, True])
    def test_parallel_records_are_serial_records_with_exact_types(
            self, tmp_path, cached):
        pcaps = make_corpus(tmp_path / "pcaps")
        runs = []
        for name, workers in (("serial", 1), ("parallel", 4)):
            cache_dir = tmp_path / f"cache-{name}" if cached else None
            pipeline = AnalysisPipeline(max_workers=workers,
                                        cache_dir=cache_dir)
            pipeline.digest(pcaps)
            assert pipeline.stats.workers == workers
            runs.append(pipeline.acaps)
            if cached:  # and once more from the entries just written
                warm = AnalysisPipeline(max_workers=workers,
                                        cache_dir=cache_dir)
                warm.digest(pcaps)
                assert warm.stats.cache_hits == len(pcaps)
                runs.append(warm.acaps)
        serial = runs[0]
        for acaps in runs[1:]:
            assert [a.source for a in acaps] == [a.source for a in serial]
            for got, want in zip(acaps, serial):
                assert got.records == want.records
                assert [[type(v) for v in r] for r in got.records] == \
                    [[type(v) for v in r] for r in want.records]
                assert all(type(r) is AcapRecord for r in got.records)
                assert [r.timestamp.hex() for r in got.records] == \
                    [r.timestamp.hex() for r in want.records]

    def test_repeated_pcaps_share_one_entry(self, tmp_path):
        # The same pcap twice shares a cache entry: both workers write
        # the same bytes to it.
        pcaps = make_corpus(tmp_path / "a", sites=1, pcaps_per_site=2)
        inputs = pcaps + pcaps
        cache_dir = tmp_path / "cache"
        pipeline = AnalysisPipeline(max_workers=4, cache_dir=cache_dir)
        report = pipeline.run(inputs)
        assert pipeline.stats.workers == 4
        assert report.total_frames == 40 * len(inputs)
        entries = sorted(cache_dir.rglob("*.acap"))
        assert sorted(entry.read_bytes() for entry in entries) == \
            sorted(encode_acap(digest_pcap(pcap)) for pcap in pcaps)
        warm = AnalysisPipeline(max_workers=4, cache_dir=cache_dir)
        assert warm.run(inputs).total_frames == 40 * len(inputs)
        assert warm.stats.cache_hits == len(inputs)

    def test_workers_capped_by_todo_size(self, tmp_path):
        pcaps = make_corpus(tmp_path / "pcaps", sites=1, pcaps_per_site=2)
        pipeline = AnalysisPipeline(max_workers=64)
        pipeline.digest(pcaps)
        assert pipeline.stats.workers == 2  # never more workers than pcaps

    def test_pool_path_actually_engages(self, tmp_path):
        # Guard against the fan-out silently degrading to the serial
        # branch: with max_workers > 1 and several pcaps to digest, the
        # recorded worker count must exceed one even on a 1-CPU host.
        pcaps = make_corpus(tmp_path / "pcaps")
        pipeline = AnalysisPipeline(max_workers=4)
        pipeline.digest(pcaps)
        assert pipeline.stats.workers == 4

    def test_rejects_nonpositive_workers(self):
        with pytest.raises(ValueError):
            AnalysisPipeline(max_workers=0)


class TestCacheIntegration:
    def test_second_run_is_all_hits_and_identical(self, tmp_path):
        pcaps = make_corpus(tmp_path / "pcaps")
        cache_dir = tmp_path / "cache"
        cold = AnalysisPipeline(cache_dir=cache_dir)
        cold_report = cold.run(pcaps)
        assert cold.stats.cache_misses == len(pcaps)
        assert cold.stats.cache_hits == 0

        warm = AnalysisPipeline(cache_dir=cache_dir)
        warm_report = warm.run(pcaps)
        assert warm.stats.cache_hits == len(pcaps)
        assert warm.stats.cache_misses == 0
        assert csv_bytes(cold_report, tmp_path / "csv-cold") == \
            csv_bytes(warm_report, tmp_path / "csv-warm")

    def test_rewritten_pcap_misses_only_itself(self, tmp_path):
        pcaps = make_corpus(tmp_path / "pcaps")
        cache_dir = tmp_path / "cache"
        AnalysisPipeline(cache_dir=cache_dir).digest(pcaps)
        with PcapWriter(pcaps[0], snaplen=200) as writer:
            writer.write(PcapRecord(0.0, corpus_frames()[0][:200]))
        rerun = AnalysisPipeline(cache_dir=cache_dir)
        rerun.digest(pcaps)
        assert rerun.stats.cache_misses == 1
        assert rerun.stats.cache_hits == len(pcaps) - 1
        assert len(rerun.acaps[0]) == 1

    def test_deleted_entry_forces_redigest(self, tmp_path):
        pcaps = make_corpus(tmp_path / "pcaps", sites=1, pcaps_per_site=1)
        cache_dir = tmp_path / "cache"
        AnalysisPipeline(cache_dir=cache_dir).digest(pcaps)
        key = AcapCache.key_for(pcaps[0].read_bytes())
        AcapCache(cache_dir).entry_path(key).unlink()
        rerun = AnalysisPipeline(cache_dir=cache_dir)
        rerun.digest(pcaps)
        assert rerun.stats.cache_misses == 1

    def test_no_cache_pipeline_records_all_misses(self, tmp_path):
        pcaps = make_corpus(tmp_path / "pcaps", sites=1, pcaps_per_site=2)
        pipeline = AnalysisPipeline()
        pipeline.digest(pcaps)
        assert pipeline.cache is None
        assert pipeline.stats.cache_misses == len(pcaps)


class TestStats:
    def test_stats_populated_and_rendered(self, tmp_path):
        pcaps = make_corpus(tmp_path / "pcaps", sites=2, pcaps_per_site=1)
        pipeline = AnalysisPipeline()
        report = pipeline.run(pcaps)
        stats = report.stats
        assert isinstance(stats, PipelineStats)
        assert stats.pcaps == len(pcaps)
        assert stats.total_frames == report.total_frames > 0
        assert stats.digest_seconds > 0
        assert stats.frames_per_second > 0
        assert stats.total_seconds >= stats.digest_seconds
        text = stats.render()
        assert "frames/s" in text and "cache" in text

    def test_empty_run_stats(self):
        report = AnalysisPipeline().run([])
        assert report.stats.pcaps == 0
        assert report.stats.frames_per_second == 0.0


class TestColumnarParity:
    """The columnar digest must give the generic Dissector+abstract
    route's entry, byte for byte, over the same frames."""

    def frames_with_edge_cases(self):
        frames = corpus_frames()
        extra = []
        for frame in frames:
            # Every truncation point of every frame.
            extra.extend(frame[:n] for n in range(len(frame)))
        extra.append(b"\x00" * 60)               # all-zero runt
        extra.append(os.urandom(200))            # garbage
        return frames + extra

    def test_digest_matches_generic_dissector(self, tmp_path):
        path = tmp_path / "parity.pcap"
        with PcapWriter(path, snaplen=65535) as writer:
            for i, frame in enumerate(self.frames_with_edge_cases()):
                writer.write(PcapRecord(i * 0.001, frame))
        columnar = digest_pcap(path)
        generic = digest_pcap(path, dissector=Dissector())
        assert len(columnar) == len(generic) > 0
        assert columnar.records == generic.records
        assert encode_acap(columnar) == encode_acap(generic)

    def test_single_frame_parity(self, tmp_path):
        frame = corpus_frames()[1]  # MPLS + pseudowire + VLAN + HTTP
        path = tmp_path / "one.pcap"
        with PcapWriter(path) as writer:
            writer.write(PcapRecord(1.5, frame))
        want = abstract(Dissector().dissect(frame), 1.5, len(frame), len(frame))
        assert digest_pcap(path).records == [want]
