"""Digest-step throughput benchmark (PR acceptance: >= 2x speedups).

Two claims are measured over a >= 100k-frame synthetic corpus:

1. **Single-core columnar walk**: ``digest_pcap``'s columnar route,
   which walks every frame of a pcap at once into acap columns, must
   digest at >= 2x the throughput of the generic ``Dissector`` +
   ``abstract`` route (the seed implementation, still available by
   passing an explicit dissector), and give the same entry bytes.
2. **Warm pipeline**: a parallel run with a warm acap cache must beat
   the seed-equivalent serial generic run by >= 2x wall time.

Run with ``PYTHONPATH=src python -m pytest benchmarks/test_digest_throughput.py -v -s``.
"""

from __future__ import annotations

import random
import time

import pytest

from repro.analysis.acap import digest_pcap, encode_acap
from repro.analysis.dissect import Dissector
from repro.analysis.pipeline import AnalysisPipeline
from repro.packets.builder import FrameBuilder, FrameSpec
from repro.packets.headers import (
    DNSHeader, Ethernet, HTTPPayload, IPv4, IPv6, MPLS, Payload,
    PseudoWireControlWord, TCP, TLSRecord, UDP, VLAN,
)
from repro.packets.pcap import PcapRecord, PcapWriter

E1, E2 = "02:00:00:00:00:01", "02:00:00:00:00:02"
TOTAL_FRAMES = 100_000
PCAPS = 4
SNAPLEN = 200


def build_frames():
    """A realistic stack mix, weighted toward the common cases."""
    build = FrameBuilder().build
    plain_tls = build(FrameSpec([Ethernet(E1, E2), IPv4("10.0.0.1", "10.0.0.2"),
                                 TCP(50000, 443), TLSRecord(), Payload(0)],
                                target_size=1500))
    vlan_http = build(FrameSpec([Ethernet(E1, E2), VLAN(301),
                                 IPv4("10.1.2.3", "10.4.5.6"), TCP(50001, 80),
                                 HTTPPayload(), Payload(0)], target_size=1000))
    mpls_pw = build(FrameSpec([Ethernet(E1, E2), MPLS(17000), MPLS(17001),
                               PseudoWireControlWord(), Ethernet(E1, E2),
                               IPv4("10.2.0.1", "10.2.0.2"), TCP(50002, 443),
                               TLSRecord(), Payload(0)], target_size=1544))
    v6_dns = build(FrameSpec([Ethernet(E1, E2),
                              IPv6("2001:db8::1", "2001:db8::2"),
                              UDP(50003, 53), DNSHeader()]))
    small_ack = build(FrameSpec([Ethernet(E1, E2), IPv4("10.0.0.1", "10.0.0.2"),
                                 TCP(50000, 443)]))
    # ~frame mix: mostly full-size data frames plus a stream of ACKs.
    return [plain_tls] * 4 + [vlan_http] * 2 + [mpls_pw] * 2 + \
        [v6_dns] + [small_ack] * 3


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """PCAPS pcap files totalling TOTAL_FRAMES truncated frames."""
    root = tmp_path_factory.mktemp("digest-bench")
    frames = build_frames()
    rng = random.Random(99)
    per_pcap = TOTAL_FRAMES // PCAPS
    paths = []
    for p in range(PCAPS):
        path = root / f"bench{p}.pcap"
        with PcapWriter(path, snaplen=SNAPLEN) as writer:
            for i in range(per_pcap):
                frame = frames[rng.randrange(len(frames))]
                writer.write(PcapRecord(i * 1e-5, frame[:SNAPLEN],
                                        orig_len=len(frame)))
        paths.append(path)
    return root, paths


def timed(fn):
    started = time.perf_counter()
    result = fn()
    return time.perf_counter() - started, result


class TestDigestThroughput:
    def test_columnar_walk_2x_single_core(self, corpus):
        _root, paths = corpus
        generic_s, generic = timed(
            lambda: [digest_pcap(p, dissector=Dissector()) for p in paths])
        columnar_s, columnar = timed(lambda: [digest_pcap(p) for p in paths])
        frames = sum(len(a) for a in columnar)
        assert frames >= TOTAL_FRAMES
        # Identical output either way.
        assert list(map(encode_acap, columnar)) == \
            list(map(encode_acap, generic))
        speedup = generic_s / columnar_s
        print(f"\nsingle-core digest: generic {frames / generic_s:,.0f} f/s, "
              f"columnar {frames / columnar_s:,.0f} f/s -> {speedup:.2f}x")
        assert speedup >= 2.0

    def test_warm_parallel_pipeline_2x_seed_serial(self, corpus, tmp_path):
        root, paths = corpus
        # Seed-equivalent baseline: serial, no cache, generic dissector.
        dissector = Dissector()
        seed_s, _ = timed(lambda: [digest_pcap(p, dissector=dissector)
                                   for p in paths])

        cache_dir = root / "cache"
        cold = AnalysisPipeline(max_workers=PCAPS, cache_dir=cache_dir)
        cold_s, _ = timed(lambda: cold.digest(paths))
        assert cold.stats.cache_misses == len(paths)

        warm = AnalysisPipeline(max_workers=PCAPS, cache_dir=cache_dir)
        warm_s, _ = timed(lambda: warm.digest(paths))
        assert warm.stats.cache_hits == len(paths)

        frames = warm.stats.total_frames
        print(f"\npipeline digest of {frames:,} frames: "
              f"seed-serial {seed_s:.2f}s, parallel-cold {cold_s:.2f}s, "
              f"parallel-warm {warm_s:.2f}s "
              f"-> warm speedup {seed_s / warm_s:.2f}x")
        print(warm.stats.render())
        assert seed_s / warm_s >= 2.0
