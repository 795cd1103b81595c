"""Observability overhead guard (PR acceptance: < 5% on the hot path).

The Digest step is the most instrumentation-sensitive code in the
repo (~100k frames per corpus here).  The columnar walk carries no
instrument: the pipeline counts each acap into the
``digest.*`` counters and its ``ledger-digest`` event once, after
dissection, so:

* with observability **disabled** (the process default) Digest skips
  the counting pass -- overhead indistinguishable from noise;
* with it **enabled** overhead must stay under 5%.

Timings take the best of several trials so a CI noise spike cannot fail
the gate spuriously.

Run with ``PYTHONPATH=src python -m pytest benchmarks/test_obs_overhead.py -v -s``.
"""

from __future__ import annotations

import random
import time

import pytest

from repro.analysis import AnalysisPipeline
from repro.obs import Observability, scoped
from repro.packets.builder import FrameBuilder, FrameSpec
from repro.packets.headers import (
    DNSHeader, Ethernet, HTTPPayload, IPv4, IPv6, Payload, TCP, TLSRecord,
    UDP, VLAN,
)
from repro.packets.pcap import PcapRecord, PcapWriter

E1, E2 = "02:00:00:00:00:01", "02:00:00:00:00:02"
TOTAL_FRAMES = 100_000
PCAPS = 4
SNAPLEN = 200
TRIALS = 5
MAX_ENABLED_OVERHEAD = 0.05


def build_frames():
    build = FrameBuilder().build
    plain_tls = build(FrameSpec([Ethernet(E1, E2), IPv4("10.0.0.1", "10.0.0.2"),
                                 TCP(50000, 443), TLSRecord(), Payload(0)],
                                target_size=1500))
    vlan_http = build(FrameSpec([Ethernet(E1, E2), VLAN(301),
                                 IPv4("10.1.2.3", "10.4.5.6"), TCP(50001, 80),
                                 HTTPPayload(), Payload(0)], target_size=1000))
    v6_dns = build(FrameSpec([Ethernet(E1, E2),
                              IPv6("2001:db8::1", "2001:db8::2"),
                              UDP(50003, 53), DNSHeader()]))
    small_ack = build(FrameSpec([Ethernet(E1, E2), IPv4("10.0.0.1", "10.0.0.2"),
                                 TCP(50000, 443)]))
    return [plain_tls] * 5 + [vlan_http] * 2 + [v6_dns] + [small_ack] * 4


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("obs-bench")
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
    return paths


def best_of(fn, trials=TRIALS):
    """Minimum wall time over several trials (robust to noise)."""
    best = float("inf")
    for _ in range(trials):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


class TestObsOverhead:
    def test_enabled_overhead_under_5_percent(self, corpus):
        def digest_all():
            return AnalysisPipeline().digest(corpus)

        digest_all()  # warm the page cache before timing anything

        baseline_s = best_of(digest_all)  # process default: obs disabled

        with scoped(Observability.create()) as obs:
            enabled_s = best_of(digest_all)
            assert obs.registry.get("digest.frames").value == \
                TOTAL_FRAMES * TRIALS

        overhead = enabled_s / baseline_s - 1.0
        print(f"\ndigest of {TOTAL_FRAMES:,} frames: "
              f"disabled {TOTAL_FRAMES / baseline_s:,.0f} f/s, "
              f"enabled {TOTAL_FRAMES / enabled_s:,.0f} f/s "
              f"-> overhead {overhead:+.2%} (gate {MAX_ENABLED_OVERHEAD:.0%})")
        assert overhead < MAX_ENABLED_OVERHEAD

    def test_disabled_costs_nothing(self, corpus):
        # The disabled path skips the counting pass altogether.
        from repro.obs import get_obs

        assert not get_obs().enabled
        def digest_all():
            return AnalysisPipeline().digest(corpus)

        digest_all()
        disabled_s = best_of(digest_all)
        # Sanity floor rather than a flaky ~0% assertion: the disabled
        # run must stay within the enabled gate too.
        with scoped(Observability.create()):
            enabled_s = best_of(digest_all)
        assert disabled_s <= enabled_s * (1.0 + MAX_ENABLED_OVERHEAD)
