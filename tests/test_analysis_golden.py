"""Golden output of the offline analysis over a fixed-seed corpus.

The corpus is written here with :class:`FrameBuilder` and
:class:`PcapWriter` and covers every shape the Analyze step treats
differently: VLAN tags, one- and two-label MPLS stacks (the two labels
in both orders, which must classify as one flow), PseudoWire-nested
Ethernet, IPv4 and IPv6, TCP with SYN/FIN/RST, UDP, ICMP and ARP,
jumbo frames, frames cut short by a small snap length, an empty pcap,
and conversations that recur, in both directions, across samples and
sites.

Pinned: the sha256 of every report CSV, the headline numbers of the
report, and a digest of every aggregated flow, for a cold run and for
a warm run served entirely from the acap cache.  A change to how the
Analyze step computes its tables that is meant to be output-neutral
must leave these values alone.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.analysis import AnalysisPipeline
from repro.packets.builder import FrameBuilder, FrameSpec
from repro.packets.headers import (
    ARP, DNSHeader, Ethernet, HTTPPayload, ICMP, IPv4, IPv6, MPLS, Payload,
    PseudoWireControlWord, TCP, TCP_ACK, TCP_FIN, TCP_RST, TCP_SYN,
    TLSRecord, UDP, VLAN,
)
from repro.packets.pcap import PcapRecord, PcapWriter

SEED = 2025
SITES = ("ALPHA", "BRAVO", "CHARLIE")
SAMPLES_PER_SITE = 3
FRAMES_PER_SAMPLE = 160
CONVERSATIONS = 48
#: Per-sample snap lengths: the short ones cut PseudoWire stacks, and
#: with them deep headers, off mid-frame.
SNAPLENS = (200, 96, 54)


def _mac(rng: np.random.Generator) -> str:
    return "02:00:00:%02x:%02x:%02x" % tuple(int(b) for b in rng.integers(0, 256, 3))


def _conversation(rng: np.random.Generator, n: int) -> dict:
    """One bidirectional conversation: its tags, endpoints and protocol."""
    labels = [16000 + n, 18000 + n]
    if rng.random() < 0.5:
        labels.reverse()
    mpls = rng.random()
    return {
        "vlan": int(rng.integers(100, 3100)) if rng.random() < 0.8 else None,
        "mpls": labels[:1] if mpls < 0.3 else labels if mpls < 0.6 else [],
        "pw": bool(rng.random() < 0.5),
        "ipv6": bool(rng.random() < 0.15),
        "kind": ("tcp", "tcp", "tcp", "udp", "icmp", "arp")[int(rng.integers(0, 6))],
        "host": (f"10.{n}.0.1", f"10.{n}.9.2"),
        "host6": (f"2001:db8::{n:x}", f"2001:db8:1::{n:x}"),
        "ports": (int(rng.integers(32768, 61000)),
                  (443, 80, 5201, 22)[int(rng.integers(0, 4))]),
        "macs": (_mac(rng), _mac(rng)),
    }


def _frame(rng: np.random.Generator, conv: dict, reverse: bool) -> bytes:
    """One frame of ``conv``, in either direction, with the reversed
    direction's MPLS labels swapped so it exercises label sorting."""
    mac_a, mac_b = conv["macs"]
    stack: list = [Ethernet(mac_a, mac_b)]
    if conv["vlan"] is not None:
        stack.append(VLAN(conv["vlan"]))
    labels = list(reversed(conv["mpls"])) if reverse else list(conv["mpls"])
    stack += [MPLS(label) for label in labels]
    if labels and conv["pw"]:
        stack += [PseudoWireControlWord(), Ethernet(mac_b, mac_a)]
    if conv["kind"] == "arp":
        return FrameBuilder().build(FrameSpec(stack + [ARP(mac_a, conv["host"][0])]))
    src, dst = conv["host6"] if conv["ipv6"] else conv["host"]
    sport, dport = conv["ports"]
    if reverse:
        src, dst, sport, dport = dst, src, dport, sport
    stack.append(IPv6(src, dst) if conv["ipv6"] else IPv4(src, dst))
    target = None
    if conv["kind"] == "tcp":
        flags = (TCP_SYN, TCP_ACK, TCP_ACK, TCP_ACK, TCP_FIN | TCP_ACK,
                 TCP_RST)[int(rng.integers(0, 6))]
        stack.append(TCP(sport, dport, flags=flags))
        app = conv["ports"][1]
        if app == 443:
            stack.append(TLSRecord())
        elif app == 80:
            stack.append(HTTPPayload())
        stack.append(Payload(0))
        size = rng.random()
        target = (1514 if size < 0.4 else 9014 if size < 0.55
                  else int(rng.integers(64, 1400)))
    elif conv["kind"] == "udp":
        stack += [UDP(sport, 53), DNSHeader(ident=int(rng.integers(0, 65536)))]
    else:
        stack += [ICMP(ident=int(rng.integers(0, 65536))), Payload(56)]
    return FrameBuilder().build(FrameSpec(stack, target_size=target))


def build_corpus(root: Path) -> list:
    """Write the corpus under ``root/<SITE>/sampleN.pcap``; returns the
    pcap paths in a fixed order (the last one is empty)."""
    rng = np.random.default_rng(SEED)
    conversations = [_conversation(rng, n) for n in range(CONVERSATIONS)]
    paths = []
    for s, site in enumerate(SITES):
        for k in range(SAMPLES_PER_SITE):
            path = root / site / f"sample{k}.pcap"
            path.parent.mkdir(parents=True, exist_ok=True)
            # Each sample sees a window of the conversations, so most
            # recur in the next sample and at the next site.
            start = (s * 7 + k * 5) % CONVERSATIONS
            active = [conversations[(start + i) % CONVERSATIONS]
                      for i in range(20)]
            snaplen = SNAPLENS[(s + k) % len(SNAPLENS)]
            with PcapWriter(path, snaplen=snaplen) as writer:
                for i in range(FRAMES_PER_SAMPLE):
                    conv = active[int(rng.integers(0, len(active)))]
                    frame = _frame(rng, conv, reverse=bool(rng.random() < 0.4))
                    writer.write(PcapRecord(100.0 * (s * SAMPLES_PER_SITE + k)
                                            + 1e-3 * i, frame,
                                            orig_len=len(frame)))
            paths.append(path)
    empty = root / SITES[-1] / "empty.pcap"
    PcapWriter(empty).close()
    paths.append(empty)
    return paths


def summarize(report, csv_dir: Path) -> dict:
    """Everything the golden pins, as JSON-comparable values."""
    csvs = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in report.write_csvs(csv_dir)}
    flows = sorted(
        [list(key.vlan_ids), list(key.mpls_labels), key.ip_version,
         list(key.endpoint_a), list(key.endpoint_b), key.proto,
         stats.frames, stats.wire_bytes, stats.first_seen, stats.last_seen,
         stats.syn_seen, stats.fin_seen, stats.rst_seen, stats.samples]
        for key, stats in report.aggregated_flows.items())
    return {
        "csv": csvs,
        "total_frames": report.total_frames,
        "ipv6_fraction": report.ipv6_fraction,
        "jumbo_fraction": report.jumbo_fraction,
        "flows_per_sample": list(report.flows_per_sample),
        "aggregated_flows": hashlib.sha256(
            json.dumps(flows).encode()).hexdigest(),
    }


GOLDEN = {
    "csv": {
        "aggregated_flow_sizes.csv":
            "8a4aba5ef4070ef9eb6cd1ff2cad11982fc82bce8cb6416d04489e6967d55c42",
        "flows_per_sample.csv":
            "8ff31bffd60089aa4df3f345d0e5894c0a510ea6b06951bc5075c02e08336f8d",
        "frame_sizes_by_site.csv":
            "117bc50eb1fad67a306b7d944e67284f8f0164ee001d1282dbc7fd25e93bb108",
        "frame_sizes_overall.csv":
            "44fca931a9e22f98d620f0b853a28a3a7840d0e586ab9139ff1887ecffd1b8e6",
        "header_diversity.csv":
            "6b3f01b4a3c24f7a496253d5b31a32d7f62ca225759b8c21705618869c282a06",
        "header_occurrence.csv":
            "cd71ee3c5b698daf0bf39567abc6b3d8b4e52f2a27754fa460390ef9b0696409",
        "ip_versions.csv":
            "9323d0a4eba58b2cbc15b38cc0b2b96e2bb5609a447f495ed18b5e2cdf73a834",
        "tcp_flags.csv":
            "f2224e5a983c30e1226c9331c071e307dbb029fa97ab5c27f5803c4b8b00d062",
    },
    "total_frames": 1440,
    "ipv6_fraction": 0.10833333333333334,
    "jumbo_fraction": 0.08888888888888889,
    "flows_per_sample": [24, 23, 12, 21, 9, 21, 11, 21, 22, 0],
    "aggregated_flows":
        "19e16ab9ba00d76859007383475ed443a22dc692b33da53482e5930c5b6154bc",
}


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("analysis-golden")
    return root, build_corpus(root / "corpus")


def test_cold_and_warm_analysis_outputs_are_pinned(corpus):
    root, paths = corpus
    for run, lookups in (("cold", "cache_misses"), ("warm", "cache_hits")):
        pipeline = AnalysisPipeline(cache_dir=root / "cache")
        report = pipeline.run(paths)
        assert getattr(pipeline.stats, lookups) == len(paths)
        assert summarize(report, root / run) == GOLDEN, run
