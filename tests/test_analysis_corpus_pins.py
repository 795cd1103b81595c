"""Pins of the offline analysis over the perf benchmark's capture corpus.

The corpus is ``benchmarks/perf/suite.py``'s Fig-12-shaped one (VLAN on
nearly every frame, one or two MPLS labels on most, PseudoWire-nested
Ethernet), whose pcaps carry thousands of distinct tag tuples each.
Pinned: the hash of every report CSV at three seeds (the benchmark's
``csv_sha256``), the cache entry bytes of every pcap at seed 29 with
the entry's source path fixed, and the aggregated flows in the order
the report gives them.  A change to how Digest, the cache codec or the
Analyze step hold their tables that is meant to be output-neutral must
leave these values alone.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from repro.analysis import AnalysisPipeline
from repro.analysis.acap import AcapFile, decode_acap, encode_acap
from repro.analysis.pipeline import ProfileReport

SUITE = Path(__file__).resolve().parents[1] / "benchmarks" / "perf" / "suite.py"


def _suite():
    spec = importlib.util.spec_from_file_location("perf_suite", SUITE)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module   # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


#: The benchmark's ``csv_sha256`` of the ``analyze`` workload, by seed.
CSV_SHA256 = {
    29: "dc31574b3a0d68a53871e338a3397faef78fdbe21bc8b0fffccc358db2717010",
    31: "bea57d5d5226a1c611677d9847138686f72505954f188203db25f5f09300699d",
    37: "dee5a7d9e91ae7526627a5a6e696a850841a247fb0ecf74f049e07b7000d957f",
}
#: sha256 over the 16 seed-29 cache entries, in pcap order, each
#: encoded with its source path set to ``"pcap"``.
ENTRIES_SHA256 = (
    "12d8bd09493a7732cdc94f2445ac34ea674a784a7f3ecf8b2ceb2d3acf9f5dcc")
#: sha256 of the seed-29 aggregated flows, in the report's order.
FLOWS_SHA256 = (
    "7d758708b8234ba2c0d2e4f0f1c2380b1472a571f2d96938efe88a8f72a85fd2")


def flows_digest(flows) -> str:
    rows = [[list(key.vlan_ids), list(key.mpls_labels), key.ip_version,
             list(key.endpoint_a), list(key.endpoint_b), key.proto,
             stats.frames, stats.wire_bytes, stats.first_seen,
             stats.last_seen, stats.syn_seen, stats.fin_seen,
             stats.rst_seen, stats.samples]
            for key, stats in flows.items()]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


@pytest.fixture(scope="module")
def suite():
    return _suite()


@pytest.fixture(scope="module")
def seed29(suite, tmp_path_factory):
    """The seed-29 corpus, its cold report and its cache directory."""
    root = tmp_path_factory.mktemp("corpus29")
    corpus = suite.build_corpus(suite.analyze_params(29), root / "corpus")
    pipeline = AnalysisPipeline(cache_dir=root / "cache")
    report = pipeline.run(corpus["pcaps"])
    return corpus, report, root


@pytest.mark.parametrize("seed", sorted(CSV_SHA256))
def test_report_csvs_are_pinned(suite, seed29, tmp_path, seed):
    if seed == 29:
        corpus, report, _root = seed29
    else:
        corpus = suite.build_corpus(suite.analyze_params(seed),
                                    tmp_path / "corpus")
        report = AnalysisPipeline().run(corpus["pcaps"])
    assert report.total_frames == corpus["frames"]
    out = suite.analysis_outputs(report, tmp_path)
    assert out["csv_sha256"] == CSV_SHA256[seed]


def test_cache_entries_are_pinned(seed29):
    corpus, _report, root = seed29
    cache = AnalysisPipeline(cache_dir=root / "cache").cache
    digest = hashlib.sha256()
    for pcap in map(Path, corpus["pcaps"]):
        acap = cache.lookup(cache.key_for(pcap.read_bytes()), pcap)
        assert acap is not None
        entry = encode_acap(AcapFile("pcap", columns=acap.columns))
        assert decode_acap(entry).records == acap.records
        digest.update(entry)
    assert digest.hexdigest() == ENTRIES_SHA256


def test_aggregated_flows_are_pinned(seed29, tmp_path):
    _corpus, report, root = seed29
    flows = report.aggregated_flows
    assert report.aggregated_flows is flows
    assert flows_digest(flows) == FLOWS_SHA256
    warm = AnalysisPipeline(cache_dir=root / "cache").run(_corpus["pcaps"])
    assert flows_digest(warm.aggregated_flows) == FLOWS_SHA256


def test_report_without_flows_has_none():
    assert ProfileReport().aggregated_flows == {}
