"""Tests for the acap index."""

import pytest

from repro.analysis.acap import AcapFile, AcapRecord
from repro.analysis.index import AcapIndex


def acap(source, n=5, t0=0.0, protocols=("eth", "ipv4", "tcp")):
    records = [
        AcapRecord(timestamp=t0 + i, wire_len=1514, captured_len=200,
                   stack=tuple(protocols))
        for i in range(n)
    ]
    return AcapFile(source=source, records=records)


class TestBuild:
    def test_from_memory(self):
        index = AcapIndex.build_from_memory([
            acap("out/STAR/a.acap"), acap("out/MICH/b.acap", n=3)])
        assert len(index) == 2
        assert index.total_frames() == 8
        assert index.sites() == ["MICH", "STAR"]


class TestQueries:
    @pytest.fixture()
    def index(self):
        return AcapIndex.build_from_memory([
            acap("out/STAR/a.acap", n=5, t0=0.0),
            acap("out/STAR/b.acap", n=5, t0=100.0,
                 protocols=("eth", "ipv6", "udp", "dns")),
            acap("out/MICH/c.acap", n=2, t0=50.0),
        ])

    def test_for_site(self, index):
        assert len(index.for_site("STAR")) == 2
        assert len(index.for_site("NOWHERE")) == 0

    def test_with_protocol(self, index):
        assert len(index.with_protocol("dns")) == 1
        assert len(index.with_protocol("eth")) == 3

    def test_in_window(self, index):
        hits = index.in_window(90.0, 110.0)
        assert len(hits) == 1
        assert hits[0].start == 100.0
