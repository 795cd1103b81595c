"""Tests for the end-to-end analysis pipeline over a real profile.

Uses the session-scoped profiled bundle: a Patchwork run over live
traffic on a four-site federation.
"""


import pytest

from repro.analysis import AnalysisPipeline


class TestPipeline:
    def test_digest_produced_acaps(self, profiled_bundle_and_pipeline):
        bundle, pipeline, _report = profiled_bundle_and_pipeline
        assert len(pipeline.acaps) == len(bundle.pcap_paths)

    def test_index_covers_all_sites(self, profiled_bundle_and_pipeline):
        bundle, pipeline, _report = profiled_bundle_and_pipeline
        profiled_sites = {site for site, result in bundle.results.items()
                          if result.samples}
        assert set(pipeline.index.sites()) == profiled_sites

    def test_report_totals(self, profiled_bundle_and_pipeline):
        _bundle, pipeline, report = profiled_bundle_and_pipeline
        assert report.total_frames == pipeline.index.total_frames()
        assert report.total_frames > 0

    def test_report_tables_present(self, profiled_bundle_and_pipeline):
        _bundle, _pipeline, report = profiled_bundle_and_pipeline
        expected = {"frame_sizes_by_site", "frame_sizes_overall",
                    "header_occurrence", "header_diversity", "ip_versions",
                    "flows_per_sample", "aggregated_flow_sizes", "tcp_flags"}
        assert expected <= set(report.tables)

    def test_header_occurrence_sane(self, profiled_bundle_and_pipeline):
        _bundle, _pipeline, report = profiled_bundle_and_pipeline
        table = report.tables["header_occurrence"]
        occurrence = dict(zip(table.column("header"),
                              table.column("percent_of_frames")))
        assert occurrence["eth"] >= 100.0
        assert occurrence.get("ipv4", 0) > occurrence.get("ipv6", 0)

    def test_flows_per_sample_counted(self, profiled_bundle_and_pipeline):
        _bundle, _pipeline, report = profiled_bundle_and_pipeline
        assert len(report.flows_per_sample) == len(_pipeline.acaps)
        assert sum(report.flows_per_sample) > 0

    def test_csv_emission(self, profiled_bundle_and_pipeline, tmp_path):
        _bundle, _pipeline, report = profiled_bundle_and_pipeline
        written = report.write_csvs(tmp_path / "csv")
        assert len(written) == len(report.tables)
        assert all(p.exists() and p.stat().st_size > 0 for p in written)

    def test_render_is_text(self, profiled_bundle_and_pipeline):
        _bundle, _pipeline, report = profiled_bundle_and_pipeline
        text = report.render()
        assert "header" in text and "site" in text

    def test_aggregated_flows_nonempty(self, profiled_bundle_and_pipeline):
        _bundle, _pipeline, report = profiled_bundle_and_pipeline
        assert len(report.aggregated_flows) > 0
        # Flow keys carry virtualization tags.
        key = next(iter(report.aggregated_flows))
        assert key.vlan_ids or key.mpls_labels

    def test_empty_pipeline(self, tmp_path):
        report = AnalysisPipeline().run([])
        assert report.total_frames == 0
        assert report.sites == []


class TestQuarantine:
    """A corrupt pcap must be dropped from the corpus with a counted
    quarantine, not abort the whole analysis run."""

    def make_corpus(self, tmp_path, corrupt=1):
        from repro.packets.builder import FrameBuilder, FrameSpec
        from repro.packets.headers import Ethernet, IPv4, Payload, TCP
        from repro.packets.pcap import PcapRecord, PcapWriter
        frame = FrameBuilder().build(FrameSpec([
            Ethernet("02:00:00:00:00:01", "02:00:00:00:00:02"),
            IPv4("10.1.2.3", "10.4.5.6"), TCP(50000, 443),
            Payload(0)], target_size=200))
        site = tmp_path / "STAR"
        site.mkdir()
        paths = []
        for i in range(2):
            path = site / f"s{i}.pcap"
            with PcapWriter(path, snaplen=200) as writer:
                for j in range(5):
                    writer.write(PcapRecord(j * 0.1, frame))
            paths.append(path)
        for i in range(corrupt):
            bad = site / f"bad{i}.pcap"
            bad.write_bytes(b"\x00" * 40)  # bad magic: analysis-poison
            paths.append(bad)
        return paths

    def test_corrupt_pcap_quarantined_not_fatal(self, tmp_path):
        pipeline = AnalysisPipeline()
        report = pipeline.run(self.make_corpus(tmp_path))
        assert pipeline.stats.quarantined == 1
        assert len(pipeline.acaps) == 2
        assert report.total_frames == 10
        assert "quarantined" in pipeline.stats.render()

    def test_clean_corpus_has_no_quarantines(self, tmp_path):
        pipeline = AnalysisPipeline()
        pipeline.run(self.make_corpus(tmp_path, corrupt=0))
        assert pipeline.stats.quarantined == 0
        assert "quarantined" not in pipeline.stats.render()

    @pytest.mark.parametrize("cached", [False, True])
    def test_record_longer_than_the_wire_quarantined(self, tmp_path, cached):
        """A pcap with a record whose wire length is below its captured
        length is quarantined, without and with the acap cache, cold and
        warm: the cache never stores an entry for it."""
        import struct

        from repro.obs import Observability, scoped

        good, _, bad = self.make_corpus(tmp_path)
        data = bytearray(good.read_bytes())
        struct.pack_into(">I", data, 24 + 12, 100)  # first record: incl 200
        bad.write_bytes(bytes(data))
        cache_dir = tmp_path / "cache" if cached else None
        for _run in range(2):
            with scoped(Observability.create()) as obs:
                pipeline = AnalysisPipeline(cache_dir=cache_dir)
                report = pipeline.run([good, bad])
            assert pipeline.stats.quarantined == 1
            assert report.total_frames == 5
            assert [event.data["pcap"] for event
                    in obs.journal.of_kind("pipeline-quarantine")] == \
                ["STAR/bad0.pcap"]
        if cached:
            assert len(list(cache_dir.rglob("*.acap"))) == 1
