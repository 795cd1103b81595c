"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_all_commands_parse(self):
        parser = build_parser()
        assert parser.parse_args(["study"]).command == "study"
        assert parser.parse_args(["profile", "--sites", "A", "B"]).sites == ["A", "B"]
        assert parser.parse_args(["campaign", "--occasions", "3"]).occasions == 3
        assert parser.parse_args(["analyze", "x.pcap"]).command == "analyze"
        args = parser.parse_args(["plan", "100Gbps", "1514"])
        assert args.rate == "100Gbps" and args.frame_size == 1514

    def test_obs_commands_parse(self):
        parser = build_parser()
        args = parser.parse_args(["obs", "dump", "j.jsonl", "--kind", "fault"])
        assert args.obs_command == "dump" and args.kind == "fault"
        args = parser.parse_args(["obs", "tail", "j.jsonl", "-n", "5"])
        assert args.lines == 5
        args = parser.parse_args(["obs", "diff", "a.jsonl", "b.jsonl"])
        assert args.obs_command == "diff"
        args = parser.parse_args(["obs", "export", "j.jsonl",
                                  "--format", "jsonl"])
        assert args.format == "jsonl"
        args = parser.parse_args(["obs", "diff", "a.jsonl", "b.jsonl", "-q"])
        assert args.quiet

    def test_audit_command_parses(self):
        parser = build_parser()
        args = parser.parse_args(["audit", "j.jsonl"])
        assert args.command == "audit"
        assert args.csv is None and not args.json

    def test_json_flags_parse(self):
        parser = build_parser()
        assert parser.parse_args(["profile", "--json"]).json
        assert parser.parse_args(["analyze", "x.pcap", "--json"]).json


class TestPlan:
    def test_tcpdump_recommended_for_light_load(self, capsys):
        assert main(["plan", "5Gbps", "1514"]) == 0
        assert "tcpdump" in capsys.readouterr().out

    def test_dpdk_recommended_for_100g(self, capsys):
        assert main(["plan", "100Gbps", "1514"]) == 0
        assert "DPDK" in capsys.readouterr().out

    def test_fpga_recommended_for_small_frames(self, capsys):
        assert main(["plan", "100Gbps", "128"]) == 0
        assert "FPGA" in capsys.readouterr().out


class TestStudy:
    def test_study_prints_figures(self, capsys):
        assert main(["study", "--weeks", "8"]) == 0
        out = capsys.readouterr().out
        assert "Distribution of ports" in out
        assert "Slice spread" in out
        assert "Duration of slices" in out
        assert "Simultaneous slices" in out
        assert "peak network week" in out


class TestAnalyze:
    def test_analyze_missing_file(self, capsys):
        assert main(["analyze", "/nonexistent/x.pcap"]) == 2
        assert "no such pcap" in capsys.readouterr().err

    def test_analyze_real_pcaps(self, profiled_bundle_and_pipeline, tmp_path,
                                capsys):
        bundle, _pipeline, _report = profiled_bundle_and_pipeline
        paths = [str(p) for p in bundle.pcap_paths[:4]]
        assert main(["analyze", *paths, "--out", str(tmp_path), "--charts"]) == 0
        out = capsys.readouterr().out
        assert "Occurrence of protocol headers" in out
        assert (tmp_path / "csv").exists()
        assert list((tmp_path / "charts").glob("*.svg"))


class TestAnalyzeJson:
    def test_analyze_json_output(self, profiled_bundle_and_pipeline, tmp_path,
                                 capsys):
        bundle, _pipeline, _report = profiled_bundle_and_pipeline
        paths = [str(p) for p in bundle.pcap_paths[:2]]
        assert main(["analyze", *paths, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["total_frames"] > 0
        assert payload["stats"]["pcaps"] == 2
        assert "frame_sizes_overall" in payload["tables"]
        table = payload["tables"]["frame_sizes_overall"]
        assert set(table) == {"title", "columns", "rows"}


class TestProfile:
    def test_profile_end_to_end(self, tmp_path, capsys):
        code = main([
            "profile", "--sites", "STAR", "MICH",
            "--out", str(tmp_path / "out"), "--scale", "0.02",
            "--sample-duration", "2", "--sample-interval", "10",
            "--samples", "1", "--cycles", "1", "--instances", "1",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "STAR:" in out and "MICH:" in out
        run_dir = tmp_path / "out"
        for name in ("campaign.manifest", "campaign.wal", "journal.jsonl",
                     "records.json", "metrics.prom", "csv", "gathered",
                     "logs"):
            assert (run_dir / name).exists(), name
        assert sorted(p.name for p in (run_dir / "gathered").iterdir()) == \
            ["MICH.tar.gz", "STAR.tar.gz"]
        # metrics.prom renders the journal's last snapshot, so it is the
        # same text `repro obs export` prints.
        assert main(["obs", "export", str(run_dir / "journal.jsonl")]) == 0
        assert capsys.readouterr().out == \
            (run_dir / "metrics.prom").read_text()
        assert main(["profile", "--resume", str(run_dir)]) == 0
        assert "already complete" in capsys.readouterr().out

    def test_profile_json_mode(self, tmp_path, capsys):
        code = main([
            "profile", "--sites", "STAR", "MICH",
            "--out", str(tmp_path / "out"), "--scale", "0.02",
            "--sample-duration", "2", "--sample-interval", "10",
            "--samples", "1", "--cycles", "1", "--instances", "1",
            "--json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert {r["site"] for r in payload["runs"]} == {"STAR", "MICH"}
        assert all(r["outcome"] in ("success", "degraded", "failed",
                                    "incomplete") for r in payload["runs"])
        assert "report" in payload and "tables" not in payload["report"]
        assert payload["journal"].endswith("journal.jsonl")

    def test_traffic_span_reaches_plain_profile(self, tmp_path, capsys):
        def frames(*extra):
            code = main([
                "profile", "--sites", "STAR", "MICH",
                "--out", str(tmp_path / f"out{len(extra)}"), "--scale", "0.02",
                "--sample-duration", "2", "--sample-interval", "10",
                "--samples", "1", "--cycles", "1", "--instances", "1",
                "--json", *extra,
            ])
            assert code == 0
            return json.loads(capsys.readouterr().out)["report"]["total_frames"]

        # 30 s of traffic ends before the first capture sample opens.
        assert frames("--traffic-span", "30") < frames()


class TestObsCommands:
    @pytest.fixture()
    def journal_path(self, tmp_path):
        from repro.obs import Observability

        obs = Observability.create()
        obs.registry.counter("digest.frames").inc(42)
        obs.journal.emit("fault", t=1.0, site="STAR", reason="incident")
        obs.journal.emit("log", t=2.0, message="hello")
        obs.snapshot_to_journal()
        return obs.journal.write(tmp_path / "journal.jsonl")

    def test_dump(self, journal_path, capsys):
        assert main(["obs", "dump", str(journal_path)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3
        assert json.loads(lines[0])["kind"] == "fault"

    def test_dump_kind_filter(self, journal_path, capsys):
        assert main(["obs", "dump", str(journal_path), "--kind", "log"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["data"]["message"] == "hello"

    def test_tail(self, journal_path, capsys):
        assert main(["obs", "tail", str(journal_path), "-n", "1"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["kind"] == "metrics"

    def test_diff_identical(self, journal_path, capsys):
        assert main(["obs", "diff", str(journal_path),
                     str(journal_path)]) == 0
        assert "identical" in capsys.readouterr().out

    def test_diff_different(self, journal_path, tmp_path, capsys):
        from repro.obs import RunJournal

        other = RunJournal()
        other.emit("fault", t=9.0, site="MICH")
        other_path = other.write(tmp_path / "other.jsonl")
        assert main(["obs", "diff", str(journal_path),
                     str(other_path)]) == 1
        assert "event 0" in capsys.readouterr().out

    def test_diff_quiet_same_exit_codes_no_output(self, journal_path,
                                                  tmp_path, capsys):
        from repro.obs import RunJournal

        assert main(["obs", "diff", "-q", str(journal_path),
                     str(journal_path)]) == 0
        assert capsys.readouterr().out == ""
        other = RunJournal()
        other.emit("fault", t=9.0, site="MICH")
        other_path = other.write(tmp_path / "other.jsonl")
        assert main(["obs", "diff", "-q", str(journal_path),
                     str(other_path)]) == 1
        assert capsys.readouterr().out == ""

    def test_export_prometheus(self, journal_path, capsys):
        assert main(["obs", "export", str(journal_path)]) == 0
        out = capsys.readouterr().out
        assert "digest_frames 42" in out

    def test_export_jsonl(self, journal_path, capsys):
        assert main(["obs", "export", str(journal_path),
                     "--format", "jsonl"]) == 0
        payload = json.loads(capsys.readouterr().out.splitlines()[0])
        assert payload == {"kind": "counter", "name": "digest.frames",
                           "value": 42}

    def test_missing_journal(self, capsys):
        assert main(["obs", "dump", "/nonexistent/j.jsonl"]) == 2
        assert "no such journal" in capsys.readouterr().err

    def test_export_without_snapshot(self, tmp_path, capsys):
        from repro.obs import RunJournal

        journal = RunJournal()
        journal.emit("fault", t=1.0)
        path = journal.write(tmp_path / "bare.jsonl")
        assert main(["obs", "export", str(path)]) == 2
        assert "no metrics snapshot" in capsys.readouterr().err


class TestCampaign:
    def test_campaign_small(self, tmp_path, capsys):
        code = main(["campaign", "--sites", "3", "--occasions", "2",
                     "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "success rate" in out


DURABLE_ARGS = [
    "profile", "--sites", "STAR", "MICH",
    "--scale", "0.005", "--sample-duration", "2", "--sample-interval", "10",
    "--samples", "1", "--cycles", "1", "--instances", "1",
    "--occasions", "1", "--traffic-span", "120", "--seed", "9",
]


class TestDurableProfile:
    def test_durable_then_resume_noop(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(DURABLE_ARGS + ["--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "ran: occasions [0]" in text
        assert "audit ok" in text
        assert (out / "campaign.wal").exists()
        assert (out / "journal.jsonl").exists()
        assert main(["profile", "--resume", str(out)]) == 0
        assert "already complete" in capsys.readouterr().out

    def test_digests_live_only_in_the_acap_cache(self, tmp_path, capsys):
        from repro.analysis.acap import digest_pcap
        from repro.analysis.cache import AcapCache
        from repro.core.checkpoint import committed_pcaps

        out = tmp_path / "run"
        assert main(DURABLE_ARGS + ["--out", str(out)]) == 0
        assert not (out / "acap").exists()
        pcaps = [out / rel for rel in committed_pcaps(out)]
        assert pcaps
        cache = AcapCache(out / "acap-cache")
        for pcap in pcaps:
            acap = cache.lookup(AcapCache.key_for(pcap.read_bytes()), pcap)
            assert acap is not None, pcap
            assert acap.records == digest_pcap(pcap).records
        analyzed = tmp_path / "analyzed"
        assert main(["analyze", *map(str, pcaps), "--out", str(analyzed)]) == 0
        assert (analyzed / "csv").exists()
        assert not (analyzed / "acap").exists()
        capsys.readouterr()

    def test_resume_rejects_non_campaign_dir(self, tmp_path, capsys):
        assert main(["profile", "--resume", str(tmp_path)]) == 2
        assert "not a campaign run directory" in capsys.readouterr().err

    def test_resume_wal_without_manifest_is_friendly(self, tmp_path, capsys):
        """The 'resumable-no-manifest' state `repro runs describe`
        reports must fail with a message and exit 2, not a traceback."""
        (tmp_path / "campaign.wal").write_bytes(b"")
        assert main(["profile", "--resume", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "cannot resume" in err and "manifest" in err

    def test_runs_list_and_describe(self, tmp_path, capsys):
        out = tmp_path / "run"
        main(DURABLE_ARGS + ["--out", str(out)])
        capsys.readouterr()
        assert main(["runs", "list", str(tmp_path)]) == 0
        listing = capsys.readouterr().out
        assert "complete" in listing and "1/1 occasions committed" in listing
        assert main(["runs", "describe", str(out), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["state"] == "complete"

    def test_runs_list_empty(self, tmp_path, capsys):
        assert main(["runs", "list", str(tmp_path)]) == 0
        assert "no campaign run directories" in capsys.readouterr().out

    def test_second_run_into_same_out_points_at_resume(self, tmp_path,
                                                       capsys):
        out = tmp_path / "run"
        assert main(DURABLE_ARGS + ["--out", str(out)]) == 0
        capsys.readouterr()
        assert main(DURABLE_ARGS + ["--out", str(out)]) == 2
        assert f"--resume {out}" in capsys.readouterr().err

    def test_manifest_mismatch_points_at_resume(self, tmp_path, capsys):
        from repro.core.campaign import CampaignManifest
        from repro.core.checkpoint import canonical_json

        out = tmp_path / "run"
        out.mkdir()
        (out / "campaign.manifest").write_text(
            canonical_json(CampaignManifest(seed=1).to_dict()) + "\n")
        assert main(DURABLE_ARGS + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "differs" in err and f"--resume {out}" in err

    def test_workers_zero_means_one_per_cpu(self, tmp_path, capsys,
                                            monkeypatch):
        import os

        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        out = tmp_path / "run"
        assert main(DURABLE_ARGS + ["--out", str(out), "--workers", "0"]) \
            == 0
        manifest = json.loads((out / "campaign.manifest").read_text())
        assert manifest["workers"] == 2


class TestAnonymizedShards:
    """``--anonymize`` and ``--charts`` hold in sharded runs too."""

    @pytest.fixture(scope="class")
    def runs(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("anon")
        for workers in (1, 2):
            assert main(DURABLE_ARGS + [
                "--out", str(root / f"w{workers}"), "--anonymize",
                "--charts", "--shard-workers", str(workers), "--json"]) == 0
        return root

    def test_pcap_addresses_are_anonymized_and_charts_written(self, runs):
        from repro.analysis.dissect import Dissector
        from repro.packets.pcap import PcapReader

        dissector = Dissector()
        sources = set()
        for pcap in sorted((runs / "w2" / "captures").rglob("*.pcap")):
            for record in PcapReader(pcap).read_all():
                ipv4 = dissector.dissect(record.data).first("ipv4")
                if ipv4 is not None:
                    sources.add(ipv4.fields["src"])
        # The testbed numbers endpoints from 10/8; the anonymizer maps
        # that prefix elsewhere.
        assert sources
        assert not any(src.startswith("10.") for src in sources)
        assert list((runs / "w2" / "charts").glob("*.svg"))

    def test_byte_identical_at_one_and_two_shard_workers(self, runs):
        for name in ("journal.jsonl", "records.json"):
            assert (runs / "w1" / name).read_bytes() == \
                (runs / "w2" / name).read_bytes(), name


class TestChaosCommand:
    def test_chaos_smoke_json(self, tmp_path, capsys):
        code = main(["chaos", "--trials", "2", "--seed", "5",
                     "--out", str(tmp_path / "chaos"), "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] and payload["trials"] == 2
        assert (tmp_path / "chaos" / "chaos-report.json").exists()
