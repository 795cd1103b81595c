"""Sharded campaign execution: parity, shard-commit reuse, fold units.

The tentpole claim is byte-identity: a sharded campaign produces the
same canonical journal, records, pcaps and clean audit at *any* worker
count, and after a crash and resume in the same process, because every
shard world is seeded from ``(campaign seed, site label)``, draws its
ids from its own world, and the per-site segments merge
deterministically by ``(sim_time, site, seq)``.  The heavy tests here prove it on the tiny
two-site chaos manifest; the unit half pins the WAL shard-commit
protocol that lets a crashed shard resume without re-running verified
sites.
"""

from __future__ import annotations

import json
from types import SimpleNamespace
from typing import BinaryIO

import pytest

from repro.core.campaign import SEGMENT_DIR, CampaignRunner
from repro.core.checkpoint import (
    WalRecord,
    committed_pcaps,
    fold_records,
    read_wal,
    sha256_file,
)
from repro.testbed.chaos import CrashingIO, default_manifest
from repro.util.atomio import FileIO, SimulatedCrash
from repro.util.rng import derive_rng

TINY_SHARDED = default_manifest(7, sharded=True)


class RecordingIO(FileIO):
    """A FileIO that notes the op index of every shard-commit append,
    so crash tests can target the window right after one lands."""

    def __init__(self) -> None:
        super().__init__()
        self.shard_commit_ops = []

    def write(self, handle: BinaryIO, data: bytes) -> int:
        if b'"shard-commit"' in data:
            self.shard_commit_ops.append(self.ops + 1)
        return super().write(handle, data)


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    """One uninterrupted sharded run (workers=1): the parity baseline."""
    run_dir = tmp_path_factory.mktemp("sharded") / "reference"
    io = RecordingIO()
    runner = CampaignRunner(run_dir, manifest=TINY_SHARDED, io=io,
                            shard_workers=1)
    summary = runner.run()
    return SimpleNamespace(run_dir=run_dir, summary=summary, io=io)


@pytest.mark.slow
class TestShardedParity:
    def test_reference_run_is_sound(self, reference):
        assert reference.summary.audit_ok
        assert reference.summary.success_rate == 1.0
        manifest = json.loads(
            (reference.run_dir / "campaign.manifest").read_text())
        assert manifest["sharded"] is True
        for occasion in range(TINY_SHARDED.occasions):
            shard_dir = (reference.run_dir / SEGMENT_DIR /
                         f"occ{occasion:04d}.shards")
            assert sorted(p.name for p in shard_dir.glob("*.jsonl")) == \
                [f"{site}.jsonl" for site in sorted(TINY_SHARDED.sites)]
        assert committed_pcaps(reference.run_dir), "no committed pcap"

    def test_two_workers_byte_identical_to_one(self, reference, tmp_path):
        runner = CampaignRunner(tmp_path / "run", manifest=TINY_SHARDED,
                                shard_workers=2)
        summary = runner.run()
        assert summary.audit_ok
        assert sha256_file(tmp_path / "run" / "journal.jsonl") == \
            sha256_file(reference.run_dir / "journal.jsonl")
        assert summary.records_sha256 == reference.summary.records_sha256
        assert committed_pcaps(tmp_path / "run") == \
            committed_pcaps(reference.run_dir)

    def test_shard_commits_are_per_site_per_occasion(self, reference):
        records, torn, _ = read_wal(reference.run_dir / "campaign.wal")
        assert not torn
        commits = [r.data for r in records if r.kind == "shard-commit"]
        keys = [(row["occasion"], row["site"]) for row in commits]
        assert sorted(keys) == sorted(
            (occ, site) for occ in range(TINY_SHARDED.occasions)
            for site in TINY_SHARDED.sites)


@pytest.mark.slow
class TestShardCrashResume:
    def test_resume_reuses_committed_shard(self, reference, tmp_path):
        """Crash right after the first shard-commit lands: resume must
        reuse that shard (no second commit for its site) and still end
        byte-identical to the uninterrupted run."""
        assert reference.io.shard_commit_ops, \
            "reference run recorded no shard-commit writes"
        # +1 skips the commit's own fsync, so the record is durable.
        crash_at = reference.io.shard_commit_ops[0] + 2
        run_dir = tmp_path / "run"
        crashing = CrashingIO(crash_at, derive_rng(11, "shard-crash"))
        with pytest.raises(SimulatedCrash):
            CampaignRunner(run_dir, manifest=TINY_SHARDED, io=crashing,
                           shard_workers=1).run()
        # Precondition: exactly one shard survived into the WAL.
        records, torn, _ = read_wal(run_dir / "campaign.wal")
        state = fold_records(records, torn=torn)
        assert sum(len(sites) for sites in state.shards.values()) == 1
        (committed_site,) = state.shards[0]

        summary = CampaignRunner(run_dir, manifest=TINY_SHARDED,
                                 shard_workers=1).run(resume=True)
        assert summary.audit_ok
        assert sha256_file(run_dir / "journal.jsonl") == \
            sha256_file(reference.run_dir / "journal.jsonl")
        assert summary.records_sha256 == reference.summary.records_sha256
        assert committed_pcaps(run_dir) == committed_pcaps(reference.run_dir)
        # The pre-crash shard was verified and reused, not re-run: the
        # WAL holds exactly one commit for that (occasion, site).
        records, _, _ = read_wal(run_dir / "campaign.wal")
        keys = [(r.data["occasion"], r.data["site"])
                for r in records if r.kind == "shard-commit"]
        assert keys.count((0, committed_site)) == 1
        assert sorted(keys) == sorted(
            (occ, site) for occ in range(TINY_SHARDED.occasions)
            for site in TINY_SHARDED.sites)

    @pytest.mark.parametrize("damage", ["segment-deleted", "pcap-truncated"])
    def test_damaged_shard_segment_is_rerun(self, reference, tmp_path, damage):
        """A shard whose segment file was lost, or one of whose pcaps was
        truncated, after its commit fails verification on resume and is
        re-run, not trusted."""
        crash_at = reference.io.shard_commit_ops[0] + 2
        run_dir = tmp_path / "run"
        crashing = CrashingIO(crash_at, derive_rng(13, "shard-damage"))
        with pytest.raises(SimulatedCrash):
            CampaignRunner(run_dir, manifest=TINY_SHARDED, io=crashing,
                           shard_workers=1).run()
        records, torn, _ = read_wal(run_dir / "campaign.wal")
        (damaged_site, commit), = \
            fold_records(records, torn=torn).shards[0].items()
        if damage == "segment-deleted":
            for segment in (run_dir / SEGMENT_DIR).glob("occ*.shards/*.jsonl"):
                segment.unlink()
        else:
            assert commit["pcaps"], "the committed shard names no pcap"
            pcap = run_dir / sorted(commit["pcaps"])[0]
            data = pcap.read_bytes()
            pcap.write_bytes(data[:len(data) // 2])
        summary = CampaignRunner(run_dir, manifest=TINY_SHARDED,
                                 shard_workers=1).run(resume=True)
        assert summary.audit_ok
        assert sha256_file(run_dir / "journal.jsonl") == \
            sha256_file(reference.run_dir / "journal.jsonl")
        assert summary.records_sha256 == reference.summary.records_sha256
        assert committed_pcaps(run_dir) == committed_pcaps(reference.run_dir)
        # The damaged shard was re-run: a second commit for its site.
        records, _, _ = read_wal(run_dir / "campaign.wal")
        keys = [(r.data["occasion"], r.data["site"])
                for r in records if r.kind == "shard-commit"]
        assert keys.count((0, damaged_site)) == 2


class TestShardFoldUnits:
    """WAL-level semantics of the shard-commit record, no campaign."""

    @staticmethod
    def _record(seq, kind, data):
        return WalRecord(seq=seq, kind=kind, data=data)

    def test_fold_indexes_shard_commits_by_occasion_and_site(self):
        state = fold_records([
            self._record(0, "occasion-begin", {"occasion": 0}),
            self._record(1, "shard-commit",
                         {"occasion": 0, "site": "STAR", "samples": []}),
            self._record(2, "shard-commit",
                         {"occasion": 0, "site": "MICH", "samples": []}),
        ])
        assert set(state.shards[0]) == {"STAR", "MICH"}

    def test_occasion_begin_does_not_reset_shards(self):
        """A resume re-begins the occasion; verified shard commits must
        survive that (they are keyed to seeds begin_occasion checks)."""
        state = fold_records([
            self._record(0, "occasion-begin", {"occasion": 0}),
            self._record(1, "shard-commit",
                         {"occasion": 0, "site": "STAR", "samples": []}),
            self._record(2, "occasion-begin", {"occasion": 0}),
        ])
        assert "STAR" in state.shards[0]

    def test_salvageable_includes_shard_sample_rows(self):
        rows = [{"occasion": 0, "site": "STAR", "sample": 0, "pcap": "a"}]
        state = fold_records([
            self._record(0, "occasion-begin", {"occasion": 0}),
            self._record(1, "shard-commit",
                         {"occasion": 0, "site": "STAR", "samples": rows}),
        ])
        assert state.salvageable(0) == rows

    def test_salvageable_merges_wal_rows_and_shard_rows(self):
        wal_row = {"occasion": 0, "site": "MICH", "sample": 0, "pcap": "m"}
        shard_row = {"occasion": 0, "site": "STAR", "sample": 0, "pcap": "s"}
        state = fold_records([
            self._record(0, "occasion-begin", {"occasion": 0}),
            self._record(1, "sample", wal_row),
            self._record(2, "shard-commit",
                         {"occasion": 0, "site": "STAR",
                          "samples": [shard_row]}),
        ])
        assert state.salvageable(0) == [wal_row, shard_row]

    def test_committed_occasion_has_nothing_to_salvage(self):
        state = fold_records([
            self._record(0, "occasion-begin", {"occasion": 0}),
            self._record(1, "shard-commit",
                         {"occasion": 0, "site": "STAR",
                          "samples": [{"sample": 0}]}),
            self._record(2, "occasion-commit", {"occasion": 0}),
        ])
        assert state.salvageable(0) == []


class TestShardCompanion:
    def test_target_site_sends_remote_flows_to_the_companion(self):
        """The companion in a shard world is not inert: the target's
        remote flows pick their far end among its endpoints, so a
        one-site shard world would generate different traffic."""
        from repro import quickstart_federation

        sites = list(TINY_SHARDED.sites)
        site, companion = sites[0], sites[1]
        seeds = TINY_SHARDED.shard_seeds(0, site)
        _fed, _api, _poller, orchestrator = quickstart_federation(
            site_names=[site, companion], seed=seeds["world"],
            traffic_seed=seeds["traffic"],
            traffic_scale=TINY_SHARDED.traffic_scale)
        flows = orchestrator.generate_window(0.0, 120.0, sites=[site])
        assert flows
        assert all(flow.src.site == site for flow in flows)
        assert any(flow.dst.site == companion for flow in flows)


class TestShardHashing:
    def test_each_committed_pcap_is_hashed_once(self, tmp_path, monkeypatch):
        """A shard hashes each pcap once, for its sample row when the
        sample ends; the commit map reuses that hash."""
        import dataclasses
        from collections import Counter
        from pathlib import Path

        from repro.core import checkpoint, sharding

        real = checkpoint.sha256_file
        calls = Counter()

        def counting(path):
            calls[Path(path).resolve()] += 1
            return real(path)

        monkeypatch.setattr(checkpoint, "sha256_file", counting)
        monkeypatch.setattr(sharding, "sha256_file", counting)
        manifest = dataclasses.replace(TINY_SHARDED, cache_enabled=False)
        site = manifest.sites[0]
        result = sharding.run_shard(sharding.shard_task(
            manifest, 0, tmp_path, site, manifest.shard_seeds(0, site)))
        assert result["pcaps"], "the shard committed no pcap"
        for rel, sha in result["pcaps"].items():
            path = (tmp_path / rel).resolve()
            assert calls[path] == 1, rel
            assert sha == real(path)
        assert {row["pcap"]: row["pcap_sha256"]
                for row in result["samples"]} == result["pcaps"]
