"""Crash-safety coverage: WAL recovery, atomic writes, durable campaigns.

The unit half exercises the write-ahead log and checkpoint primitives
directly, including the exact crash windows the atomic-write idiom is
designed around (mid-write, either side of ``os.replace``).  The
campaign half runs real (tiny) campaigns through
:class:`~repro.core.campaign.CampaignRunner` and pins three
deterministic crash points found by fuzzing:

* ``crash_at=10``  -- mid-occasion, sample rows in the WAL (salvage);
* ``crash_at=19``  -- after the occasion-0 checkpoint's ``os.replace``
  but before its WAL commit (the orphan-checkpoint window);
* ``crash_at=22``  -- after occasion 0 committed (resume must skip it).

Every IO op in a seeded campaign is deterministic, so these indices are
stable; if a code change shifts the op sequence, the precondition
asserts below fail with instructions rather than silently testing the
wrong window.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core.campaign import CampaignManifest, CampaignRunner
from repro.core.checkpoint import (
    CHECKPOINT_DIR,
    WAL_NAME,
    CampaignLog,
    CheckpointStore,
    WalCorruptionError,
    describe_run,
    fold_records,
    list_runs,
    read_wal,
)
from repro.testbed.chaos import CrashingIO, default_manifest, run_chaos
from repro.util.atomio import (
    FileIO,
    SimulatedCrash,
    atomic_write_bytes,
    sweep_tmp_files,
)
from repro.util.rng import derive_rng

TINY = default_manifest(7)


# -- WAL primitives ------------------------------------------------------


class TestCampaignLog:
    def test_append_and_reopen_round_trip(self, tmp_path):
        wal = tmp_path / WAL_NAME
        with CampaignLog(wal) as log:
            log.append("campaign-begin", {"seed": 7})
            log.append("occasion-begin", {"occasion": 0}, commit=True)
        with CampaignLog(wal) as log2:
            pass
        records = read_wal(wal)[0]
        assert [(r.seq, r.kind) for r in records] == \
            [(0, "campaign-begin"), (1, "occasion-begin")]
        assert not log2.torn_on_open

    def test_torn_tail_truncated_on_reopen(self, tmp_path):
        wal = tmp_path / WAL_NAME
        with CampaignLog(wal) as log:
            log.append("campaign-begin", {"seed": 7}, commit=True)
        clean_size = wal.stat().st_size
        with open(wal, "ab") as handle:
            handle.write(b'{"seq": 1, "kind": "occ')  # torn mid-append
        log2 = CampaignLog(wal)
        records = log2.open()
        assert log2.torn_on_open
        assert len(records) == 1
        assert wal.stat().st_size == clean_size  # tail gone
        # Appends continue the committed sequence, not the torn one.
        assert log2.append("occasion-begin", {"occasion": 0}).seq == 1
        log2.close()

    def test_torn_tail_with_non_utf8_bytes(self, tmp_path):
        """Bitrot/power loss can tear a line into non-UTF-8 garbage; the
        torn-tail split must count raw bytes (a decoded U+FFFD is 3
        bytes) or reopening truncates into the last committed record."""
        wal = tmp_path / WAL_NAME
        with CampaignLog(wal) as log:
            log.append("campaign-begin", {"seed": 7}, commit=True)
        clean_size = wal.stat().st_size
        with open(wal, "ab") as handle:
            handle.write(b'{"seq": 1, "kind"' + b"\xff\xfe\x80\x80")
        records, torn, valid_bytes = read_wal(wal)
        assert torn
        assert len(records) == 1
        assert valid_bytes == clean_size
        log2 = CampaignLog(wal)
        assert len(log2.open()) == 1
        log2.close()
        assert wal.stat().st_size == clean_size  # committed record intact
        assert read_wal(wal)[0][0].data == {"seed": 7}

    def test_terminated_line_damage_is_fatal(self, tmp_path):
        wal = tmp_path / WAL_NAME
        with CampaignLog(wal) as log:
            log.append("campaign-begin", {"seed": 7})
            log.append("occasion-begin", {"occasion": 0}, commit=True)
        raw = wal.read_bytes()
        # Flip one byte inside the FIRST (terminated) line: no crash can
        # produce this, so recovery must refuse rather than guess.
        wal.write_bytes(raw[:10] + b"X" + raw[11:])
        with pytest.raises(WalCorruptionError):
            CampaignLog(wal).open()

    def test_checksum_catches_payload_tamper(self, tmp_path):
        wal = tmp_path / WAL_NAME
        with CampaignLog(wal) as log:
            log.append("campaign-begin", {"seed": 7}, commit=True)
        line = json.loads(wal.read_text())
        line["data"]["seed"] = 8  # valid JSON, wrong checksum
        wal.write_text(json.dumps(line) + "\n")
        with pytest.raises(WalCorruptionError):
            read_wal(wal)


class TestAtomicWriteCrashWindows:
    def test_crash_mid_write_leaves_target_untouched(self, tmp_path):
        target = tmp_path / "state.json"
        target.write_bytes(b"old")
        io = CrashingIO(1, derive_rng(0, "w"))
        with pytest.raises(SimulatedCrash):
            atomic_write_bytes(target, b"new-state", io=io)
        assert target.read_bytes() == b"old"
        assert sweep_tmp_files(tmp_path) == 1  # partial temp removed

    def test_crash_before_replace_keeps_old_state(self, tmp_path):
        target = tmp_path / "state.json"
        target.write_bytes(b"old")
        io = CrashingIO(3, derive_rng(0, "pre"), mode="pre-replace")
        with pytest.raises(SimulatedCrash):
            atomic_write_bytes(target, b"new-state", io=io)
        assert target.read_bytes() == b"old"
        sweep_tmp_files(tmp_path)
        assert list(tmp_path.iterdir()) == [target]

    def test_crash_after_replace_has_full_new_state(self, tmp_path):
        target = tmp_path / "state.json"
        target.write_bytes(b"old")
        io = CrashingIO(3, derive_rng(0, "post"), mode="post-replace")
        with pytest.raises(SimulatedCrash):
            atomic_write_bytes(target, b"new-state", io=io)
        # The replace completed: old or whole-new, never torn.
        assert target.read_bytes() == b"new-state"


class TestAtomicWriteConcurrentWriters:
    def test_second_writer_of_one_target_does_not_steal_the_temp(self, tmp_path):
        """Two processes writing one target (two shards filling one acap
        cache entry) must each replace their own temp file.  Here the
        other writer runs a whole write between this writer's fsync and
        its replace; with one temp name per target, this replace found
        its temp already renamed away and raised FileNotFoundError."""
        target = tmp_path / "entry.acap"

        class InterleavedIO(FileIO):
            def replace(self, src, dst):
                atomic_write_bytes(dst, b"other writer")
                super().replace(src, dst)

        atomic_write_bytes(target, b"this writer", io=InterleavedIO())
        assert target.read_bytes() == b"this writer"
        assert list(tmp_path.iterdir()) == [target]

    def test_file_mode_is_the_one_open_gives(self, tmp_path):
        with open(tmp_path / "reference", "wb"):
            pass
        atomic_write_bytes(tmp_path / "state.json", b"{}")
        assert ((tmp_path / "state.json").stat().st_mode
                == (tmp_path / "reference").stat().st_mode)

    def test_temp_name_is_swept_after_a_crash(self, tmp_path):
        target = tmp_path / "state.json"
        io = CrashingIO(3, derive_rng(0, "pre"), mode="pre-replace")
        with pytest.raises(SimulatedCrash):
            atomic_write_bytes(target, b"new-state", io=io)
        (orphan,) = tmp_path.iterdir()
        assert orphan.name.startswith(".state.json.")
        assert sweep_tmp_files(tmp_path) == 1
        assert list(tmp_path.iterdir()) == []


class TestCheckpointStore:
    def test_round_trip_and_checksum(self, tmp_path):
        store = CheckpointStore(tmp_path / CHECKPOINT_DIR)
        path, sha = store.save(3, {"occasion": 3, "next_seq": 40})
        assert path.name == "occ0003.ckpt"
        assert store.load(3, expect_sha=sha)["next_seq"] == 40
        with pytest.raises(WalCorruptionError):
            store.load(3, expect_sha="0" * 64)

    def test_sweep_drops_crash_debris(self, tmp_path):
        store = CheckpointStore(tmp_path / CHECKPOINT_DIR)
        store.save(0, {"occasion": 0})
        (store.directory / ".occ0001.ckpt.tmp").write_bytes(b"partial")
        assert store.sweep() == 1
        assert store.path_for(0).exists()


# -- campaigns: crash, resume, oracles -----------------------------------


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    """One uninterrupted tiny campaign: dir + ground-truth digests."""
    from repro.testbed.chaos import run_reference
    run_dir = tmp_path_factory.mktemp("campaign") / "ref"
    digests = run_reference(TINY, run_dir)
    return run_dir, digests


def crash_run(run_dir: Path, crash_at: int, mode=None) -> None:
    io = CrashingIO(crash_at, derive_rng(0, "scan"), mode=mode)
    with pytest.raises(SimulatedCrash):
        CampaignRunner(run_dir, manifest=TINY, io=io).run()


class TestCampaignResume:
    def test_reference_run_is_sound(self, reference):
        run_dir, digests = reference
        assert digests["audit_ok"]
        assert digests["success_rate"] == 1.0
        assert digests["sample_keys"]
        assert (run_dir / "journal.jsonl").exists()

    def test_resume_of_complete_run_is_noop(self, reference):
        run_dir, digests = reference
        summary = CampaignRunner(run_dir).run(resume=True)
        assert summary.noop and summary.resumed
        assert summary.executed == [] and summary.salvaged == []
        assert summary.skipped == list(range(TINY.occasions))
        assert summary.journal_sha256 == digests["journal_sha256"]
        # Twice over: resume is idempotent.
        again = CampaignRunner(run_dir).run(resume=True)
        assert again.noop
        assert again.journal_sha256 == digests["journal_sha256"]

    def test_fresh_start_refuses_existing_wal(self, reference):
        run_dir, _digests = reference
        with pytest.raises(FileExistsError):
            CampaignRunner(run_dir, manifest=TINY).run()

    def test_resume_requires_a_manifest(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            CampaignRunner(tmp_path / "nothing-here").run(resume=True)

    def test_resume_rejects_mismatched_manifest(self, reference):
        run_dir, _digests = reference
        other = CampaignManifest(**{**TINY.to_dict(), "seed": 8})
        with pytest.raises(WalCorruptionError):
            CampaignRunner(run_dir, manifest=other).run(resume=True)

    def test_crash_before_any_occasion_resumes_byte_identical(
            self, reference, tmp_path):
        _ref_dir, digests = reference
        # Op 1 is inside the manifest's own atomic write, so the crash
        # leaves a bare directory; resume needs the manifest re-supplied.
        crash_run(tmp_path, crash_at=1)
        summary = CampaignRunner(tmp_path, manifest=TINY).run(resume=True)
        assert summary.executed == list(range(TINY.occasions))
        assert summary.journal_sha256 == digests["journal_sha256"]
        assert summary.records_sha256 == digests["records_sha256"]

    def test_orphan_checkpoint_is_ignored(self, reference, tmp_path):
        """Crash between the checkpoint's os.replace and its WAL commit:
        the checkpoint file exists but the WAL never acknowledged it.
        Resume must demote it and re-run the occasion."""
        _ref_dir, digests = reference
        crash_run(tmp_path, crash_at=19, mode="post-replace")
        state = fold_records(read_wal(tmp_path / WAL_NAME)[0])
        assert (tmp_path / CHECKPOINT_DIR / "occ0000.ckpt").exists() and \
            0 not in state.committed, \
            "crash_at=19 no longer lands in the orphan window; re-scan " \
            "crash points (see module docstring)"
        summary = CampaignRunner(tmp_path).run(resume=True)
        assert 0 in summary.executed
        assert summary.journal_sha256 == digests["journal_sha256"]

    def test_committed_occasion_skipped_on_resume(self, reference, tmp_path):
        _ref_dir, digests = reference
        crash_run(tmp_path, crash_at=22, mode="post-replace")
        state = fold_records(read_wal(tmp_path / WAL_NAME)[0])
        assert 0 in state.committed and 1 not in state.committed, \
            "crash_at=22 no longer lands after occasion 0's commit; " \
            "re-scan crash points (see module docstring)"
        summary = CampaignRunner(tmp_path).run(resume=True)
        assert summary.skipped == [0]
        assert summary.executed == [1]
        assert summary.journal_sha256 == digests["journal_sha256"]

    @pytest.mark.parametrize("damage", ["delete", "corrupt"])
    def test_damaged_committed_checkpoint_demotes_and_reruns(
            self, reference, tmp_path, damage):
        """A committed occasion whose checkpoint no longer verifies must
        be demoted and re-run (not skipped, not crashed on)."""
        _ref_dir, digests = reference
        crash_run(tmp_path, crash_at=22, mode="post-replace")
        state = fold_records(read_wal(tmp_path / WAL_NAME)[0])
        assert 0 in state.committed, \
            "crash_at=22 no longer lands after occasion 0's commit; " \
            "re-scan crash points (see module docstring)"
        ckpt = tmp_path / CHECKPOINT_DIR / "occ0000.ckpt"
        if damage == "delete":
            ckpt.unlink()
        else:
            ckpt.write_bytes(b'{"tampered": true}\n')
        summary = CampaignRunner(tmp_path).run(resume=True)
        assert summary.executed == list(range(TINY.occasions))
        assert summary.skipped == []
        assert summary.journal_sha256 == digests["journal_sha256"]
        assert summary.records_sha256 == digests["records_sha256"]

    def test_damaged_commit_is_not_salvageable(self, reference, tmp_path):
        """Demoting a failed-verification occasion also drops its WAL
        sample rows: salvage must re-run it, never adopt stale rows."""
        _ref_dir, _digests = reference
        crash_run(tmp_path, crash_at=22, mode="post-replace")
        (tmp_path / CHECKPOINT_DIR / "occ0000.ckpt").unlink()
        summary = CampaignRunner(tmp_path).run(resume=True, salvage=True)
        assert 0 in summary.executed
        assert 0 not in summary.salvaged

    def test_complete_run_detects_damaged_records(self, reference, tmp_path):
        """No-op resume of a complete campaign verifies records.json
        against the campaign-end digest, not just the journal."""
        import shutil

        run_dir, _digests = reference
        copy = tmp_path / "copy"
        shutil.copytree(run_dir, copy)
        (copy / "records.json").write_bytes(b'{"records":[]}\n')
        with pytest.raises(WalCorruptionError, match="records"):
            CampaignRunner(copy).run(resume=True)

    def test_salvage_adopts_samples_as_degraded(self, tmp_path):
        crash_run(tmp_path, crash_at=10)
        state = fold_records(read_wal(tmp_path / WAL_NAME)[0])
        assert state.salvageable(0), \
            "crash_at=10 no longer leaves salvageable sample rows; " \
            "re-scan crash points (see module docstring)"
        summary = CampaignRunner(tmp_path).run(resume=True, salvage=True)
        assert 0 in summary.salvaged
        assert summary.audit_ok
        records = json.loads((tmp_path / "records.json").read_text())
        outcomes = {row["outcome"] for row in records["records"]
                    if row["occasion"] == 0}
        assert "degraded" in outcomes

    def test_describe_and_list_runs(self, reference, tmp_path):
        run_dir, _digests = reference
        info = describe_run(run_dir)
        assert info["state"] == "complete"
        assert info["occasions_committed"] == TINY.occasions
        crash_run(tmp_path / "crashed", crash_at=22, mode="post-replace")
        partial = describe_run(tmp_path / "crashed")
        assert partial["state"] == "resumable"
        assert partial["occasions_committed"] == 1
        runs = list_runs(tmp_path)
        assert [r["path"] for r in runs] == [str(tmp_path / "crashed")]


class TestChaosSmoke:
    def test_small_batch_passes_every_oracle(self, tmp_path):
        report = run_chaos(tmp_path / "chaos", trials=3, seed=3,
                           manifest=TINY)
        assert report.ok, report.render()
        assert report.trials == 3 and report.passed == 3

    def test_failures_keep_their_evidence(self, tmp_path):
        # Passing trials are deleted; the reference always survives.
        run_chaos(tmp_path / "chaos", trials=1, seed=4, manifest=TINY)
        remaining = sorted(p.name for p in (tmp_path / "chaos").iterdir())
        assert remaining == ["reference"]
