"""Sharded campaign throughput: sites-per-minute, serial vs. sharded.

The tentpole claim of the sharded runner is that per-site shard worlds
are embarrassingly parallel *without* giving up determinism: the same
campaign at ``--shard-workers 4`` must produce byte-identical artifacts
to ``--shard-workers 1`` while finishing materially faster on a
multi-core box.  This benchmark runs an eight-site sweep both ways,
emits ``BENCH_sharding.json`` with the honest sites-per-minute numbers,
and asserts:

* **parity, unconditionally** -- journal, records and every committed
  pcap hash identical at both worker counts, clean conservation audit
  on both;
* **speedup, on capable hardware only** -- the >= 2x sites-per-minute
  gate applies when the host has at least four CPU cores (the CI
  runner's shape).  A single-core container cannot parallelize
  anything; it still proves parity and reports its real numbers.

A ``slow``-marked 32-site sweep (``test_sharding_sweep32``) repeats the
parity run at 4x the fleet size and merges its numbers into the same
JSON under ``sweep32`` -- the scaling trajectory toward the roadmap's
hundreds-of-sites target.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

import pytest

from bench_json import merge_bench
from repro.core.campaign import CampaignManifest, CampaignRunner
from repro.core.checkpoint import committed_pcaps, sha256_file

SITES = ("STAR", "MICH", "UTAH", "TACC", "NCSA", "WASH", "DALL", "SALT")
WORKERS = 4

MANIFEST = CampaignManifest(
    seed=29, sites=SITES, occasions=1, traffic_scale=0.005,
    sample_duration=2.0, sample_interval=10.0, samples_per_run=1,
    runs_per_cycle=1, cycles=1, desired_instances=1, traffic_span=120.0,
    sharded=True)

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_sharding.json"


def _timed_run(run_dir, manifest, shard_workers):
    started = time.perf_counter()
    summary = CampaignRunner(run_dir, manifest=manifest,
                             shard_workers=shard_workers).run()
    elapsed = time.perf_counter() - started
    site_occasions = len(manifest.sites) * manifest.occasions
    return summary, elapsed, 60.0 * site_occasions / elapsed


def test_sharding_throughput(tmp_path):
    # Untimed warmup on one shard world: pay lazy imports once.
    warmup = CampaignManifest(
        seed=29, sites=SITES[:2], occasions=1, traffic_scale=0.005,
        sample_duration=2.0, sample_interval=10.0, samples_per_run=1,
        runs_per_cycle=1, cycles=1, desired_instances=1,
        traffic_span=120.0, sharded=True)
    CampaignRunner(tmp_path / "warmup", manifest=warmup).run()

    serial, t_serial, spm_serial = _timed_run(tmp_path / "serial",
                                              MANIFEST, 1)
    sharded, t_sharded, spm_sharded = _timed_run(tmp_path / "sharded",
                                                 MANIFEST, WORKERS)

    # Parity is the contract and holds on any hardware.
    assert serial.audit_ok and sharded.audit_ok
    assert sha256_file(tmp_path / "serial" / "journal.jsonl") == \
        sha256_file(tmp_path / "sharded" / "journal.jsonl")
    assert serial.records_sha256 == sharded.records_sha256
    assert committed_pcaps(tmp_path / "serial") == \
        committed_pcaps(tmp_path / "sharded")

    cores = os.cpu_count() or 1
    speedup = spm_sharded / spm_serial
    payload = {
        "benchmark": "sharding-throughput",
        "sites": list(SITES),
        "occasions": MANIFEST.occasions,
        "shard_workers": WORKERS,
        "cpu_cores": cores,
        "serial_seconds": round(t_serial, 2),
        "sharded_seconds": round(t_sharded, 2),
        "serial_sites_per_minute": round(spm_serial, 2),
        "sharded_sites_per_minute": round(spm_sharded, 2),
        "speedup": round(speedup, 2),
        "parity": True,
        "seed": MANIFEST.seed,
    }
    merge_bench(BENCH_PATH, "throughput8", payload)
    print(f"\nwrote {BENCH_PATH} [throughput8]: {payload}")

    # The >= 2x gate needs hardware that can actually run four shard
    # worlds at once; a 1-core container proves parity only.
    if cores >= 4:
        assert speedup >= 2.0, (
            f"sharded run managed only {speedup:.2f}x sites-per-minute "
            f"over serial on {cores} cores")


@pytest.mark.slow
def test_sharding_sweep32(tmp_path):
    """32-site sweep: a step toward the hundreds-of-sites target.

    Four times the standard benchmark's fleet through the same sharded
    runner, still under the unconditional parity contract: the merged
    journal, records and pcaps must hash identical at 1 and 4 workers.  The
    honest sites-per-minute numbers land in BENCH_sharding.json under
    ``sweep32`` so the scaling trajectory (8 -> 32 -> ...) is recorded
    next to the standard benchmark, not instead of it.
    """
    sites32 = tuple(f"S{i:02d}" for i in range(32))
    manifest = CampaignManifest(
        seed=29, sites=sites32, occasions=1, traffic_scale=0.005,
        sample_duration=2.0, sample_interval=10.0, samples_per_run=1,
        runs_per_cycle=1, cycles=1, desired_instances=1,
        traffic_span=120.0, sharded=True)

    serial, t_serial, spm_serial = _timed_run(tmp_path / "serial",
                                              manifest, 1)
    sharded, t_sharded, spm_sharded = _timed_run(tmp_path / "sharded",
                                                 manifest, WORKERS)

    assert serial.audit_ok and sharded.audit_ok
    assert sha256_file(tmp_path / "serial" / "journal.jsonl") == \
        sha256_file(tmp_path / "sharded" / "journal.jsonl")
    assert serial.records_sha256 == sharded.records_sha256
    assert committed_pcaps(tmp_path / "serial") == \
        committed_pcaps(tmp_path / "sharded")

    cores = os.cpu_count() or 1
    payload = {
        "sites": len(sites32),
        "occasions": manifest.occasions,
        "shard_workers": WORKERS,
        "cpu_cores": cores,
        "serial_seconds": round(t_serial, 2),
        "sharded_seconds": round(t_sharded, 2),
        "serial_sites_per_minute": round(spm_serial, 2),
        "sharded_sites_per_minute": round(spm_sharded, 2),
        "speedup": round(spm_sharded / spm_serial, 2),
        "parity": True,
        "seed": manifest.seed,
    }
    merge_bench(BENCH_PATH, "sweep32", payload)
    print(f"\nwrote {BENCH_PATH} [sweep32]: {payload}")
