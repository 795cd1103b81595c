"""The acap cache never reaches a campaign's output.

A campaign digests its pcaps through ``<run dir>/acap-cache``.  Whether
that cache is on or off, cold or filled by an earlier identical run, and
whatever the shard worker count, ``journal.jsonl``, ``records.json``,
the committed pcaps and ``metrics.prom`` must be byte-identical.
"""

from __future__ import annotations

import shutil

from repro.cli import _profile_outputs
from repro.core.campaign import CampaignManifest, CampaignRunner
from repro.core.checkpoint import committed_pcaps

PLAN = dict(occasions=1, sample_duration=2.0, sample_interval=10.0,
            samples_per_run=1, runs_per_cycle=1, cycles=1,
            desired_instances=1, sharded=True)

# Half a second of traffic ends long before the capture samples, so
# every shard captures the same 24-byte empty pcaps (the straggler
# workload's quiet sites do the same): identical bytes in different
# shards, and twice within each shard.
QUIET = CampaignManifest(seed=5, sites=("STAR", "MICH", "UTAH", "TACC"),
                         traffic_scale=0.005, traffic_span=0.5, **PLAN)

# Traffic that reaches the samples: pcaps of different sizes.
BUSY = CampaignManifest(seed=19, sites=("STAR", "MICH"), traffic_scale=0.02,
                        traffic_span=40.0, **PLAN)

OUTPUTS = ("journal.jsonl", "records.json", "metrics.prom")


def run(run_dir, manifest, shard_workers):
    """Run ``manifest`` into ``run_dir`` as ``repro profile`` does, and
    return its outputs: the files above and every committed pcap."""
    runner = CampaignRunner(run_dir, manifest=manifest,
                            shard_workers=shard_workers)
    assert runner.run().audit_ok
    _profile_outputs(runner, charts=False)
    outputs = {name: (run_dir / name).read_bytes() for name in OUTPUTS}
    outputs.update({rel: (run_dir / rel).read_bytes()
                    for rel in committed_pcaps(run_dir)})
    return outputs


def cache_entries(run_dir):
    cache = run_dir / "acap-cache"
    return sorted(str(p.relative_to(cache)) for p in cache.rglob("*.acap"))


def test_identical_empty_pcaps_give_the_same_output_in_every_cache_state(
        tmp_path):
    on_w1 = run(tmp_path / "on-w1", QUIET, 1)
    pcaps = [data for name, data in on_w1.items() if name.endswith(".pcap")]
    assert len(pcaps) == 2 * len(QUIET.sites)
    assert len(set(pcaps)) == 1 and len(pcaps[0]) == 24
    assert run(tmp_path / "on-w2", QUIET, 2) == on_w1
    off = CampaignManifest.from_dict({**QUIET.to_dict(),
                                      "cache_enabled": False})
    assert run(tmp_path / "off", off, 2) == on_w1
    # One pcap content, so one entry, however many shards wrote it.
    assert len(cache_entries(tmp_path / "on-w1")) == 1
    assert cache_entries(tmp_path / "on-w2") == cache_entries(tmp_path / "on-w1")
    assert not (tmp_path / "off" / "acap-cache").exists()


def test_a_run_into_a_filled_cache_writes_nothing_and_changes_nothing(
        tmp_path):
    first = run(tmp_path / "first", BUSY, 1)
    entries = cache_entries(tmp_path / "first")
    assert len(entries) == len([n for n in first if n.endswith(".pcap")])
    shutil.copytree(tmp_path / "first" / "acap-cache",
                    tmp_path / "second" / "acap-cache")
    assert run(tmp_path / "second", BUSY, 2) == first
    assert cache_entries(tmp_path / "second") == entries


# The CI smoke run's `repro profile` arguments.
SMOKE_ARGS = ["--sites", "STAR", "MICH", "--scale", "0.02",
              "--sample-duration", "2", "--sample-interval", "10",
              "--samples", "1", "--cycles", "1", "--instances", "1"]


def test_profile_report_looks_pcaps_up_by_their_committed_hash(
        tmp_path, monkeypatch, capsys):
    """`repro profile` hashes each pcap twice: for its WAL sample row,
    and for the acap-cache lookup of the occasion that captured it.
    The final report looks each one up by the committed hash and hashes
    none."""
    from repro import cli
    from repro.analysis.cache import AcapCache
    from repro.core import campaign, checkpoint, sharding

    hashed = []     # (where, what, bytes) per sha256_file / key_for call
    phase = ["campaign"]
    sha256_file, key_for = checkpoint.sha256_file, AcapCache.key_for

    def counting_file(path):
        hashed.append((phase[0], str(path), (tmp_path / path).stat().st_size))
        return sha256_file(path)

    def counting_key(data):
        hashed.append((phase[0], "key_for", len(data)))
        return key_for(data)

    def report(*args, **kwargs):
        phase[0] = "report"
        return profile_outputs(*args, **kwargs)

    for module in (checkpoint, sharding, campaign):
        monkeypatch.setattr(module, "sha256_file", counting_file)
    monkeypatch.setattr(AcapCache, "key_for", staticmethod(counting_key))
    profile_outputs = cli._profile_outputs
    monkeypatch.setattr(cli, "_profile_outputs", report)
    run_dir = tmp_path / "run"
    assert cli.main(["profile", *SMOKE_ARGS, "--out", str(run_dir)]) == 0
    capsys.readouterr()

    pcaps = {str(run_dir / rel): (run_dir / rel).stat().st_size
             for rel in committed_pcaps(run_dir)}
    assert len(pcaps) == 4
    assert [call for call in hashed if call[0] == "report"] == []
    by_path = [size for _, what, size in hashed if what in pcaps]
    by_key = [size for _, what, size in hashed if what == "key_for"]
    assert sorted(by_path) == sorted(by_key) == sorted(pcaps.values())
