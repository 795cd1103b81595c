"""Golden output of small fixed-seed campaigns.

Pins the sha256 of the journal, ``records.json`` and the pcap set of a
four-site sharded campaign (one ``chatty``, one ``mixed`` and two
``bulk`` sites at seed 19) whose traffic span reaches the capture
sample, so every captured frame head is part of the pin.  A second pin
covers the unsharded path: the same sites as one world over two
occasions.  A third pins ``repro profile`` with no mode flags: a
one-occasion unsharded campaign whose CLI also writes the report CSVs
and ``metrics.prom`` into the run directory.  A change to how flows or frames
are generated, or to how the event loop orders them, that is meant to
be output-neutral must leave these hashes alone.

Ids come from the world that uses them (flow ids, which become ICMP
echo identifiers, are counted per world), so the pcap bytes depend only
on the seed.  Each campaign therefore runs twice in this one warm test
process, and the sharded one once more at two shard workers; every run
must equal the pin.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

from repro.core.campaign import CampaignManifest, CampaignRunner
from repro.core.checkpoint import sha256_file
from repro.netsim.engine import Event, Simulator

REPO = Path(__file__).resolve().parents[1]

BASE = {
    "seed": 19, "sites": ("STAR", "MICH", "UTAH", "TACC"),
    "traffic_scale": 0.02, "traffic_span": 40.0,
    "sample_duration": 2.0, "sample_interval": 10.0, "samples_per_run": 1,
    "runs_per_cycle": 1, "cycles": 1, "desired_instances": 1,
    "cache_enabled": False,
}

SHARDED = {"sharded": True, "occasions": 1}
GOLDEN = {
    "audit_ok": True,
    "journal": "c79cb981541b1c55ad45ba450527e1879491f8df5091afb7eac55029c2cdc515",
    "records": "5c210ab79be4ba0191af773e1506f4b65b9b7af9b7ddcc3fefa04f5a560581f1",
    "pcap_set": "d20869947b1ab3cc5649617b769a395320db0c0559593000bbeb862a3edccccb",
    "pcap_bytes": 577514,
}


# The unsharded path (one ``run_world`` over every site) with a durable
# WAL commit per occasion.  One world runs every site's setup, so it
# needs a longer traffic span than the shards for the capture samples
# to see traffic.
SERIAL = {"sharded": False, "occasions": 2, "traffic_span": 120.0}
GOLDEN_SERIAL = {
    "audit_ok": True,
    "journal": "c87abcd72d9a34dd3e18d736f0d38a473eb064c02c0954da68d444ae0bb238c0",
    "records": "a7113386a54f3e6cbd77a00d23a28b6ac714aa8472e5e4b68498991be419049a",
    "pcap_set": "c54c4744ce4de381e895e273045fe80d0cc498ede0a8dbecf6b81380500e127f",
    "pcap_bytes": 965760,
}


# ``repro profile`` with the arguments of the CI smoke run: a
# one-occasion campaign, so its seeds come from
# ``CampaignManifest.occasion_seeds`` and its pcaps land under
# ``captures/<site>/`` with the ``o0_`` prefix.  ``metrics.prom`` is
# rendered from the journal's last metrics snapshot, so it is pinned
# too.
PROFILE_ARGS = ["--sites", "STAR", "MICH", "--scale", "0.02",
                "--sample-duration", "2", "--sample-interval", "10",
                "--samples", "1", "--cycles", "1", "--instances", "1"]
GOLDEN_PROFILE = {
    "journal": "bc71cf3583f4f3c1daeb668118f462bd2ef1eb6c3980bf33c589cfca58160ff6",
    "pcap_set": "619e23a3db9c86aecc703e6c6c62728a485a1d61e9f978ef448004e3ed7f64cf",
    "pcap_bytes": 1210224,
    "csv_set": "aec1cf5d9201e8d1692db23fb166558b813762d5703b789ca3bc9edf81bdb502",
    "metrics": "db423ace65f81ef22f00fb835c3b092fedecefb0e345806e50935da71d4eb541",
}


def _listing_sha(root, paths):
    listing = "".join(f"{p.relative_to(root)} {sha256_file(p)}\n"
                      for p in paths)
    return hashlib.sha256(listing.encode()).hexdigest()


def _python(*args):
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    result = subprocess.run([sys.executable, *args], cwd=REPO, env=env,
                            capture_output=True, text=True, timeout=600)
    assert result.returncode == 0, result.stderr
    return result.stdout


def _profile_outputs(out):
    _python("-m", "repro.cli", "profile", *PROFILE_ARGS, "--out", str(out),
            "--json")
    pcaps = sorted(out.rglob("*.pcap"))
    return {
        "journal": sha256_file(out / "journal.jsonl"),
        "pcap_set": _listing_sha(out, pcaps),
        "pcap_bytes": sum(p.stat().st_size for p in pcaps),
        "csv_set": _listing_sha(out, sorted((out / "csv").glob("*.csv"))),
        "metrics": sha256_file(out / "metrics.prom"),
    }


def _campaign_outputs(run_dir, manifest_kwargs, shard_workers=1):
    manifest = CampaignManifest(**{**BASE, **manifest_kwargs})
    summary = CampaignRunner(run_dir, manifest=manifest,
                             shard_workers=shard_workers).run()
    pcaps = sorted((run_dir / "captures").rglob("*.pcap"))
    return {
        "audit_ok": bool(summary.audit_ok),
        "journal": sha256_file(run_dir / "journal.jsonl"),
        "records": sha256_file(run_dir / "records.json"),
        "pcap_set": _listing_sha(run_dir, pcaps),
        "pcap_bytes": sum(p.stat().st_size for p in pcaps),
    }


def test_fixed_seed_campaign_outputs_are_pinned(tmp_path):
    for i, workers in enumerate((1, 1, 2)):
        assert _campaign_outputs(tmp_path / f"run{i}", SHARDED,
                                 workers) == GOLDEN, (i, workers)


def test_serial_campaign_outputs_are_pinned(tmp_path):
    for i in range(2):
        assert _campaign_outputs(tmp_path / f"run{i}",
                                 SERIAL) == GOLDEN_SERIAL, i


def test_plain_profile_outputs_are_pinned(tmp_path):
    assert _profile_outputs(tmp_path / "out") == GOLDEN_PROFILE


def test_heap_entries_order_without_python_comparisons():
    # The golden hashes hold whatever the heap's mechanism; this pins
    # the mechanism.  Entries are (time, seq, event) with a unique seq,
    # so heapq orders them in C and never compares two events.
    sim = Simulator()
    for delay in (2.0, 1.0, 1.0, 0.0):
        sim.schedule(delay, lambda: None)
    sim.schedule_at(3.0, lambda: None)
    assert sim._heap
    for entry in sim._heap:
        assert type(entry) is tuple and len(entry) == 3
        time, seq, event = entry
        assert type(time) is float and type(seq) is int
        assert isinstance(event, Event)
        assert (event.time, event.seq) == (time, seq)
    for name in ("__lt__", "__le__", "__gt__", "__ge__"):
        assert name not in vars(Event), name
