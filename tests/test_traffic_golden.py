"""Golden output of a small fixed-seed campaign.

Pins the sha256 of the journal, ``records.json`` and the pcap set of a
four-site sharded campaign (one ``chatty``, one ``mixed`` and two
``bulk`` sites at seed 19) whose traffic span reaches the capture
sample, so every captured frame head is part of the pin.  A change to
how flows or frames are generated that is meant to be output-neutral
must leave these hashes alone.

The campaign runs in a fresh interpreter: flow ids come from a
process-global counter and become ICMP echo identifiers, so a second
campaign in the same process writes different pcap bytes.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

CAMPAIGN = """
import hashlib, json, sys
from pathlib import Path
from repro.core.campaign import CampaignManifest, CampaignRunner
from repro.core.checkpoint import sha256_file

out = Path(sys.argv[1])
manifest = CampaignManifest(
    seed=19, sites=("STAR", "MICH", "UTAH", "TACC"), occasions=1,
    traffic_scale=0.02, traffic_span=40.0, sharded=True,
    sample_duration=2.0, sample_interval=10.0, samples_per_run=1,
    runs_per_cycle=1, cycles=1, desired_instances=1, cache_enabled=False)
summary = CampaignRunner(out, manifest=manifest, shard_workers=1).run()
pcaps = sorted((out / "captures").rglob("*.pcap"))
listing = "".join(f"{p.relative_to(out)} {sha256_file(p)}\\n" for p in pcaps)
print(json.dumps({
    "audit_ok": bool(summary.audit_ok),
    "journal": sha256_file(out / "journal.jsonl"),
    "records": sha256_file(out / "records.json"),
    "pcap_set": hashlib.sha256(listing.encode()).hexdigest(),
    "pcap_bytes": sum(p.stat().st_size for p in pcaps),
}))
"""

GOLDEN = {
    "audit_ok": True,
    "journal": "6e1caf2daa4b5d66c021e7b52dca76965d8ed3fa5dff3fc9759ff5f612d50f4b",
    "records": "5c210ab79be4ba0191af773e1506f4b65b9b7af9b7ddcc3fefa04f5a560581f1",
    "pcap_set": "ca8dfd376536b3c27f8d970ac7abf47afb1b6bf14d77f9164467fc0e2c9e1968",
    "pcap_bytes": 577514,
}


def test_fixed_seed_campaign_outputs_are_pinned(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    result = subprocess.run(
        [sys.executable, "-c", CAMPAIGN, str(tmp_path / "run")],
        cwd=REPO, env=env, capture_output=True, text=True, timeout=600)
    assert result.returncode == 0, result.stderr
    outputs = json.loads(result.stdout.strip().splitlines()[-1])
    assert outputs == GOLDEN
