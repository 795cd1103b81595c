"""The telemetry tradeoff: latency-to-detect vs telemetry bytes.

The paper's congestion inference leans on SNMP counters polled every
five minutes -- cheap per poll, but a full counter walk of a ~64-port
switch per cycle, and blind until the next poll lands.  The streaming
telemetry subsystem claims both axes can be beaten at once:

* **sketch reports** (the ``egress-load`` query) ship a fixed-size
  count-min summary per window, so evidence arrives at window
  boundaries (seconds);
* **in-band stamps** ride the mirrored clones themselves, so evidence
  arrives the moment a high-occupancy frame reaches the capture host.

This benchmark runs a seeded sweep of sustained overload and clean
workloads through one real switch + mirror + capture world per sample,
judges all three detectors against the identical ledger ground truth
(mirror-egress drops), writes ``BENCH_telemetry.json``, and gates:

* sketch and in-band precision >= 0.9 and recall >= 0.7;
* both strictly beat SNMP-at-5-minute-polls on latency-to-detect;
* both ship fewer telemetry bytes than the full SNMP counter dumps.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.capture.session import CaptureSession
from repro.core.congestion import CongestionDetector
from repro.netsim.engine import Simulator
from repro.netsim.frame import Frame
from repro.obs.ledger import LedgerRecorder, detector_scorecards_from_ledgers
from repro.telemetry.mflib import MFlib
from repro.telemetry.query import (
    EGRESS_LOAD_QUERY,
    InbandCongestionDetector,
    IntStamper,
    QueryRuntime,
    SketchCongestionDetector,
    snmp_reading,
)
from repro.telemetry.snmp import walk_bytes
from repro.telemetry.timeseries import CounterStore
from repro.testbed.nic import DedicatedNIC
from repro.testbed.switch import DOWNLINK, Switch
from repro.util.tables import Table

SEED = 2025
LINE_BPS = 80_000.0  # 10 kB/s mirror destination
FRAME_BYTES = 500
POLL_SECONDS = 300.0       # the paper's SNMP cadence
SAMPLE_SECONDS = 300.0     # one poll cycle of sustained workload
SKETCH_WINDOW = 15.0
SWITCH_PORTS = 64          # a full SNMP walk covers the whole switch
MAC_A = b"\x02\x00\x00\x00\x00\x01"
MAC_B = b"\x02\x00\x00\x00\x00\x02"

# Per-direction load fractions; both directions are mirrored, so the
# cloned stream carries 2x the fraction of the egress line rate.
CONGESTED = (0.55, 0.60, 0.65, 0.70, 0.80, 0.90)    # 1.1x - 1.8x egress
UNCONGESTED = (0.10, 0.15, 0.20, 0.25, 0.30, 0.40)  # 0.2x - 0.8x egress


def run_sample(fraction, jitter):
    """One poll cycle at ``fraction`` of line rate per direction."""
    sim = Simulator()
    # Queue limit is 32 frames deep: the in-band signal rides *surviving*
    # frames only (a stamped clone offered to a full queue is dropped,
    # evidence and all), so the queue must pass through the detector's
    # occupancy band slowly enough for a 1-in-8 stamp to land there.
    switch = Switch(sim, "tor", default_rate_bps=LINE_BPS,
                    queue_limit_bytes=16_000)
    switch.add_port("src", DOWNLINK)
    switch.add_port("dst", DOWNLINK)
    switch.add_port("mir", DOWNLINK)
    for i in range(SWITCH_PORTS - 3):       # idle ports the walk still pays
        switch.add_port(f"idle{i:02d}", DOWNLINK)
    switch.register_mac(MAC_B, "dst")
    switch.register_mac(MAC_A, "src")
    switch.create_mirror("src", "mir")
    switch.int_stamper = IntStamper(stamp_every=8)
    nic_port = DedicatedNIC("dn0").ports[0]
    nic_port.attach(switch.ports["mir"].link, "mir")
    store = CounterStore()
    walks = 0

    def poll():
        nonlocal walks
        walks += 1
        for port_id, counters in switch.port_counters().items():
            for name, value in counters.items():
                store.append("S", port_id, name, sim.now, value)

    def offer(when, port, dst, src):
        sim.schedule_at(when, switch.ports[port].link.rx.offer,
                        Frame(wire_len=FRAME_BYTES,
                              head=dst + src + b"\x08\x00" + b"\x00" * 50))

    reports = []
    runtime = QueryRuntime(sim, "S", seed=SEED, on_report=reports.append,
                           window=SKETCH_WINDOW)
    runtime.install(switch, ("mir",), queries=(EGRESS_LOAD_QUERY,))

    poll()                                       # free-running poll at t=0
    session = CaptureSession(sim, nic_port, None, int_strip=True)
    recorder = LedgerRecorder(switch, "S")
    session.start()
    window = recorder.open(mirrored_port="src", dest_port="mir",
                           method="tcpdump")
    start = sim.now
    runtime.arm(start)
    rate_Bps = (LINE_BPS / 8.0) * fraction * (1.0 + jitter)
    count = int(rate_Bps * SAMPLE_SECONDS / FRAME_BYTES)
    interval = SAMPLE_SECONDS / max(count, 1)
    for i in range(count):
        offer(start + i * interval, "src", MAC_B, MAC_A)
        offer(start + i * interval, "dst", MAC_A, MAC_B)
    sim.schedule_at(start + POLL_SECONDS, poll)  # the next 5-minute poll
    sim.run(until=start + SAMPLE_SECONDS)
    runtime.finalize(sim.now)
    stats = session.stop()
    end = sim.now

    verdict = CongestionDetector(MFlib(store)).check(
        "S", "src", LINE_BPS, start, end)
    detectors = {
        "snmp": snmp_reading(verdict.overloaded, POLL_SECONDS,
                             walk_bytes(SWITCH_PORTS, walks)).to_dict(),
        "sketch": SketchCongestionDetector().check(
            reports, "mir", LINE_BPS, start, end).to_dict(),
        "inband": InbandCongestionDetector().check(
            session.int_stamps, stats.frames_seen, start, end).to_dict(),
    }
    return window.close(stats, verdict=verdict.overloaded,
                        detectors=detectors)


def test_telemetry_tradeoff(tmp_path):
    rng = np.random.default_rng(SEED)
    workloads = [(f, True) for f in CONGESTED] + \
                [(f, False) for f in UNCONGESTED]
    rows = [run_sample(fraction, float(rng.uniform(-0.05, 0.05)))
            for fraction, _expect in workloads]
    cards = detector_scorecards_from_ledgers(rows)

    table = Table(["fraction_per_dir", "truth", "snmp", "sketch", "inband",
                   "sketch_latency", "inband_latency"],
                  title="Three-way detector sweep "
                        f"({len(rows)} seeded samples)")
    for (fraction, _), row in zip(workloads, rows):
        readings = row.detectors
        table.add_row([
            fraction, row.mirror_overloaded_truth,
            readings["snmp"]["overloaded"],
            readings["sketch"]["overloaded"],
            readings["inband"]["overloaded"],
            readings["sketch"]["latency"],
            round(readings["inband"]["latency"], 1)
            if readings["inband"]["latency"] is not None else None,
        ])
    print("\n" + table.render())
    for name in sorted(cards):
        print(cards[name].describe())

    # Every sample conserves exactly -- the scorecard's truth is sound.
    for row in rows:
        assert row.ok, (row.pcap, row.conservation_error())
    snmp, sketch, inband = cards["snmp"], cards["sketch"], cards["inband"]
    for card in (snmp, sketch, inband):
        assert card.samples == len(workloads)
        assert card.unanswerable == 0

    payload = {
        "benchmark": "telemetry-tradeoff",
        "samples": len(rows),
        "line_bps": LINE_BPS,
        "poll_seconds": POLL_SECONDS,
        "sketch_window_seconds": SKETCH_WINDOW,
        "switch_ports": SWITCH_PORTS,
        "seed": SEED,
        "detectors": {name: cards[name].to_dict()
                      for name in sorted(cards)},
    }
    out = Path(__file__).resolve().parent.parent / "BENCH_telemetry.json"
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"\nwrote {out}")

    # Quality gates: both streaming detectors must match the SNMP
    # verdict's classification quality...
    for card in (sketch, inband):
        assert card.precision is not None and card.precision >= 0.9
        assert card.recall is not None and card.recall >= 0.7
    # ...while strictly beating 5-minute polling on latency-to-detect...
    assert snmp.latency_to_detect == POLL_SECONDS
    assert sketch.latency_to_detect < snmp.latency_to_detect
    assert inband.latency_to_detect < snmp.latency_to_detect
    # ...and shipping fewer bytes than the full counter dumps.
    assert sketch.telemetry_bytes < snmp.telemetry_bytes
    assert inband.telemetry_bytes < snmp.telemetry_bytes
