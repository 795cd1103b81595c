"""Detector quality: the SNMP congestion verdict vs ledger ground truth.

The paper's congestion detection (Section 6.2.2) infers mirror-egress
overload from polled counters alone: Mirrored(Tx) + Mirrored(Rx) above
the destination line rate.  The conservation ledger gives us what the
real system never had -- per-sample ground truth (did the mirror egress
actually drop frames?) -- so the inference can be judged like a
classifier.  This benchmark runs a seeded sweep of congested and
uncongested workloads through a real switch + NIC + capture session,
scores every verdict against ledger truth, and gates on
precision >= 0.9 and recall >= 0.7.
"""

import numpy as np

from repro.capture.session import CaptureSession
from repro.core.congestion import CongestionDetector
from repro.netsim.engine import Simulator
from repro.netsim.frame import Frame
from repro.obs.ledger import LedgerRecorder, scorecard_from_ledgers
from repro.telemetry.mflib import MFlib
from repro.telemetry.timeseries import CounterStore
from repro.testbed.nic import DedicatedNIC
from repro.testbed.switch import DOWNLINK, Switch
from repro.util.tables import Table

SEED = 2024
LINE_BPS = 80_000.0  # 10 kB/s mirror destination
FRAME_BYTES = 500
SAMPLE_SECONDS = 20.0
MAC_A = b"\x02\x00\x00\x00\x00\x01"
MAC_B = b"\x02\x00\x00\x00\x00\x02"

# Per-direction load fractions; both directions are mirrored, so the
# cloned stream carries 2x the fraction of the egress line rate.
CONGESTED = (0.55, 0.60, 0.65, 0.70, 0.80, 0.90)    # 1.1x - 1.8x egress
UNCONGESTED = (0.10, 0.15, 0.20, 0.25, 0.30, 0.40)  # 0.2x - 0.8x egress


def run_sample(fraction, jitter):
    """One capture window at ``fraction`` of line rate per direction."""
    sim = Simulator()
    switch = Switch(sim, "tor", default_rate_bps=LINE_BPS,
                    queue_limit_bytes=4000)
    switch.add_port("src", DOWNLINK)
    switch.add_port("dst", DOWNLINK)
    switch.add_port("mir", DOWNLINK)
    switch.register_mac(MAC_B, "dst")
    switch.register_mac(MAC_A, "src")
    switch.create_mirror("src", "mir")
    nic_port = DedicatedNIC("dn0").ports[0]
    nic_port.attach(switch.ports["mir"].link, "mir")
    store = CounterStore()

    def poll():
        for port_id, counters in switch.port_counters().items():
            for name, value in counters.items():
                store.append("S", port_id, name, sim.now, value)

    def offer(when, port, dst, src):
        sim.schedule_at(when, switch.ports[port].link.rx.offer,
                        Frame(wire_len=FRAME_BYTES,
                              head=dst + src + b"\x08\x00" + b"\x00" * 50))

    poll()
    session = CaptureSession(sim, nic_port, None)
    recorder = LedgerRecorder(switch, "S")
    session.start()
    window = recorder.open(mirrored_port="src", dest_port="mir",
                           method="tcpdump")
    start = sim.now
    rate_Bps = (LINE_BPS / 8.0) * fraction * (1.0 + jitter)
    count = int(rate_Bps * SAMPLE_SECONDS / FRAME_BYTES)
    interval = SAMPLE_SECONDS / max(count, 1)
    for i in range(count):
        offer(start + i * interval, "src", MAC_B, MAC_A)
        offer(start + i * interval, "dst", MAC_A, MAC_B)
    sim.run(until=start + SAMPLE_SECONDS)
    poll()
    stats = session.stop()
    verdict = CongestionDetector(MFlib(store)).check(
        "S", "src", LINE_BPS, start, sim.now)
    return window.close(stats, verdict=verdict.overloaded)


def test_congestion_detector_scorecard(benchmark):
    rng = np.random.default_rng(SEED)
    workloads = [(f, True) for f in CONGESTED] + \
                [(f, False) for f in UNCONGESTED]

    def run():
        rows = []
        for fraction, _expect in workloads:
            jitter = float(rng.uniform(-0.05, 0.05))
            rows.append(run_sample(fraction, jitter))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    card = scorecard_from_ledgers(rows)

    table = Table(["fraction_per_dir", "generated", "captured",
                   "mirror_egress_drops", "verdict", "truth"],
                  title="Congestion-detector sweep "
                        f"({len(rows)} seeded samples)")
    for (fraction, _), row in zip(workloads, rows):
        table.add_row([fraction, row.generated, row.captured,
                       row.drops["mirror-egress"], row.verdict_overloaded,
                       row.mirror_overloaded_truth])
    print("\n" + table.render())
    confusion = Table(["", "truth_overloaded", "truth_clean"],
                      title="Confusion matrix")
    confusion.add_row(["verdict_overloaded", card.tp, card.fp])
    confusion.add_row(["verdict_clean", card.fn, card.tn])
    print("\n" + confusion.render())
    print(f"\n{card.describe()}")

    # Every sample conserves exactly -- the scorecard's truth is sound.
    for row in rows:
        assert row.ok, (row.pcap, row.conservation_error())
    # Every sample got a verdict (the store was polled enough to answer).
    assert card.unanswerable == 0
    assert card.samples == len(workloads)
    # Quality gates.
    assert card.precision is not None and card.precision >= 0.9
    assert card.recall is not None and card.recall >= 0.7
