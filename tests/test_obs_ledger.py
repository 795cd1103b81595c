"""Tests for the per-sample frame-conservation ledger.

The harness rebuilds the paper's mirror-overload hazard on a real
simulated switch (like test_integration_congestion) but adds the
receiving half: a dedicated NIC attached to the mirror port and a real
CaptureSession, so every ledger population -- offered, cloned,
delivered, captured -- comes from live dataplane counters.
"""

import pytest

from repro.capture.session import CaptureMethod, CaptureSession
from repro.core.congestion import CongestionDetector
from repro.netsim.engine import Simulator
from repro.netsim.frame import Frame
from repro.obs import Observability, scoped
from repro.obs.ledger import (
    CAUSES,
    CongestionScorecard,
    LedgerRecorder,
    SampleLedger,
    attach_digests,
    scorecard_from_ledgers,
)
from repro.telemetry.mflib import MFlib
from repro.telemetry.timeseries import CounterStore
from repro.testbed.nic import DedicatedNIC
from repro.testbed.switch import DOWNLINK, Switch

MAC_A = b"\x02\x00\x00\x00\x00\x01"
MAC_B = b"\x02\x00\x00\x00\x00\x02"

LINE_BPS = 80_000.0  # 10 kB/s
FRAME_BYTES = 500


def frame_to(dst, src, size=FRAME_BYTES):
    return Frame(wire_len=size, head=dst + src + b"\x08\x00" + b"\x00" * 50)


def build_world(queue_limit_bytes=4000):
    """Switch with a mirrored port feeding a NIC-backed capture port."""
    sim = Simulator()
    switch = Switch(sim, "tor", default_rate_bps=LINE_BPS,
                    queue_limit_bytes=queue_limit_bytes)
    switch.add_port("src", DOWNLINK)
    switch.add_port("dst", DOWNLINK)
    switch.add_port("mir", DOWNLINK)
    switch.register_mac(MAC_B, "dst")
    switch.register_mac(MAC_A, "src")
    switch.create_mirror("src", "mir")
    nic = DedicatedNIC("dn0")
    nic.ports[0].attach(switch.ports["mir"].link, "mir")
    return sim, switch, nic.ports[0]


def offer_load(sim, switch, fraction, duration, rx=True, tx=True):
    """Schedule traffic on src's Rx/Tx at a fraction of line rate."""
    rate_Bps = (LINE_BPS / 8.0) * fraction
    count = int(rate_Bps * duration / FRAME_BYTES)
    interval = duration / max(count, 1)
    for i in range(count):
        when = sim.now + i * interval
        if rx:
            sim.schedule_at(when, switch.ports["src"].link.rx.offer,
                            frame_to(MAC_B, MAC_A))
        if tx:
            sim.schedule_at(when, switch.ports["dst"].link.rx.offer,
                            frame_to(MAC_A, MAC_B))


def run_sample(fraction, duration=20.0, method=CaptureMethod.TCPDUMP,
               check_congestion=True, **session_kwargs):
    """One full capture window under the given load; returns the row."""
    sim, switch, nic_port = build_world()
    store = CounterStore()

    def poll(t):
        for port_id, counters in switch.port_counters().items():
            for name, value in counters.items():
                store.append("S", port_id, name, t, value)

    poll(sim.now)
    session = CaptureSession(sim, nic_port, None, method=method,
                             **session_kwargs)
    recorder = LedgerRecorder(switch, "S", instance="t1")
    session.start()
    window = recorder.open(mirrored_port="src", dest_port="mir",
                           pcap="S/sample.pcap", method=method.value)
    start = sim.now
    offer_load(sim, switch, fraction, duration)
    sim.run(until=sim.now + duration)
    poll(sim.now)
    stats = session.stop()
    verdict = None
    if check_congestion:
        verdict = CongestionDetector(MFlib(store)).check(
            "S", "src", LINE_BPS, start, sim.now).overloaded
    return window.close(stats, verdict=verdict)


class TestConservation:
    def test_clean_sample_conserves_with_zero_drops(self):
        row = run_sample(0.3)
        assert row.ok
        assert row.conservation_error() == 0
        assert row.total_drops == 0
        assert row.generated == row.captured > 0
        assert row.delivered == row.frames_seen

    def test_overload_attributed_to_mirror_egress(self):
        row = run_sample(0.7)
        assert row.ok
        assert row.drops["mirror-egress"] > 0
        assert row.generated == row.captured + row.total_drops
        # Rx 70% + Tx 70% cannot fit a 100% egress: a sizable share of
        # the window's frames must die at the mirror queue.
        assert row.drops["mirror-egress"] > 0.1 * row.generated

    def test_verdict_and_truth_agree_at_the_extremes(self):
        congested = run_sample(0.7)
        clean = run_sample(0.3)
        assert congested.verdict_overloaded is True
        assert congested.mirror_overloaded_truth is True
        assert clean.verdict_overloaded is False
        assert clean.mirror_overloaded_truth is False

    def test_in_flight_frames_carried_out_not_lost(self):
        # Stop the window while a burst is still queued at the mirror
        # egress: those frames are accounted as in-flight, not lost.
        sim, switch, nic_port = build_world()
        session = CaptureSession(sim, nic_port, None)
        recorder = LedgerRecorder(switch, "S")
        session.start()
        window = recorder.open(mirrored_port="src", dest_port="mir",
                               pcap="S/burst.pcap", method="tcpdump")
        for _ in range(5):
            switch.ports["src"].link.rx.offer(frame_to(MAC_B, MAC_A))
        # Run just long enough for the Rx channel to deliver the frames
        # to the switch (so they are cloned) but not for the mirror
        # egress to serialize them all out.
        sim.run(until=sim.now + 0.1)
        row = window.close(session.stop())
        assert row.ok
        assert row.drops["in-flight"] > 0
        assert row.captured + row.drops["in-flight"] + \
            row.drops["mirror-egress"] == row.generated

    def test_carry_in_joins_generated(self):
        # Window 2 opens while window 1's tail is still in flight; the
        # tail is window 1's in-flight drop and window 2's carry-in.
        sim, switch, nic_port = build_world()
        session = CaptureSession(sim, nic_port, None)
        recorder = LedgerRecorder(switch, "S")
        session.start()
        w1 = recorder.open(mirrored_port="src", dest_port="mir",
                           pcap="S/w1.pcap", method="tcpdump")
        for _ in range(5):
            switch.ports["src"].link.rx.offer(frame_to(MAC_B, MAC_A))
        sim.run(until=sim.now + 0.1)
        row1 = w1.close(session.stop())
        assert row1.drops["in-flight"] > 0
        session2 = CaptureSession(sim, nic_port, None)
        session2.start()
        w2 = recorder.open(mirrored_port="src", dest_port="mir",
                           pcap="S/w2.pcap", method="tcpdump")
        sim.run(until=sim.now + 60.0)
        row2 = w2.close(session2.stop())
        assert row2.ok
        assert row2.carry_in == row1.drops["in-flight"]
        assert row2.captured == row2.carry_in  # no new offers in window 2

    def test_mirror_deleted_mid_window_charged_to_fault(self):
        sim, switch, nic_port = build_world()
        session = CaptureSession(sim, nic_port, None)
        recorder = LedgerRecorder(switch, "S")
        session.start()
        window = recorder.open(mirrored_port="src", dest_port="mir",
                               pcap="S/fault.pcap", method="tcpdump")
        offer_load(sim, switch, 0.3, 20.0)
        sim.schedule_at(10.0, switch.delete_mirror, "src")
        sim.run(until=sim.now + 30.0)
        row = window.close(session.stop())
        assert row.ok
        assert row.drops["fault-window"] > 0
        # Roughly the second half of the window went un-cloned.
        assert row.drops["fault-window"] == pytest.approx(
            row.generated / 2, rel=0.2)

    def test_aborted_close_charges_in_flight_to_fault_window(self):
        sim, switch, nic_port = build_world()
        session = CaptureSession(sim, nic_port, None)
        recorder = LedgerRecorder(switch, "S")
        session.start()
        window = recorder.open(mirrored_port="src", dest_port="mir",
                               pcap="S/abort.pcap", method="tcpdump")
        for _ in range(5):
            switch.ports["src"].link.rx.offer(frame_to(MAC_B, MAC_A))
        sim.run(until=sim.now + 0.1)
        row = window.close(session.stop(), aborted=True)
        assert row.ok
        assert row.aborted
        assert row.drops["in-flight"] == 0
        assert row.drops["fault-window"] > 0

    def test_oversize_frames_never_enter_the_clone_population(self):
        sim, switch, nic_port = build_world()
        session = CaptureSession(sim, nic_port, None)
        recorder = LedgerRecorder(switch, "S")
        session.start()
        window = recorder.open(mirrored_port="src", dest_port="mir",
                               pcap="S/jumbo.pcap", method="tcpdump")
        switch.ports["src"].link.rx.offer(frame_to(MAC_B, MAC_A, size=20_000))
        switch.ports["src"].link.rx.offer(frame_to(MAC_B, MAC_A))
        sim.run(until=sim.now + 60.0)
        row = window.close(session.stop())
        assert row.ok
        assert row.drops["oversize"] == 1
        assert row.captured == 1

    def test_fpga_filtered_frames_accounted(self):
        from repro.capture.fpga import FpgaOffloadConfig
        row = run_sample(0.3, method=CaptureMethod.FPGA_DPDK,
                         check_congestion=False,
                         fpga_config=FpgaOffloadConfig(truncation=64,
                                                       sample_one_in=2))
        assert row.ok
        assert row.drops["filtered"] > 0
        assert row.captured + row.drops["filtered"] == row.generated

    def test_double_close_rejected(self):
        sim, switch, nic_port = build_world()
        session = CaptureSession(sim, nic_port, None)
        recorder = LedgerRecorder(switch, "S")
        session.start()
        window = recorder.open(mirrored_port="src", dest_port="mir")
        stats = session.stop()
        window.close(stats)
        with pytest.raises(RuntimeError):
            window.close(stats)


class TestPublication:
    def test_row_journaled_and_counted(self):
        with scoped(Observability.create()) as obs:
            row = run_sample(0.7)
            events = obs.journal.of_kind("ledger")
            assert len(events) == 1
            assert events[0].data["captured"] == row.captured
            assert events[0].data["drops"]["mirror-egress"] == \
                row.drops["mirror-egress"]
            assert events[0].data["conserved"] is True
            assert obs.registry.get("ledger.samples").value == 1
            assert obs.registry.get("ledger.generated").value == row.generated
            assert obs.registry.get(
                "ledger.dropped.mirror_egress").value == \
                row.drops["mirror-egress"]

    def test_event_round_trip(self):
        row = run_sample(0.7)
        rebuilt = SampleLedger.from_event(row.to_event())
        assert rebuilt.ok
        assert rebuilt.drops == row.drops
        assert rebuilt.generated == row.generated
        assert rebuilt.captured == row.captured
        assert rebuilt.verdict_overloaded == row.verdict_overloaded
        assert rebuilt.pcap == row.pcap

    def test_no_obs_still_returns_rows(self):
        # Ledger math is always on; obs only adds publication.
        row = run_sample(0.3)
        assert row.ok


class TestScorecard:
    def test_confusion_counts(self):
        card = CongestionScorecard()
        card.add(True, True)
        card.add(True, False)
        card.add(False, True)
        card.add(False, False)
        card.add(None, True)
        assert (card.tp, card.fp, card.fn, card.tn) == (1, 1, 1, 1)
        assert card.unanswerable == 1
        assert card.samples == 5
        assert card.answered == 4
        assert card.precision == 0.5
        assert card.recall == 0.5
        assert card.accuracy == 0.5

    def test_undefined_metrics_are_none(self):
        card = CongestionScorecard()
        card.add(False, False)
        assert card.precision is None
        assert card.recall is None
        assert "n/a" in card.describe()

    def test_merge(self):
        a = CongestionScorecard(tp=1, fp=2)
        b = CongestionScorecard(fn=3, tn=4, unanswerable=5)
        a.merge(b)
        assert (a.tp, a.fp, a.fn, a.tn, a.unanswerable) == (1, 2, 3, 4, 5)

    def test_dict_round_trip(self):
        card = CongestionScorecard(tp=2, fp=1, fn=1, tn=3, unanswerable=1)
        rebuilt = CongestionScorecard.from_dict(card.to_dict())
        assert rebuilt == card

    def test_from_ledgers_uses_ground_truth(self):
        rows = [run_sample(0.7), run_sample(0.3)]
        card = scorecard_from_ledgers(rows)
        assert card.tp == 1 and card.tn == 1
        assert card.fp == card.fn == 0
        assert card.precision == 1.0 and card.recall == 1.0


class TestAttachDigests:
    def test_matches_by_site_qualified_name(self, tmp_path):
        from repro.analysis.acap import digest_pcap
        sim, switch, nic_port = build_world()
        pcap = tmp_path / "S" / "sample.pcap"
        session = CaptureSession(sim, nic_port, pcap)
        recorder = LedgerRecorder(switch, "S")
        session.start()
        window = recorder.open(mirrored_port="src", dest_port="mir",
                               pcap="S/sample.pcap", method="tcpdump")
        offer_load(sim, switch, 0.3, 10.0)
        sim.run(until=sim.now + 30.0)
        row = window.close(session.stop())
        assert row.captured > 0
        acap = digest_pcap(pcap)
        assert attach_digests([row], [acap]) == 1
        assert row.digested == row.captured

    def test_unmatched_rows_left_alone(self):
        row = SampleLedger(pcap="S/never.pcap")
        assert attach_digests([row], []) == 0
        assert row.digested is None


def test_cause_taxonomy_is_closed():
    # Every cause renders at a known stage, and the drops dict of a
    # fresh row covers exactly the taxonomy.
    from repro.obs.ledger import STAGE_OF_CAUSE
    row = SampleLedger()
    assert set(row.drops) == set(CAUSES)
    assert set(CAUSES) <= set(STAGE_OF_CAUSE)
