"""Streaming telemetry: standing queries, sketches, in-band stamps, detectors.

Three properties anchor the subsystem and get the heaviest coverage:

* **never undercount** -- a count-min estimate is always >= the true
  count (property-tested with hypothesis), and overcounts beyond
  ``epsilon * total_weight`` happen with probability ~``delta``;
* **determinism** -- sketches, reports, and whole telemetry-enabled
  campaigns are byte-identical across runs and across
  ``--shard-workers`` counts under a fixed seed;
* **clean peel** -- in-band stamps never leak into captured bytes: the
  capture host strips the shim and restores the original frame.
"""

from __future__ import annotations

import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim.frame import Frame
from repro.telemetry.query import (
    EGRESS_LOAD_QUERY,
    SHIM_LEN,
    TOP_TALKERS_QUERY,
    CountMinSketch,
    EgressLoad,
    HeavyHitters,
    InbandCongestionDetector,
    IntStamper,
    QueryRuntime,
    SketchCongestionDetector,
    SketchReport,
    StampLog,
    TelemetryShim,
    TopTalkers,
    peel,
    snmp_reading,
)
from repro.testbed.chaos import default_manifest
from repro.util.rng import derive_rng

# ---------------------------------------------------------------------------
# Sketches


class TestCountMinSketch:
    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.tuples(st.text(min_size=1, max_size=8),
                              st.integers(min_value=0, max_value=1000)),
                    max_size=60),
           st.integers(min_value=0, max_value=3))
    def test_never_undercounts(self, updates, seed):
        sketch = CountMinSketch(epsilon=0.2, delta=0.2, seed=seed)
        truth = {}
        for key, weight in updates:
            sketch.update(key, weight)
            truth[key] = truth.get(key, 0) + weight
        for key, count in sorted(truth.items()):
            assert sketch.estimate(key) >= count

    def test_overcount_bounded_by_epsilon(self):
        """Across many keys, estimates exceeding the epsilon bound are
        rare (the count-min guarantee holds per key w.p. >= 1 - delta)."""
        epsilon, delta = 0.01, 0.05
        rng = derive_rng(99, "test/epsilon-bound")
        sketch = CountMinSketch(epsilon=epsilon, delta=delta, seed=5)
        truth = {}
        for _ in range(5000):
            key = f"k{int(rng.integers(0, 400))}"
            weight = int(rng.integers(1, 100))
            sketch.update(key, weight)
            truth[key] = truth.get(key, 0) + weight
        bound = epsilon * sketch.total_weight
        violations = sum(1 for key, count in sorted(truth.items())
                         if sketch.estimate(key) - count > bound)
        assert violations / len(truth) <= delta

    def test_dimensions_follow_epsilon_delta(self):
        sketch = CountMinSketch(epsilon=0.01, delta=0.05)
        assert sketch.width == 272        # ceil(e / 0.01)
        assert sketch.depth == 3          # ceil(ln(1 / 0.05))
        assert sketch.table_bytes == 272 * 3 * 4

    def test_same_seed_same_state(self):
        a = CountMinSketch(seed=7, label="telemetry/STAR/q")
        b = CountMinSketch(seed=7, label="telemetry/STAR/q")
        for i in range(200):
            a.update(f"key{i % 17}", i)
            b.update(f"key{i % 17}", i)
        assert a.state() == b.state()

    def test_different_labels_hash_differently(self):
        a = CountMinSketch(seed=7, label="telemetry/STAR/q")
        b = CountMinSketch(seed=7, label="telemetry/MICH/q")
        a.update("key", 5)
        b.update("key", 5)
        assert a.state() != b.state()

    def test_reset_zeroes_everything(self):
        sketch = CountMinSketch()
        sketch.update("x", 10)
        sketch.reset()
        assert sketch.total_weight == 0
        assert sketch.estimate("x") == 0

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            CountMinSketch(epsilon=0.0)
        with pytest.raises(ValueError):
            CountMinSketch(delta=1.0)
        with pytest.raises(ValueError):
            CountMinSketch().update("x", -1)


class TestHeavyHitters:
    def test_finds_the_heavy_keys(self):
        hh = HeavyHitters(k=2, epsilon=0.01, delta=0.01, seed=3)
        rng = derive_rng(3, "test/hh")
        for _ in range(2000):
            hh.update(f"mouse{int(rng.integers(0, 50))}", 1)
        for _ in range(500):
            hh.update("elephant-a", 100)
            hh.update("elephant-b", 60)
        top = hh.top()
        assert [key for key, _ in top] == ["elephant-a", "elephant-b"]
        assert top[0][1] >= 500 * 100            # never undercounts

    def test_top_order_is_deterministic(self):
        a, b = (HeavyHitters(k=4, seed=11) for _ in range(2))
        for i in range(300):
            a.update(f"k{i % 9}", 7)
            b.update(f"k{i % 9}", 7)
        assert a.top() == b.top()

    def test_report_bytes_counts_topk_only(self):
        hh = HeavyHitters(k=3, seed=0)
        for i in range(40):
            hh.update(f"k{i}", 1)
        assert hh.report_bytes == 3 * 12


# ---------------------------------------------------------------------------
# Standing queries


def _frame(wire_len=100, src=b"\x02\x00\x00\x00\x00\x01"):
    return Frame(wire_len=wire_len,
                 head=b"\xff" * 6 + src + b"\x08\x00")


class TestStandingQueries:
    def test_egress_load_sums_bytes_per_port(self):
        query = EgressLoad("STAR", seed=1, ports=("p1", "p2"))
        query.observe("p1", _frame(wire_len=100))
        query.observe("p1", _frame(wire_len=50))
        query.observe("p2", _frame(wire_len=25))
        report = query.flush(0.0, 1.0)
        assert (report.query, report.kind) == (EGRESS_LOAD_QUERY, "count-min")
        assert report.frames == 3
        assert report.total_weight == 175
        assert report.estimate("p1") >= 150
        assert report.estimate("p2") >= 25
        assert report.estimate("p9") == 0
        # eps = 0.05 -> 55 columns; delta = 0.05 -> 3 rows of 4 bytes.
        assert report.report_bytes == 16 + 55 * 3 * 4

    def test_empty_window_emits_no_report(self):
        assert EgressLoad("STAR", seed=1, ports=("p1",)).flush(0.0, 1.0) \
            is None
        assert TopTalkers("STAR", seed=1, ports=("p1",)).flush(0.0, 1.0) \
            is None

    def test_count_min_estimates_cover_watched_ports(self):
        query = EgressLoad("STAR", seed=1, ports=("p1", "p2"))
        query.observe("p1", _frame(wire_len=100))
        report = query.flush(0.0, 1.0)
        keys = [key for key, _ in report.estimates]
        assert keys == ["p1", "p2"]
        assert report.estimate("p1") >= 100

    def test_flush_resets_for_next_window(self):
        query = EgressLoad("STAR", seed=1, ports=("p1",))
        query.observe("p1", _frame(wire_len=100))
        first = query.flush(0.0, 1.0)
        query.observe("p1", _frame(wire_len=40))
        second = query.flush(1.0, 2.0)
        assert first.total_weight == 100
        assert second.total_weight == 40

    def test_top_talkers_ranks_source_macs(self):
        query = TopTalkers("STAR", seed=1, ports=("p1",))
        heavy, light = b"\x02" + b"\x00" * 4 + b"\x0a", b"\x02" + b"\x00" * 5
        for _ in range(3):
            query.observe("p1", _frame(wire_len=1000, src=heavy))
        query.observe("p1", _frame(wire_len=60, src=light))
        report = query.flush(0.0, 1.0)
        assert (report.query, report.kind) == (TOP_TALKERS_QUERY,
                                               "heavy-hitter")
        assert [key for key, _ in report.estimates] == \
            [heavy.hex(), light.hex()]
        assert report.estimate(heavy.hex()) >= 3000
        assert report.report_bytes == 16 + 2 * 12

    def test_sketches_hash_under_the_site_and_query_label(self):
        a = EgressLoad("STAR", seed=1, ports=("p1",))
        b = EgressLoad("MICH", seed=1, ports=("p1",))
        assert a.sketch.state() == b.sketch.state()
        a.observe("p1", _frame())
        b.observe("p1", _frame())
        assert a.sketch.state() != b.sketch.state()
        reference = CountMinSketch(epsilon=0.05, delta=0.05, seed=1,
                                   label="telemetry/STAR/egress-load")
        reference.update("p1", 100)
        assert a.sketch.state() == reference.state()


class TestQueryRuntime:
    """The window clock + tap lifecycle against a real switch."""

    def _runtime(self, federation, reports, queries=(EGRESS_LOAD_QUERY,)):
        switch = federation.site("STAR").switch
        port_id = sorted(switch.ports)[0]
        runtime = QueryRuntime(federation.sim, "STAR", seed=42,
                               on_report=reports.append)
        runtime.install(switch, (port_id,), queries=queries)
        return runtime, switch, port_id

    def _offer(self, switch, port_id, n=3, wire_len=200):
        for _ in range(n):
            switch.ports[port_id].link.tx.offer(
                Frame(wire_len=wire_len, head=b"\x00" * 14))

    def test_windows_tumble_on_the_sim_clock(self, federation):
        reports = []
        runtime, switch, port_id = self._runtime(federation, reports)
        sim = federation.sim
        runtime.arm(sim.now)
        self._offer(switch, port_id)
        sim.run(until=2.5)
        self._offer(switch, port_id, n=2)
        runtime.finalize(sim.now)
        # Window 1 carried 3 frames; windows 2-3 were empty (suppressed);
        # the partial final window carried 2.
        assert [r.frames for r in reports] == [3, 2]
        assert reports[0].window_end - reports[0].window_start == \
            pytest.approx(1.0)
        assert runtime.reports_emitted == 2
        assert runtime.report_bytes_total == \
            sum(r.report_bytes for r in reports)

    def test_default_install_runs_both_queries(self, federation):
        reports = []
        runtime, switch, port_id = self._runtime(
            federation, reports, queries=(EGRESS_LOAD_QUERY,
                                          TOP_TALKERS_QUERY))
        runtime.arm(federation.sim.now)
        self._offer(switch, port_id)
        federation.sim.run(until=1.5)
        runtime.finalize(federation.sim.now)
        assert [(r.query, r.frames) for r in reports] == \
            [(EGRESS_LOAD_QUERY, 3), (TOP_TALKERS_QUERY, 3)]
        assert reports[1].estimates == (("000000000000", 600),)
        default = QueryRuntime(federation.sim, "STAR", seed=42,
                               on_report=reports.append)
        default.install(switch, (port_id,))
        assert [q.name for q in default.queries] == \
            [EGRESS_LOAD_QUERY, TOP_TALKERS_QUERY]

    def test_disarmed_taps_ignore_traffic(self, federation):
        reports = []
        runtime, switch, port_id = self._runtime(federation, reports)
        self._offer(switch, port_id)               # before arm
        runtime.arm(federation.sim.now)
        runtime.finalize(federation.sim.now)       # zero-width: no flush
        self._offer(switch, port_id)               # after finalize
        federation.sim.run(until=2.0)
        assert reports == []

    def test_uninstall_removes_taps(self, federation):
        reports = []
        runtime, switch, port_id = self._runtime(federation, reports)
        runtime.arm(federation.sim.now)
        runtime.uninstall()
        self._offer(switch, port_id)
        federation.sim.run(until=2.0)
        assert reports == []

    def test_reports_identical_across_worlds(self, federation):
        """Same seed + same frames = byte-identical report stream, even
        in a freshly built world (the shard-parity property)."""
        from repro.testbed import FederationBuilder

        streams = []
        for fed in (federation,
                    FederationBuilder(seed=42).build(
                        site_names=["STAR", "MICH", "UTAH", "TACC"])):
            reports = []
            runtime, switch, port_id = self._runtime(fed, reports)
            runtime.arm(fed.sim.now)
            self._offer(switch, port_id)
            fed.sim.run(until=1.5)
            runtime.finalize(fed.sim.now)
            streams.append([json.dumps(r.to_event(), sort_keys=True)
                            for r in reports])
        assert streams[0] == streams[1]
        assert streams[0]


# ---------------------------------------------------------------------------
# In-band path


class TestShim:
    def test_encode_decode_roundtrip(self):
        shim = TelemetryShim(t=12.5, queue_depth_bytes=4096,
                             occupancy_milli=875, port_hash=0xBEEF)
        assert TelemetryShim.decode(shim.encode()) == shim

    def test_decode_rejects_garbage(self):
        assert TelemetryShim.decode(b"\x00" * SHIM_LEN) is None
        assert TelemetryShim.decode(b"short") is None

    def test_peel_restores_original_frame(self):
        stamper = IntStamper(stamp_every=1)
        original = Frame(wire_len=500, head=b"\xaa" * 32, flow_id=9,
                         slice_id="s", site="STAR")
        stamped = stamper.stamp(original, "p1", now=4.0,
                                queue_depth_bytes=1000,
                                queue_limit_bytes=10_000)
        assert stamped.wire_len == 500 + SHIM_LEN
        clean, shim = peel(stamped)
        assert shim is not None
        assert (clean.wire_len, clean.head) == (500, b"\xaa" * 32)
        assert (clean.flow_id, clean.site) == (9, "STAR")
        assert shim.t == pytest.approx(4.0)
        assert shim.queue_depth_bytes == 1000
        assert shim.occupancy_milli == 150     # (1000 + 500) / 10000

    def test_peel_passes_unstamped_frames_through(self):
        frame = Frame(wire_len=500, head=b"\xaa" * 32)
        clean, shim = peel(frame)
        assert shim is None
        assert clean is frame


class TestIntStamper:
    def test_stamps_first_and_every_kth(self):
        stamper = IntStamper(stamp_every=4)
        stamped = [stamper.stamp(Frame(wire_len=100, head=b"\x00" * 14),
                                 "p1", 0.0, 0, 1000).wire_len > 100
                   for _ in range(9)]
        assert stamped == [True, False, False, False,
                           True, False, False, False, True]
        assert stamper.frames_stamped == 3
        assert stamper.frames_seen == 9

    def test_counters_are_per_port(self):
        stamper = IntStamper(stamp_every=2)
        a = stamper.stamp(Frame(wire_len=100, head=b""), "p1", 0.0, 0, 1000)
        b = stamper.stamp(Frame(wire_len=100, head=b""), "p2", 0.0, 0, 1000)
        assert a.wire_len > 100 and b.wire_len > 100

    def test_occupancy_saturates_at_1000(self):
        stamper = IntStamper(stamp_every=1)
        stamped = stamper.stamp(Frame(wire_len=900, head=b""), "p1", 0.0,
                                queue_depth_bytes=800,
                                queue_limit_bytes=1000)
        _, shim = peel(stamped)
        assert shim.occupancy_milli == 1000

    def _mirror_world(self, stamping, tmp_path, name):
        """A mirrored flow captured with/without in-band stamping."""
        import numpy as np

        from repro.capture.session import CaptureSession
        from repro.packets.pcap import PcapReader
        from repro.testbed import FederationBuilder
        from repro.traffic.endpoints import EndpointRegistry
        from repro.traffic.flows import STANDARD_APPS, Flow

        federation = FederationBuilder(seed=42).build(
            site_names=["STAR", "MICH"])
        registry = EndpointRegistry(federation)
        a = registry.create("STAR")
        b = registry.create("STAR")
        cap = registry.create("STAR")
        switch = federation.site("STAR").switch
        if stamping:
            switch.int_stamper = IntStamper(stamp_every=1)
        switch.create_mirror(a.nic_port.switch_port_id,
                             cap.nic_port.switch_port_id)
        path = tmp_path / f"{name}.pcap"
        session = CaptureSession(federation.sim, cap.nic_port, path,
                                 snaplen=128, int_strip=stamping)
        session.start()
        Flow(sim=federation.sim, flow_id=1, src=a, dst=b,
             app=STANDARD_APPS["iperf-tcp"], total_bytes=100_000,
             rng=np.random.default_rng(0)).start()
        federation.sim.run()
        stats = session.stop()
        return stats, session, PcapReader(path).read_all()

    def test_mirror_clones_get_stamped_and_capture_peels(self, tmp_path):
        """End-to-end: stamped clones reach the capture host, the peel
        collects every shim, and the pcap bytes match an unstamped run
        exactly (timestamps aside: the shim shifts serialization by
        nanoseconds, but never the captured bytes)."""
        stats_on, session, stamped = self._mirror_world(
            True, tmp_path, "stamped")
        stats_off, _, clean = self._mirror_world(False, tmp_path, "clean")
        assert stats_on.frames_seen > 0
        assert len(session.int_stamps) == stats_on.frames_seen
        assert session.int_stamps.telemetry_bytes == \
            stats_on.frames_seen * SHIM_LEN
        assert stats_on.frames_seen == stats_off.frames_seen
        assert stats_on.bytes_on_wire == stats_off.bytes_on_wire
        assert [(r.orig_len, r.data) for r in stamped] == \
            [(r.orig_len, r.data) for r in clean]


# ---------------------------------------------------------------------------
# Detectors


def _report(start, end, est, query=EGRESS_LOAD_QUERY, report_bytes=676):
    return SketchReport(site="STAR", query=query, kind="count-min",
                        window_start=start, window_end=end, frames=10,
                        total_weight=est, report_bytes=report_bytes,
                        estimates=(("pd", est),))


class TestSketchDetector:
    def test_flags_over_rate_window_with_latency(self):
        detector = SketchCongestionDetector()
        # 10 Mbit in a 1 s window against a 1 Mbps destination.
        reading = detector.check(
            [_report(0.0, 1.0, 125_000), _report(1.0, 2.0, 1_250_000)],
            "pd", dest_rate_bps=1e6, start=0.0, end=5.0)
        assert reading.overloaded is True
        assert reading.latency == pytest.approx(2.0)
        assert reading.telemetry_bytes == 2 * 676

    def test_quiet_windows_say_no(self):
        reading = SketchCongestionDetector().check(
            [_report(0.0, 1.0, 1000)], "pd", 1e6, 0.0, 5.0)
        assert reading.overloaded is False
        assert reading.latency is None

    def test_no_reports_is_unanswerable(self):
        reading = SketchCongestionDetector().check([], "pd", 1e6, 0.0, 5.0)
        assert reading.overloaded is None

    def test_other_queries_charged_but_not_consulted(self):
        reading = SketchCongestionDetector().check(
            [_report(0.0, 1.0, 9_999_999, query="top-talkers",
                     report_bytes=52)],
            "pd", 1e6, 0.0, 5.0)
        assert reading.overloaded is None          # nothing consulted
        assert reading.telemetry_bytes == 52       # but the bytes shipped

    def test_out_of_window_reports_ignored(self):
        reading = SketchCongestionDetector().check(
            [_report(10.0, 11.0, 1_250_000)], "pd", 1e6, 0.0, 5.0)
        assert reading.overloaded is None
        assert reading.telemetry_bytes == 0


class TestInbandDetector:
    def _log(self, *occupancies, t0=1.0):
        log = StampLog()
        for i, occ in enumerate(occupancies):
            log.add(t0 + i, TelemetryShim(t=t0 + i, queue_depth_bytes=0,
                                          occupancy_milli=occ, port_hash=0))
        return log

    def test_first_crossing_sets_latency(self):
        reading = InbandCongestionDetector(occupancy_threshold=0.9).check(
            self._log(100, 400, 950, 990), frames_seen=50,
            start=0.0, end=10.0)
        assert reading.overloaded is True
        assert reading.latency == pytest.approx(3.0)   # stamp at t0+2
        assert reading.telemetry_bytes == 4 * SHIM_LEN

    def test_low_occupancy_is_confident_no(self):
        reading = InbandCongestionDetector().check(
            self._log(100, 200), frames_seen=50, start=0.0, end=10.0)
        assert reading.overloaded is False

    def test_no_signal_is_unanswerable(self):
        detector = InbandCongestionDetector()
        assert detector.check(self._log(), 50, 0.0, 10.0).overloaded is None
        assert detector.check(self._log(999), 0, 0.0, 10.0).overloaded is None


class TestSnmpReading:
    def test_wraps_verdict(self):
        reading = snmp_reading(True, 12.0, 1024)
        assert (reading.name, reading.overloaded, reading.latency,
                reading.telemetry_bytes) == ("snmp", True, 12.0, 1024)

    def test_latency_nulled_when_not_overloaded(self):
        assert snmp_reading(False, 12.0, 1024).latency is None
        assert snmp_reading(None, 12.0, 0).overloaded is None


# ---------------------------------------------------------------------------
# Campaign-level determinism (the acceptance bar: telemetry-enabled runs
# are byte-identical under a fixed seed, including sharded execution)


TELEMETRY_MANIFEST = dataclasses.replace(
    default_manifest(7), telemetry_queries=True, telemetry_window=0.5)

# The bytes of TELEMETRY_MANIFEST's outputs.  A change to the query
# runtime, the sketches or the detectors must leave all three alone.
TELEMETRY_JOURNAL_SHA256 = \
    "2e7f88c1878742df83d156eecb99226b2e6a4626c6c46603d84a9beba78b7471"
TELEMETRY_SHARDED_JOURNAL_SHA256 = \
    "f8683616b24cfeeaafcf36802f307ded9ca9c5d7ee72bad794a03a235a881545"
TELEMETRY_RECORDS_SHA256 = \
    "8b55127ec90d703aaf3e74ce7f05d563ced38cb19728fa07e22e1cc2282184a5"


def _run_campaign(run_dir, manifest, workers=1):
    from repro.core.campaign import CampaignRunner
    from repro.core.checkpoint import sha256_file

    summary = CampaignRunner(run_dir, manifest=manifest,
                             shard_workers=workers).run()
    return summary, sha256_file(run_dir / "journal.jsonl")


class TestTelemetryCampaignDeterminism:
    def test_serial_outputs_pinned(self, tmp_path):
        from collections import Counter

        from repro.core.checkpoint import sha256_file
        from repro.obs import RunJournal

        run_dir = tmp_path / "run"
        _, sha = _run_campaign(run_dir, TELEMETRY_MANIFEST)
        assert sha == TELEMETRY_JOURNAL_SHA256
        assert sha256_file(run_dir / "records.json") == \
            TELEMETRY_RECORDS_SHA256
        journal = RunJournal.read(run_dir / "journal.jsonl")
        queries = Counter(event.data["query"] for event
                          in journal.of_kind("telemetry-report"))
        assert queries == {"egress-load": 16, "top-talkers": 16}

    def test_sharded_outputs_pinned(self, tmp_path):
        from repro.core.checkpoint import sha256_file

        run_dir = tmp_path / "run"
        manifest = dataclasses.replace(TELEMETRY_MANIFEST, sharded=True)
        _, sha = _run_campaign(run_dir, manifest, workers=2)
        assert sha == TELEMETRY_SHARDED_JOURNAL_SHA256
        assert sha256_file(run_dir / "records.json") == \
            TELEMETRY_RECORDS_SHA256

    def test_two_runs_byte_identical(self, tmp_path):
        _, sha_a = _run_campaign(tmp_path / "a", TELEMETRY_MANIFEST)
        summary, sha_b = _run_campaign(tmp_path / "b", TELEMETRY_MANIFEST)
        assert summary.audit_ok
        assert sha_a == sha_b

    def test_sharded_workers_byte_identical(self, tmp_path):
        manifest = dataclasses.replace(TELEMETRY_MANIFEST, sharded=True)
        _, sha_one = _run_campaign(tmp_path / "w1", manifest, workers=1)
        _, sha_two = _run_campaign(tmp_path / "w2", manifest, workers=2)
        assert sha_one == sha_two

    def test_journal_carries_telemetry_evidence(self, tmp_path):
        from repro.obs import RunJournal
        from repro.obs.audit import audit_journal

        _run_campaign(tmp_path / "run", TELEMETRY_MANIFEST)
        journal = RunJournal.read(tmp_path / "run" / "journal.jsonl")
        assert list(journal.of_kind("telemetry-report"))
        ledgers = list(journal.of_kind("ledger"))
        assert ledgers
        for event in ledgers:
            detectors = event.data.get("detectors", {})
            assert sorted(detectors) == ["inband", "sketch", "snmp"]
        result = audit_journal(journal)
        assert result.ok
        assert sorted(result.detector_scorecards) == \
            ["inband", "sketch", "snmp"]
        # All three detectors were judged on the same rows.
        samples = {card.samples
                   for card in result.detector_scorecards.values()}
        assert len(samples) == 1

    def test_telemetry_off_journal_has_no_telemetry_events(self, tmp_path):
        from repro.obs import RunJournal

        _run_campaign(tmp_path / "off", default_manifest(7))
        journal = RunJournal.read(tmp_path / "off" / "journal.jsonl")
        assert not list(journal.of_kind("telemetry-report"))
        assert not list(journal.of_kind("detector-scorecard"))
        for event in journal.of_kind("ledger"):
            assert "detectors" not in event.data


# ---------------------------------------------------------------------------
# CLI: `repro audit --detectors`


class TestAuditDetectorsCLI:
    @pytest.fixture(scope="class")
    def telemetry_journal(self, tmp_path_factory):
        run_dir = tmp_path_factory.mktemp("cli") / "run"
        _run_campaign(run_dir, TELEMETRY_MANIFEST)
        return run_dir / "journal.jsonl"

    def test_detectors_view(self, telemetry_journal, capsys):
        from repro.cli import main

        assert main(["audit", str(telemetry_journal), "--detectors"]) == 0
        out = capsys.readouterr().out
        assert "Detector comparison" in out
        for name in ("snmp", "sketch", "inband"):
            assert name in out

    def test_json_parity(self, telemetry_journal, capsys):
        from repro.cli import main

        assert main(["audit", str(telemetry_journal), "--detectors",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert sorted(payload) == ["inband", "sketch", "snmp"]
        for card in payload.values():
            assert {"tp", "fp", "fn", "tn", "latency_to_detect",
                    "telemetry_bytes"} <= set(card)

    def test_csv_parity(self, telemetry_journal, tmp_path, capsys):
        from repro.cli import main

        csv_path = tmp_path / "detectors.csv"
        assert main(["audit", str(telemetry_journal), "--detectors",
                     "--csv", str(csv_path)]) == 0
        capsys.readouterr()
        header = csv_path.read_text().splitlines()[0]
        assert header.startswith("detector,")
        assert "telemetry_bytes" in header

    def test_telemetry_off_journal_errors(self, tmp_path, capsys):
        from repro.cli import main

        run_dir = tmp_path / "off"
        _run_campaign(run_dir, default_manifest(7))
        code = main(["audit", str(run_dir / "journal.jsonl"), "--detectors"])
        assert code == 2
        assert "no detector readings" in capsys.readouterr().err
