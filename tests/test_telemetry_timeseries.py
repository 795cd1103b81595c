"""Tests for the counter store."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.telemetry.timeseries import CounterStore


@pytest.fixture()
def store():
    s = CounterStore()
    for t, v in [(0.0, 0), (300.0, 1000), (600.0, 2500), (900.0, 2500)]:
        s.append("STAR", "p1", "tx_bytes", t, v)
    s.append("STAR", "p2", "tx_bytes", 0.0, 0)
    s.append("MICH", "p1", "rx_bytes", 0.0, 7)
    return s


class TestAppendAndQuery:
    def test_series(self, store):
        series = store.series("STAR", "p1", "tx_bytes")
        assert len(series) == 4
        assert series[-1].value == 2500

    def test_series_missing_is_empty(self, store):
        assert store.series("STAR", "p9", "tx_bytes") == []

    def test_monotonic_time_enforced(self, store):
        with pytest.raises(ValueError):
            store.append("STAR", "p1", "tx_bytes", 100.0, 9)

    def test_equal_time_allowed(self, store):
        store.append("STAR", "p1", "tx_bytes", 900.0, 2600)

    def test_window(self, store):
        window = store.window("STAR", "p1", "tx_bytes", 300.0, 600.0)
        assert [s.value for s in window] == [1000, 2500]

    def test_window_boundaries_inclusive(self, store):
        window = store.window("STAR", "p1", "tx_bytes", 0.0, 900.0)
        assert len(window) == 4

    def test_latest(self, store):
        assert store.latest("STAR", "p1", "tx_bytes").value == 2500
        assert store.latest("X", "Y", "Z") is None

    def test_latest_before(self, store):
        sample = store.latest_before("STAR", "p1", "tx_bytes", 450.0)
        assert sample.time == 300.0
        assert store.latest_before("STAR", "p1", "tx_bytes", -1.0) is None

    def test_latest_before_exact_time(self, store):
        assert store.latest_before("STAR", "p1", "tx_bytes", 300.0).time == 300.0


class TestEnumeration:
    def test_ports(self, store):
        assert store.ports("STAR") == ["p1", "p2"]

    def test_sites(self, store):
        assert store.sites() == ["MICH", "STAR"]

    def test_len_counts_samples(self, store):
        assert len(store) == 6

    def test_keys(self, store):
        assert ("STAR", "p1", "tx_bytes") in set(store.keys())


class TestWindowEdges:
    """Boundary semantics the MFlib delta math depends on."""

    def test_window_start_edge_only(self, store):
        window = store.window("STAR", "p1", "tx_bytes", 900.0, 1000.0)
        assert [s.time for s in window] == [900.0]

    def test_window_between_samples_is_empty(self, store):
        assert store.window("STAR", "p1", "tx_bytes", 301.0, 599.0) == []

    def test_window_before_first_sample_is_empty(self, store):
        assert store.window("STAR", "p1", "tx_bytes", -100.0, -1.0) == []

    def test_decreasing_values_storable(self, store):
        # Counter *values* may fall (a switch restart zeroes them);
        # only time must be monotone.  MFlib handles the reset.
        store.append("STAR", "p1", "tx_bytes", 1200.0, 0)
        assert store.latest("STAR", "p1", "tx_bytes").value == 0


KEYS = [("STAR", "p1", "tx_bytes"), ("STAR", "p2", "tx_bytes"),
        ("MICH", "p1", "rx_bytes")]
times = st.integers(-2, 12).map(float)

steps = st.lists(st.one_of(
    st.tuples(st.just("append"), st.sampled_from(KEYS), st.integers(0, 3)),
    st.tuples(st.just("window"), st.sampled_from(KEYS), times, times),
    st.tuples(st.just("latest_before"), st.sampled_from(KEYS), times)),
    max_size=60)


class TestQueriesMatchLinearScan:
    @given(steps)
    def test_interleaved_appends_and_queries(self, steps):
        """Each query, wherever it falls among the appends, returns the
        samples a linear scan over everything appended so far gives."""
        store = CounterStore()
        appended = {key: [] for key in KEYS}
        for step in steps:
            op, key = step[0], step[1]
            samples = appended[key]
            if op == "append":
                # Steps of 0 repeat a timestamp, which is allowed.
                time = (samples[-1].time if samples else 0.0) + step[2]
                store.append(*key, time, len(samples))
                samples.append(store.latest(*key))
            elif op == "window":
                start, end = step[2], step[3]
                assert store.window(*key, start, end) == [
                    s for s in samples if start <= s.time <= end]
            else:
                before = [s for s in samples if s.time <= step[2]]
                assert store.latest_before(*key, step[2]) == (
                    before[-1] if before else None)
        for key in KEYS:
            assert store.series(*key) == appended[key]
