"""Tests for sim-time tracing (repro.obs.tracing)."""

from repro.netsim.engine import Simulator
from repro.obs import NULL_SPAN, Observability, RunJournal, Tracer
from repro.obs.clock import SimClock


def make_tracer(sim=None):
    clock = SimClock(sim) if sim is not None else None
    journal = RunJournal(clock=clock)
    return Tracer(journal, clock), journal


class TestLexicalSpans:
    def test_nesting_parents(self):
        tracer, journal = make_tracer()
        with tracer.span("outer") as outer:
            assert tracer.current is outer
            with tracer.span("inner") as inner:
                assert inner.parent_id == outer.span_id
        assert tracer.current is None
        opens = journal.of_kind("span-open")
        closes = journal.of_kind("span-close")
        assert [e.data["name"] for e in opens] == ["outer", "inner"]
        # Inner closes before outer.
        assert [e.data["name"] for e in closes] == ["inner", "outer"]

    def test_attrs_on_open_and_close(self):
        tracer, journal = make_tracer()
        with tracer.span("work", site="STAR") as span:
            span.end(frames=7)
        open_event = journal.of_kind("span-open")[0]
        close_event = journal.of_kind("span-close")[0]
        assert open_event.data["attrs"] == {"site": "STAR"}
        assert close_event.data["attrs"] == {"frames": 7}

    def test_double_end_is_harmless(self):
        tracer, journal = make_tracer()
        span = tracer.start_span("x")
        span.end()
        span.end()
        assert len(journal.of_kind("span-close")) == 1


class TestManualSpans:
    def test_parent_defaults_to_current_lexical(self):
        tracer, _ = make_tracer()
        with tracer.span("occasion") as occasion:
            manual = tracer.start_span("instance")
            assert manual.parent_id == occasion.span_id
            # Manual spans never become current: a second concurrent
            # manual span must not parent under the first.
            other = tracer.start_span("instance")
            assert other.parent_id == occasion.span_id
            manual.end()
            other.end()

    def test_sim_time_stamps(self):
        sim = Simulator()
        tracer, journal = make_tracer(sim)
        span = tracer.start_span("capture")
        sim.schedule_at(5.0, span.end)
        sim.run()
        open_event = journal.of_kind("span-open")[0]
        close_event = journal.of_kind("span-close")[0]
        assert open_event.t == 0.0
        assert close_event.t == 5.0

    def test_callback_spans_parent_under_open_lexical_scope(self):
        # The coordinator's occasion span stays current while the
        # simulator drives instances; spans opened from callbacks must
        # parent under it.
        sim = Simulator()
        tracer, journal = make_tracer(sim)

        def open_and_close():
            tracer.start_span("instance").end()

        with tracer.span("occasion") as occasion:
            sim.schedule_at(2.0, open_and_close)
            sim.run()
        instance_open = [e for e in journal.of_kind("span-open")
                         if e.data["name"] == "instance"][0]
        assert instance_open.data["parent"] == occasion.span_id


class TestDisabled:
    def test_disabled_tracer_hands_out_null_span(self):
        journal = RunJournal(enabled=False)
        tracer = Tracer(journal, None, enabled=False)
        span = tracer.start_span("x")
        assert span is NULL_SPAN
        span.end()
        with tracer.span("y") as inner:
            assert inner is NULL_SPAN
        assert len(journal) == 0

    def test_default_process_obs_is_inert(self):
        obs = Observability.disabled()
        assert not obs.enabled
        with obs.tracer.span("x"):
            obs.registry.counter("c").inc()
        assert len(obs.journal) == 0
        assert len(obs.registry) == 0
