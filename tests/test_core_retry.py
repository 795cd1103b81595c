"""Tests for the resilient control-plane client (retry + breaker)."""

import numpy as np
import pytest

from repro.core.logs import InstanceLog
from repro.core.retry import (
    BreakerState,
    CircuitBreaker,
    CircuitOpenError,
    ResilientAPI,
    RetryPolicy,
)
from repro.obs import Observability, scoped
from repro.testbed import TestbedAPI
from repro.testbed.errors import AllocationError, TransientBackendError
from repro.testbed.slice_model import NodeRequest, SliceRequest


def request(site, nodes=1):
    return SliceRequest(
        site=site,
        nodes=[NodeRequest(name=f"listener{i}") for i in range(nodes)],
        name="exp",
    )


class TestRetryPolicy:
    def test_exponential_growth_capped(self):
        policy = RetryPolicy(base_delay=10.0, max_delay=40.0, multiplier=2.0,
                             jitter=0.0)
        assert policy.delay(1) == 10.0
        assert policy.delay(2) == 20.0
        assert policy.delay(3) == 40.0
        assert policy.delay(4) == 40.0   # capped

    def test_jitter_bounds(self):
        policy = RetryPolicy(base_delay=100.0, max_delay=100.0, jitter=0.5)
        rng = np.random.default_rng(7)
        delays = [policy.delay(1, rng) for _ in range(200)]
        assert all(75.0 <= d <= 125.0 for d in delays)
        assert len(set(delays)) > 100   # actually jittered

    def test_no_rng_means_no_jitter(self):
        policy = RetryPolicy(base_delay=10.0, jitter=0.5)
        assert policy.delay(1) == 10.0

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=0.0)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=10.0, max_delay=5.0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=2.5)
        with pytest.raises(ValueError):
            RetryPolicy().delay(0)


class TestCircuitBreaker:
    def test_opens_after_threshold_consecutive_failures(self):
        breaker = CircuitBreaker(threshold=3, cooldown=100.0)
        assert breaker.state(0.0) is BreakerState.CLOSED
        assert not breaker.record_failure(1.0)
        assert not breaker.record_failure(2.0)
        assert breaker.record_failure(3.0)   # third opens
        assert breaker.state(3.0) is BreakerState.OPEN
        assert breaker.opens == 1

    def test_success_resets_failure_streak(self):
        breaker = CircuitBreaker(threshold=3, cooldown=100.0)
        breaker.record_failure(1.0)
        breaker.record_failure(2.0)
        breaker.record_success()
        breaker.record_failure(3.0)
        breaker.record_failure(4.0)
        assert breaker.state(4.0) is BreakerState.CLOSED

    def test_open_rejects_until_cooldown(self):
        breaker = CircuitBreaker(threshold=1, cooldown=100.0)
        breaker.record_failure(10.0)
        assert not breaker.allow(50.0)
        assert breaker.rejections == 1
        assert breaker.retry_after(50.0) == 60.0

    def test_half_open_single_probe(self):
        breaker = CircuitBreaker(threshold=1, cooldown=100.0)
        breaker.record_failure(0.0)
        assert breaker.state(100.0) is BreakerState.HALF_OPEN
        assert breaker.allow(100.0)       # the probe
        assert not breaker.allow(100.0)   # but only one

    def test_probe_success_closes(self):
        breaker = CircuitBreaker(threshold=1, cooldown=100.0)
        breaker.record_failure(0.0)
        assert breaker.allow(100.0)
        breaker.record_success()
        assert breaker.state(100.0) is BreakerState.CLOSED
        assert breaker.allow(100.0)

    def test_probe_failure_reopens(self):
        breaker = CircuitBreaker(threshold=1, cooldown=100.0)
        breaker.record_failure(0.0)
        assert breaker.allow(100.0)
        assert breaker.record_failure(100.0)
        assert breaker.state(150.0) is BreakerState.OPEN
        assert breaker.retry_after(150.0) == 50.0
        assert breaker.opens == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker(threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker(cooldown=0.0)


@pytest.fixture()
def resilient(federation):
    api = TestbedAPI(federation)
    wrapped = ResilientAPI(
        api,
        policy=RetryPolicy(max_attempts=4, base_delay=20.0, max_delay=80.0,
                           jitter=0.5, deadline=600.0),
        breaker_threshold=3,
        breaker_cooldown=60.0,
        log=InstanceLog("STAR", "retry-test"),
        rng=np.random.default_rng(11),
    )
    return federation, wrapped


class TestResilientAPI:
    def test_readonly_calls_delegate(self, resilient):
        federation, wrapped = resilient
        assert wrapped.list_sites() == sorted(federation.site_names())
        assert wrapped.now == federation.sim.now
        assert wrapped.inner.__class__ is TestbedAPI

    def test_success_without_faults_is_transparent(self, resilient):
        _federation, wrapped = resilient
        live = wrapped.create_slice(request("STAR"))
        wrapped.delete_slice(live.name)
        assert wrapped.stats.calls == 2
        assert wrapped.stats.retries == 0

    def test_retries_wait_out_outage_in_sim_time(self, resilient):
        federation, wrapped = resilient
        sim = federation.sim
        federation.faults.add_outage(0.0, 120.0, sites={"STAR"})
        live = wrapped.create_slice(request("STAR"))
        assert live is not None
        assert wrapped.stats.retries >= 1
        assert sim.now >= 120.0   # the delays were spent as sim time
        # jittered retries never collapse onto one instant
        times = [e.time for e in wrapped.log.events
                 if e.kind == "retry" and "retrying" in e.message]
        assert times and len(times) == len(set(times))

    def test_nonretryable_errors_pass_through(self, resilient):
        _federation, wrapped = resilient
        with pytest.raises(AllocationError):
            wrapped.create_slice(request("STAR", nodes=99))
        assert wrapped.stats.retries == 0

    def test_gives_up_after_max_attempts(self, resilient):
        federation, wrapped = resilient
        federation.faults.add_outage(0.0, 1e7, sites={"STAR"})
        with pytest.raises(TransientBackendError):
            wrapped.create_slice(request("STAR"))
        assert wrapped.stats.giveups == 1
        assert wrapped.stats.transient_failures >= 1

    def test_breaker_opens_under_persistent_outage(self, resilient):
        federation, wrapped = resilient
        federation.faults.add_outage(0.0, 1e9, sites={"STAR"})
        with pytest.raises(TransientBackendError):
            wrapped.create_slice(request("STAR"))
        assert wrapped.stats.breaker_opens >= 1
        assert wrapped.breaker_for("STAR").opened_at is not None

    def test_open_breaker_rejects_client_side_when_budget_too_short(
            self, federation):
        # A deadline shorter than the breaker cooldown cannot wait for
        # the half-open probe, so the call is rejected without ever
        # touching the backend.
        api = TestbedAPI(federation)
        wrapped = ResilientAPI(
            api,
            policy=RetryPolicy(max_attempts=3, base_delay=1.0, max_delay=2.0,
                               jitter=0.0, deadline=10.0),
            breaker_threshold=1, breaker_cooldown=500.0,
        )
        breaker = wrapped.breaker_for("STAR")
        breaker.record_failure(federation.sim.now)   # pre-opened
        injector = federation.faults
        backend_calls = injector.injected_failures
        with pytest.raises(CircuitOpenError):
            wrapped.create_slice(request("STAR"))
        assert injector.injected_failures == backend_calls
        assert wrapped.stats.breaker_rejections >= 1
        assert wrapped.stats.giveups == 1

    def test_breakers_are_per_site(self, resilient):
        federation, wrapped = resilient
        federation.faults.add_outage(0.0, 1e9, sites={"STAR"})
        with pytest.raises(TransientBackendError):
            wrapped.create_slice(request("STAR"))
        assert wrapped.breaker_for("STAR").opened_at is not None
        # A healthy site is unaffected.
        live = wrapped.create_slice(request("MICH"))
        assert live is not None
        assert wrapped.breaker_for("MICH").consecutive_failures == 0

    def test_breaker_probe_after_cooldown_recovers(self, resilient):
        federation, wrapped = resilient
        sim = federation.sim
        federation.faults.add_outage(0.0, 400.0, sites={"STAR"})
        with pytest.raises(TransientBackendError):
            wrapped.create_slice(request("STAR"))
        sim.run(until=500.0)   # outage over, breaker cooled down
        live = wrapped.create_slice(request("STAR"))
        assert live is not None
        assert wrapped.breaker_for("STAR").state(sim.now) is BreakerState.CLOSED


class TestJournalSchema:
    """RL009 regression: one key set per ``breaker`` event kind.

    The open transition always carried ``failures`` but the closed one
    once did not, so consumers keying on ``failures`` broke on recovery
    events.  Pin the canonical schema -- and that a close resets the
    streak to 0 -- so the drift cannot come back."""

    CANONICAL_KEYS = {"site", "state", "label", "failures"}

    def test_open_and_close_share_one_key_set(self, federation):
        sim = federation.sim
        federation.faults.add_outage(0.0, 400.0, sites={"STAR"})
        with scoped(Observability.create(sim=sim)) as obs:
            wrapped = ResilientAPI(
                TestbedAPI(federation),
                policy=RetryPolicy(max_attempts=4, base_delay=20.0,
                                   max_delay=80.0, jitter=0.5,
                                   deadline=600.0),
                breaker_threshold=3, breaker_cooldown=60.0,
                rng=np.random.default_rng(11),
            )
            with pytest.raises(TransientBackendError):
                wrapped.create_slice(request("STAR"))      # opens
            sim.run(until=500.0)   # outage over, breaker cooled down
            wrapped.create_slice(request("STAR"))          # probe closes
        events = obs.journal.of_kind("breaker")
        assert {e.data["state"] for e in events} == {"open", "closed"}
        assert events[-1].data["state"] == "closed"
        for event in events:
            assert set(event.data) == self.CANONICAL_KEYS
        assert events[-1].data["failures"] == 0
        assert events[0].data["failures"] >= 3
