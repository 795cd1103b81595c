"""``repro.obs`` -- the unified observability subsystem.

The paper's R3 requirement ("Patchwork creates logs at every instance to
capture a variety of network- and host-related statistics that can help
users notice problems", Section 6.2.2) is what made the Fig 10
run-outcome analysis and the 13-month profile possible.  This package is
the reproduction's single telemetry spine behind that requirement:

* :mod:`repro.obs.registry` -- a process-wide :class:`MetricsRegistry`
  of counters, gauges, and fixed-bucket histograms with pre-bound
  handles cheap enough for per-frame hot paths;
* :mod:`repro.obs.tracing` -- sim-time-aware spans forming a trace tree
  per run/site/instance;
* :mod:`repro.obs.journal` -- the :class:`RunJournal`, an append-only
  JSONL event stream (span open/close, metric snapshots, fault
  injections, retry/breaker transitions, watchdog verdicts, instance-log
  lines) that is byte-identical across runs under a fixed seed;
* :mod:`repro.obs.export` -- Prometheus-text and JSONL exporters.

Usage: observability is *disabled by default* and costs ~nothing until
:func:`configure` installs a live :class:`Observability` as the process
default.  Components bind their instruments from :func:`get_obs` at
construction, so configure **before** building the coordinator et al.::

    obs = configure(sim=federation.sim)          # sim-time clock
    bundle = Coordinator(api, config).run_profile()
    obs.journal.write(out / "journal.jsonl")
    print(to_prometheus(obs.registry))

or scoped (restores the previous default afterwards)::

    with scoped(Observability.create(sim=federation.sim)) as obs:
        ...
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional

from repro.obs.clock import SimClock, WallClock
from repro.obs.export import (
    histogram_quantile,
    parse_metrics_jsonl,
    parse_prometheus,
    prometheus_name,
    registry_from_snapshot,
    to_metrics_jsonl,
    to_prometheus,
)
from repro.obs.journal import JournalEvent, RunJournal, diff_journals, jsonable
from repro.obs.registry import (
    NULL_INSTRUMENT,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.trace import (
    TraceSpan,
    TraceTree,
    chrome_trace_json,
    critical_path_summary,
    to_chrome_trace,
    to_folded_stacks,
)
from repro.obs.tracing import (
    NULL_SPAN,
    Span,
    TraceContext,
    Tracer,
    qualify_span_id,
)


class Observability:
    """One registry + journal + tracer sharing one clock."""

    def __init__(self, registry: MetricsRegistry, journal: RunJournal,
                 tracer: Tracer, clock):
        self.registry = registry
        self.journal = journal
        self.tracer = tracer
        self.clock = clock

    @property
    def enabled(self) -> bool:
        return self.registry.enabled

    @classmethod
    def create(cls, sim=None, deterministic: bool = True,
               enabled: bool = True) -> "Observability":
        """Build a live (or inert) observability context.

        ``sim`` selects the clock: a simulator gives deterministic
        sim-time stamps, ``None`` falls back to wall time (whose stamps
        a deterministic journal omits).
        """
        clock = SimClock(sim) if sim is not None else WallClock()
        registry = MetricsRegistry(enabled=enabled)
        journal = RunJournal(clock=clock, deterministic=deterministic,
                             enabled=enabled)
        tracer = Tracer(journal, clock, enabled=enabled)
        return cls(registry, journal, tracer, clock)

    @classmethod
    def disabled(cls) -> "Observability":
        return cls.create(enabled=False)

    def snapshot_to_journal(self, kind: str = "metrics") -> None:
        """Emit a registry snapshot into the journal.

        A deterministic journal gets the volatile-free snapshot, so the
        event is byte-stable under a fixed seed.
        """
        include_volatile = not self.journal.deterministic
        self.journal.emit(
            kind, metrics=self.registry.snapshot(
                include_volatile=include_volatile))


_DEFAULT = Observability.disabled()
_OBS = _DEFAULT


def get_obs() -> Observability:
    """The process-default observability context (inert until configured)."""
    return _OBS


def set_obs(obs: Optional[Observability]) -> Observability:
    """Install (or, with ``None``, clear) the process default."""
    global _OBS
    _OBS = obs if obs is not None else _DEFAULT
    return _OBS


def configure(sim=None, deterministic: bool = True,
              enabled: bool = True) -> Observability:
    """Create a live context and install it as the process default."""
    return set_obs(Observability.create(sim=sim, deterministic=deterministic,
                                        enabled=enabled))


@contextmanager
def scoped(obs: Observability) -> Iterator[Observability]:
    """Temporarily install ``obs`` as the process default."""
    previous = get_obs()
    set_obs(obs)
    try:
        yield obs
    finally:
        set_obs(previous)


# Imported last: repro.obs.ledger/audit call get_obs() lazily, so the
# package core must be fully defined before they load.
from repro.obs.audit import AuditResult, audit_file, audit_journal  # noqa: E402
from repro.obs.ledger import (  # noqa: E402
    CAUSES,
    STAGE_OF_CAUSE,
    CongestionScorecard,
    LedgerRecorder,
    SampleLedger,
    attach_digests,
    ledgers_of_bundle,
    scorecard_from_ledgers,
)

__all__ = [
    "AuditResult",
    "CAUSES",
    "CongestionScorecard",
    "Counter",
    "LedgerRecorder",
    "STAGE_OF_CAUSE",
    "SampleLedger",
    "attach_digests",
    "audit_file",
    "audit_journal",
    "ledgers_of_bundle",
    "scorecard_from_ledgers",
    "Gauge",
    "Histogram",
    "JournalEvent",
    "MetricsRegistry",
    "NULL_INSTRUMENT",
    "NULL_SPAN",
    "Observability",
    "RunJournal",
    "SimClock",
    "Span",
    "TraceContext",
    "TraceSpan",
    "TraceTree",
    "Tracer",
    "WallClock",
    "chrome_trace_json",
    "configure",
    "critical_path_summary",
    "diff_journals",
    "get_obs",
    "histogram_quantile",
    "jsonable",
    "parse_metrics_jsonl",
    "parse_prometheus",
    "prometheus_name",
    "qualify_span_id",
    "registry_from_snapshot",
    "scoped",
    "set_obs",
    "to_chrome_trace",
    "to_folded_stacks",
    "to_metrics_jsonl",
    "to_prometheus",
]
