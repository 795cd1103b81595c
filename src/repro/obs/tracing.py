"""Sim-time-aware tracing.

A *span* is one timed region of work -- an occasion, a port-selection
round, a capture session, an analysis stage.  Spans take their clock
from the observability layer's clock (:class:`~repro.obs.clock.SimClock`
inside a run, :class:`~repro.obs.clock.WallClock` otherwise) and emit
``span-open`` / ``span-close`` events into the
:class:`~repro.obs.journal.RunJournal`, forming a trace tree per
run/site/instance.

Two APIs, because the control plane is event-driven:

* ``with tracer.span("analysis.digest", pcaps=4):`` -- lexical scopes.
  These push onto the tracer's current-span stack, so anything started
  inside them (including simulator callbacks fired while the scope is
  open) parents correctly.
* ``span = tracer.start_span("capture"); ...; span.end()`` -- manual
  spans for regions that open in one simulator event and close in a
  later one (a capture session, an instance lifetime).  Manual spans
  default their parent to the innermost open lexical span but do not
  become the current span themselves -- concurrent instances would
  otherwise steal each other's children.

Distributed identity: a span id is process-local (a counter from 0), so
two shard workers' journals both contain a span ``0`` and naive
concatenation cross-links their trees.  A :class:`TraceContext` --
minted by the parent campaign runner and pickled into each shard task --
namespaces every id the shard's tracer hands out as ``"<site>/<n>"`` and
re-parents the shard's top-level spans under the campaign root span, so
the merged journal reads as one coherent campaign-rooted trace tree.
:meth:`repro.obs.journal.RunJournal.merge` applies the same
qualification to un-namespaced segments as a backstop, exactly as it
already rebases ``seq``.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Union

#: A span identity as journaled: a bare process-local counter (``int``)
#: or a ``"<site>/<n>"`` string qualified by a :class:`TraceContext`.
SpanId = Union[int, str]


def qualify_span_id(site: str, span_id: SpanId) -> SpanId:
    """Namespace a process-local span id under a site label.

    Already-qualified (string) ids pass through unchanged, so the
    operation is idempotent -- merging a merged journal is safe.
    """
    if isinstance(span_id, str):
        return span_id
    return f"{site}/{span_id}"


@dataclass(frozen=True)
class TraceContext:
    """Cross-process trace identity for one shard worker.

    ``site`` namespaces every span id the shard's tracer mints
    (``"<site>/<n>"``); ``root`` is the qualified id of the campaign
    root span the shard's top-level spans parent under.  Frozen and
    picklable: the parent builds it, the shard task carries it.
    """

    site: str
    root: Optional[SpanId] = None

    def qualify(self, span_id: int) -> str:
        return f"{self.site}/{span_id}"

    def to_dict(self) -> Dict[str, Any]:
        return {"site": self.site, "root": self.root}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "TraceContext":
        return cls(site=str(data["site"]), root=data.get("root"))


class Span:
    """One open (or closed) trace region."""

    __slots__ = ("span_id", "name", "parent_id", "attrs", "opened_at",
                 "closed_at", "opened_wall", "_tracer")

    def __init__(self, span_id: SpanId, name: str,
                 parent_id: Optional[SpanId],
                 attrs: Dict[str, Any], opened_at: Optional[float],
                 tracer: "Optional[Tracer]",
                 opened_wall: Optional[float] = None):
        self.span_id = span_id
        self.name = name
        self.parent_id = parent_id
        self.attrs = attrs
        self.opened_at = opened_at
        self.closed_at: Optional[float] = None
        # Wall-clock open reading (perf_counter); only taken when the
        # journal keeps volatile values, so deterministic runs pay one
        # attribute check and journal nothing wall-derived.
        self.opened_wall = opened_wall
        self._tracer = tracer

    @property
    def open(self) -> bool:
        return self._tracer is not None

    def end(self, **attrs: Any) -> None:
        """Close the span, optionally attaching final attributes."""
        if self._tracer is None:
            return
        tracer, self._tracer = self._tracer, None
        tracer._close(self, attrs)

    def __repr__(self) -> str:
        state = "open" if self.open else "closed"
        return f"<Span #{self.span_id} {self.name!r} {state}>"


class _NullSpan:
    """Shared inert span handed out when observability is disabled."""

    __slots__ = ()

    span_id = -1
    name = ""
    parent_id = None
    attrs: Dict[str, Any] = {}
    opened_at = None
    closed_at = None
    opened_wall = None
    open = False

    def end(self, **attrs: Any) -> None:
        pass


NULL_SPAN = _NullSpan()


class Tracer:
    """Creates spans and journals their open/close events."""

    def __init__(self, journal, clock, enabled: bool = True,
                 context: Optional[TraceContext] = None):
        self.journal = journal
        self.clock = clock
        self.enabled = enabled
        # Cross-process identity (shard workers): namespaces span ids
        # and re-parents top-level spans under the campaign root.
        self.context = context
        self._next_id = 0
        self._stack: List[Span] = []  # innermost lexical span last

    # -- span creation -------------------------------------------------------

    @property
    def current(self) -> Optional[Span]:
        """The innermost open lexical span, if any."""
        return self._stack[-1] if self._stack else None

    def start_span(self, name: str, parent: Optional[Span] = None,
                   **attrs: Any):
        """Open a manual span (close it with ``span.end()``).

        The parent defaults to the innermost open lexical span.
        """
        if not self.enabled:
            return NULL_SPAN
        if parent is None:
            parent = self.current
        parent_id: Optional[SpanId] = None
        if parent is not None and parent.span_id != NULL_SPAN.span_id:
            parent_id = parent.span_id
        elif self.context is not None:
            # Shard top-level spans hang off the campaign root so the
            # merged journal forms one campaign-rooted tree.
            parent_id = self.context.root
        span_id: SpanId = self._next_id
        self._next_id += 1
        if self.context is not None:
            span_id = self.context.qualify(span_id)
        opened_at = self._now()
        opened_wall = None
        if not self.journal.deterministic:
            # reprolint: disable=RL001 -- wall duration; journaled volatile-only
            opened_wall = time.perf_counter()
        span_attrs = dict(attrs)
        self.journal.emit("span-open", t=opened_at, span=span_id,
                          parent=parent_id, name=name, attrs=span_attrs)
        return Span(span_id, name, parent_id, span_attrs, opened_at, self,
                    opened_wall=opened_wall)

    @contextmanager
    def span(self, name: str, parent: Optional[Span] = None, **attrs: Any):
        """Lexical span: becomes the current span for its duration."""
        opened = self.start_span(name, parent=parent, **attrs)
        is_real = isinstance(opened, Span)
        if is_real:
            self._stack.append(opened)
        try:
            yield opened
        finally:
            if is_real:
                self._stack.remove(opened)
            opened.end()

    # -- internals -----------------------------------------------------------

    def _now(self) -> Optional[float]:
        if self.clock is None:
            return None
        if self.clock.deterministic or not self.journal.deterministic:
            return self.clock.now()
        return None

    def _close(self, span: Span, attrs: Dict[str, Any]) -> None:
        span.attrs.update(attrs)
        span.closed_at = self._now()
        volatile = None
        if span.opened_wall is not None:
            # reprolint: disable=RL001 -- wall duration; journaled volatile-only
            volatile = {"wall_s": time.perf_counter() - span.opened_wall}
        self.journal.emit("span-close", t=span.closed_at, span=span.span_id,
                          name=span.name, attrs=attrs or {},
                          volatile=volatile)
