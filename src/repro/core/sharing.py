"""Mirror-port sharing (paper Section 6.3 limitation 1).

"Resources cannot be shared across Patchwork instances ... only a
single FABRIC user at a time can mirror a specific switch port.
Sharing could be achieved by having an intermediate layer that
schedules the use of mirrored ports on behalf of more than one FABRIC
user."

:class:`MirrorScheduler` is that intermediate layer: users submit lease
requests for (site, source port) pairs; the scheduler grants each port
to one holder at a time for a bounded lease, queueing contenders FIFO
and rotating on expiry.  Holders receive their grant through a
callback and may release early.  The scheduler never touches the
dataplane itself -- a grant is the *authorization* the holder uses to
call :meth:`~repro.testbed.api.TestbedAPI.create_port_mirror`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, Optional, Tuple

from repro.netsim.engine import Event, Simulator

PortKey = Tuple[str, str]  # (site, source port id)


@dataclass
class MirrorLease:
    """One user's turn on a mirrored port."""

    site: str
    port_id: str
    holder: str
    granted_at: float
    expires_at: float
    active: bool = True

    @property
    def duration(self) -> float:
        return self.expires_at - self.granted_at


GrantCallback = Callable[[MirrorLease], None]
RevokeCallback = Callable[[MirrorLease], None]


@dataclass
class _Request:
    holder: str
    duration: float
    on_grant: GrantCallback
    on_revoke: Optional[RevokeCallback]


class MirrorScheduler:
    """Time-slices mirror source ports among requesters."""

    def __init__(self, sim: Simulator, max_lease_seconds: float = 600.0):
        if max_lease_seconds <= 0:
            raise ValueError("max lease must be positive")
        self.sim = sim
        self.max_lease_seconds = max_lease_seconds
        self._queues: Dict[PortKey, Deque[_Request]] = {}
        self._current: Dict[PortKey, MirrorLease] = {}
        # Keyed by port: a port holds one lease at a time.
        self._revokers: Dict[PortKey, Optional[RevokeCallback]] = {}
        self._expiry_events: Dict[PortKey, Event] = {}
        self.grants_issued = 0

    # -- user API ------------------------------------------------------------

    def request(self, site: str, port_id: str, holder: str, duration: float,
                on_grant: GrantCallback,
                on_revoke: Optional[RevokeCallback] = None) -> None:
        """Queue a lease request; ``on_grant`` fires when it is this
        holder's turn (possibly immediately)."""
        if duration <= 0:
            raise ValueError("lease duration must be positive")
        duration = min(duration, self.max_lease_seconds)
        key = (site, port_id)
        self._queues.setdefault(key, deque()).append(
            _Request(holder, duration, on_grant, on_revoke))
        if key not in self._current:
            self._grant_next(key)

    def release(self, lease: MirrorLease) -> None:
        """Return a lease early; the next queued holder is granted."""
        if not lease.active:
            return
        self._end_lease(lease, revoke=False)

    def holder_of(self, site: str, port_id: str) -> Optional[str]:
        """Who currently holds a port, if anyone."""
        lease = self._current.get((site, port_id))
        return lease.holder if lease else None

    def queue_length(self, site: str, port_id: str) -> int:
        """Requests waiting behind the current holder."""
        return len(self._queues.get((site, port_id), ()))

    # -- internals ------------------------------------------------------------

    def _grant_next(self, key: PortKey) -> None:
        queue = self._queues.get(key)
        if not queue:
            return
        request = queue.popleft()
        site, port_id = key
        lease = MirrorLease(
            site=site,
            port_id=port_id,
            holder=request.holder,
            granted_at=self.sim.now,
            expires_at=self.sim.now + request.duration,
        )
        self._current[key] = lease
        self._revokers[key] = request.on_revoke
        self._expiry_events[key] = self.sim.schedule(
            request.duration, self._expire, lease)
        self.grants_issued += 1
        request.on_grant(lease)

    def _expire(self, lease: MirrorLease) -> None:
        if lease.active:
            self._end_lease(lease, revoke=True)

    def _end_lease(self, lease: MirrorLease, revoke: bool) -> None:
        lease.active = False
        key = (lease.site, lease.port_id)
        if self._current.get(key) is lease:
            del self._current[key]
        event = self._expiry_events.pop(key, None)
        if event is not None:
            event.cancel()
        revoker = self._revokers.pop(key, None)
        if revoke and revoker is not None:
            revoker(lease)
        self._grant_next(key)
