"""A centralized membership oracle.

For controlled experiments (and as the degenerate single-server case of
the client-server architecture), ``OracleMembership`` plays the external
membership service with *configurable timing*: after a reconfiguration
trigger it issues ``start_change`` notices ``detection_delay`` later and
the agreed ``view`` after a further ``round_duration`` - the knob the
parallelism experiments (E1/E3) sweep to model membership rounds of
different lengths.

It maintains the Figure 2 discipline per client (fresh increasing cids, a
start_change before every view, startId read off the latest cids), and it
cancels a pending view delivery for a client whenever a newer
start_change supersedes it - which is how the service, like the paper's,
never delivers views it already knows to be out of date.

Clients attach under an optional group name, so one oracle can also
serve many groups: each shard of
:class:`~repro.scale.sharding.ShardedMembershipTier` is one oracle whose
seedable counters carry a relocated group's watermarks.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Set,
    Tuple,
)

from repro._collections import frozendict
from repro.types import ProcessId, StartChangeId, View, ViewId

if TYPE_CHECKING:  # pragma: no cover - avoids the membership<->net cycle
    from repro.net.simclock import EventScheduler, ScheduledEvent

# Client-side hooks: (cid, members) -> None and (view) -> None.
StartChangeSink = Callable[[StartChangeId, FrozenSet[ProcessId]], None]
ViewSink = Callable[[View], None]

# A client end-point: (group name or None, process).
_Client = Tuple[Optional[str], ProcessId]
_START_CHANGE, _VIEW = 0, 1


class _SeededCounter:
    """A monotone counter whose floor can be raised (watermark seeding)."""

    __slots__ = ("next_value",)

    def __init__(self, start: int = 1) -> None:
        self.next_value = start

    def __next__(self) -> int:
        value = self.next_value
        self.next_value = value + 1
        return value

    def seed(self, floor: int) -> None:
        """Ensure every future value exceeds ``floor``."""
        if floor >= self.next_value:
            self.next_value = floor + 1

    @property
    def last(self) -> int:
        return self.next_value - 1


class OracleMembership:
    """Centralized MBRSHP implementation with scripted timing.

    ``origin`` is the origin component of every view id it forms;
    ``crashed`` may be a set shared with other oracles (a crash is a
    process-level fact, visible to every group the process is in).
    """

    def __init__(
        self,
        clock: EventScheduler,
        *,
        detection_delay: float = 0.0,
        round_duration: float = 1.0,
        origin: str = "",
        crashed: Optional[Set[ProcessId]] = None,
    ) -> None:
        self.clock = clock
        self.detection_delay = detection_delay
        self.round_duration = round_duration
        self.origin = origin
        self._sinks: Dict[_Client, Tuple[StartChangeSink, ViewSink]] = {}
        self._cid = _SeededCounter()
        self._counter = _SeededCounter()
        self._crashed = set() if crashed is None else crashed
        # Pending scheduled notifications per client, cancellable when a
        # newer reconfiguration supersedes them.
        self._pending: Dict[_Client, List[ScheduledEvent]] = {}
        self.views_formed: List[View] = []

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------

    def attach_client(
        self,
        pid: ProcessId,
        on_start_change: StartChangeSink,
        on_view: ViewSink,
        *,
        group: Optional[str] = None,
    ) -> None:
        self._sinks[(group, pid)] = (on_start_change, on_view)

    def client_crashed(self, pid: ProcessId) -> None:
        self._crashed.add(pid)

    def client_recovered(self, pid: ProcessId) -> None:
        self._crashed.discard(pid)

    # ------------------------------------------------------------------
    # counters and groups
    # ------------------------------------------------------------------

    def seed(self, cid_floor: int, counter_floor: int) -> None:
        """Issue cids above ``cid_floor`` and view counters above
        ``counter_floor`` from now on."""
        self._cid.seed(cid_floor)
        self._counter.seed(counter_floor)

    def watermarks(self) -> Tuple[int, int]:
        """The last ``(cid, view counter)`` issued."""
        return (self._cid.last, self._counter.last)

    def forget(self, group: str) -> None:
        """Cancel ``group``'s pending notices and detach its clients."""
        for client in [client for client in self._pending if client[0] == group]:
            self._cancel_pending(client)
        for client in [client for client in self._sinks if client[0] == group]:
            del self._sinks[client]

    # ------------------------------------------------------------------
    # reconfiguration
    # ------------------------------------------------------------------

    def _cancel_pending(self, client: _Client) -> None:
        for event in self._pending.pop(client, []):
            event.cancel()

    def reconfigure(
        self,
        groups: Iterable[Iterable[ProcessId]],
        *,
        extra_changes: int = 0,
    ) -> List[View]:
        """Form one view per group; return them (delivery is scheduled).

        ``extra_changes`` inserts additional start_change notifications
        (membership "changing its mind") before the final one, spaced
        evenly across the round - used by tests of repeated changes.
        """
        views: List[View] = []
        for members in groups:
            view = self.form(members, extra_changes=extra_changes)
            if view is not None:
                views.append(view)
        return views

    def form(
        self,
        members: Iterable[ProcessId],
        *,
        group: Optional[str] = None,
        extra_changes: int = 0,
    ) -> Optional[View]:
        """Form the next view of the live ``members`` of ``group``.

        Returns the view (its notices are scheduled), or None when every
        member has crashed.
        """
        member_set = frozenset(members) - self._crashed
        if not member_set:
            return None
        ordered = sorted(member_set)
        detect = self.detection_delay
        round_end = detect + self.round_duration
        spacing = self.round_duration / (extra_changes + 1) if extra_changes else 0.0

        for pid in ordered:
            self._cancel_pending((group, pid))

        final_cids: Dict[ProcessId, StartChangeId] = {}
        for round_index in range(extra_changes + 1):
            at = detect + round_index * spacing
            for pid in ordered:
                cid = next(self._cid)
                final_cids[pid] = cid
                self._schedule(group, pid, at, _START_CHANGE, cid, member_set)
        view = View(
            ViewId(next(self._counter), self.origin), member_set, frozendict(final_cids)
        )
        self.views_formed.append(view)
        for pid in ordered:
            self._schedule(group, pid, round_end, _VIEW, view)
        return view

    def _schedule(
        self, group: Optional[str], pid: ProcessId, delay: float, sink: int, *notice
    ) -> None:
        def fire() -> None:
            if pid in self._crashed:
                return
            sinks = self._sinks.get((group, pid))
            if sinks is not None:
                sinks[sink](*notice)

        event = self.clock.schedule(delay, fire)
        self._pending.setdefault((group, pid), []).append(event)
