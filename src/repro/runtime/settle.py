"""Event-driven settling for the asyncio and TCP deployments.

The runtime formerly waited for convergence by sleep-polling
(``await asyncio.sleep(0.002)`` in a loop), which is slow when the
condition is already true, wasteful when it is not, and hangs CI forever
when a protocol bug keeps it false.  :func:`await_settled` replaces all
of those loops: callers hand in a *predicate* and an :class:`asyncio.Event`
that progress-making code sets, and get either a prompt return or a
:class:`~repro.errors.SettleTimeoutError` carrying a description of the
stuck state.

:class:`InflightLedger` is the quiescence half: the exact count of
messages a driver has accepted and not yet handled, with the one
``quiesce`` wait both drivers use.
"""

from __future__ import annotations

import asyncio
import os
from typing import Callable, Dict, Iterable, Optional

from repro.errors import SettleTimeoutError
from repro.links import LinkCore
from repro.membership.protocol import SERVER_PREFIX
from repro.types import ProcessId, View

DEFAULT_TIMEOUT = 5.0

# Environment override for every settling deadline in the runtime.  Chaos
# schedules stretch convergence (retransmission penalties, jitter), and
# CI machines are slower than laptops; rather than threading a knob
# through every cluster and deployment constructor, one variable rescales
# them all.
ENV_TIMEOUT = "REPRO_SETTLE_TIMEOUT"


def settle_timeout(fallback: float = DEFAULT_TIMEOUT) -> float:
    """The effective settle timeout: ``$REPRO_SETTLE_TIMEOUT`` or ``fallback``.

    Read at call time, not import time, so tests and CI jobs can adjust
    it per run.  An unparsable value fails loudly - a silently ignored
    timeout override is exactly the kind of CI mystery this exists to
    prevent.
    """
    raw = os.environ.get(ENV_TIMEOUT)
    if raw is None or not raw.strip():
        return fallback
    try:
        value = float(raw)
    except ValueError:
        raise ValueError(f"{ENV_TIMEOUT}={raw!r} is not a number") from None
    if value <= 0:
        raise ValueError(f"{ENV_TIMEOUT}={raw!r} must be positive")
    return value


async def await_settled(
    predicate: Callable[[], bool],
    event: asyncio.Event,
    *,
    timeout: Optional[float] = None,
    describe: Optional[Callable[[], str]] = None,
) -> None:
    """Wait until ``predicate()`` holds, woken by ``event``.

    The event must be set by whatever code can make the predicate become
    true (message handlers, view installation, ...).  To avoid the classic
    lost-wakeup race the event is cleared *before* each predicate check:
    a wake-up arriving between check and wait is then never dropped.

    Raises :class:`SettleTimeoutError` after ``timeout`` seconds
    (default: :func:`settle_timeout`, i.e. ``$REPRO_SETTLE_TIMEOUT`` or
    ``DEFAULT_TIMEOUT``), with ``describe()`` (if given) appended to the
    error message.
    """
    if timeout is None:
        timeout = settle_timeout()
    loop = asyncio.get_event_loop()
    deadline = loop.time() + timeout
    while True:
        event.clear()
        if predicate():
            return
        remaining = deadline - loop.time()
        if remaining <= 0:
            detail = f": {describe()}" if describe is not None else ""
            raise SettleTimeoutError(
                f"condition not reached within {timeout:.1f}s{detail}"
            )
        try:
            await asyncio.wait_for(event.wait(), remaining)
        except asyncio.TimeoutError:
            pass  # fall through to the deadline check / final predicate try


class InflightLedger:
    """Messages a driver has accepted and not yet handled, counted exactly.

    Every message enters with :meth:`add` when a driver takes it on and
    leaves with :meth:`release` once its handler has run (or the link
    has dropped it).  Handlers send synchronously, so a follow-up
    message is counted before the one that caused it is released: the
    count reaches zero only when the whole fabric is quiet, and
    :meth:`quiesce` waits for exactly that on an idle event instead of
    polling.

    ``pending`` maps a process to its driver-specific backlog (inbox
    entries on the hub, unfinished sends over TCP); it and ``core``'s
    per-link counters only feed the timeout diagnostics.
    """

    def __init__(self, core: LinkCore, pending: Callable[[], Dict[ProcessId, int]]) -> None:
        self.core = core
        self.pending = pending
        self.count = 0
        self._idle = asyncio.Event()
        self._idle.set()

    def add(self, n: int = 1) -> None:
        if not self.count:
            self._idle.clear()
        self.count += n

    def release(self, n: int = 1) -> None:
        self.count -= n
        if self.count == 0:
            self._idle.set()

    async def quiesce(self, timeout: Optional[float] = None) -> None:
        """Wait until nothing is in flight.

        Raises :class:`SettleTimeoutError` instead of hanging if traffic
        never stops within ``timeout`` seconds (default: the
        ``$REPRO_SETTLE_TIMEOUT``-scaled settle deadline).
        """
        if timeout is None:
            timeout = settle_timeout(10.0)
        loop = asyncio.get_event_loop()
        deadline = loop.time() + timeout
        while True:
            # Yield once so a send scheduled in the current task's step
            # reaches the driver before we sample the counter.
            await asyncio.sleep(0)
            if self.count == 0:
                return
            remaining = deadline - loop.time()
            if remaining <= 0:
                raise SettleTimeoutError(self._describe(timeout))
            try:
                await asyncio.wait_for(self._idle.wait(), remaining)
            except asyncio.TimeoutError:
                pass

    def _describe(self, timeout: float) -> str:
        pending = {pid: depth for pid, depth in sorted(self.pending().items()) if depth}
        # Tier traffic rides the same fabric as data; a stall caused by
        # membership messages should say so, per server.
        tier = {pid: depth for pid, depth in pending.items() if str(pid).startswith(SERVER_PREFIX)}
        tier_note = f"pending tier messages: {tier}" if tier else "no pending tier messages"
        return (
            f"{self.count} message(s) still in flight after {timeout:.1f}s; "
            f"pending: {pending}; {tier_note}; "
            f"busiest links: {self.core.stats.describe_links()}"
        )


def uniform_view(views: Iterable[Optional[View]], members: frozenset) -> bool:
    """True when every given view exists, is shared, and has ``members``."""
    views = list(views)
    if not views or any(v is None for v in views):
        return False
    first = views[0]
    return first.members == members and all(v == first for v in views[1:])


def describe_views(nodes: dict) -> str:
    """Render ``pid -> current view`` for settle-timeout diagnostics."""
    parts = []
    for pid in sorted(nodes):
        node = nodes[pid]
        view = getattr(node, "current_view", None)
        blocked = getattr(getattr(node, "runner", None), "blocked", None)
        tag = " blocked" if blocked else ""
        parts.append(f"{pid}={view!r}{tag}")
    return ", ".join(parts)


__all__ = [
    "DEFAULT_TIMEOUT",
    "ENV_TIMEOUT",
    "InflightLedger",
    "await_settled",
    "describe_views",
    "settle_timeout",
    "uniform_view",
]
