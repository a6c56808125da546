"""An asyncio GCS node: the end-point automaton behind an async API.

``AsyncGcsNode`` is the deployment face of the library: applications
``await node.send(payload)`` and consume deliveries and views from
``node.events()``.  The blocking contract of Figure 12 is enforced for
the application automatically: while the end-point has requested a block,
``send`` waits; the node acknowledges the block (``block_ok``) once the
application has no send in flight.

The node runs over any runtime *driver* (:class:`~repro.runtime.transport.AsyncHub`
or :class:`~repro.runtime.tcp.TcpDriver`): wire messages leave through
``driver.send`` and arrive at :meth:`AsyncGcsNode.on_wire`, which the
owner registers with the driver.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, FrozenSet, Iterable, List, Optional, Tuple

from repro.checking.events import GcsTrace
from repro.core.gcs_endpoint import GcsEndpoint
from repro.core.runner import EndpointRunner
from repro.membership.protocol import StartChangeNotice, ViewNotice
from repro.types import ProcessId, StartChangeId, View

if TYPE_CHECKING:
    from repro.runtime.cluster import Driver


@dataclass(frozen=True)
class Delivery:
    """An application message delivered to this node."""

    sender: ProcessId
    payload: Any


@dataclass(frozen=True)
class ViewChange:
    """A new view (with its transitional set) installed at this node."""

    view: View
    transitional: FrozenSet[ProcessId]


class AsyncGcsNode:
    """One group member over a runtime driver.

    ``progress`` (if given) is set on every view installation, to wake
    whoever waits for the group to settle.
    """

    def __init__(
        self,
        pid: ProcessId,
        driver: "Driver",
        *,
        trace: Optional[GcsTrace] = None,
        progress: Optional[asyncio.Event] = None,
        fastpath: Optional[bool] = None,
    ) -> None:
        self.pid = pid
        self.endpoint = GcsEndpoint(pid, gc_views=True)
        self.events_queue: asyncio.Queue = asyncio.Queue()
        self.delivered: List[Tuple[ProcessId, Any]] = []
        self.views: List[View] = []
        self._progress = progress
        self._unblocked = asyncio.Event()
        self._unblocked.set()
        self.runner = EndpointRunner(
            self.endpoint,
            send_wire=lambda targets, m: driver.send(pid, targets, m),
            # Both drivers are reliable while connected (in-process
            # queues; TCP reconnects on demand), so there is no per-link
            # retransmission state to arm.
            set_reliable=lambda targets: None,
            on_deliver=self._on_deliver,
            on_view=self._on_view,
            on_block=self._unblocked.clear,
            auto_block_ok=True,
            clock=time.monotonic,
            trace=trace,
            fastpath=fastpath,
        )

    # ------------------------------------------------------------------
    # application API
    # ------------------------------------------------------------------

    async def send(self, payload: Any) -> None:
        """Multicast ``payload`` to the current view (waits while blocked)."""
        while self.runner.blocked:
            await self._unblocked.wait()
        self.runner.app_send(payload)
        await asyncio.sleep(0)  # let inbox pumps make progress

    def events(self) -> asyncio.Queue:
        """Queue of :class:`Delivery` and :class:`ViewChange` events."""
        return self.events_queue

    async def next_event(self, timeout: Optional[float] = None) -> Any:
        if timeout is None:
            return await self.events_queue.get()
        return await asyncio.wait_for(self.events_queue.get(), timeout)

    async def wait_for_view(self, predicate: Callable[[View], bool], timeout: float = 5.0) -> ViewChange:
        """Consume events until a view satisfying ``predicate`` arrives."""
        deadline = asyncio.get_event_loop().time() + timeout
        while True:
            remaining = deadline - asyncio.get_event_loop().time()
            event = await asyncio.wait_for(self.events_queue.get(), max(0.01, remaining))
            if isinstance(event, ViewChange) and predicate(event.view):
                return event

    @property
    def current_view(self) -> View:
        return self.endpoint.current_view

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------

    def crash(self) -> None:
        """Crash the end-point: it ignores traffic until :meth:`recover`."""
        self.runner.crash()
        self._unblocked.set()  # do not leave senders waiting on a corpse

    def recover(self) -> None:
        self.runner.recover()
        if not self.runner.blocked:
            self._unblocked.set()

    @property
    def crashed(self) -> bool:
        return self.endpoint.crashed

    def on_wire(self, src: ProcessId, message: Any) -> None:
        """The driver handler: one wire message from ``src``."""
        if self.endpoint.crashed:
            return  # a crashed end-point hears nothing (Section 8)
        if isinstance(message, StartChangeNotice):
            self.runner.membership_start_change(message.cid, message.members)
        elif isinstance(message, ViewNotice):
            self.runner.membership_view(message.view)
        else:
            self.runner.receive(src, message)
        if not self.runner.blocked:
            self._unblocked.set()

    def membership_start_change(self, cid: StartChangeId, members: Iterable[ProcessId]) -> None:
        self.runner.membership_start_change(cid, frozenset(members))
        if self.runner.blocked:
            self._unblocked.clear()

    def membership_view(self, view: View) -> None:
        self.runner.membership_view(view)
        if not self.runner.blocked:
            self._unblocked.set()

    def _on_deliver(self, sender: ProcessId, payload: Any) -> None:
        self.delivered.append((sender, payload))
        self.events_queue.put_nowait(Delivery(sender, payload))

    def _on_view(self, view: View, transitional: FrozenSet[ProcessId]) -> None:
        self.views.append(view)
        self.events_queue.put_nowait(ViewChange(view, transitional))
        self._unblocked.set()
        if self._progress is not None:
            self._progress.set()
