"""Per-process CO_RFIFO transport over the simulated network.

``SimTransport`` gives each process the interface the GCS end-point
expects from the connection-oriented reliable FIFO service of Figure 3:

* ``send(targets, message)`` - FIFO multicast;
* ``set_reliable(targets)`` - declare to whom gap-free delivery must be
  maintained (messages to them are buffered across partitions and
  retransmitted after a heal); to anyone else, a partition may drop an
  arbitrary suffix - exactly CO_RFIFO's ``lose`` action.

Internally each destination has two queues: ``retransmit`` (messages
bounced back by the network when a partition cut the link; they precede
everything) and ``pending`` (messages that could not even be handed to
the network).  The pump drains retransmit-then-pending whenever the link
is up, preserving per-destination FIFO without gaps.

While no destination has a backlog, a multicast is one
:meth:`SimNetwork.fan_out <repro.net.network.SimNetwork.fan_out>` call
over the sorted destinations; otherwise each destination is sent to,
or queued behind its backlog, one at a time.  On the receiving side each
carrier arrives as a run: ``on_run`` (the node's fast lane) may take a
leading part of it, and the rest goes to ``on_receive`` one message at a
time.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Dict, FrozenSet, Iterable, List, Optional

from repro.net.network import SimNetwork
from repro.types import ProcessId

ReceiveHandler = Callable[[ProcessId, Any], None]
# (src, one carrier's messages) -> how many leading messages it consumed
RunTaker = Callable[[ProcessId, List[Any]], int]


class SimTransport:
    """CO_RFIFO client endpoint for one simulated process."""

    def __init__(
        self,
        pid: ProcessId,
        network: SimNetwork,
        on_receive: Optional[ReceiveHandler] = None,
        on_run: Optional[RunTaker] = None,
    ) -> None:
        self.pid = pid
        self.network = network
        self.on_receive = on_receive
        # Offered each arriving carrier's run first; returns how many
        # leading messages it consumed.  The rest go to on_receive.
        self.on_run = on_run
        self.reliable_set: FrozenSet[ProcessId] = frozenset({pid})
        # Backlogs per destination; a key exists only while its queue is
        # non-empty, so "no backlog anywhere" is two truth tests.
        self._retransmit: Dict[ProcessId, Deque[Any]] = {}
        self._pending: Dict[ProcessId, Deque[Any]] = {}
        self.crashed = False
        network.register(pid, self._handle_run, self._handle_bounce, runs=True)
        network.on_topology_change(self._pump_all)

    # ------------------------------------------------------------------
    # the CO_RFIFO client interface
    # ------------------------------------------------------------------

    def send(self, targets: Iterable[ProcessId], message: Any) -> None:
        """FIFO multicast ``message`` to every process in ``targets``.

        Fan-out is in sorted order: ``targets`` is usually a frozenset,
        and iterating it directly would make same-instant delivery order
        depend on the interpreter's hash seed (traces must replay
        byte-for-byte across processes).  With no backlog anywhere the
        whole list is one :meth:`SimNetwork.fan_out` call; otherwise each
        destination queues behind its own backlog, one at a time.
        """
        if self.crashed:
            return
        pid = self.pid
        dsts = [dst for dst in sorted(targets) if dst != pid]
        if self._retransmit or self._pending:
            for dst in dsts:
                if not self._queues_empty(dst) or not self.network.send(pid, dst, message):
                    self._enqueue(dst, message)
            return
        # A refused destination is disconnected, so enqueueing it puts
        # nothing on the wire: doing it after the fan-out is the same as
        # doing it in turn.
        for dst in self.network.fan_out(pid, dsts, message):
            self._enqueue(dst, message)

    def set_reliable(self, targets: Iterable[ProcessId]) -> None:
        """Declare the reliable set; may drop suffixes to dropped peers."""
        self.reliable_set = frozenset(targets)
        for dst in list(self._pending):
            if dst not in self.reliable_set and not self.network.connected(self.pid, dst):
                del self._pending[dst]
        for dst in list(self._retransmit):
            if dst not in self.reliable_set and not self.network.connected(self.pid, dst):
                del self._retransmit[dst]

    # ------------------------------------------------------------------
    # crash / recovery (Section 8)
    # ------------------------------------------------------------------

    def crash(self) -> None:
        self.crashed = True
        self.reliable_set = frozenset()
        self._pending.clear()
        self._retransmit.clear()

    def recover(self) -> None:
        self.crashed = False
        self.reliable_set = frozenset({self.pid})

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _queues_empty(self, dst: ProcessId) -> bool:
        return dst not in self._retransmit and dst not in self._pending

    def _enqueue(self, dst: ProcessId, message: Any) -> None:
        """Queue ``message`` behind ``dst``'s backlog, or lose it."""
        if dst in self.reliable_set or self.network.connected(self.pid, dst):
            self._pending.setdefault(dst, deque()).append(message)
            self._pump(dst)
        # else: destination is neither reliable nor connected - the
        # suffix is lost (CO_RFIFO.lose).

    def _handle_run(self, src: ProcessId, messages: List[Any]) -> None:
        """One carrier's payloads, in channel order."""
        taken = 0
        if self.on_run is not None and not self.crashed:
            taken = self.on_run(src, messages)
        for message in messages[taken:] if taken else messages:
            self._handle_delivery(src, message)

    def _handle_delivery(self, src: ProcessId, message: Any) -> None:
        if self.crashed:
            return
        if self.on_receive is not None:
            self.on_receive(src, message)

    def _handle_bounce(self, dst: ProcessId, message: Any) -> None:
        """The network failed to transmit ``message`` (partition mid-flight).

        Bounces arrive in original send order, so appending to the
        retransmit queue preserves FIFO.
        """
        if self.crashed:
            return
        if dst in self.reliable_set:
            self._retransmit.setdefault(dst, deque()).append(message)
        # else: lost - dst is outside the reliable set.

    def _pump(self, dst: ProcessId) -> None:
        if self.crashed or not self.network.connected(self.pid, dst):
            return
        for queues in (self._retransmit, self._pending):
            queue = queues.get(dst)
            while queue:
                if not self.network.send(self.pid, dst, queue[0]):
                    return
                queue.popleft()
            queues.pop(dst, None)

    def _pump_all(self) -> None:
        # Sorted, like ``send``'s fan-out: after a heal the retransmitted
        # carriers of different links share one arrival instant, so their
        # order here is the order the destinations deliver in.
        for dst in sorted(set(self._retransmit) | set(self._pending)):
            self._pump(dst)

    def backlog(self, dst: ProcessId) -> int:
        """Messages queued (not yet on the wire) towards ``dst``."""
        return len(self._retransmit.get(dst, ())) + len(self._pending.get(dst, ()))
