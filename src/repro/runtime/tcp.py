"""Length-prefixed TCP transport and the socket driver.

``TcpTransport`` gives one process a real network face over the unified
:class:`~repro.links.LinkCore`: it listens on a local endpoint, opens
connections to peers lazily, and frames pickled wire messages with a
4-byte big-endian length prefix, while all link semantics (the
partition/reachability matrix behind :meth:`~TcpTransport.restrict`,
fault application, receiver-side deduplication, message counters) live
in the core.  TCP supplies the FIFO, gap-free delivery CO_RFIFO requires
per connection; a broken connection corresponds to CO_RFIFO losing a
suffix, after which the membership service is expected to reconfigure -
the same assumption the paper makes of its datagram substrate [36].

``TcpDriver`` is the runtime's socket driver: one transport and one
outbox pump per registered process, all sharing one core, so a single
partition matrix (and a single counter set) covers the whole
deployment.  A standalone transport creates its own core.

Quiescence over sockets is exact: every end of every connection lives
in the driver's process, so its
:class:`~repro.runtime.settle.InflightLedger` counts each outbox entry
until its run is written and each written wire copy until the receiving
reader has handled it.  A connection that breaks loses its written but
unread suffix, and releases that count exactly once (see
:class:`_Connection`).  A standalone transport keeps no ledger.

Security note: frames are deserialised with :mod:`pickle`, so this
transport must only be used among mutually trusted processes (it is meant
for the examples and tests of this reproduction, not a hostile WAN).
"""

from __future__ import annotations

import asyncio
import pickle
import struct
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.chaos.faults import FaultInjector
from repro.errors import TransportError
from repro.links import BatchAccumulator, LinkCore, MessageBatch
from repro.runtime.settle import InflightLedger
from repro.types import ProcessId

Handler = Callable[[ProcessId, Any], None]

_LENGTH = struct.Struct(">I")
_MAX_FRAME = 64 * 1024 * 1024


def encode_frame(pid: ProcessId, message: Any) -> bytes:
    body = pickle.dumps((pid, message), protocol=pickle.HIGHEST_PROTOCOL)
    if len(body) > _MAX_FRAME:
        raise TransportError(f"frame of {len(body)} bytes exceeds limit")
    return _LENGTH.pack(len(body)) + body


def encode_batch(pid: ProcessId, copies: Iterable[Any]) -> bytes:
    """Frame a run of wire copies as one length-prefixed pickle.

    A batch is one frame - one ``pickle.dumps``, one socket write - and
    therefore atomic on the wire: the receiver either reads the whole
    run (and unpacks it through
    :meth:`~repro.links.LinkCore.inbound_batch`) or none of it.  A
    single-copy run degenerates to the plain :func:`encode_frame`
    format, so mixed traffic needs no protocol negotiation.
    """
    copies = tuple(copies)
    if len(copies) == 1:
        return encode_frame(pid, copies[0])
    return encode_frame(pid, MessageBatch(copies))


async def read_frame(reader: asyncio.StreamReader) -> Tuple[ProcessId, Any]:
    header = await reader.readexactly(_LENGTH.size)
    (length,) = _LENGTH.unpack(header)
    if length > _MAX_FRAME:
        raise TransportError(f"frame of {length} bytes exceeds limit")
    body = await reader.readexactly(length)
    return pickle.loads(body)


class _Connection:
    """The wire copies one socket has carried, shared by both its ends.

    The dialer counts what it writes, the accepting reader what it has
    handled.  When either end sees the connection break, the written
    but unread suffix is lost (as CO_RFIFO allows) and leaves the
    ledger at once; from then on the connection no longer touches it.
    """

    __slots__ = ("ledger", "written", "read", "dead")

    def __init__(self, ledger: InflightLedger) -> None:
        self.ledger = ledger
        self.written = 0
        self.read = 0
        self.dead = False

    def wrote(self, n: int) -> None:
        if not self.dead:
            self.written += n
            self.ledger.add(n)

    def handled(self, n: int) -> None:
        if not self.dead:
            self.read += n
            self.ledger.release(n)

    def lost(self) -> None:
        if not self.dead:
            self.dead = True
            self.ledger.release(self.written - self.read)


class _Connections:
    """Pairs the two ends of each in-process connection on one ledger.

    Both ends name a connection by its (dialer, listener) addresses - the
    dialer's ``sockname``/``peername`` are the acceptor's
    ``peername``/``sockname`` - and whichever end attaches first creates
    the shared :class:`_Connection`.
    """

    def __init__(self, ledger: InflightLedger) -> None:
        self.ledger = ledger
        self._unpaired: Dict[Tuple[Any, Any], _Connection] = {}

    def attach(self, key: Tuple[Any, Any]) -> _Connection:
        conn = self._unpaired.pop(key, None)
        if conn is None:
            conn = self._unpaired[key] = _Connection(self.ledger)
        return conn


class TcpTransport:
    """One process's TCP endpoint: listener plus lazy outbound connections."""

    def __init__(
        self,
        pid: ProcessId,
        handler: Handler,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        faults: Optional[FaultInjector] = None,
        core: Optional[LinkCore] = None,
    ) -> None:
        self.pid = pid
        self.handler = handler
        self.host = host
        self.port = port
        self.core = core if core is not None else LinkCore(faults=faults)
        self.core.ensure(pid)
        self.peers: Dict[ProcessId, Tuple[str, int]] = {}
        self._server: Optional[asyncio.AbstractServer] = None
        self._writers: Dict[ProcessId, asyncio.StreamWriter] = {}
        self._reader_tasks: list = []
        # In-flight accounting, set by a driver; a standalone transport
        # counts nothing.
        self.connections: Optional[_Connections] = None
        self._conns: Dict[ProcessId, _Connection] = {}
        self._closed = False

    @property
    def faults(self) -> Optional[FaultInjector]:
        return self.core.faults

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> Tuple[str, int]:
        self._server = await asyncio.start_server(
            self._accept, host=self.host, port=self.port
        )
        sockname = self._server.sockets[0].getsockname()
        self.host, self.port = sockname[0], sockname[1]
        return self.host, self.port

    def set_peers(self, peers: Dict[ProcessId, Tuple[str, int]]) -> None:
        """Address book: where each peer process listens."""
        self.peers = dict(peers)

    def restrict(self, allowed: Optional[Iterable[ProcessId]]) -> None:
        """Limit traffic to ``allowed`` peers (``None`` lifts the limit).

        The per-endpoint face of the core's partition matrix, used to
        emulate a network partition on loopback: outgoing frames to, and
        incoming frames from, processes outside the set are dropped,
        mirroring the simulator's drop-across-the-cut semantics.
        """
        self.core.restrict(self.pid, allowed)

    async def close(self) -> None:
        self._closed = True
        for writer in self._writers.values():
            writer.close()
        self._writers.clear()
        for task in self._reader_tasks:
            task.cancel()
        await asyncio.gather(*self._reader_tasks, return_exceptions=True)
        self._reader_tasks.clear()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()

    # ------------------------------------------------------------------
    # sending
    # ------------------------------------------------------------------

    async def send(self, targets: Iterable[ProcessId], message: Any) -> None:
        await self.send_many(targets, (message,))

    async def send_many(self, targets: Iterable[ProcessId], messages: Iterable[Any]) -> None:
        """FIFO-multicast a run of messages, batch-framed per destination.

        Every message runs through the core's fault pipeline
        individually (drops, duplicates, and counters stay per-message),
        but consecutive zero-delay wire copies towards one destination
        share one :func:`encode_batch` frame: one pickle, one syscall,
        whatever the run length.
        """
        messages = list(messages)
        if not messages:
            return
        # Sorted fan-out: hash-order frozenset iteration must not decide
        # same-instant delivery order (traces replay byte-for-byte).
        for dst in sorted(targets):
            # Check the matrix before dialling: a partition cut must not
            # leak real connections across the emulated split.
            if dst == self.pid or not self.core.connected(self.pid, dst):
                continue
            writer = await self._writer_to(dst)
            if writer is None:
                continue  # unreachable: a suffix is lost, as CO_RFIFO allows
            conn = self._conns.get(dst)
            batch = BatchAccumulator(self.core, self.pid)
            for message in messages:
                batch.add(dst, message)
            try:
                for wire, extra in batch.flush(dst):
                    if extra:
                        # Loss penalty / jitter: hold the frame back.  TCP's
                        # own FIFO keeps the per-connection order intact.
                        await asyncio.sleep(extra)
                    if isinstance(wire, MessageBatch):
                        writer.write(encode_batch(self.pid, wire.copies))
                        copies = len(wire.copies)
                    else:
                        writer.write(encode_frame(self.pid, wire))
                        copies = 1
                    if conn is not None:
                        conn.wrote(copies)
                await writer.drain()
            except (ConnectionError, OSError):
                self._drop_writer(dst)

    async def _writer_to(self, dst: ProcessId) -> Optional[asyncio.StreamWriter]:
        writer = self._writers.get(dst)
        if writer is not None and not writer.is_closing():
            return writer
        address = self.peers.get(dst)
        if address is None:
            return None
        try:
            reader, writer = await asyncio.open_connection(*address)
        except (ConnectionError, OSError):
            return None
        self._writers[dst] = writer
        if self.connections is not None:
            self._conns[dst] = self.connections.attach(
                (writer.get_extra_info("sockname"), writer.get_extra_info("peername"))
            )
        return writer

    def _drop_writer(self, dst: ProcessId) -> None:
        writer = self._writers.pop(dst, None)
        if writer is not None:
            writer.close()
        conn = self._conns.pop(dst, None)
        if conn is not None:
            conn.lost()

    # ------------------------------------------------------------------
    # receiving
    # ------------------------------------------------------------------

    async def _accept(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._reader_tasks.append(task)
        conn = None
        if self.connections is not None:
            conn = self.connections.attach(
                (writer.get_extra_info("peername"), writer.get_extra_info("sockname"))
            )
        try:
            while not self._closed:
                src, wire = await read_frame(reader)
                batched = isinstance(wire, MessageBatch)
                try:
                    # The core drops frames that crossed a partition cut
                    # (kernel buffers can hold them past the split) and
                    # deduplicates wire copies.  A batched frame unpacks
                    # through the core too - per-message accounting, atomic
                    # topology check for the whole batch.
                    if batched:
                        for payload in self.core.inbound_batch(
                            src, self.pid, wire.copies, check_topology=True
                        ):
                            self.handler(src, payload)
                    else:
                        payload = self.core.inbound(src, self.pid, wire, check_topology=True)
                        if payload is not None:
                            self.handler(src, payload)
                finally:
                    if conn is not None:
                        conn.handled(len(wire.copies) if batched else 1)
        except (asyncio.IncompleteReadError, ConnectionError, OSError, TransportError):
            pass  # peer went away or sent garbage: CO_RFIFO may lose the suffix
        except asyncio.CancelledError:
            pass  # shutdown cancels pending reads; nothing to report
        finally:
            writer.close()
            if conn is not None:
                conn.lost()  # nothing more is read: the unread suffix is lost


class TcpDriver:
    """The socket driver: one :class:`TcpTransport` per registered process.

    ``send`` is fire-and-forget like :meth:`AsyncHub.send
    <repro.runtime.transport.AsyncHub.send>`: runners and membership
    servers produce wire messages synchronously, so each process gets an
    outbox pump that writes them to its sockets in order.  All
    transports share one :class:`~repro.links.LinkCore` (one partition
    matrix, fault pipeline and counter set), one live address book and
    one :class:`~repro.runtime.settle.InflightLedger`.
    """

    def __init__(self, *, faults: Optional[FaultInjector] = None) -> None:
        self.core = LinkCore(faults=faults)
        self._transports: Dict[ProcessId, TcpTransport] = {}
        self._addresses: Dict[ProcessId, Tuple[str, int]] = {}
        self._outboxes: Dict[ProcessId, asyncio.Queue] = {}
        # Entries enqueued per process and not yet written out - popped
        # runs that a pump is still sending (or holding back) included.
        self._unfinished: Dict[ProcessId, int] = {}
        self._pumps: Dict[ProcessId, asyncio.Task] = {}
        self.ledger = InflightLedger(self.core, lambda: self._unfinished)
        self._connections = _Connections(self.ledger)

    async def register(self, pid: ProcessId, handler: Handler) -> None:
        if pid in self._transports:
            raise ValueError(f"duplicate process {pid!r}")
        transport = TcpTransport(pid, handler, core=self.core)
        transport.peers = self._addresses  # shared, so late joiners are seen
        transport.connections = self._connections
        self._transports[pid] = transport
        self._outboxes[pid] = asyncio.Queue()
        self._unfinished[pid] = 0
        self._addresses[pid] = await transport.start()
        self._pumps[pid] = asyncio.get_event_loop().create_task(self._pump(pid))

    def send(self, src: ProcessId, targets: Iterable[ProcessId], message: Any) -> None:
        self._unfinished[src] += 1
        self.ledger.add()
        self._outboxes[src].put_nowait((targets, message))

    async def _pump(self, pid: ProcessId) -> None:
        outbox = self._outboxes[pid]
        while True:
            targets, message = await outbox.get()
            run: List[Any] = [message]
            # Coalesce the backlog: consecutive entries towards the same
            # target set leave as one batched frame per destination
            # (send_many), instead of one pickle+write per message.  Queue
            # order is preserved, so per-connection FIFO is untouched.
            while not outbox.empty():
                next_targets, next_message = outbox.get_nowait()
                if next_targets != targets:
                    await self._write(pid, targets, run)
                    targets, run = next_targets, []
                run.append(next_message)
            await self._write(pid, targets, run)

    async def _write(self, pid: ProcessId, targets: Iterable[ProcessId], run: List[Any]) -> None:
        try:
            await self._transports[pid].send_many(targets, run)
        finally:
            # The written frames are counted per connection by now.
            self._unfinished[pid] -= len(run)
            self.ledger.release(len(run))

    async def quiesce(self) -> None:
        """Wait until no message is in flight anywhere on the driver.

        A message is in flight from :meth:`send` until its outbox run is
        written (or held back, or dropped by the core), and each written
        wire copy until the receiver's reader has handled it or its
        connection broke.  Raises
        :class:`~repro.errors.SettleTimeoutError` when traffic never
        stops within the ``$REPRO_SETTLE_TIMEOUT``-scaled settle
        deadline.
        """
        await self.ledger.quiesce()

    async def close(self) -> None:
        for task in self._pumps.values():
            task.cancel()
        await asyncio.gather(*self._pumps.values(), return_exceptions=True)
        for transport in self._transports.values():
            await transport.close()
