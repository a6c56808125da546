"""One runtime cluster over a driver.

A :class:`Cluster` bundles a *driver* (the only substrate-specific
part), a :class:`~repro.membership.tier.MembershipTier` of real
membership servers (the same one-round client-server protocol the
simulator runs - see :mod:`repro.membership.server`), and node
management.  Membership servers are driver processes like any client,
so their notices travel like any other traffic and partitions cut
clients off from their servers exactly as a WAN partition would.

:class:`AsyncCluster` runs on the in-process
:class:`~repro.runtime.transport.AsyncHub`;
:class:`~repro.runtime.tcp_cluster.TcpCluster` runs on real sockets.

All settling is event-driven: view installations wake the waiters, and a
stuck protocol raises :class:`~repro.errors.SettleTimeoutError` instead
of hanging.  Every node records into one shared :class:`GcsTrace`, so
``repro.checking`` can audit any run post-hoc.
"""

from __future__ import annotations

import asyncio
import time
from typing import Any, Awaitable, Callable, Dict, FrozenSet, Iterable, List, Optional, Protocol

from repro.chaos.faults import FaultInjector
from repro.checking.events import GcsTrace
from repro.links import LinkCore
from repro.membership.tier import MembershipTier
from repro.runtime.node import AsyncGcsNode
from repro.runtime.settle import await_settled, describe_views
from repro.runtime.settle import settle_timeout as env_settle_timeout
from repro.runtime.transport import AsyncHub
from repro.types import VID_ZERO, ProcessId, View

Handler = Callable[[ProcessId, Any], None]


class Driver(Protocol):
    """How messages reach their peer: all a substrate contributes.

    Link semantics (partition matrix, faults, dedup, counters) live in
    the driver's shared ``core``; ``send`` must admit every message
    through it and be fire-and-forget and order-preserving per sender.
    ``register`` may return an awaitable (sockets must listen first).
    """

    core: LinkCore

    def register(self, pid: ProcessId, handler: Handler) -> Optional[Awaitable[None]]:
        ...  # pragma: no cover - protocol

    def send(self, src: ProcessId, targets: Iterable[ProcessId], message: Any) -> None:
        ...  # pragma: no cover - protocol

    async def quiesce(self) -> None:
        ...  # pragma: no cover - protocol

    async def close(self) -> None:
        ...  # pragma: no cover - protocol


class DriverTierLink:
    """Hosts membership servers on a driver, as processes of their own.

    Tier traffic rides ``driver.send``, so it sees the same partition
    matrix, fault pipeline, dedup and counters as data.
    """

    def __init__(self, driver: Driver) -> None:
        self.driver = driver

    async def attach(self, sid: ProcessId, handler: Handler) -> None:
        registered = self.driver.register(sid, handler)
        if registered is not None:
            await registered

    def transmit(self, src: ProcessId, dst: ProcessId, message: Any) -> None:
        self.driver.send(src, (dst,), message)


class Cluster:
    """A group of GCS nodes with server-based membership over a driver."""

    def __init__(
        self, driver: Driver, *, servers: int = 1, fastpath: Optional[bool] = None
    ) -> None:
        self.driver = driver
        self.nodes: Dict[ProcessId, AsyncGcsNode] = {}
        self.trace: GcsTrace = GcsTrace()
        self._fastpath = fastpath
        self.tier = MembershipTier(
            DriverTierLink(driver),
            servers=servers,
            links=driver.core,
            trace=self.trace,
            clock=time.monotonic,
        )
        # Set whenever any node installs a view; wakes settling waiters.
        self._progress = asyncio.Event()

    @property
    def views_formed(self) -> List[View]:
        return self.tier.views_formed

    @property
    def links(self) -> LinkCore:
        """The driver's unified :class:`~repro.links.LinkCore`."""
        return self.driver.core

    def totals(self) -> Dict[str, int]:
        """Per-kind wire-message counters (uniform across substrates)."""
        return self.driver.core.totals()

    def reset_counters(self) -> None:
        self.driver.core.reset_counters()

    # ------------------------------------------------------------------
    # topology management
    # ------------------------------------------------------------------

    def _new_node(self, pid: ProcessId) -> AsyncGcsNode:
        return AsyncGcsNode(
            pid, self.driver, trace=self.trace, progress=self._progress, fastpath=self._fastpath
        )

    def _admit(self, node: AsyncGcsNode) -> AsyncGcsNode:
        """Adopt a node whose handler the driver has registered."""
        self.nodes[node.pid] = node
        self.tier.add_client(node.pid)
        return node

    async def start(self) -> View:
        """Activate the membership tier; wait for the all-nodes view."""
        await self.tier.start()
        return await self.await_members(frozenset(self.nodes))

    async def reconfigure(self, members: Iterable[ProcessId]) -> View:
        """Drive the membership to ``members`` and wait for the view.

        The tier's servers run their agreement round(s) over the driver;
        this returns once every member's end-point has installed one
        common view with exactly ``members``.
        """
        member_set = frozenset(members)
        unknown = member_set - set(self.nodes)
        if unknown:
            raise ValueError(f"unknown nodes {sorted(unknown)}")
        if not self.tier.started:
            await self.tier.start()
        self.tier.set_members(member_set)
        return await self.await_members(member_set)

    async def await_members(
        self,
        member_set: FrozenSet[ProcessId],
        timeout: Optional[float] = None,
        *,
        min_counter: int = 0,
    ) -> View:
        """Wait until ``member_set`` share one installed view of themselves.

        ``min_counter`` waits for a *fresh* view (counter at least that
        high) - server faults re-form a view of unchanged membership, so
        matching members alone would accept the stale pre-fault view.
        """
        if not member_set:
            raise ValueError("empty member set")
        members = sorted(member_set)

        def predicate() -> bool:
            views = [self.nodes[pid].current_view for pid in members]
            first = views[0]
            return (
                first.vid != VID_ZERO
                and first.vid.counter >= min_counter
                and first.members == member_set
                and all(v == first for v in views[1:])
            )

        await await_settled(
            predicate,
            self._progress,
            timeout=env_settle_timeout(10.0) if timeout is None else timeout,
            describe=lambda: "awaiting view %s; %s"
            % (members, describe_views({p: self.nodes[p] for p in members})),
        )
        return self.nodes[members[0]].current_view

    async def quiesce(self) -> None:
        """Wait until no traffic is left in flight (see the driver)."""
        await self.driver.quiesce()

    # ------------------------------------------------------------------
    # fault injection
    # ------------------------------------------------------------------

    async def partition(self, groups: Iterable[Iterable[ProcessId]]) -> List[View]:
        """Split the network into components; one view forms per group.

        Each group gets its own membership server (grown on demand), cut
        off - together with its clients - from the rest of the world on
        the driver's link core, mirroring the simulator's
        drop-across-the-cut semantics.
        """
        groups = [list(group) for group in groups]
        # Crashed servers hold no partition group: capacity must cover
        # the groups with *alive* servers.
        await self.tier.ensure_capacity(
            max(
                len(groups) + len(self.tier.crashed_servers()),
                len(self.tier.servers),
            )
        )
        plan = self.tier.plan_partition(groups)
        # The tier cuts the driver's link core along plan.components itself.
        self.tier.apply_partition(plan)
        views = []
        for group in groups:
            views.append(await self.await_members(frozenset(group)))
        return views

    async def heal(self) -> View:
        """Reconnect everyone; wait for the merged view."""
        self.tier.heal()  # heals the driver's link core too
        return await self.await_members(self.tier.active_members())

    async def crash(self, pid: ProcessId) -> Optional[View]:
        """Crash ``pid``; wait for the survivors' view (if any survive)."""
        self.nodes[pid].crash()
        self.tier.client_crashed(pid)
        survivors = self.tier.active_members()
        if not survivors:
            return None
        return await self.await_members(survivors)

    async def recover(self, pid: ProcessId) -> View:
        """Recover ``pid``; wait for the view re-admitting it."""
        self.nodes[pid].recover()
        self.tier.client_recovered(pid)
        return await self.await_members(self.tier.active_members())

    # ------------------------------------------------------------------
    # the server fault domain
    # ------------------------------------------------------------------

    async def server_crash(self, sid: Optional[ProcessId] = None) -> ProcessId:
        """Crash a membership server; wait for the failover view."""
        fresh = self.tier.watermark() + 1
        sid = self.tier.crash_server(sid)
        members = self.tier.active_members()
        if members:
            await self.await_members(members, min_counter=fresh)
        return sid

    async def server_recover(self, sid: ProcessId) -> View:
        """Recover a crashed server; wait for its rejoin view."""
        fresh = self.tier.watermark() + 1
        self.tier.recover_server(sid)
        return await self.await_members(self.tier.active_members(), min_counter=fresh)

    async def server_partition(
        self, groups: Iterable[Iterable[ProcessId]]
    ) -> List[View]:
        """Partition the server tier; one view per non-empty component."""
        fresh = self.tier.watermark() + 1
        effective = self.tier.partition_servers(groups)
        views = []
        for group in effective:
            members = self.tier.clients_of(group)
            if members:
                views.append(await self.await_members(members, min_counter=fresh))
        return views

    async def close(self) -> None:
        await self.driver.close()

    # ------------------------------------------------------------------
    # convenience
    # ------------------------------------------------------------------

    def node(self, pid: ProcessId) -> AsyncGcsNode:
        return self.nodes[pid]

    async def __aenter__(self) -> "Cluster":
        return self

    async def __aexit__(self, *exc_info: Any) -> None:
        await self.close()


class AsyncCluster(Cluster):
    """An in-process cluster on an :class:`AsyncHub`."""

    def __init__(
        self,
        *,
        delay: float = 0.0,
        servers: int = 1,
        faults: Optional[FaultInjector] = None,
        fastpath: Optional[bool] = None,
    ) -> None:
        super().__init__(AsyncHub(delay=delay, faults=faults), servers=servers, fastpath=fastpath)

    def add_node(self, pid: ProcessId) -> AsyncGcsNode:
        node = self._new_node(pid)
        self.driver.register(pid, node.on_wire)
        return self._admit(node)

    def add_nodes(self, pids: Iterable[ProcessId]) -> List[AsyncGcsNode]:
        return [self.add_node(pid) for pid in pids]
