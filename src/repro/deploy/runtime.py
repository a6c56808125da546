"""Deployment backend over the runtime clusters (asyncio hub or TCP)."""

from __future__ import annotations

import inspect
from typing import Any, Iterable, List, Optional, Tuple

from repro.checking.events import GcsTrace
from repro.deploy.base import Deployment
from repro.runtime.cluster import AsyncCluster
from repro.runtime.tcp_cluster import TcpCluster
from repro.types import ProcessId, View

CLUSTERS = {"async": AsyncCluster, "tcp": TcpCluster}


class RuntimeDeployment(Deployment):
    """Runs the group on a runtime cluster: ``"async"`` puts every wire
    message on in-process asyncio queues, ``"tcp"`` through the kernel's
    TCP stack.  Either way a :class:`~repro.membership.tier.MembershipTier`
    of real membership servers runs on the same driver."""

    def __init__(self, substrate: str, **cluster_kwargs: Any) -> None:
        self.name = substrate
        self.cluster = CLUSTERS[substrate](**cluster_kwargs)

    async def setup(self, pids: Iterable[ProcessId]) -> View:
        added = self.cluster.add_nodes(list(pids))
        if inspect.isawaitable(added):  # sockets must listen first
            await added
        return await self.cluster.start()

    async def close(self) -> None:
        await self.cluster.close()

    async def send(self, pid: ProcessId, payload: Any) -> None:
        await self.cluster.node(pid).send(payload)

    async def settle(self) -> None:
        await self.cluster.quiesce()

    async def reconfigure(self, members: Iterable[ProcessId]) -> View:
        return await self.cluster.reconfigure(members)

    async def partition(self, groups: Iterable[Iterable[ProcessId]]) -> List[View]:
        return await self.cluster.partition(groups)

    async def heal(self) -> View:
        return await self.cluster.heal()

    async def crash(self, pid: ProcessId) -> None:
        await self.cluster.crash(pid)

    async def recover(self, pid: ProcessId) -> None:
        await self.cluster.recover(pid)

    def server_ids(self) -> List[ProcessId]:
        return sorted(self.cluster.tier.servers)

    async def server_crash(self, sid: Optional[ProcessId] = None) -> ProcessId:
        return await self.cluster.server_crash(sid)

    async def server_recover(self, sid: ProcessId) -> None:
        await self.cluster.server_recover(sid)

    async def server_partition(
        self, groups: Iterable[Iterable[ProcessId]]
    ) -> List[View]:
        return await self.cluster.server_partition(groups)

    @property
    def trace(self) -> GcsTrace:
        return self.cluster.trace

    @property
    def links(self):
        return self.cluster.links

    def processes(self) -> List[ProcessId]:
        return sorted(self.cluster.nodes)

    def current_view(self, pid: ProcessId) -> View:
        return self.cluster.node(pid).current_view

    def delivered(self, pid: ProcessId) -> List[Tuple[ProcessId, Any]]:
        return list(self.cluster.node(pid).delivered)

    def views(self, pid: ProcessId) -> List[View]:
        return list(self.cluster.node(pid).views)
