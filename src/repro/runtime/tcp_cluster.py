"""A GCS cluster over real TCP sockets.

``TcpCluster`` is the runtime :class:`~repro.runtime.cluster.Cluster`
on a :class:`~repro.runtime.tcp.TcpDriver`: every member and every
membership server listens on its own socket, so wire messages and
start_change/view notices alike cross the kernel - the closest analogue
to the paper's C++ deployment this repository offers.  Partitions are
cuts in the driver's shared link core, which drops frames across them
the way a real network split would.

TCP supplies CO_RFIFO's per-connection gap-free FIFO; a broken
connection is a lost suffix, after which the membership must
reconfigure - the assumption the paper makes of its substrate [36].
"""

from __future__ import annotations

from typing import Iterable, List, Optional

from repro.chaos.faults import FaultInjector
from repro.runtime.cluster import Cluster
from repro.runtime.node import AsyncGcsNode
from repro.runtime.tcp import TcpDriver
from repro.types import ProcessId


class TcpCluster(Cluster):
    """Spin up members on loopback sockets and manage their membership."""

    def __init__(
        self,
        *,
        servers: int = 1,
        faults: Optional[FaultInjector] = None,
        fastpath: Optional[bool] = None,
    ) -> None:
        super().__init__(TcpDriver(faults=faults), servers=servers, fastpath=fastpath)

    async def add_nodes(self, pids: Iterable[ProcessId]) -> List[AsyncGcsNode]:
        created = []
        for pid in pids:
            node = self._new_node(pid)
            await self.driver.register(pid, node.on_wire)
            created.append(self._admit(node))
        return created
