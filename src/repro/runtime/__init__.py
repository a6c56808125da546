"""asyncio runtime: the deployable face of the library (cf. the paper's
C++ implementation).

One stack serves every wall-clock substrate.  Only the *driver* - how a
message reaches its peer - differs:

* :class:`AsyncHub` - lossless in-process queues;
* :class:`TcpDriver` - one length-prefixed :class:`TcpTransport` and
  outbox pump per process, for cross-process deployments among trusted
  peers.

On top of either sit :class:`AsyncGcsNode` (one group member with an
async send/receive API) and :class:`Cluster` (nodes plus a membership
tier running the real one-round MBRSHP protocol on the same driver).
:class:`AsyncCluster` and :class:`TcpCluster` only choose the driver;
:func:`await_settled` and the drivers' shared
:class:`~repro.runtime.settle.InflightLedger` are the event-driven
settling both use.
"""

from repro.runtime.cluster import AsyncCluster, Cluster, Driver
from repro.runtime.node import AsyncGcsNode, Delivery, ViewChange
from repro.runtime.settle import await_settled, describe_views, uniform_view
from repro.runtime.tcp import TcpDriver, TcpTransport, encode_frame, read_frame
from repro.runtime.tcp_cluster import TcpCluster
from repro.runtime.transport import AsyncHub

__all__ = [
    "AsyncCluster",
    "AsyncGcsNode",
    "AsyncHub",
    "Cluster",
    "Delivery",
    "Driver",
    "TcpCluster",
    "TcpDriver",
    "TcpTransport",
    "ViewChange",
    "await_settled",
    "describe_views",
    "encode_frame",
    "read_frame",
    "uniform_view",
]
