"""Membership service substrate (the paper's external MBRSHP service).

Two implementations of the Figure 2 interface:

* :class:`~repro.membership.tier.MembershipTier` - a tier of dedicated
  :class:`~repro.membership.server.MembershipServer` processes, the
  client-server architecture of [27], with a one-round (common case)
  inter-server agreement, a durable watermark store and crashable
  servers.  The simulator, asyncio and TCP substrates all run it over a
  :class:`~repro.membership.tier.TierLink`;
* :class:`~repro.membership.oracle.OracleMembership` - a centralized
  oracle with scripted timing, for controlled experiments (each shard of
  :class:`repro.scale.sharding.ShardedMembershipTier` is one, too).
"""

from repro.membership.oracle import OracleMembership
from repro.membership.protocol import (
    SERVER_PREFIX,
    ServerProposal,
    StartChangeNotice,
    ViewNotice,
    server_id,
)
from repro.membership.server import MembershipServer
from repro.membership.tier import MembershipTier, PartitionPlan, TierLink

__all__ = [
    "SERVER_PREFIX",
    "MembershipServer",
    "MembershipTier",
    "OracleMembership",
    "PartitionPlan",
    "ServerProposal",
    "StartChangeNotice",
    "TierLink",
    "ViewNotice",
    "server_id",
]
