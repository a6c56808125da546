"""Partition, heal and blocking on both runtime clusters."""

import asyncio
import inspect

import pytest

from repro.checking import check_all_safety
from repro.runtime import AsyncCluster, Delivery, TcpCluster

CLUSTERS = pytest.mark.parametrize(
    "make_cluster", [AsyncCluster, TcpCluster], ids=["async", "tcp"]
)


def run(coro):
    return asyncio.run(coro)


async def add_nodes(cluster, pids):
    """``add_nodes`` is synchronous on the hub and awaitable on sockets."""
    nodes = cluster.add_nodes(pids)
    return await nodes if inspect.isawaitable(nodes) else nodes


def drain(node):
    events = []
    while not node.events_queue.empty():
        events.append(node.events_queue.get_nowait())
    return events


@CLUSTERS
def test_partition_isolates_islands(make_cluster):
    async def scenario():
        async with make_cluster() as cluster:
            a, b, c, d = await add_nodes(cluster, ["a", "b", "c", "d"])
            await cluster.start()
            views = await cluster.partition([["a", "b"], ["c", "d"]])
            assert views[0].members == {"a", "b"}
            assert views[1].members == {"c", "d"}
            await a.send("left only")
            await c.send("right only")
            await cluster.quiesce()
            left = [e.payload for e in drain(b) if isinstance(e, Delivery)]
            right = [e.payload for e in drain(d) if isinstance(e, Delivery)]
            assert "left only" in left and "right only" not in left
            assert "right only" in right and "left only" not in right
            check_all_safety(cluster.trace, list(cluster.nodes))

    run(scenario())


@CLUSTERS
def test_heal_restores_full_group(make_cluster):
    async def scenario():
        async with make_cluster() as cluster:
            nodes = await add_nodes(cluster, ["a", "b", "c", "d"])
            await cluster.start()
            await cluster.partition([["a", "b"], ["c", "d"]])
            merged = await cluster.heal()
            assert merged.members == {"a", "b", "c", "d"}
            await nodes[0].send("back together")
            await cluster.quiesce()
            for node in nodes[1:]:
                payloads = [e.payload for e in drain(node) if isinstance(e, Delivery)]
                assert "back together" in payloads
            check_all_safety(cluster.trace, list(cluster.nodes))

    run(scenario())


@CLUSTERS
def test_transitional_sets_reflect_partition_history(make_cluster):
    async def scenario():
        async with make_cluster() as cluster:
            a, b, c, d = await add_nodes(cluster, ["a", "b", "c", "d"])
            await cluster.start()
            await cluster.partition([["a", "b"], ["c", "d"]])
            merged = await cluster.heal()
            change = await a.wait_for_view(lambda v: v == merged, timeout=5.0)
            assert change.transitional == {"a", "b"}

    run(scenario())


@CLUSTERS
def test_send_waits_while_blocked(make_cluster):
    async def scenario():
        async with make_cluster() as cluster:
            a, b = await add_nodes(cluster, ["a", "b"])
            await cluster.start()
            # begin a change but withhold the view, so a is blocked
            cids = {"a": 901, "b": 902}
            for pid, cid in cids.items():
                cluster.nodes[pid].membership_start_change(cid, {"a", "b"})
            await asyncio.sleep(0.02)
            assert a.runner.blocked
            send_task = asyncio.create_task(a.send("queued until view"))
            await asyncio.sleep(0.02)
            assert not send_task.done()  # waiting, per the Figure 12 contract
            from repro._collections import frozendict
            from repro.types import View, ViewId

            view = View(ViewId(50), frozenset({"a", "b"}), frozendict(cids))
            for pid in ("a", "b"):
                cluster.nodes[pid].membership_view(view)
            await asyncio.wait_for(send_task, 2.0)
            await cluster.quiesce()
            payloads = [e.payload for e in drain(b) if isinstance(e, Delivery)]
            assert "queued until view" in payloads

    run(scenario())
