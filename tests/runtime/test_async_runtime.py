"""Tests for the asyncio runtime (hub, node, cluster)."""

import asyncio

import pytest

from repro.checking import check_all_safety
from repro.runtime import AsyncCluster, Delivery, ViewChange


def run(coro):
    return asyncio.run(coro)


def test_cluster_initial_view_and_multicast():
    async def scenario():
        async with AsyncCluster() as cluster:
            nodes = cluster.add_nodes(["a", "b", "c"])
            view = await cluster.start()
            assert view.members == {"a", "b", "c"}
            await nodes[0].send("hello")
            await cluster.quiesce()
            for node in nodes:
                events = drain_events(node)
                assert Delivery("a", "hello") in events
            check_all_safety(cluster.trace, list(cluster.nodes))

    run(scenario())


def drain_events(node):
    events = []
    while not node.events_queue.empty():
        events.append(node.events_queue.get_nowait())
    return events


def test_view_change_event_carries_transitional_set():
    async def scenario():
        async with AsyncCluster() as cluster:
            nodes = cluster.add_nodes(["a", "b"])
            view = await cluster.start()
            events = drain_events(nodes[0])
            changes = [e for e in events if isinstance(e, ViewChange)]
            assert changes and changes[0].view == view
            assert changes[0].transitional == {"a"}

    run(scenario())


def test_fifo_order_preserved():
    async def scenario():
        async with AsyncCluster() as cluster:
            a, b = cluster.add_nodes(["a", "b"])
            await cluster.start()
            for i in range(20):
                await a.send(i)
            await cluster.quiesce()
            got = [e.payload for e in drain_events(b) if isinstance(e, Delivery)]
            assert got == list(range(20))

    run(scenario())


def test_reconfigure_blocks_and_unblocks_senders():
    async def scenario():
        async with AsyncCluster() as cluster:
            nodes = cluster.add_nodes(["a", "b", "c"])
            await cluster.start()
            await nodes[0].send("before")
            v2 = await cluster.reconfigure(["a", "b"])
            assert v2.members == {"a", "b"}
            await nodes[0].send("after")
            await cluster.quiesce()
            check_all_safety(cluster.trace, list(cluster.nodes))
            got_b = [e.payload for e in drain_events(nodes[1]) if isinstance(e, Delivery)]
            assert got_b == ["before", "after"]
            got_c = [e.payload for e in drain_events(nodes[2]) if isinstance(e, Delivery)]
            assert got_c == ["before"]

    run(scenario())


def test_join_after_start():
    async def scenario():
        async with AsyncCluster() as cluster:
            cluster.add_nodes(["a", "b"])
            await cluster.start()
            late = cluster.add_node("late")
            view = await cluster.reconfigure(["a", "b", "late"])
            assert "late" in view.members
            await late.send("i made it")
            await cluster.quiesce()
            check_all_safety(cluster.trace, list(cluster.nodes))
            got = [e.payload for e in drain_events(cluster.node("a")) if isinstance(e, Delivery)]
            assert "i made it" in got

    run(scenario())


def test_delayed_hub_still_safe():
    async def scenario():
        async with AsyncCluster(delay=0.003) as cluster:
            nodes = cluster.add_nodes(["a", "b", "c"])
            await cluster.start()
            for node in nodes:
                await node.send(f"from {node.pid}")
            await cluster.quiesce()
            await cluster.reconfigure(["a", "c"])
            await cluster.quiesce()
            check_all_safety(cluster.trace, list(cluster.nodes))

    run(scenario())


def test_next_event_timeout():
    async def scenario():
        async with AsyncCluster() as cluster:
            a, _b = cluster.add_nodes(["a", "b"])
            await cluster.start()
            drain_events(a)
            with pytest.raises(asyncio.TimeoutError):
                await a.next_event(timeout=0.05)

    run(scenario())


def test_duplicate_node_rejected():
    async def scenario():
        async with AsyncCluster() as cluster:
            cluster.add_node("a")
            with pytest.raises(ValueError):
                cluster.add_node("a")

    run(scenario())
