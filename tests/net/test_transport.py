"""Unit tests for the per-process CO_RFIFO transport over the simulator."""

import pytest

from repro.net.latency import ConstantLatency
from repro.net.network import SimNetwork
from repro.net.simclock import EventScheduler
from repro.net.transport import SimTransport


def make_world():
    clock = EventScheduler()
    net = SimNetwork(clock, ConstantLatency(1.0))
    inboxes = {}
    transports = {}
    for pid in ("a", "b"):
        inboxes[pid] = []
        transports[pid] = SimTransport(
            pid, net, on_receive=lambda src, m, box=inboxes[pid]: box.append((src, m))
        )
    return clock, net, transports, inboxes


def test_multicast_excludes_self():
    clock, _net, transports, inboxes = make_world()
    transports["a"].send({"a", "b"}, "m")
    clock.run()
    assert inboxes["b"] == [("a", "m")]
    assert inboxes["a"] == []


def test_fifo_across_partition_heal_for_reliable_peer():
    clock, net, transports, inboxes = make_world()
    transports["a"].set_reliable({"a", "b"})
    transports["a"].send({"b"}, "m1")
    net.partition([["a"], ["b"]])  # m1 bounces into the retransmit queue
    transports["a"].send({"b"}, "m2")  # queued as pending
    clock.run()
    assert inboxes["b"] == []
    net.heal()
    clock.run()
    assert [m for _s, m in inboxes["b"]] == ["m1", "m2"]


def test_unreliable_peer_suffix_lost_on_partition():
    clock, net, transports, inboxes = make_world()
    # default reliable set is {a} only
    transports["a"].send({"b"}, "m1")
    net.partition([["a"], ["b"]])
    transports["a"].send({"b"}, "m2")
    net.heal()
    clock.run()
    assert inboxes["b"] == []  # both lost: CO_RFIFO.lose was allowed


def test_set_reliable_drops_disconnected_backlog():
    clock, net, transports, inboxes = make_world()
    transports["a"].set_reliable({"a", "b"})
    net.partition([["a"], ["b"]])
    transports["a"].send({"b"}, "m1")
    assert transports["a"].backlog("b") == 1
    transports["a"].set_reliable({"a"})
    assert transports["a"].backlog("b") == 0


def test_backlog_kept_for_connected_peer_regardless_of_reliability():
    clock, net, transports, inboxes = make_world()
    transports["a"].send({"b"}, "m1")
    clock.run()
    assert [m for _s, m in inboxes["b"]] == ["m1"]


def test_crash_drops_queues_and_mutes_delivery():
    clock, net, transports, inboxes = make_world()
    transports["a"].set_reliable({"a", "b"})
    net.partition([["a"], ["b"]])
    transports["a"].send({"b"}, "m1")
    transports["a"].crash()
    assert transports["a"].backlog("b") == 0
    net.heal()
    transports["b"].send({"a"}, "to-crashed")
    clock.run()
    assert inboxes["a"] == []  # crashed transport swallows deliveries


def test_recover_restores_sending():
    clock, net, transports, inboxes = make_world()
    transports["a"].crash()
    transports["a"].recover()
    transports["a"].send({"b"}, "m")
    clock.run()
    assert inboxes["b"] == [("a", "m")]


def test_send_while_disconnected_then_heal_preserves_order_with_live_traffic():
    clock, net, transports, inboxes = make_world()
    transports["a"].set_reliable({"a", "b"})
    transports["a"].send({"b"}, "m1")
    clock.run_until(0.5)  # m1 still in flight
    net.partition([["a"], ["b"]])  # m1 bounces
    transports["a"].send({"b"}, "m2")
    net.heal()
    transports["a"].send({"b"}, "m3")
    clock.run()
    assert [m for _s, m in inboxes["b"]] == ["m1", "m2", "m3"]


_RETRANSMIT_SCENARIO = """
import dataclasses
from repro.net import ConstantLatency, SimWorld

def canon(value):
    if isinstance(value, (set, frozenset)):
        return sorted(canon(v) for v in value)
    if dataclasses.is_dataclass(value):
        fields = [canon(getattr(value, f.name)) for f in dataclasses.fields(value)]
        return [type(value).__name__] + fields
    if isinstance(value, (tuple, list)):
        return [canon(v) for v in value]
    return repr(value)

world = SimWorld(latency=ConstantLatency(1.0), membership="oracle")
pids = [f"p{i}" for i in range(6)]
nodes = world.add_nodes(pids)
world.start()
world.run()
for node in nodes:
    node.send("m-" + node.pid)
world.run_until(world.now() + 0.5)
world.partition([["p0"], pids[1:]], reconfigure=False)
world.network.heal()
world.run()
for event in world.trace.events:
    print(canon(event))
"""


def test_retransmit_order_is_hash_seed_independent():
    """After a heal, p0 retransmits to five peers at one instant; the
    order of those pumps is the order the peers deliver in, so it must
    not follow set iteration order (two interpreters, two hash seeds)."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import repro

    src = str(Path(repro.__file__).resolve().parents[1])
    outputs = []
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
        result = subprocess.run(
            [sys.executable, "-c", _RETRANSMIT_SCENARIO],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        outputs.append(result.stdout)
    assert outputs[0] == outputs[1]
    assert "m-p0" in outputs[0]
