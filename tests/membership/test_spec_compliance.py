"""Both membership implementations must satisfy the MBRSHP spec (Figure 2).

Each client's notice stream is replayed through the ``MbrshpSpec``
acceptor: any disabled step is a violation of the Figure 2 contract.
"""

import pytest

from repro.checking.events import MbrshpStartChangeEvent, MbrshpViewEvent
from repro.errors import ActionNotEnabled
from repro.ioa import Action
from repro.net import ConstantLatency, SimWorld
from repro.spec.mbrshp import MbrshpSpec


def replay_membership_events(trace, processes):
    spec = MbrshpSpec(processes)
    for event in trace:
        if isinstance(event, MbrshpStartChangeEvent):
            action = Action("mbrshp.start_change", (event.proc, event.cid, event.members))
        elif isinstance(event, MbrshpViewEvent):
            action = Action("mbrshp.view", (event.proc, event.view))
        else:
            continue
        assert spec.is_enabled(action), f"MBRSHP spec violated by {action!r}"
        spec.apply(action)
    return spec


@pytest.mark.parametrize("servers", [1, 2, 3])
def test_server_membership_satisfies_spec(servers):
    world = SimWorld(latency=ConstantLatency(1.0), membership="tier", servers=servers)
    world.add_nodes([f"p{i}" for i in range(5)])
    world.start()
    world.run(max_events=100_000)
    replay_membership_events(world.trace, list(world.nodes))


def test_server_membership_spec_through_churn():
    world = SimWorld(latency=ConstantLatency(1.0), membership="tier", servers=2)
    nodes = world.add_nodes([f"p{i}" for i in range(4)])
    world.start()
    world.run(max_events=100_000)
    world.crash(nodes[0].pid)
    world.run(max_events=100_000)
    world.recover(nodes[0].pid)
    world.run(max_events=100_000)
    replay_membership_events(world.trace, list(world.nodes))


def test_oracle_membership_satisfies_spec():
    world = SimWorld(latency=ConstantLatency(1.0), membership="oracle", round_duration=2.0)
    world.add_nodes([f"p{i}" for i in range(5)])
    world.start()
    world.run()
    world.partition([["p0", "p1"], ["p2", "p3", "p4"]])
    world.run()
    world.heal()
    world.run()
    replay_membership_events(world.trace, list(world.nodes))


def test_oracle_with_repeated_changes_satisfies_spec():
    world = SimWorld(latency=ConstantLatency(1.0), membership="oracle", round_duration=2.0)
    world.add_nodes(["a", "b", "c"])
    world.start()
    world.run_until(0.5)
    world.oracle.reconfigure([["a", "b", "c"]], extra_changes=2)
    world.run()
    replay_membership_events(world.trace, list(world.nodes))
