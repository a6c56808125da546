"""Differential test: the type-routed verdict engine against an unrouted oracle.

:func:`repro.checking.verdict.run_verdict` feeds each event only to the
live rules whose ``EVENTS`` cover its type.  The oracle here is the
engine's earlier loop, which fed every live rule every event.  Routing
must be invisible: on every trace below the two produce byte-identical
:meth:`Verdict.to_json`.  A rule whose ``EVENTS`` misses a class its
``feed`` reads makes at least one of these traces diverge.
"""

from __future__ import annotations

from typing import List, Optional

import pytest

from repro.chaos import ChaosOp, ChaosPlan, ChaosRunner, FaultModel
from repro.checking import DEFAULT_CODES, extract_skeleton, run_verdict
from repro.checking.codes import violation_sort_key
from repro.checking.events import (
    CrashEvent,
    DeliverEvent,
    GcsTrace,
    MbrshpStartChangeEvent,
    MbrshpViewEvent,
    RecoverEvent,
    SendEvent,
    ViewEvent,
)
from repro.checking.forge import FORGERIES
from repro.checking.verdict import Verdict, Violation, _build_rules
from repro.types import View, make_view

from tests.conftest import trace_of

PROCS = ("a", "b", "c")
V1 = make_view(1, ["a", "b"], {"a": 1, "b": 1})
V2 = make_view(2, ["a", "b"], {"a": 2, "b": 2})


def unrouted_verdict(
    trace: GcsTrace,
    processes,
    *,
    final_view: Optional[View] = None,
    golden=None,
) -> Verdict:
    """The reference engine: every live rule is fed every event."""
    codes = list(DEFAULT_CODES)
    if final_view is not None:
        codes.append("VS-LIVE")
    if golden is not None:
        codes.append("VS-SKEL")
    active = _build_rules(tuple(codes), trace, processes, final_view, golden)
    violations: List[Violation] = []
    for index, event in enumerate(trace):
        if not active:
            break
        survivors = []
        for rule in active:
            violation = rule.feed(index, event)
            if violation is None:
                survivors.append(rule)
            else:
                violations.append(violation)
        active = survivors
    for rule in active:
        violation = rule.finish(len(trace))
        if violation is not None:
            violations.append(violation)
    violations.sort(key=lambda v: violation_sort_key(v.code, v.witness_index))
    return Verdict(
        status="PASS" if not violations else "FAIL",
        events=len(trace),
        rules=tuple(sorted(codes)),
        violations=tuple(violations),
    )


def assert_routing_invisible(trace, processes, *, final_view=None, golden=None):
    routed = run_verdict(trace, processes, final_view=final_view, golden=golden)
    reference = unrouted_verdict(
        trace, processes, final_view=final_view, golden=golden
    )
    assert routed.to_json() == reference.to_json()


def assert_forgeries_invisible(trace, processes):
    """Every forgery the trace has raw material for, VS-LIVE and VS-SKEL on."""
    golden = extract_skeleton(trace)
    final_view = trace.of_type(ViewEvent)[-1].view
    for forgery in FORGERIES.values():
        forged = forgery.apply(trace)
        if forged is None:
            continue
        assert_routing_invisible(
            forged.trace,
            processes,
            final_view=forged.final_view or final_view,
            golden=golden,
        )


@pytest.fixture(scope="module")
def good_trace():
    """The negative battery's episode: traffic and two reconfigurations."""
    plan = ChaosPlan(
        seed=0, processes=PROCS, faults=FaultModel(), ops=()
    ).with_ops([
        ChaosOp("send", pid="a", payload="m1"),
        ChaosOp("send", pid="a", payload="m2"),
        ChaosOp("settle"),
        ChaosOp("reconfigure", members=("a", "b")),
        ChaosOp("settle"),
        ChaosOp("reconfigure", members=PROCS),
    ])
    episode = ChaosRunner("sim").run(plan)
    assert episode.ok, episode.summary()
    return episode.trace


@pytest.mark.parametrize("code", sorted(FORGERIES))
def test_forged_trace(code, good_trace):
    forgery = FORGERIES[code]
    forged = forgery.apply(good_trace)
    assert forged is not None
    assert_routing_invisible(
        forged.trace,
        list(PROCS),
        final_view=forged.final_view if forgery.needs_final_view else None,
        golden=extract_skeleton(good_trace) if forgery.needs_golden else None,
    )


def test_multi_violation_trace():
    alien = make_view(3, ["a"], {"a": 3})
    trace = trace_of(
        ("view", "a", V2, {"a"}),
        ("view", "a", V1, {"a"}),
        ("view", "b", alien, {"b"}),
    )
    assert_routing_invisible(trace, ["a", "b"])


# Hand-made traces for event classes whose effect no recorded or forged
# trace above exposes: each one's verdict changes if a rule stops being
# fed the classes named in its comment.  One listed class has no probe:
# MBRSHP-CONF reads CrashEvent, but Figure 2's crash effect is empty, so
# no verdict can tell whether that rule was fed it.
PROBES = {
    # VS-SELF-INCL, VS-MONO, MBRSHP-SRV-FORK and MBRSHP-CONF reading
    # MbrshpViewEvent: the violations exist only among membership notices.
    "membership-notices": (
        GcsTrace([
            MbrshpViewEvent(0.0, "a", V2),
            MbrshpViewEvent(1.0, "a", V1),
            MbrshpViewEvent(2.0, "b", make_view(1, ["a"], {"a": 1})),
        ]),
        None,
    ),
    # VS-VSYNC, VS-TRANS-SET and VS-SPEC-REFINE reading RecoverEvent, and
    # VS-SELF-DLV reading CrashEvent: b crashes with an undelivered send
    # and rejoins from its initial view, not from V1 with a.
    "recovered-rejoin": (
        GcsTrace([
            ViewEvent(0.0, "a", V1, frozenset({"a"})),
            ViewEvent(1.0, "b", V1, frozenset({"b"})),
            SendEvent(2.0, "a", "m1"),
            DeliverEvent(3.0, "a", "a", "m1"),
            SendEvent(4.0, "b", "m2"),
            CrashEvent(5.0, "b"),
            RecoverEvent(6.0, "b"),
            ViewEvent(7.0, "a", V2, frozenset({"a"})),
            ViewEvent(8.0, "b", V2, frozenset({"b"})),
        ]),
        None,
    ),
    # VS-LIVE reading RecoverEvent: b's send after recovery is outside
    # the stable view.
    "send-after-recovery": (
        GcsTrace([
            ViewEvent(0.0, "a", V1, frozenset({"a"})),
            ViewEvent(1.0, "b", V1, frozenset({"b"})),
            CrashEvent(2.0, "b"),
            RecoverEvent(3.0, "b"),
            SendEvent(4.0, "b", "late"),
        ]),
        V1,
    ),
    # MBRSHP-CONF reading RecoverEvent: recovery ends a started change,
    # so the view that would have completed it is no longer enabled.
    "membership-recovery": (
        GcsTrace([
            MbrshpStartChangeEvent(0.0, "a", 1, frozenset({"a", "b"})),
            CrashEvent(1.0, "a"),
            RecoverEvent(2.0, "a"),
            MbrshpViewEvent(3.0, "a", V1),
        ]),
        None,
    ),
}


@pytest.mark.parametrize("name", sorted(PROBES))
def test_probe_trace(name):
    trace, final_view = PROBES[name]
    assert_routing_invisible(trace, ["a", "b"], final_view=final_view)


@pytest.mark.parametrize(
    "backend, seed, servers",
    [
        ("sim", 1, 0),
        ("sim", 4, 0),
        ("sim", 2, 3),
        ("async", 1, 3),
        ("async", 4, 0),
        ("tcp", 2, 0),
        ("tcp", 1, 3),
    ],
)
def test_chaos_episode(backend, seed, servers):
    plan = ChaosPlan.generate(seed, servers=servers)
    episode = ChaosRunner(backend).run(plan)
    assert episode.trace is not None, episode.summary()
    processes = list(plan.processes)
    assert_routing_invisible(episode.trace, processes)
    assert_forgeries_invisible(episode.trace, processes)
