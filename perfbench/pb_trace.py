"""The traced run: spans around every layer's public entry points.

:class:`Tracer` wraps, from outside the program, the entry points of
``repro.core``, ``repro.links``, ``repro.net``, ``repro.runtime``,
``repro.membership`` and ``repro.checking`` (see :data:`SPANS`).  Each
wrapped synchronous call records one span - name, start, end, parent
span and the current op or round id - into flat in-memory arrays, which
:meth:`Tracer.write` saves when the run ends.

Two more span sources make the split add up to the run's wall time:

* every asyncio callback the loop runs (``Handle._run``) is a root span:
  the benchmark's own task counts as ``harness``, every other task or
  callback (hub pumps, socket readers, server ports) as ``runtime``;
* the loop's selector ``select`` is a root span of the ``runtime`` layer
  too - the time work waited on sockets or queues
  (``runtime.loop.idle_share``).

Coroutine entry points (settling, view awaits) interleave with other
tasks, so they are kept as separate *wait* intervals and never enter the
self-time tree.  A layer's self time is its spans' durations minus the
part their child spans cover (:func:`pb_stats.self_times`).
"""

from __future__ import annotations

import asyncio
import functools
import importlib
import json
import os
import time
from array import array
from typing import Any, Callable, Dict, List, Optional, Tuple

from pb_stats import self_times

#: (module, owner attribute or None for a module function, function,
#: span name, layer).  Every rule code of the verdict engine gets its own
#: ``checking.rule.<CODE>`` span through :func:`_rule_spans`.
SPANS: Tuple[Tuple[str, Optional[str], str, str, str], ...] = (
    ("repro.core.runner", "EndpointRunner", "app_send", "core.send", "core"),
    ("repro.core.runner", "EndpointRunner", "receive", "core.recv", "core"),
    ("repro.core.runner", "EndpointRunner", "receive_batch", "core.recv_batch", "core"),
    ("repro.core.runner", "EndpointRunner", "drain", "core.drain", "core"),
    ("repro.core.runner", "EndpointRunner", "membership_start_change", "core.mbrshp", "core"),
    ("repro.core.runner", "EndpointRunner", "membership_view", "core.mbrshp", "core"),
    ("repro.core.runner", "EndpointRunner", "crash", "core.fault", "core"),
    ("repro.core.runner", "EndpointRunner", "recover", "core.fault", "core"),
    ("repro.core.fastpath", "FastLane", "try_send", "core.fastlane.send", "core"),
    ("repro.core.fastpath", "FastLane", "try_receive", "core.fastlane.recv", "core"),
    ("repro.links.core", "LinkCore", "outbound", "links.outbound", "links"),
    ("repro.links.core", "LinkCore", "inbound", "links.inbound", "links"),
    ("repro.links.core", "LinkCore", "inbound_batch", "links.inbound", "links"),
    ("repro.links.batch", "BatchAccumulator", "add", "links.batch", "links"),
    ("repro.links.batch", "BatchAccumulator", "flush", "links.batch", "links"),
    ("repro.net.simclock", "EventScheduler", "step", "net.step", "net"),
    ("repro.net.transport", "SimTransport", "send", "net.transport", "net"),
    ("repro.net.network", "SimNetwork", "send", "net.send", "net"),
    ("repro.runtime.transport", "AsyncHub", "send", "runtime.hub.send", "runtime"),
    ("repro.runtime.tcp", None, "encode_frame", "runtime.tcp.encode", "runtime"),
    ("repro.runtime.tcp", None, "encode_batch", "runtime.tcp.encode", "runtime"),
    ("repro.membership.server", "MembershipServer", "on_message", "membership.on_message", "membership"),
    ("repro.membership.server", "MembershipServer", "begin_round", "membership.round", "membership"),
    ("repro.membership.server", "MembershipServer", "update_clients", "membership.clients", "membership"),
    ("repro.membership.server", "MembershipServer", "client_crashed", "membership.clients", "membership"),
    ("repro.membership.server", "MembershipServer", "client_recovered", "membership.clients", "membership"),
    ("repro.membership.server", "MembershipServer", "set_reachable", "membership.clients", "membership"),
    ("repro.membership.server", "MembershipServer", "crash", "membership.fault", "membership"),
    ("repro.membership.server", "MembershipServer", "restore", "membership.fault", "membership"),
    ("repro.checking.events", "GcsTrace", "append", "checking.append", "checking"),
    # Deployment.verdict looks run_verdict up in its own module.
    ("repro.deploy.base", None, "run_verdict", "checking.verdict", "checking"),
)

#: Coroutine entry points: (module, class, coroutine, wait name).
WAITS: Tuple[Tuple[str, str, str, str], ...] = (
    ("repro.runtime.tcp_cluster", "TcpCluster", "quiesce", "runtime.settle"),
    ("repro.runtime.transport", "AsyncHub", "quiesce", "runtime.settle"),
    ("repro.runtime.tcp_cluster", "TcpCluster", "await_members", "runtime.await_view"),
    ("repro.runtime.cluster", "AsyncCluster", "await_members", "runtime.await_view"),
)

LAYERS = ("core", "links", "net", "runtime", "membership", "checking", "harness")

_MISSING = object()


def _rule_spans() -> List[Tuple[str, Optional[str], str, str, str]]:
    """One span per verdict rule class that ``Deployment.verdict()`` runs
    (the default rule set: no final view or golden skeleton is given)."""
    from repro.checking import verdict
    from repro.checking.codes import DEFAULT_CODES

    spans = []
    for name in sorted(dir(verdict)):
        cls = getattr(verdict, name)
        if (
            isinstance(cls, type)
            and issubclass(cls, verdict.TraceRule)
            and getattr(cls, "code", None) in DEFAULT_CODES
            and "feed" in cls.__dict__
        ):
            spans.append(
                ("repro.checking.verdict", name, "feed", f"checking.rule.{cls.code}", "checking")
            )
    return spans


def rule_codes() -> List[str]:
    return sorted(name.split(".", 2)[2] for _m, _o, _f, name, _l in _rule_spans())


class Tracer:
    """Installs span wrappers, records spans, and computes layer metrics."""

    def __init__(self) -> None:
        self.clock = time.perf_counter
        self.names: List[str] = []
        self.layers: List[str] = []
        self._ids: Dict[str, int] = {}
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self.name_ids = array("i")
        self.ops = array("i")
        self.stack: List[int] = []
        self.op = 0
        #: Calls per wrapped function ("Class.method"), and the extra
        #: counters some wrappers take from results or arguments.
        self.calls: Dict[str, int] = {}
        self.counters: Dict[str, float] = {}
        #: Coroutine intervals: (name, start, end, op).
        self.waits: List[Tuple[str, float, float, int]] = []
        self._restore: List[Tuple[Any, str, Any]] = []
        self.main_task: Optional[asyncio.Task] = None
        self.rule_labels: Dict[str, str] = {}
        self.window: Tuple[float, float] = (0.0, 0.0)

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------

    def _intern(self, name: str, layer: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.layers.append(layer)
        return nid

    def _span_wrapper(self, original: Callable, name: str, layer: str, label: str) -> Callable:
        nid = self._intern(name, layer)
        self.calls.setdefault(label, 0)
        on_result = self._on_result(label)
        starts, ends, parents, name_ids, ops = (
            self.starts, self.ends, self.parents, self.name_ids, self.ops
        )
        stack, clock, calls = self.stack, self.clock, self.calls
        tracer = self

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            i = len(starts)
            parents.append(stack[-1] if stack else -1)
            name_ids.append(nid)
            ops.append(tracer.op)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = original(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            calls[label] += 1
            if on_result is not None:
                on_result(result, args)
            return result

        return wrapper

    def _wait_wrapper(self, original: Callable, name: str) -> Callable:
        waits, clock, tracer = self.waits, self.clock, self

        @functools.wraps(original)
        async def wrapper(*args: Any, **kwargs: Any) -> Any:
            start = clock()
            try:
                return await original(*args, **kwargs)
            finally:
                waits.append((name, start, clock(), tracer.op))

        return wrapper

    def _count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def _on_result(self, label: str) -> Optional[Callable]:
        """Counters taken from a wrapped call's return value or arguments."""
        count = self._count
        if label in ("FastLane.try_send", "FastLane.try_receive"):
            return lambda hit, _a: count(label + ".hit", 1 if hit else 0)
        if label == "EndpointRunner.drain":
            return lambda executed, _a: count("drain.actions", executed)
        if label == "EventScheduler.step":
            return lambda ran, _a: count("net.events", 1 if ran else 0)
        if label == "encode_frame":
            from repro.links import MessageBatch

            def frame(data: bytes, args: tuple) -> None:
                count("runtime.tcp.bytes", len(data))
                message = args[1]
                count("frame.copies", len(message) if isinstance(message, MessageBatch) else 1)

            return frame
        return None

    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self._restore.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
        setattr(owner, attr, replacement)

    # ------------------------------------------------------------------
    # install / uninstall
    # ------------------------------------------------------------------

    def install(self) -> None:
        """Wrap every entry point; call from inside the running loop."""
        rules = _rule_spans()
        self.rule_labels = {name.split(".", 2)[2]: f"{owner}.{func}" for _m, owner, func, name, _l in rules}
        for module_name, owner_name, func, name, layer in SPANS + tuple(rules):
            module = importlib.import_module(module_name)
            owner = getattr(module, owner_name) if owner_name else module
            label = f"{owner_name}.{func}" if owner_name else func
            self._patch(owner, func, self._span_wrapper(getattr(owner, func), name, layer, label))
        for module_name, owner_name, func, name in WAITS:
            owner = getattr(importlib.import_module(module_name), owner_name)
            self._patch(owner, func, self._wait_wrapper(getattr(owner, func), name))
        # The event loop: callback roots and selector waits.
        self.main_task = asyncio.current_task()
        handle_run = asyncio.events.Handle._run
        harness_root = self._span_wrapper(handle_run, "loop.harness", "harness", "loop.harness")
        task_root = self._span_wrapper(handle_run, "loop.task", "runtime", "loop.task")
        tracer = self

        def run(handle: Any) -> Any:
            owner = getattr(handle._callback, "__self__", None)
            if owner is not None and owner is tracer.main_task:
                return harness_root(handle)
            return task_root(handle)

        self._patch(asyncio.events.Handle, "_run", run)
        selector = asyncio.get_running_loop()._selector
        self._patch(
            selector, "select", self._span_wrapper(selector.select, "loop.select", "runtime", "loop.select"),
        )
        self.window = (self.clock(), 0.0)

    def uninstall(self) -> None:
        """Freeze the window, close still-open spans, restore every patch."""
        end = self.clock()
        self.window = (self.window[0], end)
        for i in self.stack:
            self.ends[i] = end
        for owner, attr, original in reversed(self._restore):
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._restore.clear()
        # Spans still open now end with the window; freeze the arrays so
        # the wrappers that unwind later cannot move them.
        self.ends = array("d", self.ends)
        self.starts = array("d", self.starts)

    # ------------------------------------------------------------------
    # analysis
    # ------------------------------------------------------------------

    def analyse(self) -> Tuple[Dict[str, float], Dict[str, float]]:
        """(self time per layer, entry time per span name).

        A span's *layer-inclusive* time is its self time plus that of its
        descendants in the same layer, so ``core.send`` covers the fast
        lane and the drain it ran but not the link or trace work below.
        A name's entry time sums the layer-inclusive time of its spans
        whose parent has another name (nested calls of one name - a
        batch unpacking into single inbounds - count once).
        """
        n = len(self.starts)
        selfs = self_times(
            memoryview(self.starts)[:n], memoryview(self.ends)[:n], memoryview(self.parents)[:n]
        )
        name_ids, parents = self.name_ids, self.parents
        layer_of_name = [LAYERS.index(layer) for layer in self.layers]
        layer_of = array("b", (layer_of_name[name_ids[i]] for i in range(n)))
        inclusive = array("d", selfs)
        for i in range(n - 1, -1, -1):
            p = parents[i]
            if p >= 0 and layer_of[p] == layer_of[i]:
                inclusive[p] += inclusive[i]
        per_layer = [0.0] * len(LAYERS)
        entry = [0.0] * len(self.names)
        for i in range(n):
            per_layer[layer_of[i]] += selfs[i]
            p = parents[i]
            if p < 0 or name_ids[p] != name_ids[i]:
                entry[name_ids[i]] += inclusive[i]
        return dict(zip(LAYERS, per_layer)), dict(zip(self.names, entry))

    def wait_total(self, name: str) -> float:
        return sum(end - start for wname, start, end, _op in self.waits if wname == name)

    def write(self, directory: str, limit: int = 200_000) -> None:
        """Save the first ``limit`` spans (flat native-endian arrays plus a
        JSON header); a prefix is a closed set of trees, since parents
        precede their children."""
        os.makedirs(directory, exist_ok=True)
        n = min(len(self.starts), limit)
        header = {
            "names": self.names,
            "layers": self.layers,
            "spans": len(self.starts),
            "written": n,
            "window": list(self.window),
            "arrays": {"starts": "f8", "ends": "f8", "parents": "i4", "names": "i4", "ops": "i4"},
            "waits": [list(w) for w in self.waits],
        }
        with open(os.path.join(directory, "spans.json"), "w") as fh:
            json.dump(header, fh)
        for name in header["arrays"]:
            values = getattr(self, "name_ids" if name == "names" else name)
            with open(os.path.join(directory, f"{name}.bin"), "wb") as fh:
                values[:n].tofile(fh)


__all__ = ["LAYERS", "SPANS", "Tracer", "WAITS", "rule_codes"]
