"""The four workloads, driven through the public ``repro.deploy`` API.

Every workload is a closed loop run by one coroutine on one event loop:
the next round (steady) or op (churn) starts only after the previous one
completed.  A run is a sequence of *sessions*; each session builds a
fresh deployment, sets it up, runs its share of the time budget, audits
its trace and closes.  Sessions keep traces (and so memory and audit
cost) bounded and give the set-up metrics their samples.

Inputs come only from ``--seed``: send order and payloads (steady) and
the op schedule (churn) are drawn from :class:`random.Random` seeded with
a string, which does not depend on ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import asyncio
import bisect
import gc
import heapq
import itertools
import math
import random
import statistics
import time
from array import array
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.checking.events import (
    BlockEvent,
    CrashEvent,
    DeliverEvent,
    SendEvent,
    ViewEvent,
)
from repro.deploy import make_deployment
from repro.errors import SettleTimeoutError
from repro.net.latency import ConstantLatency
from repro.runtime.settle import settle_timeout

from pb_stats import percentile

#: Messages each end-point multicasts per steady round.
ROUND_MESSAGES = 8
#: Messages each live member multicasts before every churn op.
CHURN_SENDS = 2
#: View-change samples a churn run must collect: p90 needs ten beyond it.
MIN_VIEW_CHANGES = 100
#: Low bits of a payload are seeded noise; the high bits number the
#: sender's messages, which is what the FIFO check reads.
SEQ_SHIFT = 20
#: Send->deliver samples kept per session (a seeded subsample).
LATENCY_SAMPLES = 1000
#: Steady TCP sessions settle (an 80 ms idle window) only this often:
#: enough sessions for the median, without the window dominating runs.
SETTLE_EVERY = 5
#: How often a TCP round polls ``Deployment.delivered`` for completion.
POLL_S = 0.0005
#: Wire kinds of the paper's synchronization round and of the tier.
SYNC_KINDS = ("SyncMsg",)
TIER_KINDS = ("StartChangeNotice", "ViewNotice", "ServerProposal")


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "steady" or "churn"
    substrate: str  # "sim", "async" or "tcp"
    endpoints: int
    servers: int
    sessions: int  # sessions of an untraced run

    def deployment_kwargs(self) -> Dict[str, Any]:
        if self.substrate == "sim":
            return {"latency": ConstantLatency(1.0)}  # oracle membership
        if self.substrate == "async":
            return {"servers": self.servers, "delay": 0.0}
        return {"servers": self.servers}

    def pids(self) -> List[str]:
        return [f"p{i:02d}" for i in range(self.endpoints)]


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("steady-sim", "steady", "sim", 16, 0, sessions=100),
        Workload("steady-tcp", "steady", "tcp", 8, 1, sessions=100),
        Workload("churn-async", "churn", "async", 8, 3, sessions=24),
        Workload("churn-tcp", "churn", "tcp", 8, 3, sessions=12),
    )
}


class OpFailed(Exception):
    """An op returned, but not with a view of exactly the requested members."""


@dataclass
class Measure:
    """Everything one phase of a run observed."""

    # Every timing is at the reference host speed (see HostSpeed).
    setup_s: List[float] = field(default_factory=list)
    view_change_ms: List[float] = field(default_factory=list)
    blocked_ms: List[float] = field(default_factory=list)
    settle_ms: List[float] = field(default_factory=list)
    deliver_ms: array = field(default_factory=lambda: array("d"))
    audit_us: List[float] = field(default_factory=list)
    rates: List[float] = field(default_factory=list)  # deliveries/s per session
    host_factors: List[float] = field(default_factory=list)  # per reference sample
    step_s: float = 0.0  # wall time of rounds / ops and their settles
    attempted: int = 0
    failed: int = 0
    failures: List[Dict[str, Any]] = field(default_factory=list)
    # Traced phases only: per-window deltas and per-session totals.
    window: Counter = field(default_factory=Counter)
    round_counts: List[Tuple[float, ...]] = field(default_factory=list)
    views: int = 0
    wire: Counter = field(default_factory=Counter)

    def fail(self, workload: str, seed: int, session: int, op: int, error: str,
             witness: Optional[int] = None, detail: str = "") -> None:
        self.failures.append({
            "workload": workload, "seed": seed, "session": session, "op": op,
            "error": error, "witness": witness, "detail": detail[:400],
        })


# ----------------------------------------------------------------------
# time stamps
# ----------------------------------------------------------------------


class Stamps:
    """Wall-clock (``time.monotonic``) stamps for trace events.

    The runtime substrates stamp their traces with ``time.monotonic``.
    The simulator stamps simulated time, so there a stamp is read off
    anchors the benchmark records - ``(trace length, monotonic)`` before
    every send and around every call - interpolating linearly in trace
    index between two anchors.
    """

    def __init__(self, simulated: bool) -> None:
        self.simulated = simulated
        self.index: List[int] = []
        self.wall: List[float] = []

    def anchor(self, index: int, wall: float) -> None:
        if self.simulated:
            self.index.append(index)
            self.wall.append(wall)

    def at(self, index: int, event: Any) -> float:
        if not self.simulated:
            return event.time
        k = bisect.bisect_right(self.index, index) - 1
        if k < 0:
            return self.wall[0]
        if k + 1 >= len(self.index):
            return self.wall[-1]
        i0, i1 = self.index[k], self.index[k + 1]
        w0, w1 = self.wall[k], self.wall[k + 1]
        return w0 if i1 == i0 else w0 + (w1 - w0) * (index - i0) / (i1 - i0)


def view_change_ms(events: Sequence[Any], start: int, views: Sequence[Any],
                   members: Sequence[frozenset], t_call: float, stamps: Stamps) -> float:
    """From the op call to the last member's ViewEvent for ``views``."""
    wanted = {view: members_ for view, members_ in zip(views, members)}
    seen: Dict[Any, float] = {}
    for index in range(start, len(events)):
        event = events[index]
        if type(event) is ViewEvent and event.view in wanted and event.proc in wanted[event.view]:
            seen[event.proc] = stamps.at(index, event)
    missing = set().union(*members) - set(seen)
    if missing:
        raise OpFailed(f"no ViewEvent for {sorted(missing)} in the trace")
    return (max(seen.values()) - t_call) * 1e3


def trace_latencies(events: Sequence[Any], stamps: Stamps, scale_at: Any, m: Measure,
                    deliveries_from: int) -> None:
    """Send->deliver latency per DeliverEvent from ``deliveries_from`` on
    (after the warm-up), block->view per end-point; each sample is scaled
    by ``scale_at(index)`` of the event ending it."""
    sent: Dict[Tuple[Any, Any], float] = {}
    blocked: Dict[Any, float] = {}
    for index, event in enumerate(events):
        kind = type(event)
        if kind is DeliverEvent:
            t_send = sent.get((event.sender, event.payload))
            if t_send is not None and index >= deliveries_from:
                m.deliver_ms.append((stamps.at(index, event) - t_send) * 1e3 * scale_at(index))
        elif kind is SendEvent:
            sent[(event.proc, event.payload)] = stamps.at(index, event)
        elif kind is BlockEvent:
            blocked[event.proc] = stamps.at(index, event)
        elif kind is ViewEvent:
            t_block = blocked.pop(event.proc, None)
            if t_block is not None:
                m.blocked_ms.append((stamps.at(index, event) - t_block) * 1e3 * scale_at(index))
        elif kind is CrashEvent:
            blocked.pop(event.proc, None)


# ----------------------------------------------------------------------
# the churn schedule
# ----------------------------------------------------------------------

PAIRS = ("leave/join", "crash/recover", "partition/heal", "server_crash/server_recover")


def churn_schedule(rng: random.Random, pids: Sequence[str], servers: int) -> Iterator[List[Tuple[str, Any]]]:
    """An endless stream of op blocks.  A block holds one join/leave, one
    crash/recover, one partition/heal and one server crash/recover pair,
    in seeded order with seeded targets.  Each pair returns to the full
    group, so every op is enabled whatever came before; runs are whole
    blocks, so the op mix of a run does not depend on the seed (view
    change times differ by kind)."""
    pids = sorted(pids)
    while True:
        yield list(_block(rng, pids, servers))


def _block(rng: random.Random, pids: List[str], servers: int) -> Iterator[Tuple[str, Any]]:
    for pair in rng.sample(PAIRS, len(PAIRS)):
        if pair == "leave/join":
            pid = rng.choice(pids)
            yield ("leave", pid)
            yield ("join", pid)
        elif pair == "crash/recover":
            pid = rng.choice(pids)
            yield ("crash", pid)
            yield ("recover", pid)
        elif pair == "partition/heal":
            half = sorted(rng.sample(pids, len(pids) // 2))
            rest = sorted(set(pids) - set(half))
            yield ("partition", (tuple(half), tuple(rest)))
            yield ("heal", None)
        else:
            index = rng.randrange(servers)
            yield ("server_crash", index)
            yield ("server_recover", index)


def first_ops(seed: int, count: int, pids: Sequence[str], servers: int, session: int = 0) -> List[Any]:
    rng = random.Random(f"churn/{seed}/{session}")
    ops = itertools.chain.from_iterable(churn_schedule(rng, pids, servers))
    return [list(op) for op in itertools.islice(ops, count)]


def expected_after(op: Tuple[str, Any], full: frozenset) -> Tuple[frozenset, List[frozenset]]:
    """(members live before the op, member set of each view it must install)."""
    kind, arg = op
    if kind in ("leave", "crash"):
        return full, [full - {arg}]
    if kind in ("join", "recover"):
        return full - {arg}, [full]
    if kind == "partition":
        return full, [frozenset(group) for group in arg]
    return full, [full]


async def apply_op(dep: Any, op: Tuple[str, Any], full: frozenset) -> Optional[List[Any]]:
    """Run ``op``; the views it returned, or None for ops returning none."""
    kind, arg = op
    if kind == "leave":
        return [await dep.reconfigure(sorted(full - {arg}))]
    if kind == "join":
        return [await dep.reconfigure(sorted(full))]
    if kind == "crash":
        await dep.crash(arg)
        return None
    if kind == "recover":
        await dep.recover(arg)
        return None
    if kind == "partition":
        return await dep.partition([list(group) for group in arg])
    if kind == "heal":
        return [await dep.heal()]
    sid = dep.server_ids()[arg]
    if kind == "server_crash":
        await dep.server_crash(sid)
    else:
        await dep.server_recover(sid)
    return None


def installed_views(dep: Any, returned: Optional[List[Any]], expected: List[frozenset],
                    before: Dict[str, Any]) -> List[Any]:
    """Check the op installed fresh views of exactly the requested members."""
    views = returned if returned is not None else [dep.current_view(min(m)) for m in expected]
    if len(views) != len(expected):
        raise OpFailed(f"{len(views)} views for {len(expected)} groups")
    for view, members in zip(views, expected):
        if view.members != members:
            raise OpFailed(f"view {view} has members {sorted(view.members)}, wanted {sorted(members)}")
        for pid in sorted(members):
            if dep.current_view(pid) != view:
                raise OpFailed(f"{pid} is in {dep.current_view(pid)}, not {view}")
            if pid in before and before[pid] == view:
                raise OpFailed(f"{pid} still in its old view {view}")
    return views


# ----------------------------------------------------------------------
# sessions
# ----------------------------------------------------------------------


class _Cell:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: int) -> None:
        self.key = key
        self.value = value

    def bump(self) -> int:
        self.value += 1
        return self.value


def _reference_work(iterations: int) -> int:
    """A fixed mix of what the program spends its time on: small objects,
    method calls, dict and set updates, a heap and list traffic.  It uses
    none of the program's code, so a faster program leaves it unchanged."""
    heap: List[Tuple[int, int]] = []
    table: Dict[int, _Cell] = {}
    seen: set = set()
    log: List[_Cell] = []
    total = 0
    for i in range(iterations):
        cell = _Cell(i & 255, i)
        table[cell.key] = cell
        heapq.heappush(heap, ((i * 7919) % 1009, i))
        if len(heap) > 64:
            total += heapq.heappop(heap)[1]
        seen.add(i & 511)
        total += table[(i * 31) & 255].bump() if (i * 31) & 255 in table else 0
        log.append(cell)
        if len(log) > 128:
            del log[:64]
    return total + len(seen)


class HostSpeed:
    """This host's speed, as the CPU time of a fixed reference workload.

    The shared hosts this runs on change speed by tens of percent within
    a run, even between two 20 ms set-ups, which no amount of repetition
    averages out.  Every timed interval therefore records wall *and*
    process CPU time, and its CPU part is rescaled to the reference
    speed: ``wall - cpu * (1 - 1 / factor)``, where ``factor`` is
    :func:`_reference_work`'s CPU time over :data:`REF_NOMINAL_S`,
    averaged over the samples taken just before and just after the
    interval.  Time spent waiting (socket idle, the TCP settle window)
    is kept as measured.
    """

    #: Reference CPU time on the nominal host.
    REF_NOMINAL_S = 0.0008
    REF_ITERATIONS = 400

    @classmethod
    def reference_s(cls) -> float:
        start = time.process_time()
        _reference_work(cls.REF_ITERATIONS)
        return time.process_time() - start


class Interval:
    """Wall and process CPU time of one timed stretch of a session."""

    __slots__ = ("index", "wall0", "cpu0", "wall", "cpu")

    def __init__(self, index: int) -> None:
        self.index = index  # trace length when the stretch began
        self.wall = self.cpu = 0.0
        self.wall0, self.cpu0 = time.perf_counter(), time.process_time()

    def stop(self) -> "Interval":
        self.wall = time.perf_counter() - self.wall0
        self.cpu = min(self.wall, time.process_time() - self.cpu0)
        return self



class Session:
    """One deployment's life: set-up, closed-loop work, audit, close.

    Raw intervals are kept until the session ends; :meth:`_finish` then
    rescales them to the reference host speed (see :class:`HostSpeed`)
    and adds the session's samples to the phase's :class:`Measure`.
    """

    def __init__(self, w: Workload, seed: int, index: int, m: Measure, tracer: Any) -> None:
        self.w, self.seed, self.index, self.m, self.tracer = w, seed, index, m, tracer
        # The schedule (churn) or send order (steady) has a stream of its
        # own, so first_ops() replays a session's ops exactly.
        self.rng = random.Random(f"{w.kind}/{seed}/{index}")
        self.noise = random.Random(f"payload/{seed}/{index}")
        self.pids = w.pids()
        self.full = frozenset(self.pids)
        self.stamps = Stamps(w.substrate == "sim")
        self.seq = {pid: 0 for pid in self.pids}
        self.dep: Any = None
        self.ops_here = 0
        self.failed_here = 0
        # Raw observations, rescaled in _finish().
        self.intervals: List[Interval] = []  # in trace order
        self.ref_times: List[float] = []  # HostSpeed samples: when taken,
        self.ref_values: List[float] = []  # and the reference CPU time
        self.setup: Optional[Interval] = None
        self.work: List[Interval] = []  # rounds or op loops: the rate's time
        self.delivered = 0  # deliveries inside self.work
        self.settles: List[Interval] = []
        self.audit: Optional[Tuple[Interval, int]] = None
        self.view_changes: List[Tuple[float, int]] = []  # (raw ms, trace index)
        self.read_latencies = False  # set once the session's work completed
        self.warm = 0  # trace length after the untimed warm-up

    def payload(self, pid: str) -> int:
        number = self.seq[pid]
        self.seq[pid] = number + 1
        return (number << SEQ_SHIFT) | self.noise.getrandbits(SEQ_SHIFT)

    @property
    def events(self) -> List[Any]:
        return self.dep.trace.events

    def _begin(self, sample: bool = True) -> Interval:
        # Sample the host's speed before every stretch of work; the mean
        # of the samples is the speed the session's work ran at.
        if sample:
            self._sample_speed()
        interval = Interval(len(self.events) if self.dep is not None else 0)
        self.intervals.append(interval)
        return interval

    def _snapshot(self) -> Tuple[Dict[str, int], Dict[str, float], int]:
        tracer = self.tracer
        return dict(tracer.calls), dict(tracer.counters), sum(self.dep.link_totals().values())

    def _window(self, before: Tuple[Dict[str, int], Dict[str, float], int], deliveries: int) -> Tuple[float, ...]:
        calls, counters, wire = self._snapshot()
        delta = Counter()
        for key, value in calls.items():
            delta[key] = value - before[0].get(key, 0)
        for key, value in counters.items():
            delta[key] = value - before[1].get(key, 0)
        delta["wire"] = wire - before[2]
        delta["deliveries"] = deliveries
        self.m.window.update(delta)
        return tuple(delta[key] / deliveries for key in ("wire", "net.events", "GcsTrace.append"))

    async def run(self, budget: float, ops_target: int) -> None:
        m, w = self.m, self.w
        gc.collect()  # each session starts from the same heap, untimed
        try:
            self.setup = self._begin()
            self.dep = make_deployment(w.substrate, **w.deployment_kwargs())
            t_call = time.monotonic()
            m.attempted += 1
            self.ops_here += 1
            view = await self.dep.setup(self.pids)
            self.setup.stop()
            self.stamps.anchor(0, t_call)
            self.stamps.anchor(len(self.events), time.monotonic())
            self.view_changes.append(
                (view_change_ms(self.events, 0, [view], [self.full], t_call, self.stamps), 0)
            )
            if w.kind == "steady":
                await self._steady(budget)
            else:
                await self._churn(budget, ops_target)
            interval = Interval(len(self.events))
            verdict = self.dep.verdict()
            self.audit = (interval.stop(), len(self.events))
            if not verdict.ok:
                primary = verdict.primary
                self._failed(primary.code, primary.witness_index, primary.message,
                             whole_session=True)
        except _SessionOver:
            pass
        except Exception as exc:  # the session is the boundary that goes on
            self._failed(type(exc).__name__, detail=repr(exc))
        finally:
            if self.dep is not None:
                await self.dep.close()
                if self.tracer is not None:
                    m.wire.update(self.dep.link_totals())
                    m.views += len({e.view for e in self.events if type(e) is ViewEvent})
            self._sample_speed()
            self._finish()

    def _sample_speed(self) -> None:
        self.ref_values.append(HostSpeed.reference_s())
        self.ref_times.append(time.perf_counter())

    def _factor(self, interval: "Interval") -> float:
        """Host factor over ``interval``: the mean of the speed samples
        taken just before it began and just after it ended."""
        before = max(0, bisect.bisect_right(self.ref_times, interval.wall0) - 1)
        after = min(len(self.ref_times) - 1,
                    bisect.bisect_left(self.ref_times, interval.wall0 + interval.wall))
        reference = (self.ref_values[before] + self.ref_values[after]) / 2
        return reference / HostSpeed.REF_NOMINAL_S

    def _norm(self, interval: "Interval") -> float:
        """``interval``'s duration at the reference speed: its CPU part
        rescaled, its waiting kept."""
        return interval.wall - interval.cpu * (1.0 - 1.0 / self._factor(interval))

    def _finish(self) -> None:
        m = self.m
        m.host_factors.extend(v / HostSpeed.REF_NOMINAL_S for v in self.ref_values)
        starts = [interval.index for interval in self.intervals]
        scales = [self._norm(i) / i.wall if i.wall > 0 else 1.0 for i in self.intervals]

        def scale_at(index: int) -> float:
            k = bisect.bisect_right(starts, index) - 1
            return scales[max(k, 0)] if scales else 1.0

        if self.setup is not None and self.setup.wall:
            m.setup_s.append(self._norm(self.setup))
        m.view_change_ms.extend(ms * scale_at(index) for ms, index in self.view_changes)
        m.settle_ms.extend(self._norm(interval) * 1e3 for interval in self.settles)
        if self.audit is not None:
            interval, events = self.audit
            m.audit_us.append(self._norm(interval) / max(1, events) * 1e6)
        if self.work:
            m.rates.append(self.delivered / sum(self._norm(i) for i in self.work))
            m.step_s += sum(interval.wall for interval in set(self.work) | set(self.settles))
        if self.read_latencies:
            samples = Measure()
            trace_latencies(self.events, self.stamps, scale_at, samples, self.warm)
            m.blocked_ms.extend(samples.blocked_ms)
            # A seeded subsample keeps memory flat however fast the host
            # is; a stride would alias with the rounds' fixed structure.
            deliver = samples.deliver_ms
            if len(deliver) > LATENCY_SAMPLES:
                rng = random.Random(f"latency/{self.seed}/{self.index}")
                deliver = [deliver[i] for i in sorted(rng.sample(range(len(deliver)), LATENCY_SAMPLES))]
            m.deliver_ms.extend(deliver)

    def _failed(self, error: str, witness: Optional[int] = None, detail: str = "",
                whole_session: bool = False) -> None:
        """Record a failure; the current op fails, or all of the session's."""
        m = self.m
        fresh = self.ops_here - self.failed_here if whole_session else 1
        m.failed += fresh
        self.failed_here += fresh
        m.fail(self.w.name, self.seed, self.index, self.ops_here - 1, error, witness, detail)

    async def _settle(self) -> None:
        # No speed sample right before a settle: it would evict the
        # caches a sub-millisecond settle runs from.
        interval = self._begin(sample=False)
        await self.dep.settle()
        self.settles.append(interval.stop())

    # -- steady --------------------------------------------------------

    async def _steady_round(self, expected: int) -> Interval:
        dep, stamps = self.dep, self.stamps
        order = [pid for pid in self.pids for _ in range(ROUND_MESSAGES)]
        self.rng.shuffle(order)
        events = self.events
        interval = self._begin()
        for pid in order:
            stamps.anchor(len(events), time.monotonic())
            await dep.send(pid, self.payload(pid))
        if stamps.simulated:
            # The simulator's settle runs the event queue to quiescence:
            # it completes the round.  Counts are checked at the end.
            stamps.anchor(len(events), time.monotonic())
            settle = Interval(len(events))
            await dep.settle()
            self.settles.append(settle.stop())
            stamps.anchor(len(events), time.monotonic())
            return interval.stop()
        deadline = time.monotonic() + settle_timeout(10.0)
        for pid in self.pids:
            while len(dep.delivered(pid)) < expected:
                if time.monotonic() > deadline:
                    raise SettleTimeoutError(
                        f"{pid} delivered {len(dep.delivered(pid))} of {expected}"
                    )
                await asyncio.sleep(POLL_S)
        return interval.stop()

    async def _steady(self, budget: float) -> None:
        m, n = self.m, len(self.pids)
        per_round = n * ROUND_MESSAGES
        await self._steady_round(per_round)  # warm-up: connections, caches
        self.warm = len(self.events)
        rounds, timed = 1, 0.0
        while timed < budget or rounds == 1:
            if self.tracer is not None:
                self.tracer.op += 1
                before = self._snapshot()
            m.attempted += 1
            self.ops_here += 1
            interval = await self._steady_round(per_round * (rounds + 1))
            self.work.append(interval)
            self.delivered += n * per_round
            timed += interval.wall
            rounds += 1
            if self.tracer is not None:
                m.round_counts.append(self._window(before, n * per_round))
        if not self.stamps.simulated and self.index % SETTLE_EVERY == 0:
            await self._settle()
        self.read_latencies = True
        self._check_fifo(rounds * ROUND_MESSAGES)

    def _check_fifo(self, per_sender: int) -> None:
        """Every member delivered exactly ``per_sender`` messages of every
        member, each sender's in its send order."""
        for pid in self.pids:
            streams: Dict[str, List[int]] = {p: [] for p in self.pids}
            for sender, payload in self.dep.delivered(pid):
                streams[sender].append(payload >> SEQ_SHIFT)
            for sender, seqs in streams.items():
                if seqs != list(range(per_sender)):
                    self._failed(
                        "DeliveryMismatch",
                        detail=f"{pid} got {len(seqs)} of {per_sender} from {sender}, "
                        f"in FIFO order: {seqs == sorted(seqs)}",
                        whole_session=True,
                    )
                    return

    # -- churn ---------------------------------------------------------

    async def _churn(self, budget: float, ops_target: int) -> None:
        dep, m = self.dep, self.m
        blocks = churn_schedule(self.rng, self.pids, self.w.servers)
        sent: Dict[str, List[int]] = {pid: [] for pid in self.pids}
        crashed: set = set()
        # Warm-up, untimed: every member sends once, so the first op's
        # traffic does not pay for opening connections.
        for pid in self.pids:
            payload = self.payload(pid)
            sent[pid].append(payload)
            await dep.send(pid, payload)
        await dep.settle()
        start = self.warm = len(self.events)
        before = self._snapshot() if self.tracer is not None else None
        t_loop = time.perf_counter()
        ops: List[Tuple[str, Any]] = []
        while ops or time.perf_counter() - t_loop < budget or len(m.view_change_ms) + len(self.view_changes) < ops_target:
            if not ops:
                ops = next(blocks)
            op = ops.pop(0)
            live, expected = expected_after(op, self.full)
            interval = self._begin()
            for pid in sorted(live):
                for _ in range(CHURN_SENDS):
                    payload = self.payload(pid)
                    sent[pid].append(payload)
                    await dep.send(pid, payload)
            if op[0] == "crash":
                crashed.add(op[1])
            if self.tracer is not None:
                self.tracer.op += 1
            m.attempted += 1
            self.ops_here += 1
            old = {pid: dep.current_view(pid) for pid in self.pids}
            index = len(self.events)
            t_call = time.monotonic()
            try:
                views = installed_views(dep, await apply_op(dep, op, self.full), expected, old)
                self.work.append(interval.stop())
                self.view_changes.append(
                    (view_change_ms(self.events, index, views, expected, t_call, self.stamps), index)
                )
                await self._settle()
                self.work.append(self.settles[-1])
            except Exception as exc:  # any exception fails the op
                self._failed(type(exc).__name__, detail=f"{op}: {exc!r}")
                raise _SessionOver() from exc
        deliveries = sum(1 for e in self.events[start:] if type(e) is DeliverEvent)
        self.delivered += deliveries
        if before is not None:
            self._window(before, deliveries)
        self.read_latencies = True
        for pid in self.pids:
            if pid in crashed:
                continue
            own = {payload for sender, payload in dep.delivered(pid) if sender == pid}
            if not own.issuperset(sent[pid]):
                self._failed("DeliveryMismatch", detail=f"{pid} lost own messages",
                             whole_session=True)
                return


class _SessionOver(Exception):
    """A churn op failed; the session is closed and the run goes on."""


async def run_phase(w: Workload, seed: int, seconds: float, sessions: int, m: Measure, *,
                    tracer: Any = None, first_session: int = 0, view_changes: int = 0,
                    hard_stop: float = math.inf) -> None:
    """Run ``sessions`` sessions sharing ``seconds`` of closed-loop time;
    churn sessions run on until ``view_changes`` samples are in."""
    budget = seconds / sessions
    for k in range(sessions):
        if time.monotonic() > hard_stop:
            break
        target = math.ceil(view_changes * (k + 1) / sessions)
        await Session(w, seed, first_session + k, m, tracer).run(budget, target)


def summarize(m: Measure) -> Tuple[Dict[str, float], List[str]]:
    """The end-to-end metrics of an untraced phase, and rule warnings."""
    from pb_stats import TooFewSamples

    notes: List[str] = []

    def pct(values: Sequence[float], q: float, name: str) -> float:
        try:
            return percentile(values, q)
        except TooFewSamples as exc:
            notes.append(f"{name}: {exc}")
            return max(values) if len(values) else 0.0

    def mid(values: Sequence[float]) -> float:
        return statistics.median(values) if values else 0.0

    return {
        "deliveries_per_s": mid(m.rates),
        "deliver_p50_ms": pct(m.deliver_ms, 50, "deliver_p50_ms"),
        "deliver_p90_ms": pct(m.deliver_ms, 90, "deliver_p90_ms"),
        "view_change_p50_ms": pct(m.view_change_ms, 50, "view_change_p50_ms"),
        "view_change_p90_ms": pct(m.view_change_ms, 90, "view_change_p90_ms"),
        "settle_p50_ms": pct(m.settle_ms, 50, "settle_p50_ms"),
        "blocked_p50_ms": pct(m.blocked_ms, 50, "blocked_p50_ms"),
        "audit_us_per_event": mid(m.audit_us),
        "setup_s": mid(m.setup_s),
    }, notes


__all__ = [
    "WORKLOADS",
    "Measure",
    "Workload",
    "churn_schedule",
    "first_ops",
    "run_phase",
    "summarize",
]
