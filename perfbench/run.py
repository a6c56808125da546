#!/usr/bin/env python3
"""Layered end-to-end benchmark of the group communication system.

Runs one named workload against the public ``repro.deploy`` API and
prints every metric with its unit; the last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``::

    python3 perfbench/run.py --workload steady-sim --seed 1 --seconds 10 --trace 0

``--trace 0`` reports the end-to-end metrics of an untraced run.
``--trace 1`` runs half the time untraced and half traced, and reports
the per-layer split (see ``pb_trace``) plus ``trace_overhead``, the
traced figure over the untraced one.  Workloads are described in
``perfbench/README.md``; run records, failure records and the traced
run's spans are written under ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"

#: Environment that changes what a run measures; records made under
#: different values are not compared (see ``compare.py``).
ENV_KEYS = ("PYTHONHASHSEED", "REPRO_FASTPATH", "REPRO_SETTLE_TIMEOUT")

END_TO_END = {
    "deliveries_per_s": "1/s",
    "deliver_p50_ms": "ms",
    "deliver_p90_ms": "ms",
    "view_change_p50_ms": "ms",
    "view_change_p90_ms": "ms",
    "settle_p50_ms": "ms",
    "blocked_p50_ms": "ms",
    "audit_us_per_event": "us",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: A run stops starting sessions after this long, so it ends in time
#: even when every session stalls until its settle timeout.
HARD_STOP_S = 120.0

#: Sessions per half of a traced run; they need medians, not p90s.
TRACE_SESSIONS = {"steady": 20, "churn": 3}
#: Closed-loop seconds of a traced phase: spans are kept in memory, and
#: a steady simulator run records about 1.7 million per second.
TRACED_SECONDS = 0.75


def environment() -> Dict[str, Any]:
    env: Dict[str, Any] = {key: os.environ.get(key) for key in ENV_KEYS}
    env["python"] = platform.python_version()
    env["nproc"] = os.cpu_count()
    return env


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(tracer: Any, m: Any, codes: List[str]) -> Dict[str, Tuple[float, str]]:
    """The per-layer split of a traced phase (see README for the map)."""
    by_layer, entry = tracer.analyse()
    calls, counters, window = tracer.calls, tracer.counters, m.window
    wall = tracer.window[1] - tracer.window[0]
    deliveries = window["deliveries"]

    def us(name: str, *labels: str) -> Tuple[float, str]:
        return _ratio(entry.get(name, 0.0), sum(calls.get(l, 0) for l in labels)) * 1e6, "us"

    def share(layer: str) -> Tuple[float, str]:
        return _ratio(by_layer[layer], wall), "ratio"

    def per_delivery(key: str) -> Tuple[float, str]:
        return _ratio(window[key], deliveries), "count"

    def per_view(value: float) -> Tuple[float, str]:
        return _ratio(value, m.views), "count"

    from pb_workloads import SYNC_KINDS, TIER_KINDS

    out: Dict[str, Tuple[float, str]] = {
        "core.send.us": us("core.send", "EndpointRunner.app_send"),
        "core.recv.us": us("core.recv", "EndpointRunner.receive", "EndpointRunner.receive_batch"),
        "core.fastlane.send_hit": (_ratio(counters.get("FastLane.try_send.hit", 0), calls.get("FastLane.try_send", 0)), "ratio"),
        "core.fastlane.recv_hit": (_ratio(counters.get("FastLane.try_receive.hit", 0), calls.get("FastLane.try_receive", 0)), "ratio"),
        "core.drain.actions_per_delivery": per_delivery("drain.actions"),
        "core.share": share("core"),
        "links.outbound.us": us("links.outbound", "LinkCore.outbound"),
        "links.inbound.us": us("links.inbound", "LinkCore.inbound"),
        "links.wire_per_delivery": per_delivery("wire"),
        "links.sync_per_view_change": per_view(sum(m.wire[k] for k in SYNC_KINDS)),
        "links.copies_per_frame": (_ratio(counters.get("frame.copies", 0), calls.get("encode_frame", 0)), "count"),
        "links.share": share("links"),
        "net.events_per_delivery": per_delivery("net.events"),
        "net.send.us": us("net.send", "SimNetwork.send"),
        "net.share": share("net"),
        "runtime.tcp.encode.us": us("runtime.tcp.encode", "encode_frame"),
        "runtime.tcp.bytes_per_delivery": (_ratio(window["runtime.tcp.bytes"], deliveries), "bytes"),
        "runtime.tcp.frames_per_delivery": per_delivery("encode_frame"),
        "runtime.hub.send.us": us("runtime.hub.send", "AsyncHub.send"),
        "runtime.loop.idle_share": (_ratio(entry.get("loop.select", 0.0), wall), "ratio"),
        "runtime.settle.share": (_ratio(tracer.wait_total("runtime.settle"), m.step_s), "ratio"),
        "runtime.await_view.ms": (_ratio(tracer.wait_total("runtime.await_view"), m.attempted) * 1e3, "ms"),
        "runtime.share": share("runtime"),
        "membership.on_message.us": us("membership.on_message", "MembershipServer.on_message"),
        "membership.rounds_per_view_change": per_view(calls.get("MembershipServer.begin_round", 0)),
        "membership.tier_msgs_per_view_change": per_view(sum(m.wire[k] for k in TIER_KINDS)),
        "membership.share": share("membership"),
        "checking.append.us": us("checking.append", "GcsTrace.append"),
        "checking.events_per_delivery": per_delivery("GcsTrace.append"),
    }
    for code in codes:
        out[f"checking.rule.{code}.us_per_event"] = us(
            f"checking.rule.{code}", tracer.rule_labels[code]
        )
    out["checking.share"] = share("checking")
    out["harness.share"] = share("harness")
    out["unaccounted_share"] = (1.0 - sum(by_layer.values()) / wall if wall else 0.0, "ratio")
    return out


def count_mismatch(m: Any) -> str:
    """Per-round wire, event and trace counts must repeat exactly."""
    distinct = sorted(set(m.round_counts))
    if len(distinct) > 1:
        return f"per-round (wire, events, appends) per delivery differ: {distinct[:4]}"
    return ""


async def measure(workload: str, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    import pb_trace
    from pb_workloads import MIN_VIEW_CHANGES, WORKLOADS, Measure, run_phase, summarize

    w = WORKLOADS[workload]
    hard_stop = time.monotonic() + HARD_STOP_S
    plain = Measure()
    notes: List[str] = []
    if not trace:
        await run_phase(w, seed, seconds, w.sessions, plain, hard_stop=hard_stop,
                        view_changes=MIN_VIEW_CHANGES if w.kind == "churn" else 0)
        values, notes = summarize(plain)
        metrics = {name: (values[name], unit) for name, unit in END_TO_END.items() if name in values}
        metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
        measures = [plain]
    else:
        sessions = TRACE_SESSIONS[w.kind]
        await run_phase(w, seed, seconds / 2, sessions, plain, hard_stop=hard_stop)
        traced = Measure()
        tracer = pb_trace.Tracer()
        tracer.install()
        try:
            await asyncio.sleep(0)  # from here on, every loop callback is a root span
            await run_phase(w, seed, min(seconds / 2, TRACED_SECONDS), sessions, traced, tracer=tracer,
                            first_session=sessions, hard_stop=hard_stop)
        finally:
            tracer.uninstall()
        metrics = layer_metrics(tracer, traced, pb_trace.rule_codes())
        base, _ = summarize(plain)
        seen, _ = summarize(traced)
        key = "deliveries_per_s" if w.kind == "steady" else "view_change_p50_ms"
        metrics["trace_overhead"] = (_ratio(seen[key], base[key]), "ratio")
        mismatch = count_mismatch(traced) if w.substrate == "sim" else ""
        if mismatch:
            notes.append(mismatch)
        tracer.write(str(OUT / "spans" / f"{workload}-seed{seed}"))
        measures = [plain, traced]
    attempted = sum(m.attempted for m in measures)
    failed = sum(m.failed for m in measures)
    failures = [f for m in measures for f in m.failures]
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "env": environment(),
        "correct": failed == 0 and not notes,
        "attempted": attempted,
        "failed": failed,
        "error_rate": _ratio(failed, attempted),
        "host_factor": statistics.median([f for m in measures for f in m.host_factors] or [0.0]),
        "notes": notes,
        "failures": failures,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv: List[str] = None) -> int:
    from_src = ROOT / "src"
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (from_src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program at {from_src / 'repro'}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(from_src))
    from pb_workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    record = asyncio.run(measure(args.workload, args.seed, args.seconds, bool(args.trace)))

    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True))
    for failure in record["failures"]:
        print(f"perfbench: FAILED {json.dumps(failure, sort_keys=True)}", file=sys.stderr)
    for note in record["notes"]:
        print(f"perfbench: {note}", file=sys.stderr)
    print(f"# {args.workload} seed={args.seed} trace={args.trace} env={json.dumps(record['env'], sort_keys=True)}")
    for name, metric in record["metrics"].items():
        print(f"{name:44s} {metric['value']:14.6g} {metric['unit']}")
    print(f"{'error_rate':44s} {record['error_rate']:14.6g} ratio "
          f"({record['failed']} of {record['attempted']} ops failed)")
    print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
