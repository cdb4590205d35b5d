"""The hook table and the per-layer metrics computed from a traced pass.

Each hook names a public call into one layer.  The metric list is
fixed: every traced run reports every name in :data:`PER_LAYER`, and a
layer a workload never enters reports zero for it.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from tracer import LAYERS, Tracer


def _count(key: str, fn=None):
    def after(tr: Tracer, args, result, dur, token) -> None:
        tr.counts[key] += 1 if fn is None else fn(args, result)
    return after


def _events_before(args):
    return args[0].events_processed


def _events_after(tr: Tracer, args, result, dur, token) -> None:
    tr.counts["sim.events"] += args[0].events_processed - token


def _window_after(tr: Tracer, args, result, dur, token) -> None:
    tr.counts["sim.events"] += result or 0
    tr.env_busy[id(args[0])] += dur


def _submit_after(tr: Tracer, args, result, dur, token) -> None:
    tr.counts["hw.transfers"] += 1
    tr.seen["fabric"][id(args[0])] = args[0]


def _remember(kind: str):
    def after(tr: Tracer, args, result, dur, token) -> None:
        tr.seen[kind][id(args[0])] = args[0]
    return after


def _duration(key: str):
    def after(tr: Tracer, args, result, dur, token) -> None:
        tr.durations[key].append(dur)
    return after


def _size(result) -> int:
    return len(result) if result is not None else 0


#: (target, layer, before, after) — ``before(args)`` returns a token
#: handed to ``after(tracer, args, result, duration_s, token)``.
HOOKS = [
    ("repro.sim.core:Environment.run", "sim", _events_before, _events_after),
    ("repro.sim.core:Environment.run_window", "sim", None, _window_after),
    ("repro.xen.credit:PCPUScheduler.notify_work", "xen", None, None),
    ("repro.ib.hca:HCA.on_doorbell", "ib", None, None),
    ("repro.hw.fabric:FluidFabric.submit", "hw", None, _submit_after),
    ("repro.hw.fabric:maxmin_rates", "hw", None, None),
    ("repro.ibmon.monitor:IBMon.sample_now", "ibmon", None, _count("ibmon.samples")),
    ("repro.resex.ioshares:IOShares.on_interval", "resex", None, _count("resex.intervals")),
    ("repro.resex.ioshares:IOShares.on_epoch", "resex", None, None),
    ("repro.resex.freemarket:FreeMarket.on_interval", "resex", None, _count("resex.intervals")),
    ("repro.resex.freemarket:FreeMarket.on_epoch", "resex", None, None),
    ("repro.resex.resos:ResoAccount.deduct", "resex", None, None),
    ("repro.benchex.reporting:LatencyAgent.report", "benchex", None, _count("benchex.requests")),
    ("repro.benchex.reporting:LatencyAgent.drain", "benchex", None, None),
    ("repro.finance.workload:process_request", "finance", None, None),
    ("repro.telemetry.bus:TelemetryBus.span", "telemetry", None, _count("telemetry.records")),
    ("repro.telemetry.bus:TelemetryBus.instant", "telemetry", None, _count("telemetry.records")),
    ("repro.telemetry.bus:TelemetryBus.counter", "telemetry", None, _count("telemetry.records")),
    ("repro.telemetry.bus:TelemetryBus.kernel_tick", "telemetry", None, _count("telemetry.records")),
    ("repro.sim.shard:Mailbox.send", "shard", None, None),
    ("repro.sim.shard:Mailbox.ingest", "shard", None, None),
    ("repro.sim.frames:encode_batch", "shard", None,
     _count("shard.frame_bytes", lambda args, result: _size(result))),
    ("repro.sim.frames:decode_batch", "shard", None, None),
    ("repro.service.protocol:encode_frame", "service.protocol", None,
     _count("service.protocol.bytes", lambda args, result: _size(result))),
    ("repro.service.protocol:decode_payload", "service.protocol", None,
     _count("service.protocol.bytes", lambda args, result: len(args[0]))),
    ("repro.service.gateway:ServiceGateway.start", "service.gateway", None,
     _remember("gateway")),
    ("repro.service.orchestrator:Orchestrator.handle", "service.orchestrator",
     None, _duration("handle")),
    ("repro.service.world:ResExWorld.advance_to", "service.world", None,
     _duration("advance")),
    ("repro.service.world:ResExWorld.admit", "service.world", None, None),
    ("repro.service.world:ResExWorld.release", "service.world", None, None),
    ("repro.service.world:ResExWorld.price", "service.world", None, None),
    ("repro.service.world:ResExWorld.ask", "service.world", None, None),
    ("repro.service.world:ResExWorld.bid", "service.world", None, None),
    ("repro.service.world:ResExWorld.order", "service.world", None, None),
    ("repro.service.world:ResExWorld.collect", "service.world", None, None),
    ("repro.service.world:ResExWorld.drain", "service.world", None,
     _duration("flush")),
    ("repro.parallel.engine:run_sweep", "parallel", None, None),
    ("repro.supervise.supervisor:supervised_sweep", "supervise", None, None),
]

#: The straggler pass only needs per-environment busy time.
WINDOW_HOOKS = [h for h in HOOKS if h[0].endswith("Environment.run_window")]

#: name -> (unit, better).  Order is the order printed.
PER_LAYER: Dict[str, tuple] = {}
for _layer in LAYERS:
    PER_LAYER[f"{_layer}.self_s"] = ("s", "lower")
PER_LAYER.update({
    "sim.events": ("count", "lower"),
    "sim.host_ns_per_event": ("ns/event", "lower"),
    "xen.calls": ("count", "lower"),
    "ib.calls": ("count", "lower"),
    "ibmon.calls": ("count", "lower"),
    "ibmon.samples": ("count", "lower"),
    "resex.calls": ("count", "lower"),
    "resex.intervals": ("count", "lower"),
    "benchex.calls": ("count", "lower"),
    "benchex.requests": ("count", "higher"),
    "finance.calls": ("count", "lower"),
    "hw.solves": ("count", "lower"),
    "hw.component_frac": ("ratio", "higher"),
    "hw.max_component": ("count", "lower"),
    "hw.transfers": ("count", "lower"),
    "telemetry.records": ("count", "lower"),
    "shard.barriers": ("count", "lower"),
    "shard.windows": ("count", "lower"),
    "shard.barrier_frac": ("ratio", "lower"),
    "shard.messages": ("count", "lower"),
    "shard.frame_bytes": ("B", "lower"),
    "shard.events_imbalance": ("ratio", "lower"),
    "shard.straggler_s": ("s", "lower"),
    "shard.overhead_s": ("s", "lower"),
    "service.protocol.bytes": ("B", "lower"),
    "service.gateway.queue_wait_ms.p50": ("ms", "lower"),
    "service.gateway.queue_wait_ms.p99": ("ms", "lower"),
    "service.gateway.rejected": ("count", "lower"),
    "service.orchestrator.handle_ms.p50": ("ms", "lower"),
    "service.orchestrator.handle_ms.p99": ("ms", "lower"),
    "service.world.advance_s": ("s", "lower"),
    "service.world.flush_ms.p99": ("ms", "lower"),
    "parallel.pool_utilization": ("ratio", "higher"),
    "parallel.cell_cpu_s": ("s", "lower"),
    "parallel.dispatch_overhead_s": ("s", "lower"),
    "parallel.cache_hits": ("count", "higher"),
    "supervise.forks": ("count", "lower"),
    "supervise.retries": ("count", "lower"),
    "supervise.manifest_bytes": ("B", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
})


def percentile(values: List[float], p: float) -> float:
    """Nearest-rank percentile (0 for an empty list)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(int(p / 100.0 * len(ordered)), len(ordered) - 1)]


def tracer_metrics(tr: Tracer) -> Dict[str, float]:
    """Everything a tracer alone can tell, as per-layer metric values."""
    out: Dict[str, float] = {}
    for layer, value in tr.layer_self_s().items():
        out[f"{layer}.self_s"] = value
    out["sim.events"] = float(tr.counts["sim.events"])
    for layer in ("xen", "ib", "ibmon", "resex", "benchex", "finance"):
        out[f"{layer}.calls"] = float(tr.calls[layer])
    for key in ("ibmon.samples", "resex.intervals", "benchex.requests",
                "hw.transfers", "telemetry.records", "shard.frame_bytes",
                "service.protocol.bytes"):
        out[key] = float(tr.counts[key])
    fabrics = list(tr.seen["fabric"].values())
    glob = sum(f.solver_stats["global_solves"] for f in fabrics)
    comp = sum(f.solver_stats["component_solves"] for f in fabrics)
    out["hw.solves"] = float(glob + comp)
    out["hw.component_frac"] = comp / (glob + comp) if glob + comp else 0.0
    out["hw.max_component"] = float(
        max((f.solver_stats["max_component"] for f in fabrics), default=0)
    )
    handle = tr.durations["handle"]
    out["service.orchestrator.handle_ms.p50"] = percentile(handle, 50) * 1e3
    out["service.orchestrator.handle_ms.p99"] = percentile(handle, 99) * 1e3
    out["service.world.advance_s"] = sum(tr.durations["advance"])
    out["service.world.flush_ms.p99"] = percentile(tr.durations["flush"], 99) * 1e3
    gateways = list(tr.seen["gateway"].values())
    if gateways:
        gw = gateways[0]
        lat = list(gw.latencies_s)
        # One session: the gateway answers in handling order, so the
        # i-th gateway latency and the i-th handle time are one request.
        waits = [max(g - h, 0.0) for g, h in zip(lat, handle)]
        out["service.gateway.queue_wait_ms.p50"] = percentile(waits, 50) * 1e3
        out["service.gateway.queue_wait_ms.p99"] = percentile(waits, 99) * 1e3
        out["service.gateway.rejected"] = float(gw.requests_rejected)
    return out


def complete(values: Dict[str, float]) -> Dict[str, Dict[str, Any]]:
    """Every per-layer metric with its unit; absent layers read 0."""
    return {
        name: {"value": float(values.get(name, 0.0)), "unit": unit}
        for name, (unit, _better) in PER_LAYER.items()
    }


def straggler_s(tr: Optional[Tracer]) -> float:
    """Largest per-environment busy time seen by ``run_window``."""
    if tr is None or not tr.env_busy:
        return 0.0
    return max(tr.env_busy.values())
