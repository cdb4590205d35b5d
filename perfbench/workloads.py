"""The simulation workloads: paper testbed, 256-host cluster, sweep.

Each drives only the public API and returns an :class:`Outcome`.
Untraced runs repeat rounds until ``seconds`` have passed and report
medians; traced runs make one untraced pass (for the tracing overhead
and per-event cost) and one traced pass.
"""

from __future__ import annotations

import os
import shutil
import time
from typing import Dict, List

import numpy as np

from common import (
    DEFAULT_SEED, OUT, Deadline, Outcome, cpu_s_with_children, maxrss_mb,
    median, setup_probe, usable_cpus,
)
import layers
from tracer import Tracer

#: ``result_digest`` of each workload's checked metrics at the default
#: seed.  A perf change must leave these bytes alone.
PINNED = {
    "paper_managed": "789a0a5535aee2ab6625dbfa543cfef83ec4ec2561c2005f4813f3b0d55b8bb4",
    "cluster_scale": "5d1d5ac18084e91848cbbdc1242b0ce9e870d9915a87ffb26a3d8cb2a80278c1",
    "sweep_supervised": "495c560f0328ec9d8d675187c6e4c737676c7161a3e04c0ad9d68da8181f344f",
}

PAPER_SIM_S = 1.0
CLUSTER_SIM_S = 0.25
SWEEP_SIM_S = 0.1
SWEEP_CELLS = 8


def _pin(out: Outcome, workload: str, seed: int, digest: str) -> None:
    if seed == DEFAULT_SEED:
        out.check(f"{workload}: digest pinned for seed {seed}",
                  digest == PINNED[workload], digest)


def _traced(fn, hooks=layers.HOOKS, sample: bool = True):
    """Run ``fn()`` under a fresh tracer; returns (result, wall, tracer)."""
    tr = Tracer()
    tr.install(hooks)
    if sample:
        tr.start_sampler()
    t0 = time.perf_counter()
    try:
        result = fn()
    finally:
        wall = time.perf_counter() - t0
        tr.uninstall()
    return result, wall, tr


# -- paper_managed ------------------------------------------------------------

def _paper_setup(seed: int):
    from repro.benchex import BenchExConfig
    from repro.experiments import build_scenario
    from repro.units import MiB

    return build_scenario(
        "perfbench-paper",
        interferer=BenchExConfig(name="interferer", buffer_bytes=2 * MiB),
        policy="ioshares",
        seed=seed,
    )


def _paper_metrics(result) -> Dict[str, float]:
    lat = result.latencies_us
    return {
        "requests": float(len(lat)),
        "reporting_p50_us": float(np.percentile(lat, 50)),
        "reporting_p99_us": float(np.percentile(lat, 99)),
        "reporting_mean_us": float(lat.mean()),
        "total_mean_us": float(result.breakdown.total_mean),
        "sim_time_s": result.sim_time_ns / 1e9,
    }


def paper_managed(seed: int, seconds: float, trace: bool) -> Outcome:
    from repro.supervise.manifest import result_digest

    out = Outcome()
    setup = setup_probe("paper_managed", seed)
    _paper_setup(seed).execute(0.1)  # warm-up: first run in a process is slow

    def one():
        scenario = _paper_setup(seed)
        t0, c0 = time.perf_counter(), time.process_time()
        result = scenario.execute(PAPER_SIM_S)
        return (result, time.perf_counter() - t0, time.process_time() - c0,
                scenario.bed.env.events_processed)

    walls: List[float] = []
    cpus: List[float] = []
    digests: List[str] = []
    metrics = {}
    events = 0
    dl = Deadline(seconds, min_rounds=1 if trace else 3, max_rounds=1 if trace else 30)
    while dl.more():
        result, wall, cpu, events = one()
        metrics = _paper_metrics(result)
        digests.append(result_digest(metrics))
        walls.append(wall)
        cpus.append(cpu)
        out.op(digests[-1] == digests[0])
        dl.done += 1
    out.check("paper_managed: rounds repeat exactly", len(set(digests)) == 1)
    _pin(out, "paper_managed", seed, digests[0])

    wall, cpu = median(walls), median(cpus)
    out.metrics = {
        "setup_s": median(setup),
        "peak_rss_mb": maxrss_mb(),
        "host_s_per_sim_s": cpu / PAPER_SIM_S,
        "rate_per_s": metrics["requests"] / cpu,
    }
    out.report = {
        "rounds": (len(walls), "count"),
        "wall_host_s_per_sim_s": (wall / PAPER_SIM_S, "s/s"),
        "sim_reporting_p99_us": (metrics["reporting_p99_us"], "us (simulated)"),
        "reporting_requests": (metrics["requests"], "count"),
        "sim_events": (events, "count"),
    }
    if trace:
        def traced():
            scenario = _paper_setup(seed)
            return scenario.execute(PAPER_SIM_S)

        result, twall, tr = _traced(traced)
        digest = result_digest(_paper_metrics(result))
        out.op(digest == digests[0])
        out.check("paper_managed: traced run equals untraced", digest == digests[0])
        vals = layers.tracer_metrics(tr)
        vals["sim.host_ns_per_event"] = walls[0] / events * 1e9
        vals["trace.overhead_frac"] = twall / walls[0] - 1.0
        tr.write(OUT, f"paper_managed-seed{seed}", vals)
        out.layers = vals
    return out


# -- cluster_scale ------------------------------------------------------------

def cluster_scale(seed: int, seconds: float, trace: bool) -> Outcome:
    from repro.experiments import build_cluster, run_cluster
    from repro.supervise.manifest import result_digest

    out = Outcome()
    setup = setup_probe("cluster_scale", seed)
    build_cluster("cluster_scale", seed=seed).execute(0.02)
    run_cluster("cluster_scale", seed=seed, sim_s=0.02, shards=2, backend="fork")

    def serial():
        world = build_cluster("cluster_scale", seed=seed)
        t0, c0 = time.perf_counter(), time.process_time()
        result = world.execute(CLUSTER_SIM_S)
        return (result, time.perf_counter() - t0, time.process_time() - c0,
                world.world.env.events_processed)

    def sharded(backend: str = "fork"):
        t0, c0 = time.perf_counter(), cpu_s_with_children()
        result = run_cluster("cluster_scale", seed=seed, sim_s=CLUSTER_SIM_S,
                             shards=2, backend=backend)
        return result, time.perf_counter() - t0, cpu_s_with_children() - c0

    serial_walls: List[float] = []
    serial_cpus: List[float] = []
    shard_walls: List[float] = []
    shard_cpus: List[float] = []
    digests: List[str] = []
    metrics: Dict[str, float] = {}
    stats = None
    events = 0
    dl = Deadline(seconds, min_rounds=1 if trace else 2, max_rounds=1 if trace else 30)
    while dl.more():
        for arm in (("serial", "sharded") if dl.done % 2 == 0 else ("sharded", "serial")):
            if arm == "serial":
                result, wall, cpu, events = serial()
                serial_walls.append(wall)
                serial_cpus.append(cpu)
                metrics = result.metrics()
            else:
                result, wall, cpu = sharded()
                shard_walls.append(wall)
                shard_cpus.append(cpu)
                stats = result.shard_stats
            digests.append(result_digest(result.metrics()))
            out.op(digests[-1] == digests[0])
        dl.done += 1
    out.check("cluster_scale: 2-shard digest equals serial, every round",
              len(set(digests)) == 1)
    _pin(out, "cluster_scale", seed, digests[0])

    s_wall, s_cpu, f_wall = median(serial_walls), median(serial_cpus), median(shard_walls)
    out.metrics = {
        "setup_s": median(setup),
        "peak_rss_mb": max(maxrss_mb(), maxrss_mb(children=True)),
        "host_s_per_sim_s": s_cpu / CLUSTER_SIM_S,
        "rate_per_s": metrics["flows_completed"] / median(shard_cpus),
    }
    comparable = usable_cpus() >= 2
    out.report = {
        "rounds": (len(serial_walls), "count"),
        "wall_host_s_per_sim_s": (s_wall / CLUSTER_SIM_S, "s/s"),
        "sharded2_host_s_per_sim_s": (f_wall / CLUSTER_SIM_S, "s/s"),
        "sharded2_comparable": (comparable, "bool"),
        "sim_reporting_p99_us": (metrics.get("reporting_p99_us"), "us (simulated)"),
        "flows_completed": (metrics["flows_completed"], "count"),
        "events_per_shard": (list(stats.events_per_shard), "count"),
    }
    if trace:
        def traced():
            a, _wall, _cpu, _events = serial()
            b, fork_wall, _cpu = sharded()
            return a, b, fork_wall

        (a, b, tfork), twall, tr = _traced(traced)
        (c, _inline_wall, _inline_cpu), _w, window_tr = _traced(
            lambda: sharded("inline"), hooks=layers.WINDOW_HOOKS, sample=False)
        same = {result_digest(r.metrics()) for r in (a, b, c)} == {digests[0]}
        out.op(same)
        out.check("cluster_scale: traced and inline runs equal untraced", same)
        vals = layers.tracer_metrics(tr)
        straggler = layers.straggler_s(window_tr)
        eps = stats.events_per_shard
        vals.update({
            "sim.host_ns_per_event": serial_walls[0] / events * 1e9,
            "shard.barriers": float(stats.barriers),
            "shard.windows": float(stats.windows),
            "shard.barrier_frac": stats.barriers / stats.windows if stats.windows else 0.0,
            "shard.messages": float(stats.messages_exchanged),
            "shard.events_imbalance": max(eps) / (sum(eps) / len(eps)),
            "shard.straggler_s": straggler,
            "shard.overhead_s": shard_walls[0] - straggler,
            "trace.overhead_frac": twall / (serial_walls[0] + shard_walls[0]) - 1.0,
        })
        tr.write(OUT, f"cluster_scale-seed{seed}", vals)
        out.layers = vals
    return out


# -- sweep_supervised ---------------------------------------------------------

def _sweep_jobs(seed: int):
    from repro.benchex import BenchExConfig
    from repro.parallel.engine import SweepJob
    from repro.units import MiB

    spec = {
        "interferer": BenchExConfig(name="interferer", buffer_bytes=2 * MiB),
        "policy": "ioshares",
        "sim_s": SWEEP_SIM_S,
    }
    return [SweepJob("scenario", "perfbench-sweep", seed + i, dict(spec))
            for i in range(SWEEP_CELLS)]


def sweep_supervised(seed: int, seconds: float, trace: bool) -> Outcome:
    from repro.parallel.engine import run_sweep
    from repro.supervise import supervised_sweep
    from repro.supervise.manifest import result_digest

    out = Outcome()
    setup = setup_probe("sweep_supervised", seed)
    jobs = _sweep_jobs(seed)
    scratch = os.path.join(OUT, f"sweep-{os.getpid()}")

    def fresh(name: str) -> str:
        path = os.path.join(scratch, name)
        shutil.rmtree(path, ignore_errors=True)
        return path

    def timed(fn):
        t0, c0 = time.perf_counter(), time.process_time()
        result = fn()
        return result, time.perf_counter() - t0, time.process_time() - c0

    def one_round(order):
        arms = {}
        for arm in order:
            if arm == "serial":
                arms[arm] = timed(lambda: run_sweep(jobs, workers=1))
            elif arm == "pooled":
                arms[arm] = timed(lambda: run_sweep(jobs, workers=2, cache=fresh("pool-cache")))
            else:
                arms[arm] = timed(lambda: supervised_sweep(
                    jobs, run_dir=fresh("runs"), workers=2, cache=fresh("sup-cache")))
        arms["warm"] = timed(lambda: run_sweep(
            jobs, workers=2, cache=os.path.join(scratch, "sup-cache")))
        return arms

    def values(result) -> List[dict]:
        return [c.metrics for c in result.cells]

    walls: Dict[str, List[float]] = {"serial": [], "pooled": [], "supervised": []}
    serial_cpus: List[float] = []
    digests: List[str] = []
    last = {}
    try:
        dl = Deadline(seconds, min_rounds=1 if trace else 2, max_rounds=1 if trace else 30)
        while dl.more():
            order = ("serial", "pooled", "supervised") if dl.done % 2 == 0 \
                else ("serial", "supervised", "pooled")
            last = one_round(order)
            for arm in walls:
                walls[arm].append(last[arm][1])
            serial_cpus.append(last["serial"][2])
            per_arm = [values(last[a][0]) for a in ("serial", "pooled", "supervised", "warm")]
            ok = (all(v == per_arm[0] for v in per_arm)
                  and last["warm"][0].report.cached == SWEEP_CELLS
                  and last["supervised"][0].complete)
            for cell in last["serial"][0].cells:
                out.op(ok and cell.ok)
            digests.append(result_digest({"cells": per_arm[0]}))
            dl.done += 1
        out.check("sweep_supervised: serial == pooled == supervised == warm",
                  out.failed == 0)
        out.check("sweep_supervised: rounds repeat exactly", len(set(digests)) == 1)
        _pin(out, "sweep_supervised", seed, digests[0])

        sim_total = SWEEP_CELLS * SWEEP_SIM_S
        pooled, sup = median(walls["pooled"]), median(walls["supervised"])
        out.metrics = {
            "setup_s": median(setup),
            "peak_rss_mb": max(maxrss_mb(), maxrss_mb(children=True)),
            "host_s_per_sim_s": median(serial_cpus) / sim_total,
            "rate_per_s": median([2 * SWEEP_CELLS / (p + s) for p, s in
                                  zip(walls["pooled"], walls["supervised"])]),
        }
        comparable = usable_cpus() >= 2
        out.report = {
            "rounds": (len(digests), "count"),
            "sweep_cells_per_s": (SWEEP_CELLS / pooled, "cells/s"),
            "sweep_supervised_cells_per_s": (SWEEP_CELLS / sup, "cells/s"),
            "two_worker_comparable": (comparable, "bool"),
            "wall_host_s_per_sim_s": (median(walls["serial"]) / sim_total, "s/s"),
        }
        if trace:
            traced, twall, tr = _traced(
                lambda: one_round(("serial", "pooled", "supervised")))
            per_arm = [values(traced[a][0]) for a in ("serial", "pooled", "supervised", "warm")]
            same = all(v == values(last["serial"][0]) for v in per_arm)
            out.op(same)
            out.check("sweep_supervised: traced round equals untraced", same)
            untraced = sum(last[a][1] for a in last)
            pool = traced["pooled"][0].report
            sup_result = traced["supervised"][0]
            vals = layers.tracer_metrics(tr)
            vals.update({
                "parallel.pool_utilization": pool.utilization,
                "parallel.cell_cpu_s": pool.cpu_s,
                "parallel.dispatch_overhead_s": pool.wall_s * pool.workers - pool.cpu_s,
                "parallel.cache_hits": float(traced["warm"][0].report.cached),
                "supervise.forks": float(sum(c.attempts for c in sup_result.cells
                                             if not c.cached)),
                "supervise.retries": float(sup_result.retried_attempts),
                "supervise.manifest_bytes": float(os.path.getsize(sup_result.manifest_path)),
                # Only the in-process serial arm's events reach this
                # process; pool and supervised cells run in children.
                "sim.host_ns_per_event": (last["serial"][1] / vals["sim.events"] * 1e9
                                          if vals["sim.events"] else 0.0),
                "trace.overhead_frac": twall / untraced - 1.0,
            })
            tr.write(OUT, f"sweep_supervised-seed{seed}", vals)
            out.layers = vals
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return out


def probe(kind: str, seed: int) -> None:
    """Import and build one workload's inputs, as a user's process would."""
    if kind == "paper_managed":
        _paper_setup(seed)
    elif kind == "cluster_scale":
        from repro.experiments import build_cluster
        build_cluster("cluster_scale", seed=seed)
    elif kind == "sweep_supervised":
        import repro.parallel.engine  # noqa: F401
        import repro.supervise  # noqa: F401
        _sweep_jobs(seed)
    else:
        raise SystemExit(f"unknown probe {kind!r}")
