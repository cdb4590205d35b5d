"""The ``service_open_loop`` workload: ``repro serve`` under open-loop load.

One fixed seeded trace (``build_trace`` at the default seed; its
``at_ns`` are simulated offsets, independent of the wall rate) is sent
over one connection to a fresh ``python -m repro serve --mode sim`` per
rung.  The trace is fixed because its flush pattern sets the latency
tail: with a per-seed trace, seeds would compare different workloads.
``--seed`` draws the Poisson wall-clock send schedule; each request is
timed from when it was *due*, so a stall also charges the requests
queued behind it.
Rungs: a nominal rate, then a ladder of rates 1.25x apart until one
misses.  Every rung with zero refusals must reproduce the in-process
``run_service_replay`` response digest.
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import random
import signal
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

from common import (
    DEFAULT_SEED, HERE, OUT, ROOT, Deadline, Outcome, child_env, maxrss_mb,
    median, proc_cpu_s, proc_status_kb,
)
import layers

REQUESTS = 3000
VMS = 4
SLOTS = 8
NOMINAL_RPS = 750.0
LADDER_RPS = [1000.0 * 1.25 ** k for k in range(7)]
#: p99 due-time latency a rung must stay under to count as sustained.
SLO_MS = 100.0
#: The generator "kept up" when its p99 send lateness stays under this.
LATENESS_LIMIT_MS = 10.0
#: In-process replays of the trace timed for ``host_s_per_sim_s``.
MIN_REPLAYS = 9
MAX_REPLAYS = 40

#: ``response_digest`` of the replayed trace at the default seed.
PINNED_DIGEST = "14526973cb61294334d04bd19c7a628f76f62629a618478c191a7b58831425ea"


class Rung:
    """What one rate of the ladder measured."""

    def __init__(self, rate: float) -> None:
        self.rate = rate
        self.setup_s = 0.0
        self.latencies_ms: List[float] = []
        self.lateness_ms: List[float] = []
        self.refused = 0
        self.errors = 0
        self.backlog_at_end = 0
        self.digest = ""
        self.rss_growth_kb = 0
        self.peak_rss_kb = 0
        #: ``serve`` CPU seconds spent on this rung's requests.
        self.serve_cpu_s = 0.0
        self.layers: Dict[str, float] = {}

    def pct(self, values: List[float], p: float) -> float:
        return layers.percentile(values, p)

    @property
    def p99_ms(self) -> float:
        return self.pct(self.latencies_ms, 99)

    @property
    def excess(self) -> float:
        """Worst criterion over its limit (sustained iff <= 1): p99
        due-time latency over the SLO, generator p99 lateness over its
        limit, backlog left when the schedule ended over an SLO's worth
        of arrivals.  A refusal or error always pushes it past 1."""
        worst = max(
            self.p99_ms / SLO_MS,
            self.pct(self.lateness_ms, 99) / LATENESS_LIMIT_MS,
            self.backlog_at_end / (self.rate * SLO_MS / 1e3),
        )
        missed = self.refused + self.errors
        if missed:
            worst = max(worst, 1.0 + missed / max(len(self.latencies_ms), 1))
        return worst

    @property
    def sustained(self) -> bool:
        return self.refused == 0 and self.errors == 0 and self.excess <= 1.0


def capacity(rungs: List[Rung]) -> float:
    """Highest sustained rate.  The ladder stops at its first missed
    rung; the figure interpolates in log space between the rung before it
    and that rung, to where ``excess`` crosses 1, so it moves smoothly
    instead of by whole rungs."""
    missed = rungs[-1]
    if missed.sustained:
        return missed.rate
    if len(rungs) < 2 or rungs[-2].excess >= missed.excess:
        return missed.rate / missed.excess
    lo, hi = math.log(rungs[-2].excess), math.log(missed.excess)
    frac = min(max(-lo / (hi - lo), 0.0), 1.0)
    return rungs[-2].rate * (missed.rate / rungs[-2].rate) ** frac


def _spawn(traced_out: Optional[str]) -> Tuple[subprocess.Popen, int, float]:
    args = ["serve", "--mode", "sim", "--port", "0", "--seed", str(DEFAULT_SEED),
            "--slots", str(SLOTS), "-q"]
    if traced_out is None:
        cmd = [sys.executable, "-m", "repro"] + args
    else:
        cmd = [sys.executable, os.path.join(HERE, "serve_traced.py"), traced_out] + args
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(),
                            cwd=ROOT, text=True)
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - t0
    if not line.startswith("listening "):
        proc.kill()
        proc.wait()
        raise RuntimeError(f"serve did not start: {line!r}")
    port = int(line.split()[1].rsplit(":", 1)[1])
    return proc, port, elapsed


def _stop(proc: subprocess.Popen) -> None:
    proc.send_signal(signal.SIGTERM)
    try:
        proc.wait(timeout=30)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    proc.stdout.close()


async def _drive(port: int, trace: List[Dict[str, Any]], rate: float, seed: int,
                 rung: Rung, pid: int) -> None:
    from repro.errors import ServiceError
    from repro.service import ServiceClient, response_digest

    rng = random.Random(seed * 7919 + int(rate))
    due_offsets, t = [], 0.0
    for _ in trace:
        t += rng.expovariate(rate)
        due_offsets.append(t)

    client = await ServiceClient.connect("127.0.0.1", port, client="perfbench")
    responses: Dict[int, Dict[str, Any]] = {}
    pending: List[asyncio.Future] = []
    done = 0
    rss0 = proc_status_kb(pid, "VmRSS")
    cpu0 = proc_cpu_s(pid)
    try:
        def settle(rid: int, op: str, due: float, fut: asyncio.Future) -> None:
            nonlocal done
            done += 1
            rung.latencies_ms.append((time.perf_counter() - due) * 1e3)
            exc = fut.exception()
            if exc is None:
                responses[rid] = {"op": op, "ok": True, "data": fut.result()}
            elif isinstance(exc, ServiceError):
                responses[rid] = {"op": op, "ok": False, "code": exc.code,
                                  "error": str(exc)}
                if exc.code == "service-overloaded":
                    rung.refused += 1
                else:
                    rung.errors += 1
            else:
                rung.errors += 1

        t0 = time.perf_counter() + 0.01
        i = 0
        while i < len(trace):
            now = time.perf_counter()
            due = t0 + due_offsets[i]
            if due > now:
                await asyncio.sleep(due - now)
                continue
            while i < len(trace) and t0 + due_offsets[i] <= now:
                req = trace[i]
                due_i = t0 + due_offsets[i]
                fut = client.send_nowait(req["op"], req["params"], req["at_ns"])
                rung.lateness_ms.append((now - due_i) * 1e3)
                fut.add_done_callback(
                    lambda f, rid=i + 1, op=req["op"], d=due_i: settle(rid, op, d, f))
                pending.append(fut)
                i += 1
            await asyncio.sleep(0)
        rung.backlog_at_end = len(trace) - done
        await asyncio.wait(pending, timeout=120)
        rung.rss_growth_kb = proc_status_kb(pid, "VmRSS") - rss0
        rung.peak_rss_kb = proc_status_kb(pid, "VmHWM")
        rung.serve_cpu_s = proc_cpu_s(pid) - cpu0
    finally:
        await client.close()
    if len(responses) == len(trace):
        rung.digest = response_digest(responses)


def _run_rung(seed: int, trace, rate: float, traced_out: Optional[str] = None) -> Rung:
    rung = Rung(rate)
    proc, port, rung.setup_s = _spawn(traced_out)
    try:
        asyncio.run(_drive(port, trace, rate, seed, rung, proc.pid))
    finally:
        _stop(proc)
    if traced_out is not None:
        with open(traced_out) as fh:
            rung.layers = json.load(fh)
    return rung


def service_open_loop(seed: int, seconds: float, trace: bool) -> Outcome:
    from repro.service import build_trace, run_service_replay

    out = Outcome()
    dl = Deadline(seconds, min_rounds=MIN_REPLAYS, max_rounds=MAX_REPLAYS)
    requests = build_trace(requests=REQUESTS, vms=VMS, seed=DEFAULT_SEED,
                           arrivals="constant", rate_per_s=20_000.0)
    replay_walls: List[float] = []
    replay_cpus: List[float] = []
    replay_digests: List[str] = []

    def replay_once():
        # Replays are spread over the whole run (before and after every
        # rung, then until the deadline), so the median is not one
        # stretch of host load.
        t0, c0 = time.perf_counter(), time.process_time()
        replay = run_service_replay("service_smoke", seed=DEFAULT_SEED,
                                    overrides={"requests": REQUESTS})
        replay_walls.append(time.perf_counter() - t0)
        replay_cpus.append(time.process_time() - c0)
        replay_digests.append(replay.digest)
        dl.done += 1
        return replay

    replay = replay_once()
    replay_once()

    def judge(rung: Rung, nominal: bool) -> None:
        # Refusals above the nominal rate are the capacity probe doing
        # its job (they disqualify the rung); at the nominal rate they
        # are failures, like any error.
        out.attempted += len(requests)
        out.failed += rung.errors + (rung.refused if nominal else 0)
        if rung.refused == 0:
            out.check(f"service_open_loop: socket digest equals replay at "
                      f"{rung.rate:.0f} req/s", rung.digest == replay.digest,
                      rung.digest[:12])

    nominal = _run_rung(seed, requests, NOMINAL_RPS)
    judge(nominal, True)
    replay_once()
    rungs = [nominal]
    if trace:
        os.makedirs(OUT, exist_ok=True)
        path = os.path.join(OUT, f"service_open_loop-seed{seed}.layers.json")
        traced = _run_rung(seed, requests, NOMINAL_RPS, traced_out=path)
        judge(traced, True)
    else:
        for rate in LADDER_RPS:
            rung = _run_rung(seed, requests, rate)
            judge(rung, False)
            rungs.append(rung)
            replay_once()
            if not rung.sustained:
                break
    while dl.more():
        replay_once()
    replay_wall, replay_cpu = median(replay_walls), median(replay_cpus)
    sim_span_s = requests[-1]["at_ns"] / 1e9
    out.check("service_open_loop: replay digest pinned, every replay",
              set(replay_digests) == {PINNED_DIGEST}, replay.digest)

    if trace:
        vals = dict(traced.layers)
        # The socket path runs the replay's DES work, event for event.
        if vals.get("sim.events"):
            vals["sim.host_ns_per_event"] = replay_wall / vals["sim.events"] * 1e9
        vals["trace.overhead_frac"] = traced.serve_cpu_s / nominal.serve_cpu_s - 1.0
        out.layers = vals

    max_rps = capacity(rungs)
    out.metrics = {
        "setup_s": median([r.setup_s for r in rungs]),
        "peak_rss_mb": max(r.peak_rss_kb for r in rungs) / 1024.0,
        "host_s_per_sim_s": replay_cpu / sim_span_s,
        # Requests per second of serve CPU: the server's capacity on one
        # whole CPU.  The open-loop knee (svc_max_rps) also depends on how
        # much CPU the host lends the server and the generator at that
        # moment, so it is reported but not bounded.
        "rate_per_s": REQUESTS / nominal.serve_cpu_s,
    }
    out.report = {
        "nominal_sustained": (nominal.sustained, "bool"),
        "svc_p50_ms": (nominal.pct(nominal.latencies_ms, 50), "ms"),
        "svc_p99_ms": (nominal.p99_ms, "ms"),
        "svc_samples": (len(nominal.latencies_ms), "count"),
        "svc_max_rps": (None if trace else max_rps, "req/s"),
        "svc_rss_kb_per_kreq": (nominal.rss_growth_kb / (REQUESTS / 1000.0), "KB"),
        "generator_p99_lateness_ms": (nominal.pct(nominal.lateness_ms, 99), "ms"),
        "rungs": ([(round(r.rate), round(r.p99_ms, 2), r.refused,
                    round(r.pct(r.lateness_ms, 99), 2), r.backlog_at_end,
                    round(r.excess, 3)) for r in rungs],
                  "rate,p99_ms,refused,lateness_p99_ms,backlog,excess"),
        "wall_host_s_per_sim_s": (replay_wall / sim_span_s, "s/s"),
        "replays": (len(replay_cpus), "count"),
        "replay_digest": (replay.digest[:12], ""),
        "bench_rss_mb": (maxrss_mb(), "MB"),
    }
    return out
