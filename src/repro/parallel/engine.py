"""The deterministic sweep engine (``repro sweep``): one cell executor.

Everything above a single scenario run — replications, comparisons,
chaos campaigns, ablation suites, figure sets — is a batch of
*independent* seeded simulations.  This engine runs those cells
through one drive loop and merges results **in submission order**, so
serial, parallel and supervised execution produce byte-identical
aggregates:

* a cell is a picklable :class:`SweepJob` — kind + name + seed + plain
  kwargs; the runner rebuilds the scenario from kwargs, so no
  ``Environment``/process/generator objects ever cross the pipe;
* each cell runs in a fresh deterministic simulation seeded only by
  its job spec, so *where* it runs (the parent, a forked child,
  yesterday's child via the cache) cannot change its floats;
* results are merged by submission index, never completion order;
* with one worker and no watchdog, cells run in-process; otherwise
  every cell runs in its own forked child, at most ``workers`` at a
  time.  A worker exception is captured per cell (traceback text in
  :attr:`CellResult.error`); a hard crash (killed process) fails only
  the cell whose child died.

Supervision is a policy of the same loop: :class:`SupervisePolicy`
adds per-cell wall-clock and stall watchdogs and seeded-backoff
retries, and :func:`repro.supervise.supervised_sweep` adds a ledger
that records every state transition.  :func:`run_sweep` is the loop
with no retry, no watchdog and no ledger.

The optional content-addressed :class:`~repro.parallel.cache.ResultCache`
short-circuits cells whose (version, kind, name, kwargs, seed) address
already has a stored result — a warm re-run of a sweep costs file
reads only.

Per-worker execution summaries (cells run, process/wall time) are
folded into one :class:`SweepReport`, and — when a telemetry bus is
passed — the sweep emits ``sweep``-category records so campaign-level
orchestration is visible on the same bus as everything else.
"""

from __future__ import annotations

import contextlib
import math
import multiprocessing
import os
import pathlib
import time
import traceback
from dataclasses import dataclass, field
from multiprocessing.connection import wait as _wait
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import ConfigError, ReproError
from repro.parallel.cache import ResultCache
from repro.sim import invariants as _invariants
from repro.sim.checkpoint import seeded_backoff_s
from repro.telemetry.bus import SWEEP

#: Registered cell kinds: kind -> runner(job) returning either a
#: ``dict`` of float metrics (cacheable) or an arbitrary picklable
#: payload (fanned out but never cached).
JOB_KINDS: Dict[str, Callable[["SweepJob"], Any]] = {}


def register_job_kind(kind: str, runner: Callable[["SweepJob"], Any]) -> None:
    """Register (or replace) the runner for a cell kind."""
    JOB_KINDS[kind] = runner


@dataclass(frozen=True)
class SweepJob:
    """One picklable sweep cell: what to run, not how it was built."""

    kind: str
    name: str
    seed: int
    spec: Dict[str, Any] = field(default_factory=dict)

    @property
    def label(self) -> str:
        return f"{self.kind}:{self.name}@s{self.seed}"


@dataclass
class CellResult:
    """Outcome of one cell, in submission order."""

    job: SweepJob
    #: Float metrics (scenario/chaos cells); ``None`` for payload cells
    #: and failed cells.
    metrics: Optional[Dict[str, float]] = None
    #: Arbitrary result object for registry-style cells.
    payload: Any = None
    cached: bool = False
    error: Optional[str] = None
    #: Stable machine-readable error code (``ReproError.code``) when the
    #: failure was a structured repro error; ``"error"`` otherwise.
    error_code: Optional[str] = None
    #: True when the cell completed but a runtime invariant guard fired
    #: in ``record`` mode — the numbers exist but are suspect, and the
    #: cell is excluded from the result cache.
    tainted: bool = False
    #: Recorded invariant violations (plain dicts, see
    #: :meth:`repro.sim.invariants.Violation.to_dict`).
    violations: Tuple[Dict[str, Any], ...] = ()
    #: Attempts it took to conclude this cell (supervised runs retry;
    #: the plain engine always concludes on attempt 1).
    attempts: int = 1
    pid: int = 0
    wall_s: float = 0.0
    process_s: float = 0.0

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass
class SweepReport:
    """Folded per-worker execution summary of one sweep."""

    jobs: int = 0
    executed: int = 0
    cached: int = 0
    errors: int = 0
    #: Cells that completed but tripped a runtime invariant guard.
    tainted: int = 0
    workers: int = 1
    wall_s: float = 0.0
    #: Sum of per-cell process time measured *inside* the executing
    #: process — under multiprocessing this is the number wall clock
    #: cannot give you (children's CPU never shows in the parent's
    #: ``time.process_time``).
    cpu_s: float = 0.0
    worker_cells: Dict[int, int] = field(default_factory=dict)
    worker_cpu_s: Dict[int, float] = field(default_factory=dict)

    @property
    def utilization(self) -> float:
        """Mean fraction of the worker slots kept busy (cpu_s / wall_s*workers)."""
        if self.wall_s <= 0 or self.workers <= 0:
            return 0.0
        return self.cpu_s / (self.wall_s * self.workers)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "jobs": self.jobs,
            "executed": self.executed,
            "cached": self.cached,
            "errors": self.errors,
            "tainted": self.tainted,
            "workers": self.workers,
            "wall_s": self.wall_s,
            "cpu_s": self.cpu_s,
            "utilization": self.utilization,
            "worker_cells": {str(k): v for k, v in sorted(self.worker_cells.items())},
            "worker_cpu_s": {
                str(k): v for k, v in sorted(self.worker_cpu_s.items())
            },
        }

    def render(self) -> str:
        taint = f", {self.tainted} tainted" if self.tainted else ""
        return (
            f"sweep: {self.jobs} cells ({self.cached} cached, "
            f"{self.executed} executed, {self.errors} errors{taint}) on "
            f"{self.workers} worker(s) in {self.wall_s:.2f}s wall / "
            f"{self.cpu_s:.2f}s cpu ({self.utilization * 100:.0f}% worker "
            f"utilization)"
        )


@dataclass
class SweepResult:
    """All cell results (submission order) plus the folded report."""

    cells: List[CellResult]
    report: SweepReport

    def values(self, metric: str) -> Tuple[float, ...]:
        """The given metric across cells, submission order.

        Raises :class:`ConfigError` if any cell failed or lacks it.
        """
        out = []
        for cell in self.cells:
            if cell.metrics is None or metric not in cell.metrics:
                raise ConfigError(
                    f"cell {cell.job.label} has no metric {metric!r} "
                    f"(error: {cell.error or 'none'})"
                )
            out.append(cell.metrics[metric])
        return tuple(out)

    def failed(self) -> List[CellResult]:
        return [c for c in self.cells if not c.ok]


# -- worker entrypoint -------------------------------------------------------

def _execute_job(job: SweepJob) -> Dict[str, Any]:
    """Run one cell; returns a picklable result envelope.

    This is the single execution path for serial, parallel and
    supervised runs — the drive loop calls it in-process or in a forked
    child — which is what makes "parallel equals serial" a structural
    property rather than a testing aspiration.
    """
    wall0 = time.perf_counter()
    cpu0 = time.process_time()
    envelope: Dict[str, Any] = {"pid": os.getpid()}
    # Per-cell invariant scoping: each cell gets its own fresh monitor
    # at the ambient mode, so violations recorded by one cell never
    # bleed into its neighbours — in serial runs (shared process) and
    # forked children (inherited parent monitor) alike.  The envelope
    # carries the violations back as plain dicts.
    ambient = _invariants.current()
    mon = _invariants.monitor_for_mode(ambient.mode)
    _invariants.install(mon)
    try:
        runner = JOB_KINDS.get(job.kind)
        if runner is None:
            raise ConfigError(
                f"unknown sweep job kind {job.kind!r} (have {sorted(JOB_KINDS)})"
            )
        out = runner(job)
        if isinstance(out, Mapping):
            envelope["metrics"] = dict(out)
        else:
            envelope["payload"] = out
    except BaseException as exc:  # captured per-cell, reported upstream
        envelope["error"] = (
            f"{type(exc).__name__}: {exc}\n{traceback.format_exc()}"
        )
        if isinstance(exc, ReproError):
            envelope["error_code"] = exc.code
    finally:
        _invariants.install(ambient)
    if mon.tainted:
        envelope["tainted"] = True
        envelope["violations"] = mon.to_dicts()
    envelope["process_s"] = time.process_time() - cpu0
    envelope["wall_s"] = time.perf_counter() - wall0
    return envelope


# -- built-in cell kinds -----------------------------------------------------

def _run_scenario_cell(job: SweepJob) -> Dict[str, float]:
    """Rebuild + run one scenario replication cell from kwargs."""
    from repro.experiments.scenarios import run_scenario

    result = run_scenario(
        f"{job.name}-s{job.seed}", seed=job.seed, **job.spec
    )
    b = result.breakdown
    return {
        "total_mean": b.total_mean,
        "total_std": b.total_std,
        "requests": float(b.n),
    }


def _run_chaos_cell(job: SweepJob) -> Dict[str, float]:
    """Rebuild + run one chaos replication cell from kwargs."""
    from repro.experiments.scenarios import run_chaos_scenario

    chaos = run_chaos_scenario(job.name, seed=job.seed, **job.spec)
    report = chaos.report
    worst = report.worst_ttr_ms
    return {
        "excursion_us_s": report.total_excursion_us_s,
        "worst_ttr_ms": float("inf") if worst is None else worst,
        "recovered": 1.0 if report.recovered_all else 0.0,
    }


def _run_registry_cell(job: SweepJob) -> Any:
    """Run one experiment-registry cell (figure or ablation)."""
    registry_name = job.spec.get("registry")
    if registry_name == "figures":
        from repro.experiments.figures import ALL_FIGURES as registry
    elif registry_name == "ablations":
        from repro.experiments.ablations import ALL_ABLATIONS as registry
    else:
        raise ConfigError(f"unknown experiment registry {registry_name!r}")
    try:
        fn = registry[job.name]
    except KeyError:
        raise ConfigError(
            f"unknown experiment {job.name!r} in registry {registry_name!r}"
        ) from None
    # Scoped, so an in-process cell cannot rescale its caller.
    with _environ("REPRO_SCALE", job.spec.get("scale") or None):
        return fn(seed=job.seed)


def _run_cluster_cell(job: SweepJob) -> Dict[str, float]:
    """Rebuild + run one cluster-scale cell from kwargs.

    ``job.name`` is a :data:`~repro.experiments.cluster.CLUSTER_SPECS`
    preset; ``spec`` may override ``sim_s`` and ``shards``.  The result
    is a plain float dict, so cluster cells are content-addressed
    cacheable like scenario cells.  ``shards`` changes only how a cell
    executes, never its metrics (sharding is bit-identical), so a warm
    cache entry written by a serial run stays valid for a sharded one
    and vice versa — which is also why ``shards`` is excluded from the
    cell's content address (see
    :data:`repro.parallel.cache.EXECUTION_ONLY_KEYS`).

    ``checkpoint_dir``/``checkpoint_every``/``restore`` thread the
    barrier-aligned checkpointing of :mod:`repro.sim.checkpoint`
    through to the sharded runtime — also execution-only (a restored
    cell replays to the same bytes), so the supervisor can inject them
    without disturbing content addresses.
    """
    from repro.experiments.cluster import run_cluster

    checkpoint_dir = job.spec.get("checkpoint_dir")
    return run_cluster(
        job.name,
        seed=job.seed,
        sim_s=job.spec.get("sim_s"),
        shards=int(job.spec.get("shards", 1)),
        checkpoint_dir=str(checkpoint_dir) if checkpoint_dir else None,
        checkpoint_every=job.spec.get("checkpoint_every"),
        restore=bool(job.spec.get("restore", False)),
    ).metrics()


def _run_service_cell(job: SweepJob) -> Dict[str, float]:
    """Rebuild + run one deterministic service replay cell.

    ``job.name`` is a :data:`~repro.service.replay.SERVICE_SPECS`
    preset; ``spec`` entries override the preset (e.g. a smaller
    ``requests`` for smoke runs).  The metrics include ``digest48``
    (the first 48 bits of the response-log digest as a float), so a
    cache hit is also a determinism check: a warm cell that replays to
    a different digest would surface as a metric mismatch.
    """
    from repro.service.replay import run_service_replay

    return run_service_replay(
        job.name, seed=job.seed, overrides=dict(job.spec) or None
    ).metrics()


register_job_kind("scenario", _run_scenario_cell)
register_job_kind("chaos", _run_chaos_cell)
register_job_kind("registry", _run_registry_cell)
register_job_kind("cluster", _run_cluster_cell)
register_job_kind("service", _run_service_cell)


# -- supervision policy ------------------------------------------------------

#: Environment variable exposing the attempt number (1-based) to the
#: cell runner.  Production cells must ignore it (results must not
#: depend on which attempt produced them); test job kinds read it to
#: inject attempt-correlated failures.
ATTEMPT_ENV = "REPRO_SWEEP_ATTEMPT"


@dataclass(frozen=True)
class SupervisePolicy:
    """Knobs of the supervision layer.

    ``timeout_s``/``stall_s`` of 0 disable that watchdog; with both
    disabled and one worker, cells run in-process (no fork per cell).
    ``retries`` is the number of *re*-tries: a cell gets
    ``retries + 1`` attempts before quarantine.
    """

    timeout_s: float = 0.0
    stall_s: float = 0.0
    retries: int = 1
    #: First-retry backoff; doubles per attempt, jittered in
    #: [0.5x, 1.5x) by a hash of (backoff_seed, cell, attempt).
    backoff_base_s: float = 0.1
    backoff_seed: int = 0
    #: Sim events between heartbeat-file writes in the worker.
    heartbeat_every: int = 4096

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise ConfigError(f"retries must be >= 0, got {self.retries}")
        if self.timeout_s < 0 or self.stall_s < 0:
            raise ConfigError("timeout_s and stall_s must be >= 0")
        if self.heartbeat_every < 1:
            raise ConfigError("heartbeat_every must be >= 1")

    @property
    def max_attempts(self) -> int:
        return self.retries + 1

    @property
    def watchdog(self) -> bool:
        """Whether any feature requiring per-cell processes is on."""
        return self.timeout_s > 0 or self.stall_s > 0

    def backoff_s(self, job: SweepJob, attempt: int) -> float:
        """Deterministic jittered exponential backoff before retrying
        ``job`` after its ``attempt``-th failure (uncapped)."""
        return seeded_backoff_s(
            f"{self.backoff_seed}:{job.kind}:{job.name}:{job.seed}",
            attempt,
            self.backoff_base_s,
            math.inf,
        )


class HeartbeatBus:
    """A telemetry-bus-shaped progress reporter for supervised workers.

    Installed process-globally in the child, so the cell's
    ``Environment`` picks it up like any other bus.  Every emit is a
    no-op except :meth:`kernel_tick`, which writes the kernel's event
    counter to the heartbeat file every ``every`` events — the
    supervisor reads the file and treats a counter that stops
    advancing as a wedged simulation.
    """

    __slots__ = ("path", "every")

    enabled = True
    kernel_dispatch = False
    kernel_sample_every = 0

    def __init__(self, path, every: int) -> None:
        self.path = str(path)
        self.every = int(every)

    def kernel_tick(
        self, ts_ns: int, events_processed: int, queue_depth: int, event: object
    ) -> None:
        if events_processed % self.every == 0:
            try:
                with open(self.path, "w", encoding="utf-8") as fh:
                    fh.write(f"{events_processed}\n")
            except OSError:  # heartbeat loss must never kill the cell
                pass

    def _ignore(self, *args: Any, **kwargs: Any) -> None:
        pass

    kernel_resume = span = instant = event = counter = _ignore

    def __repr__(self) -> str:
        return f"<HeartbeatBus {self.path!r} every={self.every}>"


# -- the drive loop ----------------------------------------------------------

@contextlib.contextmanager
def _environ(name: str, value: Optional[str]):
    """Set ``os.environ[name]`` (unless ``value`` is None) for a block,
    then restore whatever was there before."""
    previous = os.environ.get(name)
    if value is not None:
        os.environ[name] = value
    try:
        yield
    finally:
        if previous is None:
            os.environ.pop(name, None)
        else:
            os.environ[name] = previous


def _supervised_child(conn, job: SweepJob, attempt: int,
                      hb_path: Optional[str], hb_every: int) -> None:
    """Entrypoint of one per-cell worker process (fork)."""
    os.environ[ATTEMPT_ENV] = str(attempt)
    if hb_path is not None:
        from repro import telemetry as _telemetry

        _telemetry.install(HeartbeatBus(hb_path, hb_every))
    envelope = _execute_job(job)
    try:
        conn.send(envelope)
    except Exception as exc:  # unpicklable payload: degrade to an error
        conn.send(
            {
                "error": f"cell result is not picklable: {exc!r}",
                "pid": os.getpid(),
            }
        )
    conn.close()


@dataclass
class _Attempt:
    """One attempt at one cell: queued, then run in-process or forked."""

    idx: int
    job: SweepJob
    key: Optional[str]
    number: int = 1
    ready_at: float = 0.0  # monotonic time before which it may not start
    proc: Any = None
    conn: Any = None
    hb_path: Optional[str] = None
    kill_at: float = math.inf  # wall budget expiry
    check_at: float = math.inf  # next stall check
    last_events: Optional[int] = None

    def launch(self, ctx, policy: SupervisePolicy,
               hb_dir: Optional[pathlib.Path]) -> None:
        """Fork this attempt into its own child process."""
        if policy.stall_s > 0 and hb_dir is not None:
            self.hb_path = str(hb_dir / f"cell-{self.idx}.hb")
            with contextlib.suppress(OSError):
                os.unlink(self.hb_path)
        self.conn, child_conn = ctx.Pipe(duplex=False)
        self.proc = ctx.Process(
            target=_supervised_child,
            args=(child_conn, self.job, self.number, self.hb_path,
                  policy.heartbeat_every),
        )
        self.proc.start()
        child_conn.close()
        now = time.monotonic()
        if policy.timeout_s > 0:
            self.kill_at = now + policy.timeout_s
        if self.hb_path is not None:
            self.check_at = now + policy.stall_s

    def poll(self, policy: SupervisePolicy, now: float) -> Optional[Dict[str, Any]]:
        """The child's envelope once this attempt has concluded, else
        None.  A child past its wall budget, or whose heartbeat did not
        move across a whole ``stall_s`` window, is killed."""
        envelope = None
        if self.conn.poll():
            with contextlib.suppress(EOFError):  # EOF: died without a result
                envelope = self.conn.recv()
        elif self.proc.is_alive():
            if now >= self.kill_at:
                kind = "timeout"
                what = f"exceeded {policy.timeout_s:g}s wall-clock budget (killed)"
            elif now >= self.check_at:
                try:
                    with open(self.hb_path, encoding="utf-8") as fh:
                        events: Optional[int] = int(fh.read().split()[0])
                except (OSError, ValueError, IndexError):
                    events = None
                if events is not None and events != self.last_events:
                    self.last_events, self.check_at = events, now + policy.stall_s
                    return None
                kind = "stall"
                what = f"no sim-event progress for {policy.stall_s:g}s (stalled; killed)"
            else:
                return None
            self.reap(0.0)
            return {
                "error": f"CellTimeout: {what}",
                "error_code": "cell-timeout",
                "timeout_kind": kind,
                "pid": self.proc.pid or 0,
            }
        self.reap(5.0)
        return envelope or {
            "error": "worker process died without a result "
            f"(exitcode {self.proc.exitcode})",
            "pid": self.proc.pid or 0,
        }

    def reap(self, grace_s: float) -> None:
        """Close the pipe and make sure the child is gone: wait
        ``grace_s`` for it to exit, then terminate, then SIGKILL."""
        self.conn.close()
        self.proc.join(grace_s)
        if self.proc.is_alive():
            self.proc.terminate()
            self.proc.join(0.5)
            if self.proc.is_alive():
                self.proc.kill()
                self.proc.join(5)


def _drive(
    jobs: List[SweepJob],
    *,
    workers: int,
    cache,
    telemetry,
    logger,
    policy: SupervisePolicy,
    ledger=None,
    hb_dir: Optional[pathlib.Path] = None,
    settled: Optional[Dict[int, CellResult]] = None,
    first_attempt: Optional[Dict[int, int]] = None,
) -> Tuple[SweepResult, int, int]:
    """The one cell executor behind :func:`run_sweep` and
    :func:`repro.supervise.supervised_sweep`: serves ``settled`` cells
    (concluded by an earlier run) and cache hits, runs the rest with
    retries per ``policy``, and tells ``ledger`` (a
    :class:`~repro.supervise.manifest.RunManifest`) every state
    transition.  Returns the result, quarantined cells and retries."""
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    store = cache
    if cache is not None and not isinstance(cache, ResultCache):
        store = ResultCache(cache)
    settled = settled or {}
    first_attempt = first_attempt or {}
    report = SweepReport(jobs=len(jobs))
    cells: List[Optional[CellResult]] = [None] * len(jobs)
    queue: List[_Attempt] = []
    quarantined = retried = 0
    wall0 = time.perf_counter()
    bus = telemetry if telemetry is not None and telemetry.enabled else None

    def _instant(name: str, lane: str = "supervisor", **args: Any) -> None:
        if bus is not None:
            bus.instant(
                SWEEP, name, int((time.perf_counter() - wall0) * 1e9),
                lane=lane, **args,
            )

    if store is not None and store.on_corruption is None:
        def _report_corruption(key: str, reason: str) -> None:
            _instant("cache_corrupt", lane="cache", key=key, reason=reason)
            if logger is not None:
                logger.warning(
                    f"dropped corrupt cache entry {key[:12]}...: {reason}"
                )

        store.on_corruption = _report_corruption

    def _settle(idx: int, cell: CellResult) -> None:
        """Place a concluded cell and fold it into the report."""
        cells[idx] = cell
        if cell.cached:
            report.cached += 1
        else:
            report.executed += 1
            report.errors += not cell.ok
            report.tainted += cell.tainted
            report.cpu_s += cell.process_s
            if cell.pid:
                report.worker_cells[cell.pid] = (
                    report.worker_cells.get(cell.pid, 0) + 1
                )
                report.worker_cpu_s[cell.pid] = (
                    report.worker_cpu_s.get(cell.pid, 0.0) + cell.process_s
                )
        if bus is not None:
            bus.event(
                SWEEP,
                "cell",
                int((time.perf_counter() - wall0) * 1e9),
                lane=f"worker-{cell.pid}" if cell.pid else "cache",
                job=cell.job.label,
                cached=cell.cached,
                ok=cell.ok,
                wall_s=cell.wall_s,
            )

    def _conclude(a: _Attempt, envelope: Dict[str, Any]) -> None:
        """Conclude one attempt: a final cell or a queued retry."""
        nonlocal quarantined, retried
        error = envelope.get("error")
        code = envelope.get("error_code", "error") if error else None
        final = error is None or a.number >= policy.max_attempts
        if error is not None and ledger is not None:
            ledger.record_failure(
                a.idx, a.number, error, error_code=code, final=final
            )
        if not final:
            retried += 1
            delay = policy.backoff_s(a.job, a.number)
            _instant(
                "cell_retry",
                job=a.job.label,
                attempt=a.number,
                backoff_s=delay,
                error_code=code,
            )
            if logger is not None:
                logger.warning(
                    f"retrying {a.job.label} (attempt {a.number} failed: "
                    f"{error.splitlines()[0]}; backoff {delay:.2f}s)"
                )
            queue.append(_Attempt(a.idx, a.job, a.key, a.number + 1,
                                  ready_at=time.monotonic() + delay))
            return
        # Taint labels completed cells only; a failed cell is an error.
        ok = error is None
        cell = CellResult(
            job=a.job,
            metrics=envelope.get("metrics"),
            payload=envelope.get("payload"),
            error=error,
            error_code=code,
            tainted=ok and bool(envelope.get("tainted")),
            violations=tuple(envelope.get("violations", ())) if ok else (),
            attempts=a.number,
            pid=envelope.get("pid", 0),
            wall_s=envelope.get("wall_s", 0.0),
            process_s=envelope.get("process_s", 0.0),
        )
        if ok:
            if ledger is not None:
                ledger.record_done(
                    a.idx, a.number, cell.metrics,
                    tainted=cell.tainted, violations=list(cell.violations),
                )
            # Tainted metrics never enter the cache: a warm hit carries
            # no violation record, so caching them would launder the
            # taint into a future "clean" sweep.
            if a.key is not None and cell.metrics is not None and not cell.tainted:
                store.store(a.key, cell.metrics, meta={"job": a.job.label})
        else:
            quarantined += 1
            _instant(
                "cell_quarantined",
                job=a.job.label,
                attempts=a.number,
                error_code=code,
            )
            if logger is not None:
                logger.warning(
                    f"quarantined {a.job.label} after {a.number} attempt(s): "
                    f"{error.splitlines()[0]}"
                )
        _settle(a.idx, cell)
        if logger is not None:
            logger.debug(
                f"sweep cell {cell.job.label}: {'ok' if ok else 'error'} "
                f"({cell.wall_s:.2f}s wall, pid {cell.pid})"
            )

    # 1. serve settled cells and cache hits; queue the rest.
    for idx, job in enumerate(jobs):
        if idx in settled:
            quarantined += not settled[idx].ok
            _settle(idx, settled[idx])
            continue
        key = (
            store.key(job.kind, job.name, job.seed, job.spec)
            if store is not None
            else None
        )
        hit = store.load(key) if key is not None else None
        if hit is not None:
            if ledger is not None:
                ledger.record_done(idx, 0, hit)
            _settle(idx, CellResult(job=job, metrics=hit, cached=True))
            continue
        queue.append(_Attempt(idx, job, key, first_attempt.get(idx, 1)))

    # 2. start ready attempts in submission order (in-process with one
    #    worker and no watchdog, else one forked child each), then block
    #    on the children until one concludes or the nearest deadline —
    #    backoff gate, wall budget, stall check — passes.
    report.workers = min(workers, max(len(queue), 1))
    inprocess = workers == 1 and not policy.watchdog
    if queue and not inprocess:
        # Import what the built-in kinds import lazily once, here,
        # rather than once per forked child.
        import repro.experiments  # noqa: F401

        ctx = multiprocessing.get_context("fork")
        if policy.stall_s > 0 and hb_dir is not None:
            hb_dir.mkdir(parents=True, exist_ok=True)
    active: Dict[int, _Attempt] = {}
    try:
        while True:
            now = time.monotonic()
            for a in [a for a in queue if a.ready_at <= now]:
                if len(active) >= workers:
                    break
                queue.remove(a)
                if inprocess:
                    if ledger is not None:
                        ledger.record_running(a.idx, a.number, pid=os.getpid())
                    with _environ(ATTEMPT_ENV, str(a.number)):
                        envelope = _execute_job(a.job)
                    _conclude(a, envelope)
                    continue
                a.launch(ctx, policy, hb_dir)
                active[a.idx] = a
                if ledger is not None:
                    ledger.record_running(a.idx, a.number, pid=a.proc.pid or 0)
            if not (queue or active):
                break
            deadlines = [min(a.kill_at, a.check_at) for a in active.values()]
            if len(active) < workers:
                deadlines += [a.ready_at for a in queue]
            deadline = min(deadlines, default=math.inf)
            _wait(
                [a.conn for a in active.values()]
                + [a.proc.sentinel for a in active.values()],
                None if deadline == math.inf
                else max(0.0, deadline - time.monotonic()),
            )
            now = time.monotonic()
            for idx, a in list(active.items()):
                envelope = a.poll(policy, now)
                if envelope is None:
                    continue
                del active[idx]
                if "timeout_kind" in envelope:
                    _instant(
                        "cell_timeout",
                        job=a.job.label,
                        kind=envelope["timeout_kind"],
                        attempt=a.number,
                    )
                _conclude(a, envelope)
    finally:
        for a in active.values():  # interrupted: leave no orphans
            a.reap(0.0)

    report.wall_s = time.perf_counter() - wall0
    if bus is not None:
        ts = int(report.wall_s * 1e9)
        for name, value in (
            ("cells", report.jobs),
            ("cache_hits", report.cached),
            ("errors", report.errors),
            ("tainted", report.tainted),
            ("quarantined", quarantined),
            ("retried_attempts", retried),
        ):
            bus.counter(SWEEP, name, ts, float(value))
    if logger is not None:
        logger.debug(report.render())
    result = SweepResult(cells=list(cells), report=report)  # type: ignore[arg-type]
    return result, quarantined, retried


def run_sweep(
    jobs: Sequence[SweepJob],
    *,
    workers: int = 1,
    cache=None,
    telemetry=None,
    logger=None,
) -> SweepResult:
    """Run every cell; merge results in submission order.

    ``workers`` bounds how many cells run at once (1 = in-process
    serial execution through the very same cell entrypoint; more forks
    one child per cell).  ``cache`` is a :class:`ResultCache`, a
    directory path, or ``None``; cached cells are served without
    running.  ``telemetry`` is an optional
    :class:`~repro.telemetry.TelemetryBus` the sweep reports
    orchestration records to (timestamps are wall-clock nanoseconds
    since sweep start — sweeps happen in real time, not sim time).
    """
    result, _, _ = _drive(
        list(jobs),
        workers=workers,
        cache=cache,
        telemetry=telemetry,
        logger=logger,
        policy=SupervisePolicy(retries=0),
    )
    return result
