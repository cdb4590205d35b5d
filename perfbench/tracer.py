"""Layer tracer for the benchmark: timing wrappers plus a stack sampler.

Nothing here edits ``src/``.  :class:`Tracer` patches the public entry
points of each layer at run time (class attributes for methods, and
every loaded ``repro.*`` module global bound to a function, so names
imported with ``from ... import`` are caught too) and restores them on
:meth:`Tracer.uninstall`.

* **Spans.**  A synchronous wrapper pushes a frame on the tracer's
  stack, so nesting is exact: a layer's *self* time is its span time
  minus the time of the child spans it encloses.  Coroutine functions
  are timed (call count and duration) but not nested, because their
  awaits interleave with other tasks.
* **Sampler.**  Work inside DES process generators (credit loop,
  BenchEx loops, controller epochs) is not bracketed by any public
  call.  An ``ITIMER_PROF`` sampler looks at the innermost ``repro.*``
  frame on each tick; a tick whose package differs from the open
  span's layer moves one interval of self time from that span's layer
  to the package's layer, and a tick with no open span is credited to
  the package directly.
* **Output.**  Spans stay in memory (capped at :data:`SPAN_CAP`; the
  per-layer totals stay exact past the cap) and are written at the end
  as a Chrome trace plus a per-layer table.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import signal
import sys
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: Layers, named after the modules that implement them.
LAYERS = (
    "sim", "xen", "ib", "hw", "ibmon", "resex", "benchex", "finance",
    "telemetry", "shard", "service.protocol", "service.gateway",
    "service.orchestrator", "service.world", "parallel", "supervise",
    "experiments", "other",
)

#: Spans kept for the Chrome trace; totals keep counting past it.
SPAN_CAP = 200_000

_SHARD_MODULES = {"shard", "frames", "shard_types", "checkpoint"}
_SERVICE_MODULES = {
    "protocol": "service.protocol",
    "gateway": "service.gateway",
    "orchestrator": "service.orchestrator",
    "world": "service.world",
    "backend": "service.world",
}
_PACKAGE_LAYERS = {
    "xen", "ib", "hw", "ibmon", "resex", "benchex", "finance",
    "telemetry", "parallel", "supervise", "experiments",
}


def layer_of(module: str) -> Optional[str]:
    """The layer a ``repro.*`` module belongs to (``None`` outside repro)."""
    parts = module.split(".")
    if parts[0] != "repro" or len(parts) < 2:
        return None
    pkg = parts[1]
    sub = parts[2] if len(parts) > 2 else ""
    if pkg == "sim":
        return "shard" if sub in _SHARD_MODULES else "sim"
    if pkg == "service":
        return _SERVICE_MODULES.get(sub, "other")
    return pkg if pkg in _PACKAGE_LAYERS else "other"


class Tracer:
    """Spans, counters and samples for one traced pass."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        #: Per-call durations (seconds) of selected hooks, in call order.
        self.durations: Dict[str, List[float]] = defaultdict(list)
        #: Busy seconds per simulation environment (``run_window``).
        self.env_busy: Dict[int, float] = defaultdict(float)
        #: Objects a hook chose to remember (fabrics, gateways).
        self.seen: Dict[str, Dict[int, Any]] = defaultdict(dict)
        self.spans: List[Tuple[str, str, float, float, int]] = []
        self.samples: Counter = Counter()
        self.sample_interval_s = 0.0
        self._stack: List[list] = []
        self._patches: List[Tuple[Any, str, Any]] = []
        self._t0 = time.perf_counter()

    # -- wrappers ------------------------------------------------------------
    def _record(self, layer: str, name: str, t0: float, dur: float, depth: int) -> None:
        self.calls[layer] += 1
        if len(self.spans) < SPAN_CAP:
            self.spans.append((layer, name, t0 - self._t0, dur, depth))

    def _wrap(self, fn: Callable, layer: str, name: str,
              before: Optional[Callable], after: Optional[Callable]) -> Callable:
        tracer = self
        stack = self._stack
        perf = time.perf_counter
        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def awrapper(*args, **kwargs):
                token = before(args) if before is not None else None
                t0 = perf()
                result = None
                try:
                    result = await fn(*args, **kwargs)
                    return result
                finally:
                    dur = perf() - t0
                    tracer._record(layer, name, t0, dur, -1)
                    if after is not None:
                        after(tracer, args, result, dur, token)
            return awrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            token = before(args) if before is not None else None
            t0 = perf()
            frame = [layer, 0.0]
            stack.append(frame)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                dur = perf() - t0
                stack.pop()
                tracer.self_s[layer] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                tracer._record(layer, name, t0, dur, len(stack))
                if after is not None:
                    after(tracer, args, result, dur, token)
        return wrapper

    def patch(self, target: str, layer: str, before: Optional[Callable] = None,
              after: Optional[Callable] = None) -> None:
        """Wrap ``module:attr`` or ``module:Class.method``."""
        module_name, _, qual = target.partition(":")
        module = importlib.import_module(module_name)
        if "." in qual:
            cls_name, meth = qual.split(".", 1)
            owner = getattr(module, cls_name)
            original = owner.__dict__[meth]
            self._patches.append((owner, meth, original))
            setattr(owner, meth, self._wrap(original, layer, qual, before, after))
            return
        original = getattr(module, qual)
        wrapped = self._wrap(original, layer, qual, before, after)
        for name, mod in list(sys.modules.items()):
            if not name.startswith("repro") or mod is None:
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapped)

    def install(self, hooks: Sequence[tuple]) -> None:
        """Apply ``(target, layer, before, after)`` hooks."""
        for target, layer, before, after in hooks:
            self.patch(target, layer, before, after)
        self._t0 = time.perf_counter()

    def uninstall(self) -> None:
        self.stop_sampler()
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- sampler -------------------------------------------------------------
    def _on_tick(self, _signum, frame) -> None:
        top = self._stack[-1][0] if self._stack else None
        depth = 0
        while frame is not None and depth < 64:
            layer = layer_of(frame.f_globals.get("__name__", ""))
            if layer is not None:
                self.samples[(top, layer)] += 1
                return
            frame = frame.f_back
            depth += 1

    def start_sampler(self, interval_s: float = 0.002) -> None:
        self.sample_interval_s = interval_s
        signal.signal(signal.SIGPROF, self._on_tick)
        signal.setitimer(signal.ITIMER_PROF, interval_s, interval_s)

    def stop_sampler(self) -> None:
        if self.sample_interval_s:
            signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
            signal.signal(signal.SIGPROF, signal.SIG_IGN)

    # -- results -------------------------------------------------------------
    def layer_self_s(self) -> Dict[str, float]:
        """Span self time per layer, corrected by the sampler."""
        out = {layer: self.self_s.get(layer, 0.0) for layer in LAYERS}
        dt = self.sample_interval_s
        for (span_layer, pkg_layer), n in self.samples.items():
            if span_layer == pkg_layer:
                continue
            if span_layer is not None:
                out[span_layer] -= n * dt
            out[pkg_layer] += n * dt
        return {layer: max(v, 0.0) for layer, v in out.items()}

    def write(self, directory: str, stem: str, extra: Dict[str, Any]) -> None:
        """Write ``<stem>.trace.json`` (Chrome) and ``<stem>.layers.txt``."""
        os.makedirs(directory, exist_ok=True)
        events: List[Dict[str, Any]] = []
        for layer, name, t0, dur, depth in self.spans:
            events.append({
                "name": name, "cat": layer, "ph": "X", "pid": os.getpid(),
                "tid": "async" if depth < 0 else "main",
                "ts": round(t0 * 1e6, 3), "dur": round(dur * 1e6, 3),
            })
        doc = {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {"spans_dropped": max(sum(self.calls.values()) - len(events), 0),
                          "metrics": extra},
        }
        with open(os.path.join(directory, f"{stem}.trace.json"), "w") as fh:
            json.dump(doc, fh)
        selfs = self.layer_self_s()
        lines = [f"{'layer':<22}{'self_s':>12}{'calls':>12}"]
        for layer in LAYERS:
            lines.append(f"{layer:<22}{selfs[layer]:>12.4f}{self.calls[layer]:>12}")
        lines.append("")
        for key in sorted(extra):
            lines.append(f"{key:<40}{extra[key]}")
        with open(os.path.join(directory, f"{stem}.layers.txt"), "w") as fh:
            fh.write("\n".join(lines) + "\n")
