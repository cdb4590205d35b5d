"""Shared plumbing: paths, host record, set-up probes, memory readings."""

from __future__ import annotations

import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Scratch space for caches, run directories and trace files.
OUT = os.path.join(ROOT, ".perfbench")

#: Default seed; correctness digests are pinned for it.
DEFAULT_SEED = 7


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def usable_cpus() -> int:
    return len(os.sched_getaffinity(0))


def host_record() -> Dict[str, Any]:
    cpus = usable_cpus()
    return {
        "usable_cpus": cpus,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "two_process_comparable": cpus >= 2,
    }


def maxrss_mb(children: bool = False) -> float:
    """Peak RSS of this process (or of its largest reaped child)."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def cpu_s_with_children() -> float:
    """CPU seconds (user + system) of this process plus its reaped
    children: the whole cost of a run that forks workers and waits for
    them."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def proc_status_kb(pid: int, field_name: str) -> int:
    """A ``VmRSS``/``VmHWM`` reading of a live process, in KB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith(field_name + ":"):
                return int(line.split()[1])
    raise RuntimeError(f"{field_name} missing for pid {pid}")


def proc_cpu_s(pid: int) -> float:
    """CPU seconds a live process's main thread has run (ns resolution)."""
    with open(f"/proc/{pid}/schedstat") as fh:
        return int(fh.read().split()[0]) / 1e9


def setup_probe(kind: str, seed: int, repeats: int = 3) -> List[float]:
    """Seconds from spawning a fresh interpreter to ``ready`` (imports
    plus build) for ``kind``; one sample per repeat."""
    samples = []
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--probe", kind,
           "--seed", str(seed)]
    for _ in range(repeats):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(),
                                cwd=ROOT, text=True)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
        finally:
            proc.stdout.close()
            proc.wait(timeout=60)
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe {kind} failed: {line!r}")
        samples.append(elapsed)
    return samples


@dataclass
class Outcome:
    """One workload run: metrics, report lines and correctness checks."""

    metrics: Dict[str, float] = field(default_factory=dict)
    #: The issue's per-workload figures, name -> (value, unit).
    report: Dict[str, Tuple[Any, str]] = field(default_factory=dict)
    checks: List[Tuple[str, bool, str]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    layers: Dict[str, float] = field(default_factory=dict)

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        """Record a correctness check; a failing one counts as a failed
        operation."""
        self.checks.append((name, bool(ok), detail))
        self.op(ok)
        return bool(ok)

    def op(self, ok: bool) -> None:
        """Count one attempted operation."""
        self.attempted += 1
        if not ok:
            self.failed += 1

    @property
    def correct(self) -> bool:
        return all(ok for _name, ok, _detail in self.checks)


def median(values: List[float]) -> float:
    return statistics.median(values)


class Deadline:
    """Repeat rounds until ``seconds`` have passed (bounded both ways)."""

    def __init__(self, seconds: float, min_rounds: int, max_rounds: int) -> None:
        self.end = time.perf_counter() + seconds
        self.min_rounds = min_rounds
        self.max_rounds = max_rounds
        self.done = 0

    def more(self) -> bool:
        if self.done < self.min_rounds:
            return True
        return self.done < self.max_rounds and time.perf_counter() < self.end
