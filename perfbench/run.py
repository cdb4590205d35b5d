"""The repository benchmark: one command, four correctness-checked workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper_managed --seed 7 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics untraced; ``--trace 1``
makes a separate traced run and reports the per-layer metrics (see
``perfbench/README.md``).  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
The lines before it are a human-readable report with the host record,
every figure the workload measured and every correctness check.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

WORKLOADS = ("paper_managed", "cluster_scale", "service_open_loop", "sweep_supervised")

#: End-to-end metrics: name -> unit.  Every workload reports each.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "host_s_per_sim_s": "s/s",
    "rate_per_s": "1/s",
}


def _dispatch(name: str):
    if name == "service_open_loop":
        from service import service_open_loop
        return service_open_loop
    import workloads
    return getattr(workloads, name)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    src = os.path.join(os.path.dirname(HERE), "src")
    try:
        import repro
    except ImportError as exc:
        print(f"perfbench: cannot import repro from {src}: {exc}", file=sys.stderr)
        return 2
    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        print(f"perfbench: repro imported from {repro.__file__}, not {src}",
              file=sys.stderr)
        return 2

    if args.probe:
        import workloads
        workloads.probe(args.probe, args.seed)
        print("ready", flush=True)
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    from common import host_record

    outcome = _dispatch(args.workload)(args.seed, args.seconds, bool(args.trace))
    host = host_record()
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("host " + json.dumps(host, sort_keys=True))
    for name, (value, unit) in outcome.report.items():
        print(f"  {name:<34} {value} {unit}")
    for name, ok, detail in outcome.checks:
        print(f"  check {'ok  ' if ok else 'FAIL'} {name} {detail}")
    if not host["two_process_comparable"]:
        print("  note: fewer than 2 usable CPUs; 2-shard and 2-worker figures "
              "are not comparable and are not speedups")

    if args.trace:
        import layers
        metrics = layers.complete(outcome.layers)
        print(f"  traces and layer tables written under .perfbench/")
    else:
        metrics = {name: {"value": outcome.metrics[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    for name, entry in metrics.items():
        print(f"  {name:<34} {entry['value']:.6g} {entry['unit']}")
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
