"""Run ``repro serve`` with the benchmark's layer tracer installed.

Usage: ``python serve_traced.py OUT.json serve --mode sim ...``

The served topology is the untraced one (same CLI entry point, same
process layout); the wrappers and sampler are installed first, and on
exit (SIGTERM is handled by ``serve`` itself) the per-layer values go
to ``OUT.json`` with a Chrome trace and layer table beside it.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import layers  # noqa: E402
from tracer import Tracer  # noqa: E402


def main(argv) -> int:
    out_path, cli_args = argv[0], argv[1:]
    import repro.cli

    tracer = Tracer()
    tracer.install(layers.HOOKS)
    tracer.start_sampler()
    try:
        code = repro.cli.main(cli_args)
    finally:
        tracer.uninstall()
    values = layers.tracer_metrics(tracer)
    stem = os.path.basename(out_path).rsplit(".layers.json", 1)[0]
    tracer.write(os.path.dirname(out_path), stem, values)
    with open(out_path, "w") as fh:
        json.dump(values, fh, sort_keys=True)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
