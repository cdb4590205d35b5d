"""Import-order independence: every subpackage imports standalone.

Circular imports only bite when a subpackage is imported *first*; the
test suite normally imports things in a fixed order, so each candidate
is probed in a fresh interpreter.
"""

import subprocess
import sys

import pytest

SUBPACKAGES = [
    "repro",
    "repro.sim",
    "repro.hw",
    "repro.ib",
    "repro.xen",
    "repro.ibmon",
    "repro.resex",
    "repro.benchex",
    "repro.faults",
    "repro.finance",
    "repro.workloads",
    "repro.experiments",
    "repro.analysis",
    "repro.cli",
]


@pytest.mark.parametrize("modname", SUBPACKAGES)
def test_subpackage_imports_first(modname):
    proc = subprocess.run(
        [sys.executable, "-c", f"import {modname}"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, f"{modname}: {proc.stderr[-500:]}"


# Runs in a fresh interpreter with SciPy made unimportable: the CLI, the
# experiments and the served world import, and a pricing request plus a
# short paper scenario execute.  Then, in a normal interpreter, nothing
# the runtime imports pulls SciPy in.
_WITHOUT_SCIPY = """
import sys
sys.modules["scipy"] = None
import numpy as np
import repro.cli, repro.experiments, repro.service.world
from repro.benchex import BenchExConfig
from repro.experiments import build_scenario
from repro.finance import PricingRequest, process_request
result, _ = process_request(
    PricingRequest(1, 125, 100.0, 100.0, 0.02, 0.25, 0.5),
    np.random.default_rng(7),
)
assert 0.0 < result.mean_delta < 1.0, result
build_scenario(
    "no-scipy",
    interferer=BenchExConfig(name="interferer", buffer_bytes=2 << 20),
    policy="ioshares",
).execute(0.01)
"""

_NO_SCIPY_LOADED = """
import sys
import repro.cli, repro.experiments, repro.service.world
assert "scipy" not in sys.modules, sorted(m for m in sys.modules if "scipy" in m)
"""


@pytest.mark.parametrize("script", [_WITHOUT_SCIPY, _NO_SCIPY_LOADED],
                         ids=["scipy_blocked", "scipy_not_loaded"])
def test_runtime_needs_no_scipy(script):
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr[-1000:]
