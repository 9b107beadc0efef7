"""Import hygiene: importing the library loads no SciPy, and the layers
below the service load no service module.

SciPy serves two call sites only — the load LP (``quorum/measures.py``)
and the vectorised log-binomial grids (``analysis/combinatorics.py``) — and
each imports it on first use.  The protocol and the Monte-Carlo oracle run
the same quorum op as the asyncio service but sit below it, so importing
them pulls in no server, codec or load harness.  The checks run in a fresh
interpreter, since the test process itself has long since loaded both
through other tests.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

_SOURCE_ROOT = str(Path(repro.__file__).resolve().parents[1])

_PROBE = """
import json, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

import repro, repro.api, repro.service
after_import = scipy_modules()

from repro.analysis.combinatorics import log_binomial_grid
from repro.quorum.measures import optimal_load
load = optimal_load([frozenset({0, 1}), frozenset({1, 2}), frozenset({0, 2})], 3)
grid = log_binomial_grid([4, 5], [2, 2]).tolist()
print(json.dumps({"after_import": after_import, "after_use": scipy_modules(),
                  "load": load, "grid": grid}))
"""


_LAYER_PROBE = """
import json, sys
import repro.protocol, repro.simulation.monte_carlo
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[:2] == ["repro", "service"])))
"""


def probe(source):
    """Run ``source`` in a fresh interpreter; return its last line as JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (_SOURCE_ROOT, env.get("PYTHONPATH")) if p
    )
    completed = subprocess.run(
        [sys.executable, "-c", source],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    return json.loads(completed.stdout.strip().splitlines()[-1])


def test_the_protocol_and_the_oracle_load_no_service_module():
    assert probe(_LAYER_PROBE) == []


def test_importing_the_library_loads_no_scipy():
    report = probe(_PROBE)
    assert report["after_import"] == []
    # The two call sites still work, pulling SciPy in lazily.
    assert report["after_use"]
    assert abs(report["load"] - 2 / 3) < 1e-9
    assert abs(report["grid"][0] - 1.791759469228055) < 1e-12  # ln C(4, 2) = ln 6
    assert abs(report["grid"][1] - 2.302585092994046) < 1e-12  # ln C(5, 2) = ln 10
