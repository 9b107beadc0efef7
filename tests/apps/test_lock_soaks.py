"""Lock-service soaks: coordination safety under faults, never wall-clock.

Three workloads exercise the quorum-backed lock service
(:mod:`repro.apps.mutex`):

* **contended** — 8 in-process contenders cycling over 2 shared lock
  names: every acquisition is granted, nobody starves.
* **coordination soak, in-process** — the serve experiment's Byzantine
  scenario (colluding forgers below the masking threshold) plus rolling
  live crash churn.  Safety expectations, both *blocking*: **zero double
  grants** (two clients simultaneously believing they hold one lock) and
  **zero fabricated records** (a forged value surviving the register
  frontend into a credible lock read).  With verify-after-write a double
  grant needs two independent missed intersections (~ε²), and with
  ``k > b`` a fabricated credible record would be a stack bug — so both
  counters are pinned at zero outright, not bounded statistically.
* **coordination soak, TCP** — the same contract over real localhost
  sockets with wall-clock deadlines.

This file is the blocking ``coordination-safety`` CI job.  Nothing here
prints or times anything: throughput is the repo benchmark's (``bench/``).
"""

from __future__ import annotations

from repro.apps.mutex import LockLoadSpec, run_lock_load
from repro.experiments.serve import serve_scenario
from repro.service.load import FaultInjectionSpec


def contended_spec(**overrides) -> LockLoadSpec:
    defaults = dict(
        scenario=serve_scenario(n=36, quorum_size=18, b=2, byzantine=True),
        clients=8,
        acquisitions_per_client=3,
        locks=2,
        deadline=0.05,
        seed=29,
    )
    defaults.update(overrides)
    return LockLoadSpec(**defaults)


def check_coordination_safety(report) -> None:
    """The blocking assertions shared by every lock workload."""
    assert report.double_grants == 0, (
        f"{report.double_grants} double grants: two clients simultaneously "
        f"held one lock under {report.spec.describe()}"
    )
    assert report.fabricated_records == 0, (
        f"{report.fabricated_records} fabricated records were accepted as "
        f"credible lock reads under {report.spec.describe()}"
    )
    # Liveness: the run must actually have granted work to measure.
    assert report.grants > 0
    assert report.releases == report.grants


def test_contended_locks_grant_everyone_safely():
    report = run_lock_load(contended_spec())
    check_coordination_safety(report)
    assert report.grants == 24
    assert report.starved_clients == 0


def soak_spec(transport: str) -> LockLoadSpec:
    # TCP deadlines are wall-clock, so a crashed replica stalls its quorum
    # RPC for the full deadline; the churn interval is correspondingly
    # slower there to keep the soak's wall time in check without thinning
    # the crash coverage (every run must still inject real churn).
    return contended_spec(
        clients=6,
        acquisitions_per_client=2,
        locks=1,
        transport=transport,
        deadline=0.05 if transport == "inproc" else 0.25,
        fault_injection=FaultInjectionSpec(
            crash_count=2, interval=0.002 if transport == "inproc" else 0.02
        ),
        seed=31,
    )


def run_soak(transport: str):
    spec = soak_spec(transport)
    # The masking threshold strictly exceeds the forger count, making the
    # zero-fabrication assertion structural rather than statistical.
    assert spec.scenario.system.read_threshold > spec.scenario.failure_model.count
    return run_lock_load(spec)


def test_coordination_soak_inproc():
    report = run_soak("inproc")
    check_coordination_safety(report)
    assert report.injected_crashes > 0
    assert report.starved_clients == 0


def test_coordination_soak_tcp():
    report = run_soak("tcp")
    check_coordination_safety(report)
    assert report.injected_crashes > 0
