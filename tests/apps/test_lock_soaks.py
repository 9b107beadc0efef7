"""Lock-service soaks: coordination safety under faults, never wall-clock.

Three workloads exercise the quorum-backed lock service
(:mod:`repro.apps.mutex`):

* **contended** — 8 in-process contenders cycling over 2 shared lock
  names: every acquisition is granted, nobody starves.
* **coordination soak, in-process** — the serve experiment's Byzantine
  scenario (colluding forgers below the masking threshold) plus rolling
  live crash churn.  Safety expectations, both *blocking*: **zero double
  grants** (two clients simultaneously believing they hold one lock) and
  **zero fabricated records** (a forged grant accepted by a holder read).
  A double grant needs two grant quorums whose shared servers are all
  Byzantine or lost their grant table to a crash during the hold, and
  with ``k > b`` a fabricated holder would be a stack bug — so both
  counters are pinned at zero outright, not bounded statistically.
* **coordination soak, TCP** — the same contract over real localhost
  sockets with wall-clock deadlines.

Every shape also runs with ``hold_time=0.002``, so holders keep the lock
across event-loop time, and two runs show that each counter can fire: an
arbiter that grants twice double-grants, and a plain threshold-1 read over
colluding forgers accepts their fabricated holder.  A lossy run with no
churn shows that lost releases do not strand the lock: without crashes
nothing else would ever clear a grant its client abandoned.

This file is the blocking ``coordination-safety`` CI job.  Nothing here
prints or times anything: throughput is the repo benchmark's (``bench/``).
"""

from __future__ import annotations

import dataclasses

from repro.apps.mutex import LockLoadSpec, run_lock_load
from repro.experiments.serve import serve_scenario
from repro.protocol.arbiter import LockArbiter
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


def run_soak(transport: str, hold_time: float = 0.0):
    spec = dataclasses.replace(soak_spec(transport), hold_time=hold_time)
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


# -- holders that hold across awaits, and counters that can fire -----------------


def test_contended_locks_held_for_a_while_grant_everyone_safely():
    report = run_lock_load(contended_spec(hold_time=0.002))
    check_coordination_safety(report)
    assert report.grants == 24
    assert report.starved_clients == 0


def test_coordination_soak_inproc_with_holds():
    report = run_soak("inproc", hold_time=0.002)
    check_coordination_safety(report)
    assert report.injected_crashes > 0
    assert report.starved_clients == 0


def test_coordination_soak_tcp_with_holds():
    report = run_soak("tcp", hold_time=0.002)
    check_coordination_safety(report)
    assert report.injected_crashes > 0
    assert report.starved_clients == 0


def test_lost_messages_without_churn_strand_no_grant():
    # About 30 % of releases to 18 arbiters lose a message at this rate.
    report = run_lock_load(contended_spec(drop_probability=0.02))
    check_coordination_safety(report)
    assert report.injected_crashes == 0
    assert report.grants == 24
    assert report.give_ups == 0
    assert report.starved_clients == 0


def test_the_double_grant_counter_fires_when_arbiters_grant_twice(monkeypatch):
    def grant_twice(self, lock, entry):
        lock.grant = entry  # whatever grant is outstanding

    monkeypatch.setattr(LockArbiter, "_request", grant_twice)
    report = run_lock_load(contended_spec(hold_time=0.002))
    assert report.double_grants > 0


def test_the_fabrication_counter_fires_under_a_plain_read():
    # The serve scenario's forgers, read with threshold 1 instead of k:
    # their fabricated holder outranks every honest grant.
    scenario = dataclasses.replace(serve_scenario(n=36, quorum_size=18, b=2), register_kind="plain")
    assert scenario.read_rule().threshold == 1
    report = run_lock_load(contended_spec(scenario=scenario))
    assert report.fabricated_records > 0
