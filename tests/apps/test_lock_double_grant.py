"""The lock example's double grant, reproduced as a seeded run.

``examples/cluster_service.py`` contends three clients for one lock on
``ProbabilisticMaskingSystem(36, 24, 3)``.  Any two quorums of 24 out of 36
servers share at least 12, so a read quorum always meets at least 9
correct holders of a completed write, more than the threshold ``k = 8``:
the construction allows no ε, and a double grant there is a bug of the lock
protocol, not the paper's allowance.

Under :class:`tests.service.test_load.VirtualTimeLoop`,
:func:`repro.apps.mutex.lock_load` on the example's shape (3 clients × 3
acquisitions, 1 lock, ``deadline=2.0``) double-grants for 18 of the seeds
0–19 once a holder keeps the lock for any event-loop time
(``hold_time=0.002``).  The mechanism is the shared register, not timing:

* a replica keeps one record per variable, and every lock record — held or
  released, by any client — is written under a newer timestamp than the
  ones its writer read;
* while client A holds, a contender that conceded writes a "released"
  back-off record, and the next acquirer writes its own "held" record;
  each overwrites A's held record on its write quorum;
* at the second grant only 0–3 of the 36 replicas still store A's held
  record, fewer than ``k = 8`` votes, so the next request-scan and both
  verify reads see no live holder and grant.

With ``hold_time=0`` ``lock_load`` adds and discards a holder with no
``await`` in between, so it cannot count a double grant at all; every soak
in ``tests/apps/test_lock_soaks.py`` runs that way.  The run here is traced,
and the failure message lists the lock step (``request-scan``,
``hold-write``, ``verify``, ``back-off``, ``release``) each quorum
operation served.
"""

from __future__ import annotations

import itertools

import pytest

import repro.apps.mutex as mutex
from repro.apps.mutex import LockLoadSpec, lock_load
from repro.core.masking import ProbabilisticMaskingSystem
from repro.obs.trace import Tracer
from repro.simulation.scenario import ScenarioSpec
from tests.service.test_load import VirtualTimeLoop

EXAMPLE_SYSTEM = ProbabilisticMaskingSystem(36, 24, 3)


def example_spec(seed: int, hold_time: float) -> LockLoadSpec:
    return LockLoadSpec(
        scenario=ScenarioSpec(system=EXAMPLE_SYSTEM),
        clients=3,
        acquisitions_per_client=3,
        locks=1,
        deadline=2.0,
        hold_time=hold_time,
        seed=seed,
    )


def run_traced(spec: LockLoadSpec, monkeypatch):
    """Run ``lock_load`` in virtual time with every quorum operation traced.

    Returns the report and the lock steps in trace order, each as
    ``"c<client index>:<step>"`` (clients are created in index order).
    """
    tracer = Tracer(sample_rate=1.0)
    deploy = mutex.deploy

    def traced_deploy(*args, **kwargs):
        deployment = deploy(*args, **kwargs)
        deployment.tracer = tracer
        client_for_shard = deployment.client_for_shard
        indices = itertools.count()

        def numbered_client(shard, **options):
            return client_for_shard(shard, client_id=str(next(indices)), **options)

        deployment.client_for_shard = numbered_client
        return deployment

    monkeypatch.setattr(mutex, "deploy", traced_deploy)
    loop = VirtualTimeLoop()
    try:
        report = loop.run_until_complete(lock_load(spec))
    finally:
        loop.close()
    steps = [
        f"c{trace.client_id}:{(trace.context or {}).get('step')}" for trace in tracer.traces
    ]
    return report, steps


def test_the_example_shape_allows_no_epsilon():
    q, n = EXAMPLE_SYSTEM.quorum_size, EXAMPLE_SYSTEM.n
    overlap_correct = (2 * q - n) - EXAMPLE_SYSTEM.byzantine_threshold
    assert overlap_correct > EXAMPLE_SYSTEM.read_threshold == 8


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason=(
        "ROADMAP item 0: a replica keeps one record per variable, so a "
        "contender's newer back-off 'released' record and the next "
        "acquirer's 'held' write overwrite the holder's record until fewer "
        "than k replicas vouch for it, and a second client is granted"
    ),
)
def test_the_example_shape_never_double_grants(monkeypatch):
    report, steps = run_traced(example_spec(seed=0, hold_time=0.002), monkeypatch)
    assert report.grants == 9
    assert report.double_grants == 0, (
        f"{report.double_grants} double grants under {report.spec.describe()}; "
        f"lock steps in order: {steps}"
    )
