"""Regression test: the lock example's shape never double-grants.

``examples/cluster_service.py`` contends three clients for one lock on
``ProbabilisticMaskingSystem(36, 24, 3)``.  Any two quorums of 24 out of 36
servers share at least 12, more than the ``b = 3`` Byzantine servers, so two
grant quorums always share a correct arbiter, which grants one client at a
time: the lock's ε (:class:`repro.protocol.arbiter.LockArbiter`) is 0 here,
and a double grant would be a bug of the lock protocol.

The lock used to spin over a shared register.  A replica keeps one record
per variable, so other clients' newer records overwrote the holder's until
fewer than ``k = 8`` replicas vouched for it, and :func:`repro.apps.mutex.lock_load`
on this shape (3 clients × 3 acquisitions, 1 lock, ``deadline=2.0``,
``hold_time=0.002``) double-granted for 18 of the seeds 0–19.  Each seed
here runs that load under :class:`tests.service.test_load.VirtualTimeLoop`
with every quorum operation traced, and a failure lists the lock step
(``request``, ``yield``, ``release``, ``holder``) each operation served.
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


@pytest.mark.parametrize("seed", range(20))
def test_the_example_shape_never_double_grants(seed, monkeypatch):
    report, steps = run_traced(example_spec(seed=seed, hold_time=0.002), monkeypatch)
    assert report.grants == 9
    assert report.double_grants == 0, (
        f"{report.double_grants} double grants under {report.spec.describe()}; "
        f"lock steps in order: {steps}"
    )
