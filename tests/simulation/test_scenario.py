"""Tests for the declarative ScenarioSpec layer.

The spec is the single experiment description both engines consume, so the
things pinned down here are (a) validation and auto-resolution of the
register kind from the system's declared read, (b) the sequential
lowering to the matching register class, and (c) the estimator dispatch —
spec in, identical experiment out, on either engine.
"""

from __future__ import annotations

import random

import pytest

from repro.core.dissemination import ProbabilisticDisseminationSystem
from repro.core.epsilon_intersecting import UniformEpsilonIntersectingSystem
from repro.core.masking import ProbabilisticMaskingSystem
from repro.exceptions import ConfigurationError
from repro.protocol.selection import ReadRule
from repro.protocol.variable import ProbabilisticRegister
from repro.simulation.batch import BatchTrialEngine
from repro.simulation.cluster import Cluster
from repro.simulation.failures import FailureModel
from repro.simulation.monte_carlo import (
    estimate_read_consistency,
    estimate_staleness_distribution,
)
from repro.simulation.scenario import ScenarioSpec, WorkloadSpec

PLAIN = UniformEpsilonIntersectingSystem(25, 8)
DISSEMINATION = ProbabilisticDisseminationSystem(25, 8, 5)
MASKING = ProbabilisticMaskingSystem(25, 10, 5)


class TestSystemDeclarations:
    def test_system_declarations(self):
        assert not PLAIN.signed_reads and not hasattr(PLAIN, "read_threshold")
        assert DISSEMINATION.signed_reads and not hasattr(DISSEMINATION, "read_threshold")
        assert not MASKING.signed_reads and MASKING.read_threshold == 2


class TestScenarioResolution:
    def test_auto_resolution_follows_the_system(self):
        assert ScenarioSpec(system=PLAIN).resolved_register_kind() == "plain"
        assert (
            ScenarioSpec(system=DISSEMINATION).resolved_register_kind()
            == "dissemination"
        )
        assert ScenarioSpec(system=MASKING).resolved_register_kind() == "masking"

    def test_read_rule_follows_the_resolved_kind(self):
        assert ScenarioSpec(system=MASKING).read_rule() == ReadRule(threshold=2)
        dissemination = ScenarioSpec(system=DISSEMINATION).read_rule()
        assert dissemination.threshold == 1 and dissemination.signatures is not None
        assert ScenarioSpec(system=PLAIN).read_rule() == ReadRule()
        # Forcing a plain register overrides the system's own declaration.
        forced = ScenarioSpec(system=MASKING, register_kind="plain")
        assert forced.read_rule() == ReadRule()

    def test_register_factory_builds_the_matching_register(self):
        cluster = Cluster(25)
        rng = random.Random(0)
        plain = ScenarioSpec(system=PLAIN).register_factory()(cluster, rng)
        assert type(plain) is ProbabilisticRegister
        masking = ScenarioSpec(system=MASKING).register_factory()(Cluster(25), rng)
        assert type(masking) is ProbabilisticRegister
        assert masking.rule == ReadRule(threshold=2)
        dissemination = ScenarioSpec(system=DISSEMINATION).register_factory()(
            Cluster(25), rng
        )
        assert type(dissemination) is ProbabilisticRegister
        assert dissemination.rule.signatures is not None

    def test_write_back_kind_lowers_to_the_read_repair_oracle(self):
        from repro.protocol.write_back import WriteBackRegister

        spec = ScenarioSpec(system=PLAIN, register_kind="write-back")
        assert spec.resolved_register_kind() == "write-back"
        # The repair read claims no b tolerance: the plain rule.
        assert spec.read_rule() == ReadRule()
        register = spec.register_factory()(Cluster(25), random.Random(0))
        assert isinstance(register, WriteBackRegister)
        # Driven declaratively, a settled read repairs the lagging quorum
        # members it contacted: coverage of the latest value grows.
        register.write("v1")
        before = register.replicas_holding_latest()
        outcome = register.read()
        assert outcome.value == "v1"
        assert register.write_backs_performed == 1
        assert register.replicas_holding_latest() >= before

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ScenarioSpec(system="not a system")
        with pytest.raises(ConfigurationError):
            ScenarioSpec(system=PLAIN, failure_model=lambda rng: None)
        with pytest.raises(ConfigurationError):
            ScenarioSpec(system=PLAIN, register_kind="warp")
        with pytest.raises(ConfigurationError):
            ScenarioSpec(system=PLAIN, register_kind="masking")  # no threshold
        with pytest.raises(ConfigurationError):
            WorkloadSpec(writes=0)
        with pytest.raises(ConfigurationError):
            WorkloadSpec(gossip_rounds_between_writes=-1)
        with pytest.raises(ConfigurationError):
            WorkloadSpec(gossip_fanout=0)

    def test_failure_models_beyond_declared_tolerance_are_rejected(self):
        # A model injecting more Byzantine servers than the protocol's
        # declared b voids Theorems 4.2/5.2 and used to silently produce
        # all-stale runs; it is now a loud configuration error.
        with pytest.raises(ConfigurationError, match="only tolerates b=5"):
            ScenarioSpec(system=MASKING, failure_model=FailureModel.random_byzantine(12))
        with pytest.raises(ConfigurationError, match="only tolerates b=5"):
            ScenarioSpec(
                system=DISSEMINATION, failure_model=FailureModel.replay_attack(6)
            )
        # Injecting exactly b is the theorem's regime.
        ScenarioSpec(system=MASKING, failure_model=FailureModel.random_byzantine(5))
        # Crash-only models make no Byzantine claim, however severe.
        ScenarioSpec(system=MASKING, failure_model=FailureModel.independent_crashes(0.9))
        # Forcing a plain register models a reader that ignores the filter —
        # the documented escape hatch — and plain systems declare no
        # tolerance at all.
        ScenarioSpec(
            system=MASKING,
            register_kind="plain",
            failure_model=FailureModel.random_byzantine(12),
        )
        ScenarioSpec(system=PLAIN, failure_model=FailureModel.random_byzantine(12))

    def test_declared_tolerance_is_the_systems_byzantine_threshold(self):
        assert MASKING.byzantine_threshold == DISSEMINATION.byzantine_threshold == 5
        assert PLAIN.byzantine_threshold == 0
        # Forcing the signed read onto a system that declares no b claims
        # the dissemination theorem with b=0, so any Byzantine server voids it.
        with pytest.raises(ConfigurationError, match="only tolerates b=0"):
            ScenarioSpec(
                system=PLAIN,
                register_kind="dissemination",
                failure_model=FailureModel.random_byzantine(1),
            )

    def test_describe_names_the_parts(self):
        spec = ScenarioSpec(
            system=MASKING, failure_model=FailureModel.random_byzantine(3)
        )
        text = spec.describe()
        assert "register=masking" in text
        assert "random_byzantine" in text


class TestEstimatorDispatch:
    def test_spec_carries_n_and_rejects_mismatches(self):
        spec = ScenarioSpec(system=PLAIN)
        report = estimate_read_consistency(spec, trials=50, seed=1)
        assert report.trials == 50
        with pytest.raises(ConfigurationError):
            estimate_read_consistency(spec, n=26, trials=50)

    def test_spec_rejects_extra_plan_factory(self):
        spec = ScenarioSpec(system=PLAIN)
        with pytest.raises(ConfigurationError):
            estimate_read_consistency(
                spec, plan_factory=FailureModel.none(), trials=10
            )

    def test_legacy_factories_require_n(self):
        factory = lambda cluster, rng: ProbabilisticRegister(PLAIN, cluster, rng=rng)
        with pytest.raises(ConfigurationError):
            estimate_read_consistency(factory, trials=10)
        report = estimate_read_consistency(factory, n=25, trials=10)
        assert report.trials == 10

    def test_bare_system_with_arbitrary_plan_factory_stays_sequential(self):
        # A plan *factory* (not a FailureModel) cannot be promoted to a spec,
        # but the bare system must still lower to a register on the oracle.
        from repro.simulation.failures import FailurePlan

        report = estimate_read_consistency(
            PLAIN,
            plan_factory=lambda rng: FailurePlan.independent_crashes(25, 0.1, rng=rng),
            n=25,
            trials=40,
            seed=6,
        )
        assert report.trials == 40
        staleness = estimate_staleness_distribution(
            PLAIN,
            plan_factory=lambda rng: FailurePlan.none(),
            n=25,
            writes=2,
            trials=20,
            seed=6,
        )
        assert staleness.trials == 20

    def test_bare_masking_system_gets_the_threshold_read_on_both_engines(self):
        # Promotion to an auto spec means a masking system drives the
        # Section 5 protocol even when passed bare, on either engine.
        model = FailureModel.random_byzantine(5)
        sequential = estimate_read_consistency(
            MASKING, plan_factory=model, trials=400, seed=3
        )
        batch = estimate_read_consistency(
            MASKING, plan_factory=model, trials=400, seed=3, engine="batch"
        )
        # With 5 of 25 servers silent, a single-vote read almost always still
        # finds one storer; the k=2 threshold visibly fails more often.
        plain = estimate_read_consistency(
            ScenarioSpec(system=MASKING, register_kind="plain", failure_model=model),
            trials=400,
            seed=3,
            engine="batch",
        )
        assert sequential.fresh_fraction < 0.96 < plain.fresh_fraction
        assert batch.fresh_fraction < 0.96

    def test_staleness_defaults_come_from_the_workload(self):
        spec = ScenarioSpec(
            system=PLAIN,
            workload=WorkloadSpec(writes=3, gossip_rounds_between_writes=2),
        )
        report = estimate_staleness_distribution(spec, trials=200, seed=2, engine="batch")
        assert max(report.versions_behind) <= 3
        # Explicit arguments override the workload.
        report = estimate_staleness_distribution(
            spec, writes=2, gossip_rounds_between_writes=0, trials=200, seed=2,
            engine="batch",
        )
        assert max(report.versions_behind) <= 2

    def test_batch_engine_from_spec_is_reproducible(self):
        spec = ScenarioSpec(
            system=MASKING, failure_model=FailureModel.random_byzantine(5)
        )
        first = BatchTrialEngine.from_spec(spec, seed=11).estimate_read_consistency(2_000)
        second = BatchTrialEngine.from_spec(spec, seed=11).estimate_read_consistency(2_000)
        assert (first.fresh, first.stale, first.empty, first.fabricated) == (
            second.fresh,
            second.stale,
            second.empty,
            second.fabricated,
        )
        assert BatchTrialEngine.from_spec(spec).rule.threshold == 2

    def test_spec_written_value_is_used_by_the_sequential_engine(self):
        spec = ScenarioSpec(system=PLAIN, workload=WorkloadSpec(written_value="payload"))
        report = estimate_read_consistency(spec, trials=20, seed=4)
        assert report.fresh == 20  # no failures: every read sees "payload"
