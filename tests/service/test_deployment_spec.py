"""One deployment description: :class:`~repro.service.sharding.DeploymentSpec`.

Every front door — the facade builder, :class:`~repro.service.load.ServiceLoadSpec`
and :class:`~repro.apps.mutex.LockLoadSpec` — is one ``DeploymentSpec``, checked
once at construction and turned into a deployment by the one factory
:func:`~repro.service.cluster.deploy`.  These tests pin that a value is refused
before anything is deployed, and that equal settings under one seed build the
same deployment whichever door they came through.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro.api import Deployment
from repro.apps.mutex import LockLoadSpec
from repro.core.masking import ProbabilisticMaskingSystem
from repro.exceptions import ConfigurationError
from repro.service.cluster import ClusterDeployment, deploy
from repro.service.load import ServiceLoadSpec
from repro.service.sharding import DeploymentSpec, ShardedDeployment
from repro.simulation.failures import FailureModel
from repro.simulation.scenario import ScenarioSpec

# Random crashes make every shard's failure plan a draw from the root rng.
SCENARIO = ScenarioSpec(
    system=ProbabilisticMaskingSystem(25, 10, 3),
    failure_model=FailureModel.random_crashes(3),
)
LOAD_SPECS = (ServiceLoadSpec, LockLoadSpec)


def root_draws(deployment):
    """What the root rng decided, shard by shard."""
    return [
        (
            shard.plan.crashed,
            sorted(shard.plan.byzantine),
            shard.transport_seed,
            shard.pool_generator.bit_generator.state,
        )
        for shard in deployment.shards
    ]


class TestChecks:
    def test_processes_need_tcp(self):
        with pytest.raises(ConfigurationError, match="processes > 0"):
            DeploymentSpec(scenario=SCENARIO, processes=1)
        with pytest.raises(ConfigurationError, match="non-negative"):
            DeploymentSpec(scenario=SCENARIO, processes=-1)

    def test_a_cluster_refuses_an_in_process_spec(self):
        with pytest.raises(ConfigurationError, match="tcp"):
            ClusterDeployment(DeploymentSpec(scenario=SCENARIO))

    def test_trace_sample_is_a_rate(self):
        with pytest.raises(ConfigurationError, match="trace sample"):
            DeploymentSpec(scenario=SCENARIO, trace_sample=1.5)

    def test_the_load_specs_are_deployment_specs(self):
        deployment_fields = {field.name for field in dataclasses.fields(DeploymentSpec)}
        for load_spec in LOAD_SPECS:
            assert issubclass(load_spec, DeploymentSpec)
            spec = load_spec(scenario=SCENARIO)
            assert spec.seed == 0  # each front door keeps its default
            assert deployment_fields <= {field.name for field in dataclasses.fields(spec)}
        assert DeploymentSpec(scenario=SCENARIO).seed is None


class TestBuilder:
    def test_the_builder_replaces_fields_of_one_spec(self):
        builder = (
            Deployment.builder(SCENARIO)
            .transport("tcp")
            .shards(2)
            .codec("binary")
            .deadline(0.5)
            .seed(3)
            .conditions(latency=0.001)
            .trace_sample(0.25)
        )
        assert builder.spec == DeploymentSpec(
            scenario=SCENARIO,
            transport="tcp",
            shards=2,
            codec="binary",
            deadline=0.5,
            seed=3,
            latency=0.001,
            trace_sample=0.25,
        )

    def test_processes_imply_tcp(self):
        builder = Deployment.builder(SCENARIO).processes(1)
        assert builder.spec.transport == "tcp"
        assert builder.spec.processes == 1

    def test_a_bad_value_raises_at_its_setter(self):
        builder = Deployment.builder(SCENARIO)
        with pytest.raises(ConfigurationError):
            builder.codec("binary")  # in process, payloads pass by reference
        with pytest.raises(ConfigurationError):
            builder.trace_sample(2.0)
        assert builder.spec == DeploymentSpec(scenario=SCENARIO)

    def test_a_spec_builds_the_facade_directly(self):
        deployment = Deployment(DeploymentSpec(scenario=SCENARIO, shards=2, seed=5))
        assert deployment.shard_count == 2
        assert deployment.scenario is SCENARIO
        assert isinstance(deployment.sharded, ShardedDeployment)


class TestOneSeedEveryFrontDoor:
    @staticmethod
    def front_doors(shards: int, **fields):
        builder = Deployment.builder(SCENARIO).shards(shards).seed(7)
        if "trace_sample" in fields:
            builder = builder.trace_sample(fields["trace_sample"])
        return [
            builder.build().sharded,
            deploy(
                ServiceLoadSpec(scenario=SCENARIO, shards=shards, keys=shards, seed=7, **fields),
                random.Random(7),
            ),
            deploy(
                LockLoadSpec(scenario=SCENARIO, shards=shards, seed=7, **fields),
                random.Random(7),
            ),
        ]

    @pytest.mark.parametrize("shards", [1, 2])
    def test_equal_settings_draw_the_same_deployment(self, shards):
        facade, service, lock = self.front_doors(shards)
        assert len(root_draws(facade)) == shards
        assert root_draws(facade) == root_draws(service) == root_draws(lock)
        assert all(door.tracer is None for door in (facade, service, lock))

    @pytest.mark.parametrize("shards", [1, 2])
    def test_a_trace_rate_installs_a_tracer_on_every_door(self, shards):
        doors = self.front_doors(shards, trace_sample=0.5)
        for door in doors:
            assert door.tracer is not None
            assert door.tracer.sample_rate == 0.5
        assert root_draws(doors[0]) == root_draws(doors[1]) == root_draws(doors[2])
