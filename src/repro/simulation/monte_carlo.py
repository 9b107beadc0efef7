"""Empirical consistency estimation (validating Theorems 3.2, 4.2, 5.2).

The analytical ε of a probabilistic quorum system bounds the probability
that a read misses the latest write.  This module measures that probability
empirically by driving the actual protocol stack (registers over a simulated
cluster with injected failures) many times and counting the outcomes, so the
test suite and the protocol-consistency benchmark can compare "measured
1 - ε" against the closed-form and exact values.

Estimators
----------

* :func:`estimate_read_consistency` — one write, one read per trial; reports
  the fraction of fresh reads, plus the stale/⊥ and fabricated fractions
  for Byzantine runs;
* :func:`estimate_staleness_distribution` — a write history followed by a
  read; reports how many versions behind the read was (0 = fresh), with or
  without gossip rounds between writes, which quantifies the Section 1.1
  claim that diffusion drives inconsistency toward zero.

Scenario dispatch
-----------------

The preferred experiment description is a declarative
:class:`~repro.simulation.scenario.ScenarioSpec` — quorum system, failure
model and workload in one object — passed as the first argument.  Both
engines consume the same spec: the sequential oracle lowers it to the
matching register class (plain, signed-dissemination or threshold-masking)
over per-trial clusters, while the batch engine reads the same spec's
:class:`~repro.protocol.selection.ReadRule` (its threshold and whether it is
signed) and classifies trials with vectorised kernels.  A bare
``ProbabilisticQuorumSystem`` (optionally with a
:class:`~repro.simulation.failures.FailureModel`) is promoted to an
``auto``-resolved spec, so a masking system automatically gets the Section 5
threshold read on both engines.  Arbitrary register/plan *factories* remain
supported on ``engine="sequential"`` only — that path is the escape hatch
for experiments no declarative spec describes.

Engines
-------

Both estimators accept ``engine="sequential"`` (default) or
``engine="batch"``.  The sequential engine drives the real protocol stack
object by object and is the semantic oracle; the batch engine
(:class:`repro.simulation.batch.BatchTrialEngine`) vectorises trials with
NumPy and is one to two orders of magnitude faster.  The two agree in
distribution, not trial for trial; ``tests/simulation/test_batch_engine.py``
pins the agreement down for all three protocols.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Union

from typing import TYPE_CHECKING

from repro.core.probabilistic import ProbabilisticQuorumSystem
from repro.exceptions import ConfigurationError
from repro.simulation.cluster import Cluster
from repro.simulation.diffusion import DiffusionEngine
from repro.simulation.failures import FailureModel, FailurePlan
from repro.simulation.scenario import ScenarioSpec, WorkloadSpec

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a circular import
    from repro.protocol.variable import ProbabilisticRegister

#: Builds a register bound to a fresh cluster for one trial.
RegisterFactory = Callable[[Cluster, random.Random], "ProbabilisticRegister"]
#: Builds the failure plan for one trial (may be randomised per trial).
PlanFactory = Callable[[random.Random], FailurePlan]
#: A scenario spec, a system the spec can wrap, or a raw register factory.
RegisterSpec = Union[ScenarioSpec, RegisterFactory, ProbabilisticQuorumSystem]
#: Either a plan factory or a declarative failure model.
PlanSpec = Union[PlanFactory, FailureModel]

_ENGINES = ("sequential", "batch")


def _check_engine(engine: str) -> None:
    if engine not in _ENGINES:
        raise ConfigurationError(f"unknown engine {engine!r}; expected one of {_ENGINES}")


def _as_scenario(register_spec, plan_spec) -> Optional[ScenarioSpec]:
    """Promote declarative argument forms to a :class:`ScenarioSpec`.

    Returns ``None`` for the legacy factory forms, which only the sequential
    engine can run.
    """
    if isinstance(register_spec, ScenarioSpec):
        if plan_spec is not None:
            raise ConfigurationError(
                "a ScenarioSpec already carries its failure model; "
                "do not pass plan_factory alongside it"
            )
        return register_spec
    if isinstance(register_spec, ProbabilisticQuorumSystem) and (
        plan_spec is None or isinstance(plan_spec, FailureModel)
    ):
        return ScenarioSpec(
            system=register_spec, failure_model=plan_spec or FailureModel.none()
        )
    return None


def _resolve_n(spec: Optional[ScenarioSpec], n: Optional[int]) -> int:
    if spec is not None:
        if n is not None and n != spec.n:
            raise ConfigurationError(
                f"scenario is over {spec.n} servers but the estimate asked for n={n}"
            )
        return spec.n
    if n is None:
        raise ConfigurationError(
            "n is required when passing register/plan factories "
            "(a ScenarioSpec carries it implicitly)"
        )
    return int(n)


def _require_declarative(register_spec, plan_spec) -> None:
    """The batch engine's error messages for non-declarative argument forms."""
    if not isinstance(register_spec, (ScenarioSpec, ProbabilisticQuorumSystem)):
        raise ConfigurationError(
            "engine='batch' needs a declarative scenario; pass a ScenarioSpec or "
            "the ProbabilisticQuorumSystem itself instead of a register factory "
            "(arbitrary factories need engine='sequential')"
        )
    if plan_spec is not None and not isinstance(plan_spec, FailureModel):
        raise ConfigurationError(
            "engine='batch' needs a declarative FailureModel instead of a plan "
            "factory (arbitrary factories need engine='sequential')"
        )


def _diffusion_for(spec: Optional[ScenarioSpec], cluster: Cluster, trial_rng):
    """The trial's anti-entropy engine, or ``None`` when the spec has none.

    Gossip payloads pass the scenario read rule's verifier (dissemination
    scenarios only), so a Byzantine payload that would not survive the read
    filter does not survive diffusion either (crashed and Byzantine pushers
    are already silent in :class:`DiffusionEngine`).
    """
    if spec is None or spec.anti_entropy is None or not spec.anti_entropy.gossips:
        return None
    return DiffusionEngine(
        cluster,
        fanout=spec.anti_entropy.fanout,
        verify=spec.read_rule().verifier,
        rng=trial_rng,
    )


def _sequential_specs(spec: Optional[ScenarioSpec], register_spec, plan_spec, n: int):
    """Lower the scenario (or legacy specs) to the oracle loop's factories.

    Returns one register factory per writer (a legacy factory is the one
    writer) and the plan factory.
    """
    if spec is not None:
        factories = [spec.register_factory(index) for index in range(spec.writers)]
        return factories, spec.failure_model.bind(n)
    if isinstance(register_spec, ProbabilisticQuorumSystem):
        # A bare system paired with an arbitrary plan *factory*: no spec was
        # promoted, but the register side still lowers declaratively.
        register_factory = ScenarioSpec(system=register_spec).register_factory()
    else:
        register_factory = register_spec
    plan_factory = plan_spec.bind(n) if isinstance(plan_spec, FailureModel) else plan_spec
    return [register_factory], plan_factory


@dataclass
class ConsistencyReport:
    """Aggregated outcome counts over a batch of read trials."""

    trials: int
    fresh: int
    stale: int
    empty: int
    fabricated: int

    @property
    def fresh_fraction(self) -> float:
        """Empirical probability that a read returned the last written value."""
        return self.fresh / self.trials if self.trials else 0.0

    @property
    def error_fraction(self) -> float:
        """Empirical probability of any deviation (stale, ⊥ or fabricated)."""
        return 1.0 - self.fresh_fraction

    @property
    def fabricated_fraction(self) -> float:
        """Empirical probability of reading a value that was never written."""
        return self.fabricated / self.trials if self.trials else 0.0

    def __str__(self) -> str:  # pragma: no cover - formatting convenience
        return (
            f"ConsistencyReport(trials={self.trials}, fresh={self.fresh_fraction:.4f}, "
            f"stale/empty={(self.stale + self.empty) / max(1, self.trials):.4f}, "
            f"fabricated={self.fabricated_fraction:.4f})"
        )


def estimate_read_consistency(
    register_factory: RegisterSpec,
    n: Optional[int] = None,
    plan_factory: Optional[PlanSpec] = None,
    trials: int = 500,
    seed: int = 0,
    engine: str = "sequential",
    chunk_size: int = 4096,
) -> ConsistencyReport:
    """Measure how often a read sees the latest write.

    Each trial builds a fresh cluster (with a possibly randomised failure
    plan), performs one write and then one read through the scenario's
    register, and classifies the outcome with the shared labelling rule of
    :mod:`repro.protocol.classification`.  Fabricated values (never written)
    are distinguished from stale/⊥ ones so that dissemination and masking
    experiments can check that fabrication in particular is (essentially)
    never observed.

    Pass a :class:`~repro.simulation.scenario.ScenarioSpec` (or a bare
    system, auto-promoted to one) to run the same description on either
    engine; the two agree in distribution, not trial for trial.  Honest
    writes carry the scenario workload's ``written_value`` (``"v"`` for a
    register factory).

    Under contention (``spec.writers > 1``) every writer writes once per
    trial, each with per-trial counter 1, so writer-id order *is* timestamp
    order and the highest-id writer is the deterministic winner.  Writes are
    applied in that canonical order — concurrent rounds are unordered in
    real time, and every order-sensitive observer the simulation models
    (``ByzantineReplayBehavior``'s first-accepted record) must agree with
    the batch engine's canonical interleaving for the equivalence tests to
    mean anything.  The last writer reads, and the read is classified
    against the winner, so a read observing a lower-id concurrent write
    counts as stale.  One writer is the same loop with a one-element list.
    """
    _check_engine(engine)
    if trials <= 0:
        raise ConfigurationError(f"trial count must be positive, got {trials}")
    spec = _as_scenario(register_factory, plan_factory)
    n = _resolve_n(spec, n)
    if engine == "batch":
        from repro.simulation.batch import BatchTrialEngine

        if spec is None:
            _require_declarative(register_factory, plan_factory)
        batch_engine = BatchTrialEngine.from_spec(spec, seed=seed, chunk_size=chunk_size)
        return batch_engine.estimate_read_consistency(trials)
    written_value = spec.workload.written_value if spec is not None else "v"
    factories, plan_factory = _sequential_specs(spec, register_factory, plan_factory, n)
    from repro.protocol.classification import classify_read_outcome

    values = multiwriter_values(written_value, len(factories))
    rng = random.Random(seed)
    counts = {"fresh": 0, "stale": 0, "empty": 0, "fabricated": 0}
    for _ in range(trials):
        trial_rng = random.Random(rng.randrange(2**63))
        plan = plan_factory(trial_rng) if plan_factory is not None else FailurePlan()
        cluster = Cluster(n, failure_plan=plan, seed=trial_rng.randrange(2**63))
        registers = [factory(cluster, trial_rng) for factory in factories]
        writes = [register.write(value) for register, value in zip(registers, values)]
        diffusion = _diffusion_for(spec, cluster, trial_rng)
        if diffusion is not None:
            diffusion.run_rounds(spec.anti_entropy.rounds, [registers[-1].name])
        outcome = registers[-1].read()
        label = classify_read_outcome(
            outcome, writes[-1], expected_value=values[-1], check_value=True
        )
        counts[label] += 1
    return ConsistencyReport(trials=trials, **counts)


def multiwriter_values(written_value: object, writers: int) -> List[object]:
    """The distinct per-writer values of a concurrent write round.

    Writer ``w`` writes ``(written_value, w)``, so a read can always be
    attributed to the writer whose round it observed; with one writer the
    value stays the bare workload value (single-writer runs unchanged).
    """
    if writers == 1:
        return [written_value]
    return [(written_value, index) for index in range(writers)]


def history_values(writes: int) -> List[object]:
    """The values of a staleness history: write ``v`` (0-based) carries ``("value", v)``.

    Every version gets its own value, so a read names the version it
    returned by its (timestamp, value) pair; a forgery that ties a
    version's timestamp with another value is not that version.
    """
    return [("value", version) for version in range(writes)]


@dataclass
class StalenessReport:
    """Distribution of read staleness over a write history."""

    trials: int
    versions_behind: List[int] = field(default_factory=list)

    @property
    def fresh_fraction(self) -> float:
        """Fraction of reads that returned the most recent version."""
        if not self.versions_behind:
            return 0.0
        return sum(1 for lag in self.versions_behind if lag == 0) / len(self.versions_behind)

    @property
    def mean_lag(self) -> float:
        """Average number of versions the read lagged behind."""
        if not self.versions_behind:
            return 0.0
        return sum(self.versions_behind) / len(self.versions_behind)

    def lag_histogram(self) -> Dict[int, int]:
        """Histogram of lags (0 = fresh)."""
        histogram: Dict[int, int] = {}
        for lag in self.versions_behind:
            histogram[lag] = histogram.get(lag, 0) + 1
        return dict(sorted(histogram.items()))


def estimate_staleness_distribution(
    register_factory: RegisterSpec,
    n: Optional[int] = None,
    writes: Optional[int] = None,
    gossip_rounds_between_writes: Optional[int] = None,
    gossip_fanout: Optional[int] = None,
    plan_factory: Optional[PlanSpec] = None,
    trials: int = 200,
    seed: int = 0,
    engine: str = "sequential",
    chunk_size: int = 4096,
) -> StalenessReport:
    """Measure how many versions behind a read lands after a write history.

    With ``gossip_rounds_between_writes > 0`` a
    :class:`~repro.simulation.diffusion.DiffusionEngine` propagates each
    write before the next one, which is the paper's Section 1.1 recipe for
    driving staleness toward zero when updates are dispersed in time.

    The workload parameters default to the scenario's
    :class:`~repro.simulation.scenario.WorkloadSpec` when a spec is passed
    (and to ``writes=5``, no gossip, fanout 2 otherwise); explicit arguments
    override the spec.  ``engine="batch"`` vectorises the write history and
    the gossip rounds (synchronous-round gossip with with-replacement
    fanout, which spreads a write more slowly than the object engine's
    rounds; see :func:`repro.simulation.diffusion.gossip_rounds_batch`).
    """
    _check_engine(engine)
    if trials <= 0:
        raise ConfigurationError(f"trial count must be positive, got {trials}")
    spec = _as_scenario(register_factory, plan_factory)
    if spec is not None and spec.writers > 1:
        raise ConfigurationError(
            "staleness histories are single-writer (versions are a total order "
            "of one writer's counters); use estimate_read_consistency for the "
            f"contention experiment (scenario declares writers={spec.writers})"
        )
    overrides = {
        "writes": writes,
        "gossip_rounds_between_writes": gossip_rounds_between_writes,
        "gossip_fanout": gossip_fanout,
    }
    # WorkloadSpec's own checks vet the overrides.
    workload = replace(
        spec.workload if spec is not None else WorkloadSpec(writes=5),
        **{name: value for name, value in overrides.items() if value is not None},
    )
    writes = workload.writes
    gossip_rounds_between_writes = workload.gossip_rounds_between_writes
    gossip_fanout = workload.gossip_fanout
    n = _resolve_n(spec, n)
    if engine == "batch":
        from repro.simulation.batch import BatchTrialEngine

        if spec is None:
            _require_declarative(register_factory, plan_factory)
        return BatchTrialEngine.from_spec(
            spec, seed=seed, chunk_size=chunk_size
        ).estimate_staleness_distribution(
            trials,
            writes=writes,
            gossip_rounds_between_writes=gossip_rounds_between_writes,
            gossip_fanout=gossip_fanout,
        )
    (register_factory,), plan_factory = _sequential_specs(
        spec, register_factory, plan_factory, n
    )
    rng = random.Random(seed)
    lags: List[int] = []
    for _ in range(trials):
        trial_rng = random.Random(rng.randrange(2**63))
        plan = plan_factory(trial_rng) if plan_factory is not None else FailurePlan()
        cluster = Cluster(n, failure_plan=plan, seed=trial_rng.randrange(2**63))
        register = register_factory(cluster, trial_rng)
        diffusion = (
            DiffusionEngine(cluster, fanout=gossip_fanout, rng=trial_rng)
            if gossip_rounds_between_writes > 0
            else None
        )
        history = []
        for value in history_values(writes):
            outcome = register.write(value)
            history.append((outcome.timestamp, value))
            if diffusion is not None:
                diffusion.run_rounds(gossip_rounds_between_writes, [register.name])
        read = register.read()
        if read.is_empty:
            lags.append(writes)  # behind every version
            continue
        try:
            version_read = history.index((read.timestamp, read.value))
        except ValueError:
            lags.append(writes)  # a forged pair, even one tying a version's timestamp
            continue
        lags.append(writes - 1 - version_read)
    return StalenessReport(trials=trials, versions_behind=lags)
