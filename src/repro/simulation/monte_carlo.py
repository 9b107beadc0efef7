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

A declarative :class:`~repro.simulation.scenario.ScenarioSpec` — quorum
system, failure model and workload in one object — is the only experiment
description either estimator takes, and both engines consume the same
spec: the sequential oracle lowers it to the matching register class
(plain, signed-dissemination or threshold-masking) over per-trial clusters
and draws each trial's failures with
:meth:`~repro.simulation.failures.FailureModel.sample_plan_for`, while the
batch engine reads the same spec's
:class:`~repro.protocol.selection.ReadRule` (its threshold and whether it is
signed) and classifies trials with vectorised kernels.  Anything else — a
bare system, a register or plan factory — is refused, so every experiment
runs on both engines.

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
from dataclasses import dataclass, field
from typing import Dict, List

from repro.exceptions import ConfigurationError
from repro.simulation.cluster import Cluster
from repro.simulation.diffusion import DiffusionEngine
from repro.simulation.scenario import ScenarioSpec, require_scenario

_ENGINES = ("sequential", "batch")


def _check_run(spec: object, trials: int, engine: str) -> None:
    """Refuse a run of ``trials`` trials that no estimator can start."""
    require_scenario(spec)
    if engine not in _ENGINES:
        raise ConfigurationError(f"unknown engine {engine!r}; expected one of {_ENGINES}")
    if trials <= 0:
        raise ConfigurationError(f"trial count must be positive, got {trials}")


def require_one_writer(spec: ScenarioSpec) -> None:
    """Refuse a staleness history over a scenario with concurrent writers."""
    if spec.writers > 1:
        raise ConfigurationError(
            "staleness histories are single-writer (versions are a total order "
            "of one writer's counters); use estimate_read_consistency for the "
            f"contention experiment (scenario declares writers={spec.writers})"
        )


def _trial_cluster(spec: ScenarioSpec, trial_rng: random.Random) -> Cluster:
    """One trial's cluster, under a failure plan drawn from the spec's model."""
    plan = spec.failure_model.sample_plan_for(spec.n, trial_rng)
    return Cluster(spec.n, failure_plan=plan, seed=trial_rng.randrange(2**63))


def _diffusion_for(spec: ScenarioSpec, cluster: Cluster, trial_rng):
    """The trial's anti-entropy engine, or ``None`` when the spec has none.

    Gossip payloads pass the scenario read rule's verifier (dissemination
    scenarios only), so a Byzantine payload that would not survive the read
    filter does not survive diffusion either (crashed and Byzantine pushers
    are already silent in :class:`DiffusionEngine`).
    """
    if spec.anti_entropy is None or not spec.anti_entropy.gossips:
        return None
    return DiffusionEngine(
        cluster,
        fanout=spec.anti_entropy.fanout,
        verify=spec.read_rule().verifier,
        rng=trial_rng,
    )


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
    spec: ScenarioSpec,
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

    The same :class:`~repro.simulation.scenario.ScenarioSpec` runs on
    either engine; the two agree in distribution, not trial for trial.
    Honest writes carry the scenario workload's ``written_value``.

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
    _check_run(spec, trials, engine)
    if engine == "batch":
        from repro.simulation.batch import BatchTrialEngine

        batch_engine = BatchTrialEngine(spec, seed=seed, chunk_size=chunk_size)
        return batch_engine.estimate_read_consistency(trials)
    from repro.protocol.classification import classify_read_outcome

    factories = [spec.register_factory(index) for index in range(spec.writers)]
    values = multiwriter_values(spec.workload.written_value, spec.writers)
    rng = random.Random(seed)
    counts = {"fresh": 0, "stale": 0, "empty": 0, "fabricated": 0}
    for _ in range(trials):
        trial_rng = random.Random(rng.randrange(2**63))
        cluster = _trial_cluster(spec, trial_rng)
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
    spec: ScenarioSpec,
    trials: int = 200,
    seed: int = 0,
    engine: str = "sequential",
    chunk_size: int = 4096,
) -> StalenessReport:
    """Measure how many versions behind a read lands after a write history.

    The history is the scenario's
    :class:`~repro.simulation.scenario.WorkloadSpec`: ``writes`` versions
    by the scenario's one writer.  With ``gossip_rounds_between_writes > 0``
    a :class:`~repro.simulation.diffusion.DiffusionEngine` with
    ``gossip_fanout`` propagates each write before the next one, which is
    the paper's Section 1.1 recipe for driving staleness toward zero when
    updates are dispersed in time.  ``engine="batch"`` vectorises the write
    history and the gossip rounds (synchronous-round gossip with
    with-replacement fanout, which spreads a write more slowly than the
    object engine's rounds; see
    :func:`repro.simulation.diffusion.gossip_rounds_batch`).
    """
    _check_run(spec, trials, engine)
    require_one_writer(spec)
    if engine == "batch":
        from repro.simulation.batch import BatchTrialEngine

        batch_engine = BatchTrialEngine(spec, seed=seed, chunk_size=chunk_size)
        return batch_engine.estimate_staleness_distribution(trials)
    workload = spec.workload
    writes = workload.writes
    register_factory = spec.register_factory()
    rng = random.Random(seed)
    lags: List[int] = []
    for _ in range(trials):
        trial_rng = random.Random(rng.randrange(2**63))
        cluster = _trial_cluster(spec, trial_rng)
        register = register_factory(cluster, trial_rng)
        diffusion = (
            DiffusionEngine(cluster, fanout=workload.gossip_fanout, rng=trial_rng)
            if workload.gossip_rounds_between_writes > 0
            else None
        )
        history = []
        for value in history_values(writes):
            outcome = register.write(value)
            history.append((outcome.timestamp, value))
            if diffusion is not None:
                diffusion.run_rounds(workload.gossip_rounds_between_writes, [register.name])
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
