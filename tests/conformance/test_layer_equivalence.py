"""Cross-layer conformance: four execution paths, one read semantics.

The repo now evaluates the same declarative
:class:`~repro.simulation.scenario.ScenarioSpec` through four independent
execution paths:

1. the **sequential** Monte-Carlo engine (the protocol-stack oracle),
2. the **batch** NumPy engine (vectorised classification kernels),
3. the **in-process service** (asyncio nodes, simulated transport),
4. the **TCP service** (real localhost sockets, wire frames, wall-clock
   deadlines).

This suite is the weld between them: for a grid of scenarios — benign /
crash / Byzantine-forger failure models × masking / dissemination read
protocols — it runs all four paths at a fixed seed and asserts

* **zero fabricated reads are ever accepted on any path** (the paper's
  safety claim; every grid system tolerates its configured adversary:
  masking ``k > b``, dissemination signatures), and
* the **classification rates agree within statistical tolerance**.

Rates are compared on the common ground the paths share.  The engines read
*after* the write completes, so an ε-miss surfaces as ``empty``/``stale``;
the services read *concurrently*, so early reads can be legitimately
``empty`` (the key not yet written) and an ε-miss surfaces as ``stale``.
The comparable quantities are therefore (a) the fresh rate among *decided*
(non-empty) reads, which must agree pairwise across all four paths, and
(b) each path's deviation mass, which must stay within its scenario's
analytical ε plus sampling slack.

Beyond the 4×8 grid, standalone cells weld in the variants: the **binary
codec** (the struct-packed frames negotiated per connection must classify
reads exactly like the JSON ones), a **ClusterDeployment** (one server
process per shard, the load driven from the test process: real process
boundaries must not change the semantics either; a second cluster cell
spreads four keys over both shard processes), and two **anti-entropy** cells (piggybacked
read-repair + background gossip armed on every path: moving freshness off
the read path must not move the rates, and gossip must never become a
fabrication vector).  All are held to the same zero-fabrication and
rate-agreement bars and stay blocking in CI.

Everything is pinned to one module-level seed so the CI ``conformance`` job
is reproducible run to run.
"""

from __future__ import annotations

import math

import pytest

from repro.core.dissemination import ProbabilisticDisseminationSystem
from repro.core.masking import ProbabilisticMaskingSystem
from repro.protocol.timestamps import Timestamp
from repro.service.load import ServiceLoadSpec, run_service_load
from repro.simulation.failures import FailureModel
from repro.simulation.monte_carlo import estimate_read_consistency
from repro.simulation.scenario import AntiEntropySpec, ScenarioSpec

#: One seed for the whole grid: the CI job must reproduce byte for byte on
#: the simulated paths and rate-for-rate on the wall-clock one.
SEED = 20260728

#: Trials per Monte-Carlo engine (the batch engine is cheap; the sequential
#: oracle drives real protocol objects per trial).
SEQUENTIAL_TRIALS = 300
BATCH_TRIALS = 5_000

#: Pairwise tolerance on the decided-fresh rate.  The smallest sample in
#: the comparison is the TCP run (~80 reads); at p ≈ 0.99 its binomial σ is
#: ~0.011, so 0.06 is a ≥5σ band for every pair.
RATE_TOLERANCE = 0.06

#: Slack added to the analytical ε when bounding a path's deviation mass.
EPSILON_SLACK = 0.05

# The grid: each read protocol deployed against the three failure regimes.
# Both systems tolerate the injected adversary by construction (masking:
# k = 5 > b = 3; dissemination: forged signatures never verify), which is
# what makes the zero-fabrication assertion structural rather than lucky.
MASKING = ProbabilisticMaskingSystem(36, 18, 3)
DISSEMINATION = ProbabilisticDisseminationSystem.for_epsilon(36, 3, 1e-2)
assert MASKING.read_threshold > 3

FAILURE_MODELS = {
    "benign": FailureModel.none(),
    "crash": FailureModel.random_crashes(3),
    "forger": FailureModel.colluding_forgers(3, "FORGED", Timestamp.forged_maximum()),
    # -- the adversary fleet (PR 10): every strategy the small-config explorer
    # enumerates exhaustively also exists as a samplable adversary here, run
    # through all four paths at n = 36.
    #
    # partition: the adversary picks the victims (a fixed id block), the
    # worst case uniform crash sampling essentially never draws.
    "partition": FailureModel.targeted_partition((0, 1, 2)),
    # gray: flaky-but-honest servers dropping 30% of messages — availability
    # erosion with zero fabrication risk.
    "gray": FailureModel.gray_nodes(4, 0.3),
    # reorder: no faulty servers, adversarially shuffled delivery order —
    # classification must be order-invariant on every path.
    "reorder": FailureModel.message_reordering(),
    # clique: colluding forgers using an honest-SHAPED timestamp (no absurd
    # counter), so nothing short of the threshold/signature machinery can
    # reject it.  Timestamp(1, 7) outranks the workload's honest
    # Timestamp(1, 0) by writer id without tying it.
    "clique": FailureModel.timestamp_forging_clique(3, "FORGED", Timestamp(1, 7)),
}

GRID = {
    f"{kind}-{failure}": ScenarioSpec(system=system, failure_model=model)
    for kind, system in (("masking", MASKING), ("dissemination", DISSEMINATION))
    for failure, model in FAILURE_MODELS.items()
}

# The contention cells: three concurrent writers race on one register while
# the forgers keep answering.  Multi-writer timestamps are writer-id
# tie-broken, so all four paths must still resolve every race to the same
# winner — the decided-fresh agreement below is exactly that claim.
GRID.update(
    {
        f"{kind}-contended": ScenarioSpec(
            system=system, failure_model=FAILURE_MODELS["forger"], writers=3
        )
        for kind, system in (("masking", MASKING), ("dissemination", DISSEMINATION))
    }
)


def engine_counts(spec: ScenarioSpec, engine: str, trials: int) -> dict:
    report = estimate_read_consistency(spec, trials=trials, seed=SEED, engine=engine)
    return {
        "total": report.trials,
        "fresh": report.fresh,
        "stale": report.stale,
        "empty": report.empty,
        "fabricated": report.fabricated,
    }


def service_counts(spec: ScenarioSpec, transport: str, codec: str = "json") -> dict:
    if transport == "inproc":
        load = ServiceLoadSpec(
            scenario=spec,
            clients=40,
            reads_per_client=5,
            writes=4,
            deadline=0.02,
            seed=SEED,
        )
    else:
        load = ServiceLoadSpec(
            scenario=spec,
            clients=20,
            reads_per_client=4,
            writes=3,
            deadline=0.1,
            transport="tcp",
            codec=codec,
            seed=SEED,
        )
    report = run_service_load(load)
    assert report.reads_completed == load.clients * load.reads_per_client
    return {
        "total": report.reads_completed,
        "fresh": report.outcomes["fresh"],
        "stale": report.outcomes["stale"],
        "empty": report.outcomes["empty"],
        "fabricated": report.outcomes["fabricated"],
    }


def decided_fresh_rate(counts: dict) -> float:
    """Fresh fraction among non-⊥ reads — the rate all four paths share.

    ``empty`` is excluded because it means different things per path: an
    ε-miss for the engines (read strictly after the write), a benign
    not-yet-written race for the concurrent services.
    """
    decided = counts["fresh"] + counts["stale"] + counts["fabricated"]
    return counts["fresh"] / decided if decided else 1.0


def deviation_mass(counts: dict, concurrent: bool) -> float:
    """The path's observed probability of missing the settled write.

    Engines: everything but fresh (their reads always follow a completed
    write).  Services: stale + fabricated over all reads (their empties are
    starts-before-first-write, not misses).
    """
    if concurrent:
        return (counts["stale"] + counts["fabricated"]) / counts["total"]
    return 1.0 - counts["fresh"] / counts["total"]


def assert_paths_conform(cell: str, spec: ScenarioSpec, paths: dict) -> None:
    """The conformance bar every cell is held to, old and new alike."""
    # -- safety: zero fabricated-accepted reads, on every path, always ------------
    for name, counts in paths.items():
        assert counts["fabricated"] == 0, (
            f"{cell}/{name} accepted {counts['fabricated']} fabricated reads "
            f"(counts: {counts})"
        )

    # -- the comparison must rest on real samples ---------------------------------
    for name, counts in paths.items():
        decided = counts["fresh"] + counts["stale"] + counts["fabricated"]
        assert decided >= counts["total"] * 0.3, (
            f"{cell}/{name} decided only {decided} of {counts['total']} reads; "
            f"the rate comparison would be vacuous (counts: {counts})"
        )

    # -- agreement: decided-fresh rates within statistical tolerance --------------
    rates = {name: decided_fresh_rate(counts) for name, counts in paths.items()}
    names = sorted(rates)
    for i, first in enumerate(names):
        for second in names[i + 1 :]:
            assert math.isclose(
                rates[first], rates[second], abs_tol=RATE_TOLERANCE
            ), f"{cell}: {first}={rates[first]:.4f} vs {second}={rates[second]:.4f}"

    # -- calibration: every path's deviation stays within ε + slack ---------------
    epsilon = spec.system.epsilon
    for name, counts in paths.items():
        deviation = deviation_mass(counts, concurrent=name.startswith("service"))
        assert deviation <= epsilon + EPSILON_SLACK, (
            f"{cell}/{name} deviated on {deviation:.4f} of its reads "
            f"(analytical ε = {epsilon:.4f}; counts: {counts})"
        )


@pytest.mark.parametrize("cell", sorted(GRID))
def test_all_four_paths_agree_and_accept_no_fabrication(cell):
    spec = GRID[cell]
    paths = {
        "sequential": engine_counts(spec, "sequential", SEQUENTIAL_TRIALS),
        "batch": engine_counts(spec, "batch", BATCH_TRIALS),
        "service-inproc": service_counts(spec, "inproc"),
        "service-tcp": service_counts(spec, "tcp"),
    }
    assert_paths_conform(cell, spec, paths)


def test_binary_codec_tcp_cell():
    """The struct-packed wire codec against the adversarial masking cell.

    Forged timestamps and signatures must survive binary serialisation
    exactly as they do JSON (and still be outvoted): same seed, same
    bars, decoded by a different codec.
    """
    spec = GRID["masking-forger"]
    paths = {
        "batch": engine_counts(spec, "batch", BATCH_TRIALS),
        "service-tcp-json": service_counts(spec, "tcp"),
        "service-tcp-binary": service_counts(spec, "tcp", codec="binary"),
    }
    assert_paths_conform("masking-forger-binary", spec, paths)


def cluster_counts(spec: ScenarioSpec) -> dict:
    """The TCP workload on a ClusterDeployment: 2 shard server processes,
    the load driven from this process, binary codec."""
    load = ServiceLoadSpec(
        scenario=spec,
        clients=20,
        reads_per_client=4,
        writes=4,
        deadline=0.1,
        transport="tcp",
        shards=2,
        keys=2,
        codec="binary",
        processes=2,
        seed=SEED,
    )
    report = run_service_load(load)
    assert report.reads_completed == load.clients * load.reads_per_client
    return {
        "total": report.reads_completed,
        "fresh": report.outcomes["fresh"],
        "stale": report.outcomes["stale"],
        "empty": report.outcomes["empty"],
        "fabricated": report.outcomes["fabricated"],
    }


def test_cluster_deployment_cell():
    """Real process boundaries must not change the read semantics.

    The multi-process path (spawned shard servers driven over real
    sockets from this process) is held to the same agreement and
    zero-fabrication bars as the in-loop paths — against the Byzantine
    forger model, so forged replies cross genuine process boundaries.
    """
    spec = GRID["masking-forger"]
    paths = {
        "batch": engine_counts(spec, "batch", BATCH_TRIALS),
        "service-inproc": service_counts(spec, "inproc"),
        "service-cluster": cluster_counts(spec),
    }
    assert_paths_conform("masking-forger-cluster", spec, paths)


def test_cluster_deployment_cell_over_both_shards():
    """The cluster cell with four keys, so both shard processes serve.

    ``shard_for_key`` routes ``x0``/``x1`` to shard 1 and ``x2``/``x3`` to
    shard 0 (the two-key cell above drives shard 1 alone); every shard must
    serve operations, under the same bars.
    """
    spec = GRID["masking-forger"]
    load = ServiceLoadSpec(
        scenario=spec,
        clients=20,
        reads_per_client=4,
        writes=4,
        deadline=0.1,
        transport="tcp",
        shards=2,
        keys=4,
        codec="binary",
        processes=2,
        seed=SEED,
    )
    report = run_service_load(load)
    assert report.reads_completed == load.clients * load.reads_per_client
    assert len(report.shard_ops) == 2 and all(ops > 0 for ops in report.shard_ops), (
        report.shard_ops
    )
    paths = {
        "batch": engine_counts(spec, "batch", BATCH_TRIALS),
        "service-inproc": service_counts(spec, "inproc"),
        "service-cluster": {
            "total": report.reads_completed,
            **{kind: report.outcomes[kind] for kind in ("fresh", "stale", "empty", "fabricated")},
        },
    }
    assert_paths_conform("masking-forger-cluster-both-shards", spec, paths)


#: The anti-entropy configuration the AE cells arm: gossip after each write
#: on the engines, piggybacked repair + background gossip on the services.
#: Freshness moving off the read path must not move the *rates* — the same
#: four-way agreement and zero-fabrication bars apply.
ANTI_ENTROPY = AntiEntropySpec(fanout=3, rounds=2, interval=0.001, repair_budget=4)


def test_anti_entropy_masking_forger_cell():
    """All four paths with anti-entropy armed, under colluding forgers.

    Gossip must not become a fabrication vector: the forged records the
    Byzantine servers hold are rejected by the verifiability rules before
    adoption, so the zero-fabrication bar holds with diffusion running.
    """
    spec = ScenarioSpec(
        system=MASKING,
        failure_model=FAILURE_MODELS["forger"],
        anti_entropy=ANTI_ENTROPY,
    )
    paths = {
        "sequential": engine_counts(spec, "sequential", SEQUENTIAL_TRIALS),
        "batch": engine_counts(spec, "batch", BATCH_TRIALS),
        "service-inproc": service_counts(spec, "inproc"),
        "service-tcp": service_counts(spec, "tcp"),
    }
    assert_paths_conform("masking-forger-anti-entropy", spec, paths)


def test_anti_entropy_dissemination_crash_cell():
    """All four paths with anti-entropy armed, under benign crashes.

    The crash regime is where diffusion does its freshness work; the cell
    pins that the engines' post-write gossip and the services' background
    gossip land on the same decided-fresh rate.
    """
    spec = ScenarioSpec(
        system=DISSEMINATION,
        failure_model=FAILURE_MODELS["crash"],
        anti_entropy=ANTI_ENTROPY,
    )
    paths = {
        "sequential": engine_counts(spec, "sequential", SEQUENTIAL_TRIALS),
        "batch": engine_counts(spec, "batch", BATCH_TRIALS),
        "service-inproc": service_counts(spec, "inproc"),
        "service-tcp": service_counts(spec, "tcp"),
    }
    assert_paths_conform("dissemination-crash-anti-entropy", spec, paths)


def test_grid_covers_the_advertised_cells():
    """The grid: (benign / crash / forger / fleet + contended) × both systems."""
    assert len(GRID) == 16
    kinds = {spec.resolved_register_kind() for spec in GRID.values()}
    assert kinds == {"masking", "dissemination"}
    byzantine_counts = {spec.failure_model.byzantine_count for spec in GRID.values()}
    assert byzantine_counts == {0, 3}
    fleet_kinds = {spec.failure_model.kind for spec in GRID.values()}
    assert {
        "targeted_partition",
        "gray_nodes",
        "message_reordering",
        "timestamp_forging_clique",
    } <= fleet_kinds
    # Both forging adversaries are Byzantine; the rest of the fleet is benign.
    assert GRID["masking-clique"].failure_model.forges_values
    assert GRID["masking-gray"].failure_model.byzantine_count == 0
    writer_counts = {spec.writers for spec in GRID.values()}
    assert writer_counts == {1, 3}
    contended = [name for name in GRID if name.endswith("contended")]
    assert all(GRID[name].writers == 3 for name in contended)


def test_simulated_paths_reproduce_exactly_at_the_pinned_seed():
    """Engines and the in-process service are deterministic per seed.

    (The TCP path is deliberately exempt: wall-clock scheduling is part of
    what it measures; only its *rates* are pinned, by the grid test above.)
    """
    spec = GRID["masking-forger"]
    assert engine_counts(spec, "batch", 2_000) == engine_counts(spec, "batch", 2_000)
    assert engine_counts(spec, "sequential", 100) == engine_counts(
        spec, "sequential", 100
    )
    assert service_counts(spec, "inproc") == service_counts(spec, "inproc")
