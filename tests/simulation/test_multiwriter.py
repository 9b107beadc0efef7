"""Multi-writer contention: engine equivalence + exhaustive interleavings.

Two pins on the multi-writer semantics introduced with
``ScenarioSpec(writers=...)``:

* **statistical equivalence** — the sequential oracle and the batch engine
  estimate the same outcome distribution for 2–4 contending writers, under
  benign, crash and forger failure models, within Hoeffding tolerances
  (same methodology as ``test_batch_engine.py``);
* **exhaustive interleavings** — on a 3-node universe with singleton
  quorums, *every* combination of (writer-1 quorum, writer-2 quorum, read
  quorum) × both write application orders is enumerated, and the protocol
  stack's read must equal the shared selection rule's prediction: the
  visible writer with the highest writer-id-tie-broken timestamp wins,
  independent of arrival order.
"""

from __future__ import annotations

import itertools
import math
import random

import pytest

from repro.core.epsilon_intersecting import UniformEpsilonIntersectingSystem
from repro.exceptions import ConfigurationError
from repro.protocol.timestamps import Timestamp
from repro.protocol.variable import ProbabilisticRegister
from repro.simulation.batch import BatchTrialEngine
from repro.simulation.cluster import Cluster
from repro.simulation.failures import FailureModel
from repro.simulation.monte_carlo import (
    estimate_read_consistency,
    multiwriter_values,
)
from repro.simulation.scenario import ScenarioSpec

EQUIVALENCE_TRIALS = 10_000


def hoeffding_tolerance(trials: int, delta: float = 1e-9) -> float:
    """Deviation bound ``t`` with ``P(|p̂ - p| > t) <= delta`` (Hoeffding)."""
    return math.sqrt(math.log(2.0 / delta) / (2.0 * trials))


def two_sided_tolerance(trials_a: int, trials_b: int) -> float:
    return hoeffding_tolerance(trials_a) + hoeffding_tolerance(trials_b)


class TestMultiwriterEngineEquivalence:
    """Both engines, 2–4 contending writers, same outcome distribution."""

    SYSTEM = UniformEpsilonIntersectingSystem(25, 5)

    def _both(self, writers, model=None, trials=EQUIVALENCE_TRIALS):
        spec = ScenarioSpec(
            system=self.SYSTEM,
            failure_model=model or FailureModel.none(),
            writers=writers,
        )
        sequential = estimate_read_consistency(spec, trials=trials, seed=42)
        batch = estimate_read_consistency(
            spec, trials=trials, seed=42, engine="batch"
        )
        return sequential, batch

    @pytest.mark.parametrize("writers", [2, 3, 4])
    def test_benign_contention(self, writers):
        sequential, batch = self._both(writers)
        tol = two_sided_tolerance(EQUIVALENCE_TRIALS, EQUIVALENCE_TRIALS)
        assert batch.fresh_fraction == pytest.approx(
            sequential.fresh_fraction, abs=tol
        ), f"writers={writers}"
        # Under contention a read can land on a losing writer's quorum:
        # stale is a real outcome class now, and the engines must agree on
        # its mass too, not only on fresh.
        assert batch.stale / batch.trials == pytest.approx(
            sequential.stale / sequential.trials, abs=tol
        ), f"writers={writers}"
        assert batch.fabricated == sequential.fabricated == 0

    @pytest.mark.parametrize("writers", [2, 4])
    def test_contention_under_crashes(self, writers):
        sequential, batch = self._both(
            writers, FailureModel.independent_crashes(0.3)
        )
        tol = two_sided_tolerance(EQUIVALENCE_TRIALS, EQUIVALENCE_TRIALS)
        assert batch.fresh_fraction == pytest.approx(
            sequential.fresh_fraction, abs=tol
        )
        assert batch.fabricated == sequential.fabricated == 0

    @pytest.mark.parametrize("writers", [2, 3])
    def test_contention_under_colluding_forgers(self, writers):
        model = FailureModel.colluding_forgers(
            4, "FORGED", Timestamp.forged_maximum()
        )
        sequential, batch = self._both(writers, model)
        tol = two_sided_tolerance(EQUIVALENCE_TRIALS, EQUIVALENCE_TRIALS)
        assert batch.fresh_fraction == pytest.approx(
            sequential.fresh_fraction, abs=tol
        )
        assert batch.fabricated_fraction == pytest.approx(
            sequential.fabricated_fraction, abs=tol
        )

    def test_single_writer_reduces_to_the_classic_estimate(self):
        # writers=1 must be bit-identical to the engine's one-write kernel:
        # same seed, same (default) chunking, same counts.
        spec = ScenarioSpec(system=self.SYSTEM, failure_model=FailureModel.none(), writers=1)
        classic = BatchTrialEngine(spec, seed=7).estimate_read_consistency(2_000)
        declarative = estimate_read_consistency(
            spec, trials=2_000, seed=7, engine="batch"
        )
        assert (classic.fresh, classic.stale, classic.empty, classic.fabricated) == (
            declarative.fresh,
            declarative.stale,
            declarative.empty,
            declarative.fabricated,
        )

    def test_multiwriter_values_are_attributable(self):
        assert multiwriter_values("v", 1) == ["v"]
        assert multiwriter_values("v", 3) == [("v", 0), ("v", 1), ("v", 2)]

    def test_writer_validation(self):
        with pytest.raises(ConfigurationError):
            ScenarioSpec(
                system=self.SYSTEM,
                failure_model=FailureModel.none(),
                writers=0,
            )


class ScriptedSystem(UniformEpsilonIntersectingSystem):
    """Replays a fixed script of quorums instead of sampling the strategy."""

    def __init__(self, n, quorum_size, script):
        super().__init__(n, quorum_size)
        self._script = [frozenset(q) for q in script]

    def sample_quorum(self, rng=None):
        return self._script.pop(0)


class TestExhaustiveInterleavings:
    """3 nodes, singleton quorums, 2 writers: every case, both orders.

    Singleton quorums on three nodes are the smallest configuration where
    quorums can genuinely miss each other, so all four outcome shapes
    appear: the read sees both writers (winner by writer-id tiebreak),
    only the winning writer (fresh), only the losing one (stale), or
    neither (empty).  The expected label comes straight from the shared
    selection rule — visible writers are those whose write quorum meets
    the read quorum, and the highest ``(counter, writer_id)`` timestamp
    among them wins.
    """

    NODES = 3
    QUORUMS = [frozenset({s}) for s in range(3)]

    def _run_case(self, first_writer, second_writer, quorum_by_writer, read_quorum):
        # Script order: first write, second write, then the read.
        script = [
            quorum_by_writer[first_writer],
            quorum_by_writer[second_writer],
            read_quorum,
        ]
        system = ScriptedSystem(self.NODES, 1, script)
        cluster = Cluster(self.NODES, seed=0)
        registers = {
            w: ProbabilisticRegister(
                system, cluster, writer_id=w, rng=random.Random(w)
            )
            for w in (0, 1)
        }
        reader = ProbabilisticRegister(
            system, cluster, writer_id=9, rng=random.Random(9)
        )
        registers[first_writer].write(("v", first_writer))
        registers[second_writer].write(("v", second_writer))
        return reader.read()

    def test_every_interleaving_resolves_to_the_selection_winner(self):
        cases = 0
        for w0_quorum, w1_quorum, read_quorum in itertools.product(
            self.QUORUMS, repeat=3
        ):
            quorum_by_writer = {0: w0_quorum, 1: w1_quorum}
            visible = [
                w for w in (0, 1) if quorum_by_writer[w] & read_quorum
            ]
            expected = ("v", max(visible)) if visible else None
            for order in ((0, 1), (1, 0)):
                outcome = self._run_case(
                    order[0], order[1], quorum_by_writer, read_quorum
                )
                assert outcome.value == expected, (
                    f"write quorums {sorted(w0_quorum)}/{sorted(w1_quorum)}, "
                    f"read {sorted(read_quorum)}, order {order}: "
                    f"got {outcome.value!r}, expected {expected!r}"
                )
                if visible:
                    assert outcome.timestamp == Timestamp(1, max(visible))
                cases += 1
        # 3 choices for each of the three quorums, times two write orders.
        assert cases == 54

    def test_application_order_never_changes_the_stored_record(self):
        # The node both writers hit must keep the writer-id winner whichever
        # write lands second (Lamport tiebreak, not last-writer-wins).
        shared = frozenset({1})
        for order in ((0, 1), (1, 0)):
            outcome = self._run_case(
                order[0], order[1], {0: shared, 1: shared}, shared
            )
            assert outcome.value == ("v", 1)
            assert outcome.timestamp == Timestamp(1, 1)
