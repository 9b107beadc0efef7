"""Server/client simulation substrate.

The paper's protocols (Sections 3.1, 4 and 5) assume a universe of replica
servers that clients contact in quorums, where servers may crash or behave
arbitrarily (Byzantine).  The original work ran on the Phalanx replication
toolkit; this subpackage provides an in-process substitute that exercises the
same code path:

* :mod:`repro.simulation.server` — replica servers with pluggable behaviour
  (correct, crashed, gray, and several Byzantine strategies);
* :mod:`repro.simulation.failures` — crash sets and Byzantine set
  selection;
* :mod:`repro.simulation.cluster` — the synchronous quorum-RPC facade the
  protocol layer talks to; it delivers each RPC directly to the server, so
  message loss is a gray server's, a partition is a crash set and
  reordering is the plan's ``shuffle_delivery``;
* :mod:`repro.simulation.diffusion` — the gossip/anti-entropy update
  propagation sketched in Section 1.1;
* :mod:`repro.simulation.scenario` — declarative scenario descriptions
  (:class:`ScenarioSpec`) consumed by both Monte-Carlo engines;
* :mod:`repro.simulation.monte_carlo` — empirical consistency estimation
  used to validate Theorems 3.2, 4.2 and 5.2 against the analytical ε;
* :mod:`repro.simulation.batch` — the vectorised (NumPy) trial engine
  behind the estimators' ``engine="batch"`` switch;
* :mod:`repro.simulation.explore` — the exhaustive small-config
  interleaving explorer and its :class:`~repro.simulation.explore.ControlledScheduler`.
"""

from repro.simulation.batch import (
    BatchTrialEngine,
    classify_threshold_votes,
    classify_tying_votes,
)
from repro.simulation.scenario import AntiEntropySpec, ScenarioSpec, WorkloadSpec
from repro.simulation.cluster import Cluster
from repro.simulation.diffusion import DiffusionEngine, gossip_rounds_batch
from repro.simulation.failures import BatchFailureMasks, FailureModel, FailurePlan
from repro.simulation.server import (
    ByzantineForgeBehavior,
    ByzantineReplayBehavior,
    ByzantineSilentBehavior,
    CorrectBehavior,
    CrashedBehavior,
    ReplicaServer,
    ServerBehavior,
)
from repro.simulation.monte_carlo import (
    ConsistencyReport,
    StalenessReport,
    estimate_read_consistency,
    estimate_staleness_distribution,
)
from repro.simulation.client import LoadMeasurement, WorkloadClient, measure_system_load

__all__ = [
    "ReplicaServer",
    "ServerBehavior",
    "CorrectBehavior",
    "CrashedBehavior",
    "ByzantineForgeBehavior",
    "ByzantineReplayBehavior",
    "ByzantineSilentBehavior",
    "FailurePlan",
    "FailureModel",
    "BatchFailureMasks",
    "BatchTrialEngine",
    "classify_threshold_votes",
    "classify_tying_votes",
    "AntiEntropySpec",
    "ScenarioSpec",
    "WorkloadSpec",
    "Cluster",
    "DiffusionEngine",
    "gossip_rounds_batch",
    "ConsistencyReport",
    "StalenessReport",
    "estimate_read_consistency",
    "estimate_staleness_distribution",
    "WorkloadClient",
    "LoadMeasurement",
    "measure_system_load",
]
