"""Probabilistic quorum systems.

A reproduction of "Probabilistic Quorum Systems" (Malkhi, Reiter, Wool,
Wright; PODC 1997 / Information and Computation 2001) as a reusable Python
library: ε-intersecting, (b,ε)-dissemination and (b,ε)-masking quorum
systems, the strict quorum systems they are compared against, replicated
variable protocols built on them, a crash/Byzantine server simulation, and
an experiment harness that regenerates every table and figure of the paper's
evaluation.

Quickstart
----------

>>> from repro import UniformEpsilonIntersectingSystem
>>> system = UniformEpsilonIntersectingSystem.for_epsilon(n=100, epsilon=1e-3)
>>> system.quorum_size >= 20        # Θ(√n) quorums ...
True
>>> system.load() == system.quorum_size / 100   # ... with O(1/√n) load ...
True
>>> system.fault_tolerance() == 100 - system.quorum_size + 1
True

See ``examples/quickstart.py`` for a guided tour and ``DESIGN.md`` for the
full system inventory.
"""

from repro.core import (
    AccessStrategy,
    EpsilonIntersectingSystem,
    ExplicitStrategy,
    ProbabilisticDisseminationSystem,
    ProbabilisticMaskingSystem,
    ProbabilisticQuorumSystem,
    UniformEpsilonIntersectingSystem,
    UniformSubsetStrategy,
    corollary_3_12_load_bound,
    ell_for_quorum_size,
    masking_load_lower_bound,
    minimal_quorum_size_for_dissemination,
    minimal_quorum_size_for_epsilon,
    minimal_quorum_size_for_masking,
    probabilistic_load_lower_bound,
    strict_load_lower_bound,
    strict_resilience_bound,
    table1_bounds,
)
from repro.exceptions import (
    ConfigurationError,
    ExperimentError,
    ProtocolError,
    QuorumPropertyError,
    QuorumUnavailableError,
    ReproError,
    RpcTimeoutError,
    ServiceError,
    SimulationError,
    StrategyError,
    VerificationError,
)
from repro.quorum import (
    ExplicitQuorumSystem,
    GridDisseminationQuorumSystem,
    GridMaskingQuorumSystem,
    GridQuorumSystem,
    MajorityQuorumSystem,
    QuorumSystem,
    ThresholdDisseminationQuorumSystem,
    ThresholdMaskingQuorumSystem,
    ThresholdQuorumSystem,
)
from repro.types import FailureCurvePoint, Quorum, ServerId, SystemProfile

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # core
    "AccessStrategy",
    "UniformSubsetStrategy",
    "ExplicitStrategy",
    "ProbabilisticQuorumSystem",
    "EpsilonIntersectingSystem",
    "UniformEpsilonIntersectingSystem",
    "ProbabilisticDisseminationSystem",
    "ProbabilisticMaskingSystem",
    "minimal_quorum_size_for_epsilon",
    "minimal_quorum_size_for_dissemination",
    "minimal_quorum_size_for_masking",
    "ell_for_quorum_size",
    "probabilistic_load_lower_bound",
    "corollary_3_12_load_bound",
    "masking_load_lower_bound",
    "strict_load_lower_bound",
    "strict_resilience_bound",
    "table1_bounds",
    # strict quorum substrate
    "QuorumSystem",
    "ExplicitQuorumSystem",
    "MajorityQuorumSystem",
    "ThresholdQuorumSystem",
    "GridQuorumSystem",
    "GridDisseminationQuorumSystem",
    "GridMaskingQuorumSystem",
    "ThresholdDisseminationQuorumSystem",
    "ThresholdMaskingQuorumSystem",
    # shared types
    "Quorum",
    "ServerId",
    "SystemProfile",
    "FailureCurvePoint",
    # exceptions
    "ReproError",
    "ConfigurationError",
    "StrategyError",
    "QuorumPropertyError",
    "QuorumUnavailableError",
    "ProtocolError",
    "VerificationError",
    "SimulationError",
    "ServiceError",
    "RpcTimeoutError",
    "ExperimentError",
]
