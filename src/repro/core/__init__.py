"""Probabilistic quorum systems — the paper's primary contribution.

This subpackage implements the three system classes the paper introduces,
their quality measures, the lower bounds, and the calibration logic used to
size the constructions in Section 6:

* :mod:`repro.core.strategy` — access strategies (Definition 2.3);
* :mod:`repro.core.probabilistic` — the common ``⟨Q, w⟩`` machinery;
* :mod:`repro.core.epsilon_intersecting` — ε-intersecting systems and the
  ``R(n, ℓ√n)`` construction (Section 3);
* :mod:`repro.core.dissemination` — (b,ε)-dissemination systems (Section 4);
* :mod:`repro.core.masking` — (b,ε)-masking systems ``Rk(n, q)`` (Section 5);
* :mod:`repro.core.measures` — δ-high-quality quorums and the probabilistic
  fault tolerance / failure probability (Definitions 3.4-3.8);
* :mod:`repro.core.bounds` — the load lower bounds (Theorems 3.9 and 5.5)
  and the strict bounds of Table 1;
* :mod:`repro.core.calibration` — smallest quorum size achieving a target ε
  (how Tables 2-4 choose ``ℓ``).
"""

from repro.core.strategy import (
    AccessStrategy,
    ExplicitStrategy,
    UniformSubsetStrategy,
)
from repro.core.probabilistic import ProbabilisticQuorumSystem
from repro.core.epsilon_intersecting import (
    EpsilonIntersectingSystem,
    UniformEpsilonIntersectingSystem,
)
from repro.core.dissemination import ProbabilisticDisseminationSystem
from repro.core.masking import ProbabilisticMaskingSystem
from repro.core.measures import (
    high_quality_quorums,
    pairwise_intersection_probability,
    probabilistic_fault_tolerance,
    probabilistic_failure_probability,
)
from repro.core.bounds import (
    corollary_3_12_load_bound,
    masking_load_lower_bound,
    probabilistic_load_lower_bound,
    strict_load_lower_bound,
    strict_resilience_bound,
    table1_bounds,
)
from repro.core.calibration import (
    ell_for_quorum_size,
    minimal_quorum_size_for_dissemination,
    minimal_quorum_size_for_epsilon,
    minimal_quorum_size_for_masking,
)

__all__ = [
    "AccessStrategy",
    "UniformSubsetStrategy",
    "ExplicitStrategy",
    "ProbabilisticQuorumSystem",
    "EpsilonIntersectingSystem",
    "UniformEpsilonIntersectingSystem",
    "ProbabilisticDisseminationSystem",
    "ProbabilisticMaskingSystem",
    "high_quality_quorums",
    "pairwise_intersection_probability",
    "probabilistic_fault_tolerance",
    "probabilistic_failure_probability",
    "probabilistic_load_lower_bound",
    "corollary_3_12_load_bound",
    "masking_load_lower_bound",
    "strict_load_lower_bound",
    "strict_resilience_bound",
    "table1_bounds",
    "minimal_quorum_size_for_epsilon",
    "minimal_quorum_size_for_dissemination",
    "minimal_quorum_size_for_masking",
    "ell_for_quorum_size",
]
