"""Strict quorum systems: the classical substrate the paper builds on.

This subpackage implements the *strict* quorum systems of Section 2 of the
paper, which serve both as baselines for the evaluation (threshold and grid
systems in Tables 2-4 and Figures 1-3) and as the conceptual substrate that
the probabilistic constructions of :mod:`repro.core` relax.

Contents:

* :mod:`repro.quorum.base` — the :class:`~repro.quorum.base.QuorumSystem`
  abstraction and explicit (enumerated) systems;
* :mod:`repro.quorum.threshold` — majority and threshold systems;
* :mod:`repro.quorum.grid` — Maekawa grid systems and their Byzantine
  (dissemination / masking) variants;
* :mod:`repro.quorum.byzantine` — strict b-dissemination and b-masking
  threshold systems of Malkhi and Reiter;
* :mod:`repro.quorum.measures` — load (LP-optimal), fault tolerance (exact
  minimum hitting set) and failure probability of explicit systems;
* :mod:`repro.quorum.verification` — property checking.
"""

from repro.quorum.base import ExplicitQuorumSystem, QuorumSystem
from repro.quorum.byzantine import (
    ThresholdDisseminationQuorumSystem,
    ThresholdMaskingQuorumSystem,
)
from repro.quorum.grid import (
    ByzantineGridQuorumSystem,
    GridDisseminationQuorumSystem,
    GridMaskingQuorumSystem,
    GridQuorumSystem,
)
from repro.quorum.measures import (
    fault_tolerance_exact,
    load_of_strategy,
    minimum_hitting_set,
    optimal_load,
)
from repro.quorum.probe import (
    GreedyProbeStrategy,
    ProbeResult,
    UniformProbeStrategy,
    expected_probes_uniform,
    oracle_from_alive_set,
)
from repro.quorum.threshold import MajorityQuorumSystem, ThresholdQuorumSystem
from repro.quorum.verification import (
    verify_dissemination_property,
    verify_intersection_property,
    verify_masking_property,
)

__all__ = [
    "QuorumSystem",
    "ExplicitQuorumSystem",
    "MajorityQuorumSystem",
    "ThresholdQuorumSystem",
    "GridQuorumSystem",
    "ByzantineGridQuorumSystem",
    "GridDisseminationQuorumSystem",
    "GridMaskingQuorumSystem",
    "ThresholdDisseminationQuorumSystem",
    "ThresholdMaskingQuorumSystem",
    "optimal_load",
    "load_of_strategy",
    "fault_tolerance_exact",
    "minimum_hitting_set",
    "verify_intersection_property",
    "verify_dissemination_property",
    "verify_masking_property",
    "UniformProbeStrategy",
    "GreedyProbeStrategy",
    "ProbeResult",
    "expected_probes_uniform",
    "oracle_from_alive_set",
]
