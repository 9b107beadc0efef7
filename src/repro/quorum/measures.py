"""Exact quality measures of explicit quorum systems.

For a set system given by an explicit list of quorums this module computes
the three traditional measures of Section 2 exactly:

* **load** (Definition 2.4) — the minimum over access strategies of the
  maximum per-server access probability.  Finding the optimal strategy is a
  linear program: minimise ``z`` subject to ``Σ_Q w(Q) = 1``, ``w >= 0`` and
  ``Σ_{Q ∋ u} w(Q) <= z`` for every server ``u``.  We solve it with
  :func:`scipy.optimize.linprog`, imported on first use so that importing
  the library does not load SciPy.
* **fault tolerance** (Definition 2.5) — the size of a minimum hitting set
  (transversal) of the quorums, computed exactly by branch and bound with a
  greedy upper bound and an LP-free lower bound; exponential in the worst
  case but fast for the moderate explicit systems used in tests and
  examples.
* **failure probability** (Definition 2.6) — delegated to
  :mod:`repro.analysis.failure_probability` (exact where possible, else
  Monte Carlo).
"""

from __future__ import annotations

import random
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from repro.exceptions import ConfigurationError, StrategyError
from repro.quorum.base import membership_matrix
from repro.types import Quorum, ServerId


def _touched_servers(quorums: Sequence[Quorum]) -> Set[ServerId]:
    touched: Set[ServerId] = set()
    for quorum in quorums:
        touched |= quorum
    return touched




def load_of_strategy(
    quorums: Sequence[Quorum],
    weights: Sequence[float],
    n: int,
    empirical_trials: Optional[int] = None,
    seed: int = 0,
    engine: str = "batch",
) -> float:
    """Load induced by an explicit strategy ``w`` (Definition 2.4).

    ``L_w(Q) = max_u Σ_{Q ∋ u} w(Q)``.  The weights must form a probability
    distribution over the quorums.  The analytical value is computed as a
    weight-vector/membership-matrix product.

    With ``empirical_trials`` set, the load is instead *measured*: that many
    quorum accesses are drawn from the strategy and the busiest server's
    observed access fraction is returned.  ``engine="batch"`` draws them
    vectorised; ``engine="sequential"`` replays the object-by-object
    workload client (the oracle the batched path is tested against).
    """
    if len(quorums) != len(weights):
        raise StrategyError(
            f"strategy assigns {len(weights)} weights to {len(quorums)} quorums"
        )
    if not quorums:
        raise ConfigurationError("cannot compute the load of an empty system")
    if any(w < -1e-12 for w in weights):
        raise StrategyError("strategy weights must be non-negative")
    total = float(sum(weights))
    if abs(total - 1.0) > 1e-9:
        raise StrategyError(f"strategy weights must sum to 1, got {total}")
    if empirical_trials is not None:
        return _empirical_load(quorums, weights, n, empirical_trials, seed, engine)
    member = membership_matrix(quorums, n)
    per_server = np.asarray(weights, dtype=np.float64) @ member
    return float(per_server.max()) if n else 0.0


def _empirical_load(
    quorums: Sequence[Quorum],
    weights: Sequence[float],
    n: int,
    trials: int,
    seed: int,
    engine: str,
) -> float:
    """Measured load: busiest server's access fraction over sampled draws."""
    if trials <= 0:
        raise ConfigurationError(f"empirical trial count must be positive, got {trials}")
    if engine == "sequential":
        from repro.core.strategy import ExplicitStrategy
        from repro.simulation.client import WorkloadClient

        client = WorkloadClient(
            n, ExplicitStrategy(quorums, weights), random.Random(seed)
        )
        return client.run(trials).max_load
    if engine != "batch":
        raise ConfigurationError(
            f"unknown engine {engine!r}; expected 'sequential' or 'batch'"
        )
    member = membership_matrix(quorums, n)
    probabilities = np.asarray(weights, dtype=np.float64)
    probabilities = probabilities / probabilities.sum()
    generator = np.random.default_rng(np.random.SeedSequence(seed))
    drawn = generator.choice(len(quorums), size=trials, p=probabilities)
    draw_counts = np.bincount(drawn, minlength=len(quorums)).astype(np.float64)
    per_server = draw_counts @ member
    return float(per_server.max()) / trials


def _solve_load_lp(quorums: Sequence[Quorum], n: int):
    """Solve the load LP of Definition 2.4 and return SciPy's result.

    Variables are the quorum weights ``w_1 .. w_m`` plus the bound ``z``; the
    objective minimises ``z`` subject to each server's induced load being at
    most ``z`` and the weights forming a distribution.
    """
    from scipy.optimize import linprog

    quorum_list = [frozenset(q) for q in quorums]
    if not quorum_list:
        raise ConfigurationError("cannot compute the load of an empty system")
    m = len(quorum_list)
    # Objective: minimise z (the last variable).
    c = np.zeros(m + 1)
    c[m] = 1.0
    # Inequalities: for each server u, sum_{Q ∋ u} w_Q - z <= 0.
    rows: List[np.ndarray] = []
    for server in range(n):
        row = np.zeros(m + 1)
        involved = False
        for idx, quorum in enumerate(quorum_list):
            if server in quorum:
                row[idx] = 1.0
                involved = True
        if involved:
            row[m] = -1.0
            rows.append(row)
    a_ub = np.vstack(rows) if rows else None
    b_ub = np.zeros(len(rows)) if rows else None
    # Equality: weights sum to one.
    a_eq = np.zeros((1, m + 1))
    a_eq[0, :m] = 1.0
    b_eq = np.array([1.0])
    bounds = [(0.0, None)] * m + [(0.0, 1.0)]
    result = linprog(
        c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq, bounds=bounds, method="highs"
    )
    if not result.success:  # pragma: no cover - linprog is reliable on these LPs
        raise ConfigurationError(f"load LP failed to solve: {result.message}")
    return result


def optimal_load(quorums: Sequence[Quorum], n: int) -> float:
    """LP-optimal load ``L(Q) = min_w L_w(Q)`` (Definition 2.4)."""
    return float(_solve_load_lp(quorums, n).fun)


def optimal_strategy(quorums: Sequence[Quorum], n: int) -> Tuple[List[float], float]:
    """Return an optimal access strategy and the load it induces.

    Same LP as :func:`optimal_load`, but the weights are returned so that the
    protocol layer can enforce the load-optimal strategy (the paper stresses
    that the advertised ε is only achieved under the specified strategy).
    """
    result = _solve_load_lp(quorums, n)
    weights = [max(0.0, float(w)) for w in result.x[:-1]]
    total = sum(weights)
    weights = [w / total for w in weights]
    return weights, float(result.fun)


# ---------------------------------------------------------------------------
# Fault tolerance: minimum hitting set
# ---------------------------------------------------------------------------


def minimum_hitting_set(sets: Sequence[FrozenSet[int]]) -> FrozenSet[int]:
    """Exact minimum hitting set of a family of non-empty sets.

    Branch and bound: pick an uncovered set, branch on which of its elements
    joins the transversal, prune with a greedy upper bound and the trivial
    lower bound (number of pairwise-disjoint uncovered sets).  Exponential in
    the worst case, but the explicit systems in this library (grids, small
    voting systems, test fixtures) are tiny.
    """
    family = [frozenset(s) for s in sets]
    if not family:
        return frozenset()
    if any(not s for s in family):
        raise ConfigurationError("cannot hit an empty set")

    # Greedy upper bound.
    def greedy() -> Set[int]:
        remaining = list(family)
        chosen: Set[int] = set()
        while remaining:
            counts: Dict[int, int] = {}
            for s in remaining:
                for element in s:
                    counts[element] = counts.get(element, 0) + 1
            best = max(counts, key=lambda e: counts[e])
            chosen.add(best)
            remaining = [s for s in remaining if best not in s]
        return chosen

    best_solution: Set[int] = greedy()

    def disjoint_lower_bound(remaining: List[FrozenSet[int]]) -> int:
        bound = 0
        used: Set[int] = set()
        for s in sorted(remaining, key=len):
            if not (s & used):
                bound += 1
                used |= s
        return bound

    def branch(remaining: List[FrozenSet[int]], chosen: Set[int]) -> None:
        nonlocal best_solution
        if not remaining:
            if len(chosen) < len(best_solution):
                best_solution = set(chosen)
            return
        if len(chosen) + disjoint_lower_bound(remaining) >= len(best_solution):
            return
        # Branch on the smallest uncovered set for a tight branching factor.
        target = min(remaining, key=len)
        for element in sorted(target):
            new_remaining = [s for s in remaining if element not in s]
            chosen.add(element)
            branch(new_remaining, chosen)
            chosen.remove(element)

    branch(family, set())
    return frozenset(best_solution)


def fault_tolerance_exact(quorums: Sequence[Quorum], n: int) -> int:
    """Exact fault tolerance ``A(Q)``: size of a minimum transversal.

    ``A(Q)`` is the smallest number of servers whose removal leaves no intact
    quorum (Definition 2.5); the system survives any ``A(Q) - 1`` crashes.
    """
    quorum_list = [frozenset(q) for q in quorums]
    if not quorum_list:
        raise ConfigurationError("cannot compute the fault tolerance of an empty system")
    for quorum in quorum_list:
        if not quorum <= frozenset(range(n)):
            raise ConfigurationError(
                f"quorum {sorted(quorum)} is not contained in the universe of size {n}"
            )
    return len(minimum_hitting_set(quorum_list))


def per_server_loads(
    quorums: Sequence[Quorum], weights: Sequence[float], n: int
) -> List[float]:
    """Per-server induced loads ``l_w(u)`` under an explicit strategy."""
    if len(quorums) != len(weights):
        raise StrategyError(
            f"strategy assigns {len(weights)} weights to {len(quorums)} quorums"
        )
    member = membership_matrix(quorums, n)
    return (np.asarray(weights, dtype=np.float64) @ member).tolist()
