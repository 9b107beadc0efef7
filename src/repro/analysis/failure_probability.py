"""Crash failure probabilities of quorum systems (Definition 2.6 / 3.8).

The failure probability ``Fp`` of a quorum system is the probability that
*every* quorum contains at least one crashed server, when servers crash
independently with probability ``p``.  For the uniform constructions of the
paper and for threshold systems this reduces to a binomial tail; for grid
systems an exact inclusion-exclusion formula is used; a Monte-Carlo fallback
covers arbitrary explicit systems.

This module also produces the two reference curves of Figures 1-3:

* the strict-quorum lower bound, formed (footnote 3 of the paper) as the
  minimum of the majority system's failure probability (best strict system
  for ``p < 1/2``) and the singleton's failure probability ``p`` (best for
  ``p >= 1/2``);
* the "threshold" strict constructions whose quorum sizes are
  ``⌈(n+1)/2⌉``, ``⌈(n+b+1)/2⌉`` and ``⌈(n+2b+1)/2⌉`` for the plain,
  dissemination and masking cases respectively.
"""

from __future__ import annotations

import math
import random
from functools import lru_cache
from typing import Iterable, List, Sequence, Tuple

import numpy as np

from repro.analysis.combinatorics import binomial, binomial_sf
from repro.types import FailureCurvePoint


def _validate_probability(p: float) -> None:
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"crash probability must lie in [0, 1], got {p}")


# ---------------------------------------------------------------------------
# Threshold-style systems (including the paper's uniform constructions)
# ---------------------------------------------------------------------------


@lru_cache(maxsize=1 << 16)
def crash_failure_probability_uniform(n: int, quorum_size: int, p: float) -> float:
    """Exact ``Fp`` of a system whose quorums are *all* subsets of size ``q``.

    The system ``R(n, q)`` is disabled exactly when fewer than ``q`` servers
    remain alive, i.e. when more than ``n - q`` servers crash, so
    ``Fp = P(Bin(n, p) > n - q)``.
    """
    if n <= 0:
        raise ValueError(f"universe size must be positive, got {n}")
    if not 0 < quorum_size <= n:
        raise ValueError(f"quorum size must lie in (0, {n}], got {quorum_size}")
    _validate_probability(p)
    return binomial_sf(n - quorum_size, n, p)


def threshold_failure_probability(n: int, quorum_size: int, p: float) -> float:
    """Exact ``Fp`` of the strict threshold system with quorums of size ``m``.

    The threshold system's quorums are every subset of size ``m`` with
    ``m > n/2`` (so that any two intersect); it is disabled exactly when
    fewer than ``m`` servers survive.  Numerically this is the same binomial
    tail as :func:`crash_failure_probability_uniform`; the separate name
    keeps call sites readable (strict baseline vs. probabilistic
    construction).
    """
    return crash_failure_probability_uniform(n, quorum_size, p)


def majority_failure_probability(n: int, p: float) -> float:
    """``Fp`` of the simple majority system (quorum size ``⌈(n+1)/2⌉``)."""
    quorum_size = math.ceil((n + 1) / 2)
    return threshold_failure_probability(n, quorum_size, p)


def singleton_failure_probability(p: float) -> float:
    """``Fp`` of the singleton system (one server): simply ``p``."""
    _validate_probability(p)
    return p


def strict_lower_bound(n: int, p: float) -> float:
    """Lower bound on ``Fp`` over *all* strict quorum systems of ``<= n`` servers.

    Peleg and Wool [PW95] show that for ``p < 1/2`` no strict system beats
    the majority system asymptotically and that for ``p >= 1/2`` every strict
    system has ``Fp >= p`` (achieved by the singleton).  Following footnote 3
    of the paper, the reference curve in Figures 1-3 is the pointwise minimum
    of those two curves.
    """
    return min(majority_failure_probability(n, p), singleton_failure_probability(p))


def strict_lower_bound_curve(n: int, ps: Iterable[float]) -> List[FailureCurvePoint]:
    """The strict lower-bound curve evaluated on a grid of crash probabilities."""
    return [FailureCurvePoint(p=p, failure_probability=strict_lower_bound(n, p)) for p in ps]


def failure_curve_uniform(
    n: int, quorum_size: int, ps: Iterable[float]
) -> List[FailureCurvePoint]:
    """Failure-probability curve of ``R(n, q)`` over a grid of ``p`` values."""
    return [
        FailureCurvePoint(
            p=p, failure_probability=crash_failure_probability_uniform(n, quorum_size, p)
        )
        for p in ps
    ]


# ---------------------------------------------------------------------------
# Grid systems
# ---------------------------------------------------------------------------


@lru_cache(maxsize=1 << 14)
def grid_failure_probability(rows: int, cols: int, p: float) -> float:
    """Exact ``Fp`` of the Maekawa grid on a ``rows x cols`` array of servers.

    A grid quorum is one full row plus one full column, so a live quorum
    exists iff some row is fully alive *and* some column is fully alive.  By
    inclusion-exclusion over the sets of fully-alive rows/columns,

    ``P(no full row ∧ no full col)
        = Σ_{i,j} (-1)^{i+j} C(r,i) C(c,j) s^{ic + jr - ij}``

    with ``s = 1 - p``, and ``Fp = P(no full row) + P(no full col) -
    P(no full row ∧ no full col)`` follows from de Morgan.
    """
    if rows <= 0 or cols <= 0:
        raise ValueError(f"grid dimensions must be positive, got {rows}x{cols}")
    _validate_probability(p)
    s = 1.0 - p
    p_no_row = (1.0 - s ** cols) ** rows
    p_no_col = (1.0 - s ** rows) ** cols
    terms = []
    for i in range(rows + 1):
        for j in range(cols + 1):
            sign = -1.0 if (i + j) % 2 else 1.0
            covered = i * cols + j * rows - i * j
            terms.append(sign * binomial(rows, i) * binomial(cols, j) * s ** covered)
    p_no_row_and_no_col = math.fsum(terms)
    failure = p_no_row + p_no_col - p_no_row_and_no_col
    return min(1.0, max(0.0, failure))


# ---------------------------------------------------------------------------
# Monte-Carlo fallback for explicit systems
# ---------------------------------------------------------------------------


def monte_carlo_failure_probability(
    quorums: Sequence[frozenset],
    n: int,
    p: float,
    trials: int = 20_000,
    seed: int | None = 0,
    engine: str = "sequential",
    chunk_size: int = 8192,
) -> float:
    """Monte-Carlo estimate of ``Fp`` for an arbitrary explicit set system.

    Each trial crashes every server independently with probability ``p`` and
    checks whether any quorum survives intact.  Intended for explicit systems
    whose structure admits no closed form (e.g. an ``ExplicitQuorumSystem``);
    threshold and grid systems should use the exact functions above.

    ``engine="batch"`` draws crash masks for a whole chunk of trials at once
    and counts each quorum's dead members with one integer matrix product;
    ``engine="sequential"`` is the per-trial oracle (and the default, so
    seeded callers keep their exact historical estimates).
    """
    if n <= 0:
        raise ValueError(f"universe size must be positive, got {n}")
    if trials <= 0:
        raise ValueError(f"trial count must be positive, got {trials}")
    if not quorums:
        raise ValueError("cannot estimate the failure probability of an empty system")
    _validate_probability(p)
    if engine == "batch":
        return _batch_failure_probability(quorums, n, p, trials, seed, chunk_size)
    if engine != "sequential":
        raise ValueError(f"unknown engine {engine!r}; expected 'sequential' or 'batch'")
    rng = random.Random(seed)
    failures = 0
    quorum_list: List[Tuple[int, ...]] = [tuple(sorted(q)) for q in quorums]
    for _ in range(trials):
        alive = [rng.random() >= p for _ in range(n)]
        if not any(all(alive[s] for s in q) for q in quorum_list):
            failures += 1
    return failures / trials


def _batch_failure_probability(
    quorums: Sequence[frozenset],
    n: int,
    p: float,
    trials: int,
    seed: int | None,
    chunk_size: int,
) -> float:
    """Vectorised ``Fp`` estimate: a quorum survives iff it has zero dead members."""
    from repro.quorum.base import membership_matrix
    from repro.rngs import chunked_substreams

    member = membership_matrix(quorums, n).astype(np.int32)
    failures = 0
    for generator, size in chunked_substreams(seed, trials, chunk_size):
        dead = (generator.random((size, n)) < p).astype(np.int32)
        dead_per_quorum = dead @ member.T
        failures += int((dead_per_quorum > 0).all(axis=1).sum())
    return failures / trials
