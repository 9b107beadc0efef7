"""Exact combinatorial primitives in log space.

The paper's constructions are analysed through binomial coefficients and the
hypergeometric distribution: the size of the overlap between two uniformly
random quorums of size ``q`` drawn from a universe of ``n`` servers is
hypergeometric, and the number of crashed servers under independent crashes
with probability ``p`` is binomial.  This module provides those primitives
exactly (up to floating point rounding) by working with log-factorials, so
that they remain usable for universes far larger than the ``n = 900`` used
in Section 6 of the paper.

All functions are pure and deterministic; they form the numerical foundation
for :mod:`repro.analysis.intersection` and
:mod:`repro.analysis.failure_probability`.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Iterable, List

import numpy as np

#: Cache bound for the distribution tails.  The calibration scans evaluate
#: the same (n, marked, draws) tails for many thresholds, and the estimator
#: inner loops re-query identical parameters across sweep points; a bounded
#: cache keeps those lookups O(1) without letting memory grow with the sweep.
_TAIL_CACHE_SIZE = 1 << 16


@lru_cache(maxsize=None)
def log_factorial(n: int) -> float:
    """Return ``ln(n!)`` using :func:`math.lgamma`.

    Parameters
    ----------
    n:
        A non-negative integer.

    Raises
    ------
    ValueError
        If ``n`` is negative.
    """
    if n < 0:
        raise ValueError(f"log_factorial requires n >= 0, got {n}")
    return math.lgamma(n + 1)


def log_binomial(n: int, k: int) -> float:
    """Return ``ln(C(n, k))``; ``-inf`` when the coefficient is zero.

    ``C(n, k)`` is zero when ``k < 0`` or ``k > n``; returning ``-inf`` for
    those cases lets callers sum probabilities without special-casing the
    boundaries of hypergeometric supports.
    """
    if n < 0:
        raise ValueError(f"log_binomial requires n >= 0, got n={n}")
    if k < 0 or k > n:
        return float("-inf")
    return log_factorial(n) - log_factorial(k) - log_factorial(n - k)


def binomial(n: int, k: int) -> int:
    """Return the exact integer binomial coefficient ``C(n, k)``."""
    if n < 0:
        raise ValueError(f"binomial requires n >= 0, got n={n}")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


@lru_cache(maxsize=64)
def log_factorial_table(n: int) -> np.ndarray:
    """Return ``[ln(0!), ln(1!), ..., ln(n!)]`` as a read-only array.

    The vectorised hypergeometric kernels replace per-cell ``lgamma``
    evaluations with three lookups into this table, which is what makes the
    calibration scans cheap.  Cached per ``n`` (one table per universe size).
    """
    if n < 0:
        raise ValueError(f"log_factorial_table requires n >= 0, got {n}")
    from scipy.special import gammaln

    table = gammaln(np.arange(n + 1, dtype=np.float64) + 1.0)
    table.setflags(write=False)
    return table


def log_binomial_grid(n_values, k_values) -> np.ndarray:
    """Vectorised ``ln(C(n, k))`` over broadcastable arrays.

    Entries with ``k < 0`` or ``k > n`` get ``-inf`` (a zero coefficient),
    mirroring :func:`log_binomial`, so hypergeometric grids can be summed
    without masking out the boundary of the support first.
    """
    from scipy.special import gammaln

    n_arr = np.asarray(n_values, dtype=np.float64)
    k_arr = np.asarray(k_values, dtype=np.float64)
    n_arr, k_arr = np.broadcast_arrays(n_arr, k_arr)
    valid = (k_arr >= 0.0) & (k_arr <= n_arr) & (n_arr >= 0.0)
    k_safe = np.where(valid, k_arr, 0.0)
    n_safe = np.where(n_arr >= 0.0, n_arr, 0.0)
    out = gammaln(n_safe + 1.0) - gammaln(k_safe + 1.0) - gammaln(n_safe - k_safe + 1.0)
    return np.where(valid, out, -np.inf)


def hypergeometric_pmf_grid(n: int, marked_values, draws: int) -> np.ndarray:
    """Pmf matrix of ``Hypergeom(n, m, draws)`` for several marked counts ``m``.

    Returns an array of shape ``(len(marked_values), draws + 1)`` whose row
    ``i`` is the pmf of ``Hypergeom(n, marked_values[i], draws)`` over
    ``k = 0..draws``.  This is the kernel of the exact masking-error
    computation, where the number of correct servers in the read quorum
    varies with the number of faulty ones.
    """
    _validate_hypergeometric(n, 0, draws)
    marked = np.asarray(marked_values, dtype=np.int64)
    if marked.size and (marked.min() < 0 or marked.max() > n):
        raise ValueError(f"marked counts must lie in [0, {n}]")
    lf = log_factorial_table(n)
    m = marked[:, None]
    k = np.arange(draws + 1, dtype=np.int64)[None, :]
    # Support: 0 <= k <= m and draws - k <= n - m.
    valid = (k <= m) & (k >= draws + m - n)
    mk = np.where(valid, m - k, 0)
    rest = np.where(valid, n - m - draws + k, 0)
    log_pmf = (
        lf[m] - lf[np.where(valid, k, 0)] - lf[mk]
        + lf[n - m] - lf[np.where(valid, draws - k, 0)] - lf[rest]
        - (lf[n] - lf[draws] - lf[n - draws])
    )
    return np.exp(np.where(valid, log_pmf, -np.inf))


def log_sum_exp(values: Iterable[float]) -> float:
    """Numerically stable ``ln(sum(exp(v)))`` over an iterable of log-values."""
    vals = [v for v in values if v != float("-inf")]
    if not vals:
        return float("-inf")
    m = max(vals)
    return m + math.log(sum(math.exp(v - m) for v in vals))


# ---------------------------------------------------------------------------
# Binomial distribution
# ---------------------------------------------------------------------------


def _validate_binomial(n: int, p: float) -> None:
    if n < 0:
        raise ValueError(f"binomial distribution requires n >= 0, got {n}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability must lie in [0, 1], got {p}")


def binomial_pmf(k: int, n: int, p: float) -> float:
    """Exact ``P(Bin(n, p) = k)``.

    Handles the degenerate cases ``p = 0`` and ``p = 1`` without evaluating
    ``log(0)``.
    """
    _validate_binomial(n, p)
    if k < 0 or k > n:
        return 0.0
    if p == 0.0:
        return 1.0 if k == 0 else 0.0
    if p == 1.0:
        return 1.0 if k == n else 0.0
    log_pmf = log_binomial(n, k) + k * math.log(p) + (n - k) * math.log1p(-p)
    return math.exp(log_pmf)


@lru_cache(maxsize=_TAIL_CACHE_SIZE)
def binomial_cdf(k: int, n: int, p: float) -> float:
    """Exact ``P(Bin(n, p) <= k)`` (memoised: pure in its arguments)."""
    _validate_binomial(n, p)
    if k < 0:
        return 0.0
    if k >= n:
        return 1.0
    # Sum the smaller tail for accuracy, then complement if needed.
    if k <= n // 2:
        total = sum(binomial_pmf(i, n, p) for i in range(0, k + 1))
        return min(1.0, total)
    upper = sum(binomial_pmf(i, n, p) for i in range(k + 1, n + 1))
    return max(0.0, 1.0 - upper)


@lru_cache(maxsize=_TAIL_CACHE_SIZE)
def binomial_sf(k: int, n: int, p: float) -> float:
    """Exact survival function ``P(Bin(n, p) > k)`` (memoised)."""
    _validate_binomial(n, p)
    if k < 0:
        return 1.0
    if k >= n:
        return 0.0
    if k >= n // 2:
        total = sum(binomial_pmf(i, n, p) for i in range(k + 1, n + 1))
        return min(1.0, total)
    return max(0.0, 1.0 - binomial_cdf(k, n, p))


# ---------------------------------------------------------------------------
# Hypergeometric distribution
# ---------------------------------------------------------------------------


def _validate_hypergeometric(n: int, marked: int, draws: int) -> None:
    if n < 0:
        raise ValueError(f"population size must be non-negative, got {n}")
    if not 0 <= marked <= n:
        raise ValueError(f"marked count must lie in [0, {n}], got {marked}")
    if not 0 <= draws <= n:
        raise ValueError(f"draw count must lie in [0, {n}], got {draws}")


def hypergeometric_support(n: int, marked: int, draws: int) -> range:
    """Return the support of ``Hypergeom(n, marked, draws)`` as a range."""
    _validate_hypergeometric(n, marked, draws)
    low = max(0, draws + marked - n)
    high = min(draws, marked)
    return range(low, high + 1)


def hypergeometric_pmf(k: int, n: int, marked: int, draws: int) -> float:
    """Exact ``P(X = k)`` where ``X ~ Hypergeom(n, marked, draws)``.

    ``X`` counts how many of the ``draws`` servers sampled without
    replacement from a universe of ``n`` fall inside a marked subset of size
    ``marked``.  In the paper this is ``|Q ∩ B|`` for a uniformly random
    quorum ``Q`` of size ``draws`` and a fixed set ``B``.
    """
    _validate_hypergeometric(n, marked, draws)
    if k < 0 or k > draws or k > marked or draws - k > n - marked:
        return 0.0
    log_pmf = (
        log_binomial(marked, k)
        + log_binomial(n - marked, draws - k)
        - log_binomial(n, draws)
    )
    return math.exp(log_pmf)


def hypergeometric_pmf_vector(n: int, marked: int, draws: int) -> List[float]:
    """Return the pmf of ``Hypergeom(n, marked, draws)`` over ``0..draws``."""
    return [hypergeometric_pmf(k, n, marked, draws) for k in range(draws + 1)]


@lru_cache(maxsize=_TAIL_CACHE_SIZE)
def hypergeometric_cdf(k: int, n: int, marked: int, draws: int) -> float:
    """Exact ``P(X <= k)`` for ``X ~ Hypergeom(n, marked, draws)`` (memoised)."""
    _validate_hypergeometric(n, marked, draws)
    support = hypergeometric_support(n, marked, draws)
    if k < support.start:
        return 0.0
    if k >= support.stop - 1:
        return 1.0
    total = sum(hypergeometric_pmf(i, n, marked, draws) for i in range(support.start, k + 1))
    return min(1.0, total)


@lru_cache(maxsize=_TAIL_CACHE_SIZE)
def hypergeometric_sf(k: int, n: int, marked: int, draws: int) -> float:
    """Exact ``P(X > k)`` for ``X ~ Hypergeom(n, marked, draws)`` (memoised)."""
    _validate_hypergeometric(n, marked, draws)
    support = hypergeometric_support(n, marked, draws)
    if k < support.start:
        return 1.0
    if k >= support.stop - 1:
        return 0.0
    total = sum(hypergeometric_pmf(i, n, marked, draws) for i in range(k + 1, support.stop))
    return min(1.0, total)


def hypergeometric_mean(n: int, marked: int, draws: int) -> float:
    """Mean of ``Hypergeom(n, marked, draws)``: ``draws * marked / n``.

    This is Eq. (13) of the paper with ``marked = b`` and ``draws = q``:
    ``E[|Q ∩ B|] = q b / n``.
    """
    _validate_hypergeometric(n, marked, draws)
    if n == 0:
        return 0.0
    return draws * marked / n


def hypergeometric_variance(n: int, marked: int, draws: int) -> float:
    """Variance of ``Hypergeom(n, marked, draws)``."""
    _validate_hypergeometric(n, marked, draws)
    if n <= 1:
        return 0.0
    frac = marked / n
    return draws * frac * (1.0 - frac) * (n - draws) / (n - 1)


def falling_factorial_ratio(n: int, c: int, i: int) -> float:
    """Return ``C(n - c, c - i) / C(n, c)`` exactly (in log space).

    Proposition 3.14 of the paper bounds this ratio by
    ``(c / n)^i ((n - c) / (n - i))^(c - i)``; the exact value is needed for
    the exact ε computations used in Tables 2-4.
    """
    if c < 0 or i < 0 or i > c:
        raise ValueError(f"invalid parameters n={n}, c={c}, i={i}")
    num = log_binomial(n - c, c - i)
    den = log_binomial(n, c)
    if num == float("-inf"):
        return 0.0
    return math.exp(num - den)


def proposition_3_14_bound(n: int, c: int, i: int) -> float:
    """The upper bound of Proposition 3.14: ``(c/n)^i ((n-c)/(n-i))^(c-i)``."""
    if n <= 0 or c < 0 or i < 0 or i > c or i >= n:
        raise ValueError(f"invalid parameters n={n}, c={c}, i={i}")
    if c > n:
        return 0.0
    return (c / n) ** i * ((n - c) / (n - i)) ** (c - i)
