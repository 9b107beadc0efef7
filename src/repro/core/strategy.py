"""Access strategies (Definition 2.3).

An access strategy ``w`` is a probability distribution over the quorums of a
set system; clients draw the quorum for each operation according to ``w``.
The paper emphasises (remark after Theorem 3.2) that the advertised
intersection probability of a probabilistic quorum system holds only when
clients actually follow the specified strategy, so the strategy is a
first-class object in this library: the protocol layer samples quorums
exclusively through it.

Two strategies cover everything the paper needs:

* :class:`UniformSubsetStrategy` — the uniform distribution over *all*
  subsets of a fixed size ``q``, which is the strategy of the ``R(n, q)``
  and ``Rk(n, q)`` constructions;
* :class:`ExplicitStrategy` — arbitrary weights over an explicit quorum
  list, used for hand-built systems and for the counterexamples of
  Section 3.2 (e.g. the artificially inflated system).
"""

from __future__ import annotations

import abc
import math
import random
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import ConfigurationError, StrategyError
from repro.quorum.base import (
    membership_matrix,
    sample_subset,
    sample_subset_batch,
    sample_subset_mask,
)
from repro.types import Quorum, make_quorum


class AccessStrategy(abc.ABC):
    """A probability distribution over quorums that clients sample from."""

    @abc.abstractmethod
    def sample(self, rng: Optional[random.Random] = None) -> Quorum:
        """Draw one quorum according to the strategy."""

    @abc.abstractmethod
    def expected_quorum_size(self) -> float:
        """``E[|Q|]`` under the strategy (used by the load bound of Theorem 3.9)."""

    def sample_block(
        self,
        count: int,
        rng: Optional[random.Random] = None,
        generator: Optional[np.random.Generator] = None,
    ) -> List[Tuple[int, ...]]:
        """Draw ``count`` i.i.d. quorums at once, as sorted server-id tuples.

        This is the block-sampling entry point of the service layer's quorum
        pool: a client refills its pool with one call instead of paying the
        per-operation sampling cost, and every pooled quorum is still an
        independent draw from the strategy — so the ε guarantee is untouched.
        The base implementation loops over :meth:`sample`; the two concrete
        strategies override it with vectorised draws sharing the same kernels
        as the batched Monte-Carlo engine.  Callers that refill repeatedly
        should pass a persistent NumPy ``generator`` so each refill skips the
        bit-generator construction cost.
        """
        if count < 0:
            raise ConfigurationError(f"block size must be non-negative, got {count}")
        if rng is None and generator is not None:
            # Keep seeded determinism for custom strategies driven through a
            # NumPy generator (mirrors sample_batch_membership's fallback).
            rng = random.Random(int(generator.integers(2**63)))
        return [tuple(sorted(self.sample(rng))) for _ in range(count)]

    def sample_batch_membership(
        self,
        n: int,
        trials: int,
        generator: np.random.Generator,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Draw ``trials`` quorums at once as a boolean ``(trials, n)`` matrix.

        Row ``t`` marks the servers of the ``t``-th sampled quorum.  This is
        the entry point of the batched Monte-Carlo engine; the base
        implementation falls back to one :meth:`sample` call per trial (so
        any custom strategy stays batch-compatible), while the two concrete
        strategies override it with fully vectorised draws.  ``out`` may name
        a previously returned ``(trials, n)`` boolean array to fill in place,
        letting chunked callers reuse one buffer across blocks instead of
        allocating per chunk.
        """
        if trials < 0:
            raise ConfigurationError(f"trial count must be non-negative, got {trials}")
        rng = random.Random(int(generator.integers(2**63)))
        member = membership_matrix([self.sample(rng) for _ in range(trials)], n)
        if out is not None and out.shape == member.shape and out.dtype == np.bool_:
            out[:] = member
            return out
        return member

    @abc.abstractmethod
    def describe(self) -> str:
        """Short human-readable description."""

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return self.describe()


class UniformSubsetStrategy(AccessStrategy):
    """Uniform distribution over all subsets of size ``q`` of ``{0..n-1}``.

    This is the access strategy ``w(Q) = 1 / C(n, q)`` of the paper's
    ``R(n, q)`` construction (Definition 3.13).
    """

    def __init__(self, n: int, quorum_size: int) -> None:
        if n < 1:
            raise ConfigurationError(f"universe size must be positive, got {n}")
        if not 0 < quorum_size <= n:
            raise ConfigurationError(
                f"quorum size must lie in (0, {n}], got {quorum_size}"
            )
        self._n = int(n)
        self._q = int(quorum_size)

    @property
    def n(self) -> int:
        """Universe size."""
        return self._n

    @property
    def quorum_size(self) -> int:
        """The fixed quorum size ``q``."""
        return self._q

    def sample(self, rng: Optional[random.Random] = None) -> Quorum:
        return sample_subset(self._n, self._q, rng)

    def sample_block(
        self,
        count: int,
        rng: Optional[random.Random] = None,
        generator: Optional[np.random.Generator] = None,
    ) -> List[Tuple[int, ...]]:
        """Vectorised block draw: rank one ``(count, n)`` uniform matrix.

        Uses :func:`repro.quorum.base.sample_subset_batch`, which picks the
        same sets from the same uniforms as the batch engine's mask kernel.
        """
        if count < 0:
            raise ConfigurationError(f"block size must be non-negative, got {count}")
        if count == 0:
            return []
        if generator is None:
            rng = rng or random.Random()
            generator = np.random.default_rng(rng.randrange(2**63))
        indices = sample_subset_batch(self._n, self._q, count, generator)
        indices.sort(axis=1)
        return [tuple(row) for row in indices.tolist()]

    def sample_batch_membership(
        self,
        n: int,
        trials: int,
        generator: np.random.Generator,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        if n != self._n:
            raise ConfigurationError(
                f"strategy is over {self._n} servers but the batch asked for {n}"
            )
        if out is not None and (out.shape != (trials, n) or out.dtype != np.bool_):
            out = None
        return sample_subset_mask(n, self._q, trials, generator, out=out)

    def expected_quorum_size(self) -> float:
        return float(self._q)

    def weight_of(self, quorum: Quorum) -> float:
        """``w(Q)``: ``1/C(n, q)`` if ``|Q| = q``, else 0."""
        if len(quorum) != self._q or not quorum <= frozenset(range(self._n)):
            return 0.0
        return 1.0 / math.comb(self._n, self._q)

    def per_server_load(self) -> float:
        """Load induced on every server: ``q / n`` (all servers are symmetric)."""
        return self._q / self._n

    def describe(self) -> str:
        return f"UniformSubsets(n={self._n}, q={self._q})"


class ExplicitStrategy(AccessStrategy):
    """Arbitrary weights over an explicit list of quorums.

    Parameters
    ----------
    quorums:
        The support of the strategy.
    weights:
        Non-negative weights, one per quorum.  They are normalised to sum to
        one; a zero total raises :class:`StrategyError`.  Omit to get the
        uniform distribution over the given quorums.
    """

    def __init__(
        self,
        quorums: Iterable[Iterable[int]],
        weights: Optional[Sequence[float]] = None,
    ) -> None:
        quorum_list = [make_quorum(q) for q in quorums]
        if not quorum_list:
            raise StrategyError("a strategy needs at least one quorum in its support")
        if any(not q for q in quorum_list):
            raise StrategyError("quorums must be non-empty")
        if weights is None:
            weight_list = [1.0] * len(quorum_list)
        else:
            weight_list = [float(w) for w in weights]
        if len(weight_list) != len(quorum_list):
            raise StrategyError(
                f"{len(weight_list)} weights supplied for {len(quorum_list)} quorums"
            )
        if any(w < 0 for w in weight_list):
            raise StrategyError("strategy weights must be non-negative")
        total = sum(weight_list)
        if total <= 0:
            raise StrategyError("strategy weights must not all be zero")
        self._quorums: Tuple[Quorum, ...] = tuple(quorum_list)
        self._weights: Tuple[float, ...] = tuple(w / total for w in weight_list)
        # Sorted-tuple view of the support, built lazily by sample_block.
        self._ordered_support: Optional[List[Tuple[int, ...]]] = None

    @property
    def quorums(self) -> Tuple[Quorum, ...]:
        """The support of the strategy."""
        return self._quorums

    @property
    def weights(self) -> Tuple[float, ...]:
        """The normalised weights (summing to one)."""
        return self._weights

    def sample(self, rng: Optional[random.Random] = None) -> Quorum:
        rng = rng or random.Random()
        return rng.choices(self._quorums, weights=self._weights, k=1)[0]

    def sample_block(
        self,
        count: int,
        rng: Optional[random.Random] = None,
        generator: Optional[np.random.Generator] = None,
    ) -> List[Tuple[int, ...]]:
        """Vectorised block draw over the explicit support."""
        if count < 0:
            raise ConfigurationError(f"block size must be non-negative, got {count}")
        if count == 0:
            return []
        if generator is not None:
            chosen = generator.choice(
                len(self._quorums), size=count, p=np.asarray(self._weights)
            ).tolist()
        else:
            rng = rng or random.Random()
            chosen = rng.choices(
                range(len(self._quorums)), weights=self._weights, k=count
            )
        if self._ordered_support is None:
            self._ordered_support = [tuple(sorted(q)) for q in self._quorums]
        ordered = self._ordered_support
        return [ordered[index] for index in chosen]

    def sample_batch_membership(
        self,
        n: int,
        trials: int,
        generator: np.random.Generator,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Vectorised draw: pick support indices, then gather membership rows."""
        if trials < 0:
            raise ConfigurationError(f"trial count must be non-negative, got {trials}")
        support = membership_matrix(self._quorums, n)
        chosen = generator.choice(len(self._quorums), size=trials, p=np.asarray(self._weights))
        if out is not None and out.shape == (trials, n) and out.dtype == np.bool_:
            np.take(support, chosen, axis=0, out=out)
            return out
        return support[chosen]

    def expected_quorum_size(self) -> float:
        return sum(len(q) * w for q, w in zip(self._quorums, self._weights))

    def weight_of(self, quorum: Quorum) -> float:
        """Total weight assigned to a quorum (0 if outside the support)."""
        target = frozenset(quorum)
        return sum(w for q, w in zip(self._quorums, self._weights) if q == target)

    def per_server_load(self, n: int) -> List[float]:
        """Load induced on each of the ``n`` servers (Definition 2.4)."""
        loads = [0.0] * n
        for quorum, weight in zip(self._quorums, self._weights):
            for server in quorum:
                if not 0 <= server < n:
                    raise ConfigurationError(
                        f"server {server} outside the universe of size {n}"
                    )
                loads[server] += weight
        return loads

    def load(self, n: int) -> float:
        """``L_w(Q) = max_u l_w(u)``."""
        loads = self.per_server_load(n)
        return max(loads) if loads else 0.0

    def restrict_to(self, quorums: Iterable[Quorum]) -> "ExplicitStrategy":
        """The restricted strategy ``w_r`` of Lemma 3.11 (renormalised on a subset)."""
        keep = set(frozenset(q) for q in quorums)
        kept = [(q, w) for q, w in zip(self._quorums, self._weights) if q in keep]
        if not kept:
            raise StrategyError("restriction would leave an empty support")
        return ExplicitStrategy([q for q, _ in kept], [w for _, w in kept])

    def describe(self) -> str:
        return f"Explicit(|support|={len(self._quorums)})"
