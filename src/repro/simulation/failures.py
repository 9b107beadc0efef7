"""Failure injection: crash sets and Byzantine set selection.

A :class:`FailurePlan` describes, declaratively, which servers misbehave and
how.  The cluster applies the plan once, when it is constructed; a run that
needs a server to fail or come back mid-history calls
:meth:`~repro.simulation.cluster.Cluster.crash` /
:meth:`~repro.simulation.cluster.Cluster.recover` between operations.
Plans are the single knob the Monte-Carlo harness, the examples and the
benchmark workloads use to stress the protocols, so keeping them
declarative keeps the experiment configurations readable.

A :class:`FailureModel` sits one level up: it is a *distribution* over
failure plans, and the only place plans are sampled.  The sequential Monte-Carlo engine draws one
:class:`FailurePlan` from it per trial (``model.sample_plan_for(n, rng)``),
while the batched engine draws the whole batch at once as boolean server
masks (:class:`BatchFailureMasks`) without materialising per-trial plan
objects.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import (
    Any,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    Mapping,
    Tuple,
)

import numpy as np

from repro.exceptions import ConfigurationError
from repro.quorum.base import sample_subset_mask
from repro.simulation.server import (
    ByzantineForgeBehavior,
    ByzantineReplayBehavior,
    ByzantineSilentBehavior,
    GrayBehavior,
    ServerBehavior,
)
from repro.types import ServerId


class _FrozenBehaviorMap(Mapping):
    """An immutable ``{server_id: behaviour}`` mapping.

    :class:`FailurePlan` is frozen, so its behaviour assignment must be
    too — a plain dict would let one trial's mutation leak into every later
    trial sharing the plan.  The map pickles as a plain dict (plans ride
    inside scenario payloads across the multi-process deployment boundary)
    and compares as one, but offers no mutation surface.
    """

    __slots__ = ("_data",)

    def __init__(self, data: Mapping[ServerId, ServerBehavior]) -> None:
        self._data: Dict[ServerId, ServerBehavior] = dict(data)

    def __getitem__(self, key: ServerId) -> ServerBehavior:
        return self._data[key]

    def __iter__(self) -> Iterator[ServerId]:
        return iter(self._data)

    def __len__(self) -> int:
        return len(self._data)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, _FrozenBehaviorMap):
            return self._data == other._data
        if isinstance(other, Mapping):
            return self._data == dict(other)
        return NotImplemented

    def __reduce__(self):
        return (_FrozenBehaviorMap, (self._data,))

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return f"_FrozenBehaviorMap({self._data!r})"


@dataclass(frozen=True)
class FailurePlan:
    """A declarative, immutable description of which servers fail and how.

    The plan is frozen end to end — ``crashed`` is a frozenset and
    ``byzantine`` an immutable mapping — because plan factories
    and static scenarios share one plan object across many trials; with a
    mutable plan, a trial that (even accidentally) edited the behaviour
    table would corrupt every subsequent trial.  Per-trial *state* isolation
    is handled separately: appliers call
    :meth:`~repro.simulation.server.ServerBehavior.for_trial` on each
    behaviour, so stateful behaviours (replay, gray) get a fresh instance
    per trial while the plan itself never changes.

    Attributes
    ----------
    crashed:
        Servers that are crashed from the start.
    byzantine:
        Mapping from server id to the behaviour override it runs.  Despite
        the (historical) name this may include benign overrides such as
        :class:`~repro.simulation.server.GrayBehavior`; the
        :attr:`byzantine_servers` property filters by each behaviour's
        ``byzantine`` flag.
    shuffle_delivery:
        When set, quorum RPCs contact servers in a randomly shuffled order
        instead of the quorum's canonical order (the message-reordering
        adversary).  Outcome classification must be order-invariant, which
        is exactly what this knob lets the equivalence tests assert.
    """

    crashed: FrozenSet[ServerId] = frozenset()
    byzantine: Mapping[ServerId, ServerBehavior] = field(default_factory=dict)
    shuffle_delivery: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "crashed", frozenset(self.crashed))
        if not isinstance(self.byzantine, _FrozenBehaviorMap):
            object.__setattr__(self, "byzantine", _FrozenBehaviorMap(self.byzantine))
        overlap = set(self.crashed) & set(self.byzantine)
        if overlap:
            raise ConfigurationError(
                f"servers {sorted(overlap)} cannot be both crashed and Byzantine"
            )

    @property
    def byzantine_servers(self) -> FrozenSet[ServerId]:
        """Server ids whose override is actually Byzantine (gray nodes are not)."""
        return frozenset(
            server for server, behavior in self.byzantine.items() if behavior.byzantine
        )

    @property
    def faulty_servers(self) -> FrozenSet[ServerId]:
        """All initially degraded servers (crashed or running any override).

        Deliberately conservative — it includes benign overrides like gray
        nodes — because its callers (churn selection, liveness accounting)
        need the set of servers that cannot be relied on to answer.
        """
        return frozenset(self.crashed) | frozenset(self.byzantine)

    def describe(self) -> str:
        """One-line summary used in experiment logs."""
        return (
            f"FailurePlan(crashed={len(self.crashed)}, byzantine={len(self.byzantine)}"
            + (", shuffled" if self.shuffle_delivery else "")
            + ")"
        )


# ---------------------------------------------------------------------------
# Failure models: distributions over failure plans
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BatchFailureMasks:
    """One batch of sampled failures as boolean ``(trials, n)`` server masks.

    Each mask marks, per trial, which servers run the corresponding
    behaviour; a server is marked in at most one mask.  The forger fields
    carry the (shared) fabricated value/timestamp of colluding forgers so
    the batched read classification can rank the forgery against honest
    timestamps without touching server objects.
    """

    crashed: np.ndarray
    silent: np.ndarray
    forgers: np.ndarray
    replay: np.ndarray
    fabricated_value: Any = None
    fabricated_timestamp: Any = None

    @property
    def byzantine(self) -> np.ndarray:
        """Servers running any Byzantine behaviour."""
        return self.silent | self.forgers | self.replay

    @property
    def responsive_storers(self) -> np.ndarray:
        """Servers that store honest writes and answer reads with them.

        Correct servers do both; replay servers accept writes and answer
        (albeit with their first-seen value); crashed, silent and forging
        servers either say nothing or discard the data.
        """
        return ~(self.crashed | self.silent | self.forgers)


@dataclass(frozen=True)
class FailureModel:
    """A declarative distribution over :class:`FailurePlan` draws.

    The model is the one failure vocabulary: it describes the *randomised*
    experiment, :meth:`sample_plan_for` draws one :class:`FailurePlan` from
    it (``FailureModel.random_crashes(5).sample_plan_for(n, rng)``), and
    :meth:`sample_masks` draws thousands of trials' failures as boolean
    masks in a single vectorised call for the batched Monte-Carlo engine.
    One model drives both engines — that is what the batch-vs-sequential
    equivalence tests rely on.
    """

    kind: str = "none"
    p: float = 0.0
    count: int = 0
    fabricated_value: Any = None
    fabricated_timestamp: Any = None
    targets: Tuple[ServerId, ...] = ()

    _KINDS = (
        "none",
        "independent_crashes",
        "random_crashes",
        "random_byzantine",
        "colluding_forgers",
        "replay_attack",
        # -- the adversary fleet (PR 10) ------------------------------------
        "targeted_partition",
        "gray_nodes",
        "message_reordering",
        "timestamp_forging_clique",
    )

    #: Kinds whose count applies to probabilistic per-request behaviour too.
    _COUNT_KINDS = (
        "random_crashes",
        "random_byzantine",
        "colluding_forgers",
        "replay_attack",
        "gray_nodes",
        "timestamp_forging_clique",
    )

    def __post_init__(self) -> None:
        if self.kind not in self._KINDS:
            raise ConfigurationError(
                f"unknown failure model kind {self.kind!r}; expected one of {self._KINDS}"
            )
        if self.kind in ("independent_crashes", "gray_nodes") and not 0.0 <= self.p <= 1.0:
            raise ConfigurationError(f"failure probability must lie in [0, 1], got {self.p}")
        if self.kind in self._COUNT_KINDS and self.count < 0:
            raise ConfigurationError(f"failure count must be non-negative, got {self.count}")
        if self.kind == "targeted_partition":
            object.__setattr__(self, "targets", tuple(sorted(set(self.targets))))
            if any(server < 0 for server in self.targets):
                raise ConfigurationError(
                    f"partition targets must be non-negative server ids, got {self.targets}"
                )

    # -- constructors -------------------------------------------------------------

    @classmethod
    def none(cls) -> "FailureModel":
        """No failures in any trial."""
        return cls(kind="none")

    @classmethod
    def independent_crashes(cls, p: float) -> "FailureModel":
        """Each server crashes independently with probability ``p`` per trial."""
        return cls(kind="independent_crashes", p=p)

    @classmethod
    def random_crashes(cls, count: int) -> "FailureModel":
        """``count`` uniformly random servers crash in every trial."""
        return cls(kind="random_crashes", count=count)

    @classmethod
    def random_byzantine(cls, count: int) -> "FailureModel":
        """``count`` uniformly random servers run the silent Byzantine behaviour."""
        return cls(kind="random_byzantine", count=count)

    @classmethod
    def colluding_forgers(
        cls, count: int, fabricated_value: Any, fabricated_timestamp: Any
    ) -> "FailureModel":
        """``count`` uniformly random servers forge the same value per trial."""
        return cls(
            kind="colluding_forgers",
            count=count,
            fabricated_value=fabricated_value,
            fabricated_timestamp=fabricated_timestamp,
        )

    @classmethod
    def replay_attack(cls, count: int) -> "FailureModel":
        """``count`` uniformly random servers serve stale but once-valid data."""
        return cls(kind="replay_attack", count=count)

    # -- the adversary fleet ------------------------------------------------------

    @classmethod
    def targeted_partition(cls, targets: Iterable[ServerId]) -> "FailureModel":
        """A *fixed* set of servers unreachable from clients in every trial.

        Unlike ``random_crashes`` the adversary picks the victims — e.g. a
        whole canonical quorum — which is the worst case for availability
        that uniform sampling essentially never draws.
        """
        return cls(kind="targeted_partition", targets=tuple(targets))

    @classmethod
    def gray_nodes(cls, count: int, drop_p: float) -> "FailureModel":
        """``count`` random gray servers, each losing messages w.p. ``drop_p``."""
        return cls(kind="gray_nodes", count=count, p=drop_p)

    @classmethod
    def message_reordering(cls) -> "FailureModel":
        """No faulty servers, but quorum RPCs land in adversarially shuffled order.

        Outcome classification must be delivery-order invariant; this model
        lets the equivalence suite assert that end to end on every layer.
        """
        return cls(kind="message_reordering")

    @classmethod
    def timestamp_forging_clique(
        cls, count: int, fabricated_value: Any, fabricated_timestamp: Any
    ) -> "FailureModel":
        """``count`` colluding forgers using an *honest-shaped* timestamp.

        ``colluding_forgers`` traditionally forges ``Timestamp.forged_maximum()``
        — absurdly large, so a defence that merely sanity-checked timestamp
        magnitude would (wrongly) appear sufficient.  The clique instead
        forges a plausible ``Timestamp(counter, writer_id)`` that may tie or
        barely exceed honest timestamps, which is precisely the adversary
        the masking threshold (not any magnitude filter) must defeat.
        """
        return cls(
            kind="timestamp_forging_clique",
            count=count,
            fabricated_value=fabricated_value,
            fabricated_timestamp=fabricated_timestamp,
        )

    @property
    def byzantine_count(self) -> int:
        """How many Byzantine servers every sampled plan contains.

        Crash-only models (``none``, partitions, reordering) inject zero;
        gray nodes are benign; the Byzantine kinds inject exactly ``count``
        per trial.  Scenario validation compares this against the read
        protocol's declared tolerance ``b``.
        """
        if self.kind in (
            "random_byzantine",
            "colluding_forgers",
            "replay_attack",
            "timestamp_forging_clique",
        ):
            return self.count
        return 0

    @property
    def forges_values(self) -> bool:
        """Whether sampled plans contain servers fabricating values."""
        return self.kind in ("colluding_forgers", "timestamp_forging_clique")

    # -- sequential bridge --------------------------------------------------------

    def _check_universe(self, n: int) -> None:
        """Refuse a universe of ``n`` servers this model cannot be drawn over."""
        if n < 1:
            raise ConfigurationError(f"universe size must be positive, got {n}")
        if self.kind in self._COUNT_KINDS and self.count > n:
            raise ConfigurationError(f"failure count must lie in [0, {n}], got {self.count}")
        for server in self.targets:
            if server >= n:
                raise ConfigurationError(
                    f"partition target {server} outside the universe of size {n}"
                )

    def sample_plan_for(self, n: int, rng: random.Random) -> FailurePlan:
        """Draw one concrete plan over a universe of ``n`` servers.

        A partition of the clients away from some servers lowers to a crash
        set: it is observationally a crash for the access protocols, and
        every execution layer implements crashes identically.
        """
        self._check_universe(n)
        kind = self.kind
        if kind == "none":
            return FailurePlan()
        if kind == "message_reordering":
            return FailurePlan(shuffle_delivery=True)
        if kind == "targeted_partition":
            return FailurePlan(crashed=frozenset(self.targets))
        if kind == "independent_crashes":
            return FailurePlan(crashed=frozenset(s for s in range(n) if rng.random() < self.p))
        chosen = rng.sample(range(n), self.count)
        if kind == "random_crashes":
            return FailurePlan(crashed=frozenset(chosen))
        if kind == "gray_nodes":
            return FailurePlan(
                byzantine={s: GrayBehavior(self.p, seed=rng.getrandbits(32)) for s in chosen}
            )
        # One behaviour per server, so stateful ones (replay) share nothing.
        if kind == "random_byzantine":
            return FailurePlan(byzantine={s: ByzantineSilentBehavior() for s in chosen})
        if kind == "replay_attack":
            return FailurePlan(byzantine={s: ByzantineReplayBehavior() for s in chosen})
        # Colluding forgers, honest-shaped or not, all tell the same story.
        value, timestamp = self.fabricated_value, self.fabricated_timestamp
        return FailurePlan(byzantine={s: ByzantineForgeBehavior(value, timestamp) for s in chosen})

    # -- batched sampling ---------------------------------------------------------

    def sample_masks(self, n: int, trials: int, generator: np.random.Generator) -> BatchFailureMasks:
        """Draw a whole batch of failures as boolean ``(trials, n)`` masks."""
        self._check_universe(n)
        if trials < 0:
            raise ConfigurationError(f"trial count must be non-negative, got {trials}")
        empty = np.zeros((trials, n), dtype=bool)
        crashed = silent = forgers = replay = empty
        if self.kind == "independent_crashes":
            crashed = generator.random((trials, n)) < self.p
        elif self.kind == "targeted_partition":
            crashed = np.zeros((trials, n), dtype=bool)
            if self.targets:
                crashed[:, list(self.targets)] = True
        elif self.kind not in ("none", "message_reordering"):
            chosen = sample_subset_mask(n, self.count, trials, generator)
            if self.count == n:
                # Failure masks draw a rank matrix for any count > 0; seeded runs rely on it.
                generator.random((trials, n))
            if self.kind == "random_crashes":
                crashed = chosen
            elif self.kind == "random_byzantine":
                silent = chosen
            elif self.kind in ("colluding_forgers", "timestamp_forging_clique"):
                forgers = chosen
            elif self.kind == "gray_nodes":
                # A gray server contributes an honest reply iff neither the
                # write nor the read towards it is dropped — probability
                # (1 - p)^2 — and is otherwise indistinguishable from a
                # crashed server within a single write/read trial, so the
                # batch engine folds gray into the crash mask with the
                # complementary per-trial probability.  (Multi-operation
                # batch kernels fence this kind off; see batch.py.)
                effective_p = 1.0 - (1.0 - self.p) ** 2
                unlucky = generator.random((trials, n)) < effective_p
                crashed = chosen & unlucky
            else:
                replay = chosen
        return BatchFailureMasks(
            crashed=crashed,
            silent=silent,
            forgers=forgers,
            replay=replay,
            fabricated_value=self.fabricated_value,
            fabricated_timestamp=self.fabricated_timestamp,
        )

    def describe(self) -> str:
        """One-line summary used in experiment logs."""
        if self.kind in ("none", "message_reordering"):
            return f"FailureModel({self.kind})"
        if self.kind == "independent_crashes":
            return f"FailureModel(independent_crashes, p={self.p})"
        if self.kind == "targeted_partition":
            return f"FailureModel(targeted_partition, targets={list(self.targets)})"
        if self.kind == "gray_nodes":
            return f"FailureModel(gray_nodes, count={self.count}, drop_p={self.p})"
        return f"FailureModel({self.kind}, count={self.count})"
