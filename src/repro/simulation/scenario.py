"""Declarative scenario descriptions consumed by both Monte-Carlo engines.

A :class:`ScenarioSpec` is the single description of one consistency
experiment: which quorum system (and therefore which of the paper's three
access protocols), which :class:`~repro.simulation.failures.FailureModel`,
and which workload (write history, gossip schedule, written value).  The
spec's :meth:`ScenarioSpec.read_rule` is the one place a scenario's read is
resolved — its vote threshold ``k`` and, for self-verifying data, its
signature scheme.  The sequential engine lowers a spec to register/cluster
objects via :meth:`ScenarioSpec.register_factory`, whose registers carry
that rule; the batched engine reads the same rule's threshold and
signedness and classifies trials with vectorised kernels.  One spec, two
independent execution semantics, which is what keeps the engines'
equivalence testable as new workloads are added.

The register kind defaults to ``"auto"``: a system exposing a masking
``read_threshold`` gets the Section 5 threshold read, a system declaring
:attr:`~repro.core.probabilistic.ProbabilisticQuorumSystem.signed_reads`
gets the signed Section 4 protocol, and everything else gets the benign
Section 3.1 register.  Forcing ``register_kind="plain"`` on a Byzantine
system is allowed (it models a reader that ignores the protocol's filter),
but ``"masking"`` requires a system that actually carries a threshold.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, TYPE_CHECKING

from repro.core.probabilistic import ProbabilisticQuorumSystem
from repro.exceptions import ConfigurationError
from repro.simulation.failures import FailureModel

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids circular imports
    from repro.protocol.selection import ReadRule
    from repro.protocol.variable import ProbabilisticRegister
    from repro.simulation.cluster import Cluster

#: Register kinds a spec can name; ``auto`` resolves from the system.
#: ``"write-back"`` is never auto-resolved: it is the explicit read-repair
#: variant of the plain protocol (readers repair a quorum after selecting).
REGISTER_KINDS = ("auto", "plain", "dissemination", "masking", "write-back")


@dataclass(frozen=True)
class AntiEntropySpec:
    """The scenario's background anti-entropy (§1.1 diffusion), declaratively.

    One description serves every execution layer:

    * the **sequential engine** runs ``rounds`` push-gossip rounds of a
      :class:`~repro.simulation.diffusion.DiffusionEngine` with ``fanout``
      between the write settling and the read;
    * the **batch engine** runs ``rounds`` rounds of the vectorised
      :func:`~repro.simulation.diffusion.gossip_rounds_batch` kernel, an
      approximation of the sequential round: its rounds are synchronous (a
      server that adopts a version pushes it only in the next round, where
      the object engine's server-order round lets it push in the same one),
      so a round spreads a write more slowly and the two engines' gossiped
      estimates agree only once gossip nearly saturates;
    * the **service layers** run a background gossip task every
      ``interval`` event-loop seconds with the same fanout, and readers
      piggyback up to ``repair_budget`` write-back repairs per coalesced
      dispatch flush onto replicas they already contacted.

    ``fanout=0`` disables gossip (rounds become the identity);
    ``repair_budget=0`` disables piggybacked read-repair.  The spec is a
    frozen picklable value, so it crosses the cluster deployment's process
    boundary inside its :class:`ScenarioSpec` untouched.
    """

    fanout: int = 2
    rounds: int = 1
    interval: float = 0.002
    repair_budget: int = 4

    def __post_init__(self) -> None:
        if self.fanout < 0:
            raise ConfigurationError(
                f"anti-entropy fanout must be non-negative, got {self.fanout}"
            )
        if self.rounds < 0:
            raise ConfigurationError(
                f"anti-entropy round count must be non-negative, got {self.rounds}"
            )
        if self.interval <= 0.0:
            raise ConfigurationError(
                f"the gossip interval must be positive, got {self.interval}"
            )
        if self.repair_budget < 0:
            raise ConfigurationError(
                f"the repair budget must be non-negative, got {self.repair_budget}"
            )

    @property
    def gossips(self) -> bool:
        """Whether background gossip actually moves data."""
        return self.fanout > 0 and self.rounds > 0

    def describe(self) -> str:
        """One-line summary used in experiment logs."""
        return (
            f"AntiEntropy(fanout={self.fanout}, rounds={self.rounds}, "
            f"interval={self.interval}, repair_budget={self.repair_budget})"
        )


@dataclass(frozen=True)
class WorkloadSpec:
    """The client-side workload of one scenario.

    ``writes=1`` describes the read-consistency experiment (one write, one
    read — Theorems 3.2/4.2/5.2); larger histories with optional gossip
    rounds between writes describe the staleness-distribution experiment of
    Section 1.1.
    """

    writes: int = 1
    gossip_rounds_between_writes: int = 0
    gossip_fanout: int = 2
    written_value: Any = "v"

    def __post_init__(self) -> None:
        if self.writes < 1:
            raise ConfigurationError(
                f"the write history needs at least one write, got {self.writes}"
            )
        if self.gossip_rounds_between_writes < 0:
            raise ConfigurationError(
                f"gossip round count must be non-negative, "
                f"got {self.gossip_rounds_between_writes}"
            )
        if self.gossip_fanout < 1:
            raise ConfigurationError(
                f"gossip fanout must be positive, got {self.gossip_fanout}"
            )


@dataclass(frozen=True)
class ScenarioSpec:
    """One experiment, described declaratively for both engines.

    Attributes
    ----------
    system:
        The probabilistic quorum system; its access strategy draws every
        quorum and its ``read_threshold`` / ``signed_reads`` declaration
        supplies the default read protocol.
    failure_model:
        Distribution over per-trial failures (default: none).
    workload:
        Write history / gossip schedule / written value.
    register_kind:
        ``"auto"`` (resolve from the system) or an explicit protocol name.
    writer_id:
        Writer identity baked into honest timestamps (the first writer's id
        when ``writers > 1``).
    signing_key:
        Writer key for the dissemination protocol's signature scheme
        (readers hold the same instance; servers never see it).
    writers:
        Concurrent writers contending on the register.  Writer ``w`` gets
        identity ``writer_id + w``; with every per-trial counter at 1 the
        writer id is the tie-break, so the highest-id writer's value is the
        winner every layer must deterministically converge on.
    anti_entropy:
        Optional :class:`AntiEntropySpec`: background diffusion of settled
        writes (gossip rounds for the engines, a gossip task plus
        piggybacked read-repair for the services).  ``None`` (the default)
        keeps freshness a read-path concern, exactly as before.
    """

    system: ProbabilisticQuorumSystem
    failure_model: FailureModel = field(default_factory=FailureModel.none)
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    register_kind: str = "auto"
    writer_id: int = 0
    signing_key: bytes = b"scenario"
    writers: int = 1
    anti_entropy: Any = None

    def __post_init__(self) -> None:
        if not isinstance(self.system, ProbabilisticQuorumSystem):
            raise ConfigurationError(
                "a scenario is described over a ProbabilisticQuorumSystem, "
                f"got {type(self.system).__name__}"
            )
        if not isinstance(self.failure_model, FailureModel):
            raise ConfigurationError(
                "a scenario needs a declarative FailureModel, "
                f"got {type(self.failure_model).__name__}"
            )
        if self.register_kind not in REGISTER_KINDS:
            raise ConfigurationError(
                f"unknown register kind {self.register_kind!r}; "
                f"expected one of {REGISTER_KINDS}"
            )
        if self.writers < 1:
            raise ConfigurationError(
                f"a scenario needs at least one writer, got {self.writers}"
            )
        if self.register_kind == "masking" and not hasattr(self.system, "read_threshold"):
            raise ConfigurationError(
                "the masking protocol needs a system with a read_threshold "
                f"(got {type(self.system).__name__})"
            )
        if self.anti_entropy is not None and not isinstance(
            self.anti_entropy, AntiEntropySpec
        ):
            raise ConfigurationError(
                "anti_entropy must be an AntiEntropySpec (or None), "
                f"got {type(self.anti_entropy).__name__}"
            )
        if self.anti_entropy is not None and self.anti_entropy.fanout >= self.n:
            raise ConfigurationError(
                f"anti-entropy fanout {self.anti_entropy.fanout} must be smaller "
                f"than the universe size {self.n}"
            )
        # Resolve eagerly so a mis-described scenario fails at construction.
        self.resolved_register_kind()
        self._check_byzantine_tolerance()

    def _check_byzantine_tolerance(self) -> None:
        """Reject failure models that void the read protocol's ``b`` guarantee.

        Theorems 4.2 and 5.2 assume at most ``b`` Byzantine servers — the
        system's ``byzantine_threshold``.  A model injecting more does not
        make the experiment "more Byzantine": it silently measures a regime
        the construction was never calibrated for (typically all-stale
        runs), so it is a configuration error.  The benign kinds (``plain``,
        ``write-back``, and a forced ``register_kind="plain"``) stay exempt —
        they model a reader that ignores the protocol's filter, where no
        tolerance is claimed.
        """
        kind = self.resolved_register_kind()
        injected = self.failure_model.byzantine_count
        tolerance = self.system.byzantine_threshold
        if kind not in ("masking", "dissemination") or injected <= tolerance:
            return
        raise ConfigurationError(
            f"the failure model injects {injected} Byzantine servers but the "
            f"{kind} protocol of {self.system.describe()} "
            f"only tolerates b={tolerance}; such runs silently "
            f"degrade to stale/⊥ reads instead of measuring the theorem's regime. "
            f"Use a system calibrated for b>={injected}, or force "
            f"register_kind='plain' to model an unprotected reader."
        )

    # -- resolution ---------------------------------------------------------------

    @property
    def n(self) -> int:
        """Universe size (from the system)."""
        return self.system.n

    def resolved_register_kind(self) -> str:
        """The concrete protocol this scenario runs (``auto`` resolved)."""
        if self.register_kind != "auto":
            return self.register_kind
        if hasattr(self.system, "read_threshold"):
            return "masking"
        if self.system.signed_reads:
            return "dissemination"
        return "plain"

    def read_rule(self) -> "ReadRule":
        """The :class:`~repro.protocol.selection.ReadRule` of this scenario's readers.

        The one place a scenario's read is resolved: threshold
        ``read_threshold`` for the masking kind, a signature scheme under
        the scenario's ``signing_key`` for the dissemination kind, and the
        benign rule otherwise — so forcing a register kind overrides the
        system's declaration (a plain register over a masking system reads
        with ``threshold=1``).  The sequential registers, the async
        frontends, both gossip verifiers and the batch engine all read it.
        """
        from repro.protocol.selection import ReadRule
        from repro.protocol.signatures import SignatureScheme

        kind = self.resolved_register_kind()
        if kind == "masking":
            return ReadRule(threshold=int(self.system.read_threshold))
        if kind == "dissemination":
            return ReadRule(signatures=SignatureScheme(self.signing_key))
        return ReadRule()

    def writer_ids(self) -> tuple:
        """The identities of the scenario's concurrent writers, ascending.

        Writer-id order *is* timestamp order when every writer's counter is
        equal, so the last id is the deterministic winner of a fully
        concurrent write round.
        """
        return tuple(self.writer_id + index for index in range(self.writers))

    # -- sequential lowering ------------------------------------------------------

    def register_factory(
        self, writer_index: int = 0
    ) -> Callable[["Cluster", random.Random], "ProbabilisticRegister"]:
        """A per-trial register factory for the sequential oracle engine.

        Every register reads through :meth:`read_rule`; the write-back kind
        is the one that needs its own class.  ``writer_index`` selects which
        of the scenario's concurrent writers the register writes as
        (identity ``writer_id + writer_index``); all indices share the
        scenario's rule, so every writer's records verify under the same
        dissemination scheme.
        """
        from repro.protocol.variable import ProbabilisticRegister
        from repro.protocol.write_back import WriteBackRegister

        if not 0 <= writer_index < self.writers:
            raise ConfigurationError(
                f"writer index {writer_index} out of range for {self.writers} writer(s)"
            )
        writer_id = self.writer_id + writer_index
        rule = self.read_rule()
        register = (
            WriteBackRegister
            if self.resolved_register_kind() == "write-back"
            else ProbabilisticRegister
        )
        return lambda cluster, rng: register(
            self.system, cluster, writer_id=writer_id, rng=rng, rule=rule
        )

    def describe(self) -> str:
        """One-line summary used in experiment logs."""
        contention = f", writers={self.writers}" if self.writers > 1 else ""
        diffusion = (
            f", {self.anti_entropy.describe()}" if self.anti_entropy is not None else ""
        )
        return (
            f"ScenarioSpec({self.system.describe()}, {self.failure_model.describe()}, "
            f"register={self.resolved_register_kind()}, "
            f"writes={self.workload.writes}{contention}{diffusion})"
        )
