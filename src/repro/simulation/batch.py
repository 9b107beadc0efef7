"""Batched Monte-Carlo trial engine: vectorised consistency estimation.

The sequential estimators in :mod:`repro.simulation.monte_carlo` drive the
full protocol stack — one cluster of server objects, one register, one
failure plan per trial.  That path is the semantic oracle, but almost all
of its time goes into Python object churn that the paper's experiments do
not need: for the uniform constructions a trial is completely described by
*which servers* the write quorum, the read quorum and the failure masks
touch.

:class:`BatchTrialEngine` exploits that.  Access sets and counted failures
are drawn as boolean ``(trials, n)`` masks, one call each, by one k-of-n
kernel that thresholds a partition of a uniform matrix
(:func:`repro.quorum.base.sample_subset_mask`), and the freshness /
fabrication / staleness classification of every trial reduces to
set-membership logic over those arrays.  Gossip between writes runs
through the vectorised kernel in
:func:`repro.simulation.diffusion.gossip_rounds_batch`.

All three of the paper's read protocols are modelled, driven by the
:class:`~repro.core.probabilistic.ReadSemantics` the quorum system (or an
explicit :class:`~repro.simulation.scenario.ScenarioSpec`) declares:

* **benign** (Section 3.1) — any single reply is believed; the highest
  timestamp wins (``threshold=1``);
* **dissemination** (Section 4) — replies are signature-checked, so forged
  values are discarded before the comparison (``self_verifying=True``;
  Byzantine servers can only suppress or replay);
* **masking** (Section 5) — a value/timestamp pair needs at least ``k``
  vouching votes from the read quorum, computed here as vectorised
  per-trial vote counts over the boolean membership masks
  (:func:`classify_threshold_votes`).

Reproducibility and memory
--------------------------

Trials are processed in fixed-size chunks.  Each chunk gets its own RNG
substream via ``numpy.random.SeedSequence(seed).spawn(...)``, so a run is
fully determined by ``(seed, chunk_size)`` and peak memory stays bounded at
``O(chunk_size * n)`` regardless of the trial count.

Within one estimator run the engine also *reuses* its per-chunk buffers:
profiling the hot loop showed the top repeated allocations were the two
``(chunk, n)`` quorum-membership matrices and the boolean vote-mask
temporaries re-created for every block, so the engine keeps one workspace
(:class:`_Workspace`) and fills the same arrays in place across blocks
(membership via the strategies' ``out=`` parameter, vote intersection via
``np.logical_and(..., out=...)``).  Buffer contents never cross chunk
boundaries — every array is fully overwritten before it is read — so the
estimates are bit-identical to the allocating path.

The classification mirrors the sequential reads: with one write of
timestamp ``ts₁``, a trial is *fresh* when at least ``k`` responsive
storers of the read quorum saw the write and no accepted forgery outranks
``ts₁``; *fabricated* when a forgery clears the filter (``k`` forger votes,
valid only where data is not self-verifying) and outranks the write;
*stale* when only an out-ranked forgery cleared it; *empty* when nothing
did.  Equivalence with the sequential engine (same scenario) is asserted by
``tests/simulation/test_batch_engine.py`` at 10k trials within
Chernoff-derived tolerances for all three protocols.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple, TYPE_CHECKING

import numpy as np

from repro.core.probabilistic import ProbabilisticQuorumSystem, ReadSemantics
from repro.exceptions import ConfigurationError
from repro.protocol.timestamps import Timestamp
from repro.rngs import chunked_substreams
from repro.simulation.diffusion import gossip_rounds_batch
from repro.simulation.failures import BatchFailureMasks, FailureModel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simulation.scenario import ScenarioSpec

#: Default number of trials processed per vectorised chunk.  4096 trials over
#: a 1000-server universe is ~4 MB of boolean masks — large enough to
#: amortise NumPy dispatch, small enough to stay cache- and memory-friendly.
DEFAULT_CHUNK_SIZE = 4096


class _Workspace:
    """Named reusable scratch arrays, keyed by (name, shape, dtype).

    ``array(...)`` hands back the same buffer on every chunk of the same
    size and allocates only when the shape changes (i.e. the final short
    chunk).  Callers must fully overwrite a buffer before reading it.
    """

    __slots__ = ("_arrays",)

    def __init__(self) -> None:
        self._arrays: dict = {}

    def array(self, name: str, shape: Tuple[int, ...], dtype) -> np.ndarray:
        key = (name, shape, np.dtype(dtype))
        array = self._arrays.get(key)
        if array is None:
            array = np.empty(shape, dtype=dtype)
            self._arrays[key] = array
        return array


def _timestamp_rank(fabricated_timestamp, writer_id: int, writes: int) -> int:
    """How many of the honest timestamps ``1..writes`` a forgery outranks.

    Honest write ``v`` (0-based) carries ``Timestamp(v + 1, writer_id)``;
    the returned rank ``r`` means the forgery beats exactly the first ``r``
    honest versions, so it wins a read iff the best honest reply is older
    than version ``r`` (0-based index ``< r``).  Timestamps that do not
    compare against :class:`Timestamp` are treated as outranking everything
    (the strongest fabrication, matching ``Timestamp.forged_maximum``).
    """
    rank = 0
    for counter in range(1, writes + 1):
        try:
            below = Timestamp(counter, writer_id) < fabricated_timestamp
        except TypeError:
            below = True
        if below:
            rank += 1
    return rank


def _concurrent_timestamp_rank(
    fabricated_timestamp, writer_id: int, writers: int
) -> int:
    """How many of ``writers`` concurrent honest timestamps a forgery outranks.

    Concurrent writer ``w`` carries ``Timestamp(1, writer_id + w)``, so the
    honest timestamps ascend with the writer index; rank ``r`` means the
    forgery beats exactly writers ``0..r-1`` and wins a read iff the best
    credible honest version is below ``r``.  Incomparable timestamps count
    as outranking everything (matching :func:`_timestamp_rank`).
    """
    rank = 0
    for index in range(writers):
        try:
            below = Timestamp(1, writer_id + index) < fabricated_timestamp
        except TypeError:
            below = True
        if below:
            rank += 1
    return rank


def classify_threshold_votes(
    honest_votes: np.ndarray,
    forged_votes: np.ndarray,
    threshold: int,
    forgery_outranks: bool,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The threshold-vote read classification kernel (Section 5, Read).

    Given per-trial vote counts for the honest value/timestamp pair and the
    (colluding) forged pair, returns the four outcome masks
    ``(fresh, stale, empty, fabricated)`` of the highest-timestamp-wins rule
    applied to the candidates that collected at least ``threshold`` votes:

    * both candidates clear — the forgery wins iff it outranks the honest
      timestamp (``forgery_outranks``);
    * only one clears — it wins; a winning *out-ranked* forgery carries an
      honest-looking but older timestamp, which the shared classifier labels
      stale;
    * neither clears — the read returns ⊥ (empty).

    With ``threshold=1`` this is exactly the benign Section 3.1 classifier
    (a vote count ``>= 1`` is set membership), which the hypothesis property
    tests pin down.  The masks partition every trial.
    """
    if threshold < 1:
        raise ConfigurationError(f"vote threshold must be positive, got {threshold}")
    honest_ok = honest_votes >= threshold
    forged_ok = forged_votes >= threshold
    fresh = honest_ok & ~(forged_ok & forgery_outranks)
    fabricated = forged_ok & forgery_outranks
    stale = forged_ok & ~forgery_outranks & ~honest_ok
    empty = ~honest_ok & ~forged_ok
    return fresh, stale, empty, fabricated


def classify_tying_votes(
    honest_votes: np.ndarray,
    forged_votes: np.ndarray,
    threshold: int,
    forged_key_wins: bool,
    values_collide: bool = False,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Classification when the forged timestamp *ties* the honest write's.

    Mirrors the deterministic tie rule of
    :func:`repro.protocol.selection.select_credible_value`: both pairs carry
    the winning timestamp, so among the candidates that clear ``threshold``
    the larger vote count wins, and an exhausted tie goes to the pair with
    the larger tiebreak key (``forged_key_wins`` says which that is).  When
    the forged value equals the written value the two pairs are one
    candidate (``values_collide``): the read is fresh iff the combined votes
    clear the threshold, and fabrication is impossible.  Nothing can be
    stale in a tie — a losing forgery carries the *winning* timestamp.
    """
    if threshold < 1:
        raise ConfigurationError(f"vote threshold must be positive, got {threshold}")
    zeros = np.zeros(honest_votes.shape, dtype=bool)
    if values_collide:
        fresh = (honest_votes + forged_votes) >= threshold
        return fresh, zeros, ~fresh, zeros.copy()
    honest_ok = honest_votes >= threshold
    forged_ok = forged_votes >= threshold
    forged_prefers = (forged_votes > honest_votes) | (
        (forged_votes == honest_votes) & forged_key_wins
    )
    fresh = honest_ok & ~(forged_ok & forged_prefers)
    fabricated = forged_ok & (~honest_ok | forged_prefers)
    empty = ~honest_ok & ~forged_ok
    return fresh, zeros, empty, fabricated


class BatchTrialEngine:
    """Vectorised Monte-Carlo trials over a probabilistic quorum system.

    Parameters
    ----------
    system:
        The quorum system whose access strategy draws the per-trial write
        and read quorums.  Any strategy works (the base class has a
        compatible fallback), but the uniform and explicit strategies are
        fully vectorised.
    failure_model:
        Declarative distribution over failures (default: no failures).
    seed:
        Root seed of the ``SeedSequence`` substream tree.
    chunk_size:
        Trials per vectorised chunk (memory/dispatch trade-off).
    writer_id:
        Writer identity baked into honest timestamps, matching the default
        register configuration of the sequential engine.
    semantics:
        Read-protocol semantics (threshold ``k``, signature verifiability).
        Defaults to ``system.read_semantics()``, so a masking system gets
        the threshold read and a dissemination system the signature-checked
        read — the same resolution the sequential engine applies through
        :class:`~repro.simulation.scenario.ScenarioSpec`.
    written_value:
        The value honest writes carry (the scenario workload's value).  Only
        consulted when a forged timestamp *ties* an honest one, where the
        deterministic tie rule compares the two values' tiebreak keys.
    writers:
        Concurrent writers per consistency trial.  Writer ``w`` writes with
        ``Timestamp(1, writer_id + w)``, so writer-id order is timestamp
        order and the highest id is the deterministic winner; the read is
        fresh only when that winner clears the vote threshold.
    anti_entropy:
        Optional :class:`~repro.simulation.scenario.AntiEntropySpec`: run
        its gossip rounds (vectorised, via
        :func:`~repro.simulation.diffusion.gossip_rounds_batch`) between the
        write settling and the read, mirroring the sequential engine's
        :class:`~repro.simulation.diffusion.DiffusionEngine` pass.
    """

    def __init__(
        self,
        system: ProbabilisticQuorumSystem,
        failure_model: Optional[FailureModel] = None,
        seed: int = 0,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        writer_id: int = 0,
        semantics: Optional[ReadSemantics] = None,
        written_value: object = "v",
        writers: int = 1,
        anti_entropy=None,
    ) -> None:
        if not isinstance(system, ProbabilisticQuorumSystem):
            raise ConfigurationError(
                "the batch engine samples through the system's access strategy; "
                f"pass a ProbabilisticQuorumSystem, got {type(system).__name__}"
            )
        if failure_model is not None and not isinstance(failure_model, FailureModel):
            raise ConfigurationError(
                "the batch engine needs a declarative FailureModel "
                f"(got {type(failure_model).__name__}); use engine='sequential' "
                "for arbitrary plan factories"
            )
        if chunk_size < 1:
            raise ConfigurationError(f"chunk size must be positive, got {chunk_size}")
        if writers < 1:
            raise ConfigurationError(f"need at least one writer, got {writers}")
        self.system = system
        self.model = failure_model or FailureModel.none()
        self.seed = int(seed)
        self.chunk_size = int(chunk_size)
        self.writer_id = int(writer_id)
        self.writers = int(writers)
        if anti_entropy is not None:
            from repro.simulation.scenario import AntiEntropySpec

            if not isinstance(anti_entropy, AntiEntropySpec):
                raise ConfigurationError(
                    "anti_entropy must be an AntiEntropySpec (or None), "
                    f"got {type(anti_entropy).__name__}"
                )
        self.anti_entropy = anti_entropy
        self.semantics = semantics if semantics is not None else system.read_semantics()
        self.written_value = written_value
        self._workspace = _Workspace()

    @classmethod
    def from_spec(
        cls,
        spec: "ScenarioSpec",
        seed: int = 0,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
    ) -> "BatchTrialEngine":
        """Build the engine for a declarative scenario description."""
        return cls(
            spec.system,
            failure_model=spec.failure_model,
            seed=seed,
            chunk_size=chunk_size,
            writer_id=spec.writer_id,
            semantics=spec.read_semantics(),
            written_value=spec.workload.written_value,
            writers=spec.writers,
            anti_entropy=spec.anti_entropy,
        )

    # -- chunked substreams -------------------------------------------------------

    def _chunks(self, trials: int) -> Iterator[Tuple[np.random.Generator, int]]:
        """Yield ``(generator, chunk_trials)`` pairs with spawned substreams."""
        return chunked_substreams(self.seed, trials, self.chunk_size)

    def _forgery_ties_write(self, version_counter: int) -> bool:
        """Whether the forged timestamp equals honest write ``version_counter``.

        Since the registers resolve such ties with the deterministic rule of
        :mod:`repro.protocol.selection`, the single-write consistency
        estimator models them exactly (see :func:`classify_tying_votes`);
        only multi-write staleness histories remain fenced
        (:meth:`_reject_tying_forgery`).
        """
        if not self.model.forges_values or self.semantics.self_verifying:
            return False
        return self.model.fabricated_timestamp == Timestamp(version_counter, self.writer_id)

    def _reject_tying_forgery(self, writes: int) -> None:
        """Refuse multi-write histories whose forged timestamp ties a write.

        The staleness estimators identify the version a read returned by its
        timestamp alone (the sequential path looks the timestamp up in the
        write history), so a forgery that ties an intermediate version is
        indistinguishable from that version in the lag accounting.  The
        single-write consistency estimator models ties exactly via the
        deterministic tie rule; histories keep the explicit fence.
        ``Timestamp.forged_maximum()`` and any other non-tying timestamp are
        unaffected, and self-verifying scenarios are exempt (the forgery is
        discarded before any comparison, tie or not).
        """
        if not self.model.forges_values or self.semantics.self_verifying:
            return
        for counter in range(1, writes + 1):
            if self.model.fabricated_timestamp == Timestamp(counter, self.writer_id):
                raise ConfigurationError(
                    f"fabricated timestamp {self.model.fabricated_timestamp!r} ties a "
                    f"timestamp of the {writes}-write history; version lags are "
                    f"identified by timestamp, so tying forgeries are only modelled "
                    f"by the single-write estimator or engine='sequential'"
                )

    def _reject_tying_multiwriter(self) -> None:
        """Refuse contention rounds whose forged timestamp ties a writer's.

        The multi-writer kernel attributes a read to a writer by timestamp
        alone (the per-server latest/first-seen version index), so a forgery
        that ties one of the concurrent honest timestamps is
        indistinguishable from that writer in the vote accounting; such
        configurations need ``engine='sequential'`` (where values break the
        tie through the deterministic rule).
        """
        if not self.model.forges_values or self.semantics.self_verifying:
            return
        for index in range(self.writers):
            if self.model.fabricated_timestamp == Timestamp(1, self.writer_id + index):
                raise ConfigurationError(
                    f"fabricated timestamp {self.model.fabricated_timestamp!r} ties "
                    f"concurrent writer {self.writer_id + index}'s timestamp; the "
                    f"multi-writer kernel identifies writers by timestamp, so tying "
                    f"forgeries under contention need engine='sequential'"
                )

    def _reject_gray(self, kernel: str) -> None:
        """Refuse gray nodes on kernels where the per-trial fold is inexact.

        :meth:`FailureModel.sample_masks` folds a gray server's independent
        per-request drops into one per-trial crash draw — exact for a single
        write followed by a single read (honest contribution iff both get
        through), but wrong as soon as a trial issues more operations
        (gossip pushes, write histories, concurrent writers), where the
        drops decorrelate across operations.  Those workloads run gray
        nodes through ``engine='sequential'``.
        """
        if self.model.kind == "gray_nodes":
            raise ConfigurationError(
                f"gray nodes draw drops per request, which the {kernel} kernel "
                "cannot fold into per-trial masks; use engine='sequential'"
            )

    def _draw_membership(
        self, size: int, generator: np.random.Generator, buffer_name: str
    ) -> np.ndarray:
        """One membership batch, drawn into a reusable buffer."""
        n = self.system.n
        return self.system.strategy.sample_batch_membership(
            n, size, generator, out=self._workspace.array(buffer_name, (size, n), bool)
        )

    def _sample_round(
        self, generator: np.random.Generator, size: int
    ) -> Tuple[np.ndarray, np.ndarray, BatchFailureMasks]:
        """Failure masks plus one write- and one read-quorum batch.

        The two membership matrices are drawn into per-engine reusable
        buffers (the hot loop's top repeated allocation), so consecutive
        equal-size chunks touch the same memory.
        """
        masks = self.model.sample_masks(self.system.n, size, generator)
        member_w = self._draw_membership(size, generator, "member_w")
        member_r = self._draw_membership(size, generator, "member_r")
        return member_w, member_r, masks

    def _forged_votes(self, member_r: np.ndarray, masks: BatchFailureMasks) -> np.ndarray:
        """Per-trial forger vote counts; zero where signatures filter them out."""
        if self.semantics.self_verifying:
            return np.zeros(member_r.shape[0], dtype=np.int64)
        forged = self._workspace.array("forged", member_r.shape, bool)
        np.logical_and(member_r, masks.forgers, out=forged)
        return forged.sum(axis=1)

    # -- estimators ---------------------------------------------------------------

    def estimate_read_consistency(self, trials: int) -> "ConsistencyReport":
        """One write, one read per trial; classify every outcome.

        Matches the sequential estimator in distribution: both sample the
        write quorum, the read quorum and the failure plan independently
        per trial from the same distributions and apply the same read rule
        (benign, signature-checked or threshold-vote, per the semantics).
        """
        from repro.protocol.selection import tiebreak_key
        from repro.simulation.monte_carlo import ConsistencyReport

        if trials <= 0:
            raise ConfigurationError(f"trial count must be positive, got {trials}")
        if self.writers > 1:
            return self._estimate_multiwriter_consistency(trials)
        if self.anti_entropy is not None and self.anti_entropy.gossips:
            return self._estimate_gossiped_consistency(trials)
        fab_beats = _timestamp_rank(self.model.fabricated_timestamp, self.writer_id, 1) >= 1
        ties = self._forgery_ties_write(1)
        if ties:
            forged_key = tiebreak_key(self.model.fabricated_value)
            honest_key = tiebreak_key(self.written_value)
            forged_key_wins = forged_key > honest_key
            values_collide = forged_key == honest_key
        threshold = self.semantics.threshold
        fresh = stale = empty = fabricated = 0
        for generator, size in self._chunks(trials):
            member_w, member_r, masks = self._sample_round(generator, size)
            vouchers = self._workspace.array("vouchers", (size, self.system.n), bool)
            np.logical_and(member_r, member_w, out=vouchers)
            np.logical_and(vouchers, masks.responsive_storers, out=vouchers)
            honest_votes = vouchers.sum(axis=1)
            forged_votes = self._forged_votes(member_r, masks)
            if ties:
                fresh_mask, stale_mask, empty_mask, fab_mask = classify_tying_votes(
                    honest_votes, forged_votes, threshold, forged_key_wins, values_collide
                )
            else:
                fresh_mask, stale_mask, empty_mask, fab_mask = classify_threshold_votes(
                    honest_votes, forged_votes, threshold, fab_beats
                )
            fresh += int(fresh_mask.sum())
            fabricated += int(fab_mask.sum())
            stale += int(stale_mask.sum())
            empty += int(empty_mask.sum())
        return ConsistencyReport(
            trials=trials, fresh=fresh, stale=stale, empty=empty, fabricated=fabricated
        )

    def _estimate_gossiped_consistency(self, trials: int) -> "ConsistencyReport":
        """One write, anti-entropy gossip rounds, one read per trial.

        The non-gossip kernel counts votes directly from the write/read
        quorum intersection; with diffusion the holder set grows beyond the
        write quorum, so this kernel tracks per-server version matrices the
        way the staleness estimator does (``writes=1``), runs the spec's
        gossip rounds through :func:`gossip_rounds_batch` over the correct
        servers (crashed neither push nor receive, Byzantine ignore gossip
        and their pushes are never trusted — exactly
        :class:`~repro.simulation.diffusion.DiffusionEngine`'s rules), and
        classifies with the same best-credible-version accounting.
        """
        from repro.simulation.monte_carlo import ConsistencyReport

        # Versions are identified by timestamp here (as in the staleness
        # kernel), so a forgery tying the write's timestamp stays fenced.
        self._reject_tying_forgery(1)
        self._reject_gray("anti-entropy")
        n = self.system.n
        diffusion = self.anti_entropy
        fab_rank = _timestamp_rank(self.model.fabricated_timestamp, self.writer_id, 1)
        fab_outranks = fab_rank >= 1
        threshold = self.semantics.threshold
        workspace = self._workspace
        fresh = stale = empty = fabricated = 0
        for generator, size in self._chunks(trials):
            masks = self.model.sample_masks(n, size, generator)
            correct = ~(masks.crashed | masks.byzantine)
            latest = np.full((size, n), -1, dtype=np.int32)
            first_seen = np.full((size, n), -1, dtype=np.int32)
            touched = workspace.array("touched", (size, n), bool)
            member_w = self._draw_membership(size, generator, "member_w")
            np.logical_and(member_w, masks.responsive_storers, out=touched)
            np.copyto(latest, 0, where=touched)
            np.copyto(first_seen, 0, where=touched)
            latest = gossip_rounds_batch(
                latest, correct, diffusion.fanout, diffusion.rounds, generator
            )
            member_r = self._draw_membership(size, generator, "member_r")
            best = self._best_credible_version(member_r, masks, latest, first_seen, 1)
            forged_votes = self._forged_votes(member_r, masks)
            forged_wins = (forged_votes >= threshold) & (best < fab_rank)
            fresh_mask = (best == 0) & ~forged_wins
            stale_mask = forged_wins & ~fab_outranks
            empty_mask = (best < 0) & ~forged_wins
            fabricated_mask = forged_wins & fab_outranks
            fresh += int(fresh_mask.sum())
            stale += int(stale_mask.sum())
            empty += int(empty_mask.sum())
            fabricated += int(fabricated_mask.sum())
        return ConsistencyReport(
            trials=trials, fresh=fresh, stale=stale, empty=empty, fabricated=fabricated
        )

    def _estimate_multiwriter_consistency(self, trials: int) -> "ConsistencyReport":
        """Concurrent writers, one read per trial (the contention kernel).

        Writer ``w`` writes ``Timestamp(1, writer_id + w)`` to its own
        strategy-drawn quorum; membership batches are applied in ascending
        writer order — the canonical interleaving the sequential oracle also
        uses — so the per-server ``latest``/``first_seen`` version indices
        mean exactly what they mean in the staleness kernel, with "version"
        reinterpreted as "writer index".  The read is *fresh* only when the
        deterministic winner (the highest writer id) clears the vote
        threshold and no accepted forgery outranks it; a read attributed to
        a lower writer is *stale*, exactly how the shared classifier labels
        a concurrent-but-losing honest value.
        """
        from repro.simulation.monte_carlo import ConsistencyReport

        self._reject_tying_multiwriter()
        self._reject_gray("multi-writer")
        writers = self.writers
        n = self.system.n
        threshold = self.semantics.threshold
        fab_rank = _concurrent_timestamp_rank(
            self.model.fabricated_timestamp, self.writer_id, writers
        )
        fab_outranks_winner = fab_rank >= writers
        workspace = self._workspace
        fresh = stale = empty = fabricated = 0
        for generator, size in self._chunks(trials):
            masks = self.model.sample_masks(n, size, generator)
            storers = masks.responsive_storers
            latest = np.full((size, n), -1, dtype=np.int32)
            first_seen = np.full((size, n), -1, dtype=np.int32)
            touched = workspace.array("touched", (size, n), bool)
            for index in range(writers):
                member_w = self._draw_membership(size, generator, "member_w")
                np.logical_and(member_w, storers, out=touched)
                np.copyto(first_seen, index, where=touched & (first_seen < 0))
                np.copyto(latest, index, where=touched)
            if self.anti_entropy is not None and self.anti_entropy.gossips:
                correct = ~(masks.crashed | masks.byzantine)
                latest = gossip_rounds_batch(
                    latest,
                    correct,
                    self.anti_entropy.fanout,
                    self.anti_entropy.rounds,
                    generator,
                )
            member_r = self._draw_membership(size, generator, "member_r")
            best = self._best_credible_version(
                member_r, masks, latest, first_seen, writers
            )
            forged_votes = self._forged_votes(member_r, masks)
            forged_wins = (forged_votes >= threshold) & (best < fab_rank)
            fresh_mask = (best == writers - 1) & ~forged_wins
            stale_mask = ((best >= 0) & (best < writers - 1) & ~forged_wins) | (
                forged_wins & ~fab_outranks_winner
            )
            empty_mask = (best < 0) & ~forged_wins
            fabricated_mask = forged_wins & fab_outranks_winner
            fresh += int(fresh_mask.sum())
            stale += int(stale_mask.sum())
            empty += int(empty_mask.sum())
            fabricated += int(fabricated_mask.sum())
        return ConsistencyReport(
            trials=trials, fresh=fresh, stale=stale, empty=empty, fabricated=fabricated
        )

    def _best_credible_version(
        self,
        member_r: np.ndarray,
        masks: BatchFailureMasks,
        latest: np.ndarray,
        first_seen: np.ndarray,
        writes: int,
    ) -> np.ndarray:
        """Highest write version that clears the vote threshold (-1 if none).

        Correct servers vouch for their (possibly gossip-updated) latest
        version, replay servers for the first version they accepted; the
        value attached to a version is the same at every honest holder, so
        per-version vote counting over the membership masks reproduces the
        sequential register's ``Counter`` over value/timestamp pairs.
        """
        correct = ~(masks.crashed | masks.byzantine)
        honest = np.where(member_r & correct, latest, -1)
        replayed = np.where(member_r & masks.replay, first_seen, -1)
        threshold = self.semantics.threshold
        if threshold <= 1:
            return np.maximum(honest, replayed).max(axis=1)
        best = np.full(member_r.shape[0], -1, dtype=np.int64)
        for version in range(writes):
            votes = ((honest == version) | (replayed == version)).sum(axis=1)
            best = np.where(votes >= threshold, version, best)
        return best

    def estimate_staleness_distribution(
        self,
        trials: int,
        writes: int = 5,
        gossip_rounds_between_writes: int = 0,
        gossip_fanout: int = 2,
    ) -> "StalenessReport":
        """A write history followed by one read; measure the version lag."""
        from repro.simulation.monte_carlo import StalenessReport

        if self.writers > 1:
            raise ConfigurationError(
                "staleness histories are single-writer; the contention axis is "
                "measured by estimate_read_consistency "
                f"(engine declares writers={self.writers})"
            )
        if writes < 1:
            raise ConfigurationError(
                f"the write history needs at least one write, got {writes}"
            )
        if trials <= 0:
            raise ConfigurationError(f"trial count must be positive, got {trials}")
        self._reject_tying_forgery(writes)
        self._reject_gray("staleness-history")
        n = self.system.n
        fab_rank = _timestamp_rank(self.model.fabricated_timestamp, self.writer_id, writes)
        threshold = self.semantics.threshold
        lags: List[np.ndarray] = []
        workspace = self._workspace
        for generator, size in self._chunks(trials):
            masks = self.model.sample_masks(n, size, generator)
            correct = ~(masks.crashed | masks.byzantine)
            storers = masks.responsive_storers
            latest = np.full((size, n), -1, dtype=np.int32)
            first_seen = np.full((size, n), -1, dtype=np.int32)
            touched = workspace.array("touched", (size, n), bool)
            for version in range(writes):
                member_w = self._draw_membership(size, generator, "member_w")
                np.logical_and(member_w, storers, out=touched)
                np.copyto(first_seen, version, where=touched & (first_seen < 0))
                np.copyto(latest, version, where=touched)
                if gossip_rounds_between_writes > 0:
                    latest = gossip_rounds_batch(
                        latest, correct, gossip_fanout, gossip_rounds_between_writes, generator
                    )
            member_r = self._draw_membership(size, generator, "member_r")
            best_version = self._best_credible_version(
                member_r, masks, latest, first_seen, writes
            )
            forged_votes = self._forged_votes(member_r, masks)
            forged_wins = (forged_votes >= threshold) & (best_version < fab_rank)
            lag = np.where(best_version >= 0, writes - 1 - best_version, writes)
            lag = np.where(forged_wins, writes, lag)
            lags.append(lag.astype(np.int64))
        versions_behind = np.concatenate(lags).tolist()
        return StalenessReport(trials=trials, versions_behind=versions_behind)
