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
:class:`~repro.protocol.selection.ReadRule` a
:class:`~repro.simulation.scenario.ScenarioSpec` resolves (for a bare
system, the rule of the scenario that wraps it):

* **benign** (Section 3.1) — any single reply is believed; the highest
  timestamp wins (``threshold=1``);
* **dissemination** (Section 4) — replies are signature-checked, so forged
  values are discarded before the comparison (the rule carries a signature
  scheme; Byzantine servers can only suppress or replay);
* **masking** (Section 5) — a value/timestamp pair needs at least ``k``
  vouching votes from the read quorum, computed here as vectorised
  per-trial vote counts over the boolean membership masks
  (:func:`classify_threshold_votes`).

Reproducibility and memory
--------------------------

Trials are processed in fixed-size chunks.  Each chunk gets its own RNG
substream via ``numpy.random.SeedSequence(seed).spawn(...)``, so a run is
fully determined by ``(seed, chunk_size)`` and peak memory stays bounded at
``O(chunk_size * n)`` per thread regardless of the trial count.

The one-write loop (:meth:`BatchTrialEngine.estimate_read_consistency`
without writers or gossip) runs its chunks at the same time on the calling
thread and one helper thread per further usable CPU (:func:`_sum_chunks`).
A chunk's outcome is four integer counts drawn from its own substream, so
the report is the same bit for bit at every CPU count, and NumPy releases
the interpreter lock inside the kernels, so the chunks really overlap.
That path's memory is ``O(threads * chunk_size * n)``.  The
version-history kernel stays on the calling thread: a staleness chunk's
working set is ~20 MB, and a helper's malloc arena keeps it.  On 2 vCPUs,
running its chunks concurrently too raised the ``mc-batch`` benchmark's
peak RSS from ~79 MB to 110–114 MB (≥ 1.39×); the one-write path alone
reads ~83 MB (1.05×).

Within one estimator run each thread also *reuses* its per-chunk buffers:
profiling the hot loop showed the top repeated allocations were the two
``(chunk, n)`` quorum-membership matrices and the boolean vote-mask
temporaries re-created for every block, so every thread keeps one
workspace (:class:`_Workspace`) and fills the same arrays in place across
blocks (membership via the strategies' ``out=`` parameter, vote
intersection via ``np.logical_and(..., out=...)``).  Buffer contents never
cross chunk boundaries — every array is fully overwritten before it is
read — so the estimates are bit-identical to the allocating path.

Two kernels classify reads.  One write followed by one read (the
consistency estimate of Theorems 3.2, 4.2 and 5.2) needs no version
matrix: a trial's honest votes are the read quorum's responsive storers
that the write quorum touched.  With one write of timestamp ``ts₁``, a
trial is *fresh* when at least ``k`` of them vouch and no accepted forgery
outranks ``ts₁``; *fabricated* when a forgery clears the filter (``k``
forger votes, valid only where data is not self-verifying) and outranks
the write; *stale* when only an out-ranked forgery cleared it; *empty*
when nothing did (:func:`classify_threshold_votes`).  A forgery whose
timestamp equals ``ts₁`` is resolved by the read rule's tie order
(:func:`classify_tying_votes`).

Everything else — a write history read once (staleness), concurrent
writers, and a write followed by gossip rounds — runs through the one
version-history kernel (:meth:`BatchTrialEngine._history_reads`).
Version ``v`` carries the ``v``-th of an ascending list of honest
timestamps and values; the kernel writes each to its own write quorum,
gossips either after every write or once after the last, and reads once.
Per-server ``latest`` / ``first_seen`` version matrices take the writes
with no masked write (a masked ``np.copyto`` or an ``np.where`` on a random
mask costs several times a plain pass): versions ascend, so every stored
version is below the one being written, and :func:`_record_write` applies
a write branch-free, a maximum for ``latest`` and an unsigned minimum that
moves ``first_seen`` only off ``-1``.  Votes select versions the same way
(``v * e - ~e`` rather than ``np.where``); the results are the masked
writes' bit for bit (``tests/simulation/test_version_update_differential.py``).
The read (:meth:`BatchTrialEngine._read_versions`) returns the best
credible version and where a forgery beats it: by outranking it, or by
tying its timestamp and winning the tie as the read rule would, while a
forged value equal to the tied version's merges with it.  The estimators
only label the result: a lag for a history, and fresh / stale / empty /
fabricated for a contention round, where a read of a losing writer is
stale.

Equivalence with the sequential engine (same scenario) is asserted by
``tests/simulation/test_batch_engine.py`` at 10k trials within
Chernoff-derived tolerances for all three protocols, tying forgeries
included, and ``tests/simulation/test_read_rule_oracle.py`` checks every
kernel's verdict against :class:`~repro.protocol.selection.ReadRule` on
the replies the same vote counts describe.
"""

from __future__ import annotations

import functools
import math
import os
import threading
from typing import Callable, Iterator, List, Optional, Sequence, Tuple, TYPE_CHECKING

import numpy as np

from repro.core.probabilistic import ProbabilisticQuorumSystem
from repro.exceptions import ConfigurationError
from repro.protocol.timestamps import Timestamp
from repro.rngs import chunked_substreams
from repro.simulation.diffusion import gossip_rounds_batch
from repro.simulation.failures import BatchFailureMasks, FailureModel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.protocol.selection import ReadRule
    from repro.simulation.scenario import ScenarioSpec

#: Default number of trials processed per vectorised chunk.  4096 trials over
#: a 1000-server universe is ~4 MB of boolean masks — large enough to
#: amortise NumPy dispatch, small enough to stay cache- and memory-friendly.
DEFAULT_CHUNK_SIZE = 4096


#: Chunk outcome counts, summed over the chunks of one estimate.
_Counts = Tuple[int, ...]


def _helper_count() -> int:
    """Helper threads an estimate may start: the usable CPUs beyond this one."""
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        usable = os.cpu_count() or 1
    return max(0, usable - 1)


def _sum_chunks(
    seed: int, trials: int, chunk_size: int, work: Callable[[np.random.Generator, int], _Counts]
) -> _Counts:
    """Element-wise sum of ``work(generator, size)`` over the chunks, on every usable CPU.

    The chunks are :func:`~repro.rngs.chunked_substreams`'s.  The calling
    thread and up to one helper thread per further usable CPU (never more
    helpers than further chunks) take chunks until none is left.  Each
    chunk owns its substream and yields integer counts, so which thread ran
    it, and in what order the counts add up, does not change the sum.  NumPy
    releases the interpreter lock inside its kernels, so the chunks really
    run at once.  Every helper is joined before this returns or re-raises;
    after a chunk raises, no thread starts another.
    """
    chunks = chunked_substreams(seed, trials, chunk_size)
    lock = threading.Lock()
    failed = threading.Event()
    sums: List[_Counts] = []
    errors: List[BaseException] = []

    def drain() -> None:
        try:
            while not failed.is_set():
                with lock:
                    chunk = next(chunks, None)
                if chunk is None:
                    return
                counts = work(*chunk)
                with lock:
                    sums.append(counts)
        except BaseException as error:
            failed.set()
            with lock:
                errors.append(error)

    helpers: List[threading.Thread] = []
    try:
        for _ in range(min(_helper_count(), math.ceil(trials / chunk_size) - 1)):
            helper = threading.Thread(target=drain, name="repro-batch-helper", daemon=True)
            helper.start()
            helpers.append(helper)
        drain()
    finally:
        for helper in helpers:
            helper.join()
    if errors:
        raise errors[0]
    return tuple(map(sum, zip(*sums)))


class _Workspace:
    """Named reusable scratch arrays, keyed by (name, shape, dtype).

    ``array(...)`` hands back the same buffer on every chunk of the same
    size and allocates only when the shape changes (i.e. the final short
    chunk).  Callers must fully overwrite a buffer before reading it.  An
    engine keeps one per thread (:attr:`BatchTrialEngine._workspace`), so
    chunks running at once never share a buffer; the one-write path's
    buffers therefore take ``threads * chunk * n`` bytes per name.
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


def _record_write(
    latest: np.ndarray,
    first_seen: np.ndarray,
    touched: np.ndarray,
    version: int,
    scratch: np.ndarray,
) -> None:
    """Store honest write ``version`` at the ``touched`` servers, in place.

    ``latest`` holds each server's newest version and ``first_seen`` the
    first it accepted (``-1`` = none); ``scratch`` is a buffer of their
    shape and dtype.  The histories write versions in ascending order, so
    every version already stored is below ``version``.  That makes the
    update branch-free, with no masked write: the candidate
    ``touched * (version + 1) - 1`` is ``version`` where touched and ``-1``
    elsewhere, ``latest`` takes its maximum with it, and ``first_seen``
    takes the unsigned minimum — ``-1`` read unsigned is the largest value,
    so only entries still at ``-1`` move, and only where touched.
    """
    # A scalar of the buffer's own type keeps the product in its dtype's loop.
    np.multiply(touched, scratch.dtype.type(version + 1), out=scratch)
    np.subtract(scratch, 1, out=scratch)
    np.maximum(latest, scratch, out=latest)
    unsigned = np.dtype(f"u{first_seen.itemsize}")
    np.minimum(
        first_seen.view(unsigned), scratch.view(unsigned), out=first_seen.view(unsigned)
    )


def _timestamp_rank(fabricated_timestamp, honest: Sequence[Timestamp]) -> int:
    """How many of the ascending ``honest`` timestamps a forgery outranks.

    Honest version ``v`` carries ``honest[v]``; the returned rank ``r``
    means the forgery beats exactly versions ``0..r-1``, so it wins a read
    iff the best credible honest version is below ``r`` (or, when it ties
    version ``r``, wins the tie there).  Timestamps that do not compare
    against :class:`Timestamp` are treated as outranking everything (the
    strongest fabrication, matching ``Timestamp.forged_maximum``).
    """
    rank = 0
    for timestamp in honest:
        try:
            below = timestamp < fabricated_timestamp
        except TypeError:
            below = True
        if below:
            rank += 1
    return rank


def _forgery_preferred(
    honest_votes: np.ndarray, forged_votes: np.ndarray, forged_key_wins: bool
) -> np.ndarray:
    """Where the tie rule picks a forgery over the honest pair whose timestamp it ties.

    The larger vote count wins; an exhausted tie goes to the larger
    tiebreak key (``forged_key_wins`` says whether that is the forgery's),
    as in :func:`repro.protocol.selection.selection_order`.
    """
    return (forged_votes > honest_votes) | ((forged_votes == honest_votes) & forged_key_wins)


def _votes_for(honest: np.ndarray, replayed: np.ndarray, version: int) -> np.ndarray:
    """Per-trial votes for ``version`` from :meth:`BatchTrialEngine._vouched_versions`."""
    return ((honest == version) | (replayed == version)).sum(axis=1)


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
    forged_prefers = _forgery_preferred(honest_votes, forged_votes, forged_key_wins)
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
    rule:
        The :class:`~repro.protocol.selection.ReadRule` the reads apply; the
        kernels read its threshold ``k`` and whether it is signed.  Defaults
        to ``ScenarioSpec(system=system).read_rule()``, so a masking system
        gets the threshold read and a dissemination system the
        signature-checked read — the rule the sequential engine's registers
        carry.
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
        write settling and the read — synchronous rounds that approximate
        the sequential engine's
        :class:`~repro.simulation.diffusion.DiffusionEngine` pass (see
        :class:`~repro.simulation.scenario.AntiEntropySpec`).
    """

    def __init__(
        self,
        system: ProbabilisticQuorumSystem,
        failure_model: Optional[FailureModel] = None,
        seed: int = 0,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        writer_id: int = 0,
        rule: Optional["ReadRule"] = None,
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
        if rule is None:
            from repro.simulation.scenario import ScenarioSpec

            rule = ScenarioSpec(system=system).read_rule()
        self.rule = rule
        self.written_value = written_value
        self._local = threading.local()

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
            rule=spec.read_rule(),
            written_value=spec.workload.written_value,
            writers=spec.writers,
            anti_entropy=spec.anti_entropy,
        )

    @property
    def _workspace(self) -> _Workspace:
        """The calling thread's scratch buffers (chunks run on several threads)."""
        workspace = getattr(self._local, "workspace", None)
        if workspace is None:
            workspace = self._local.workspace = _Workspace()
        return workspace

    # -- chunked substreams -------------------------------------------------------

    def _chunks(self, trials: int) -> Iterator[Tuple[np.random.Generator, int]]:
        """Yield ``(generator, chunk_trials)`` pairs with spawned substreams."""
        return chunked_substreams(self.seed, trials, self.chunk_size)

    def _forgery(
        self, timestamps: Sequence[Timestamp], values: Sequence[object]
    ) -> Tuple[int, Optional[int], bool, bool]:
        """Where the forged pair falls among the honest versions' pairs.

        Returns ``(rank, tie, forged_key_wins, values_collide)``: the
        :func:`_timestamp_rank` of the forged timestamp among the ascending
        honest ``timestamps``; the version whose timestamp it equals
        (``None`` when it ties none, or when no forgery survives the read's
        filter); and, at a tie, whether the forged value's tiebreak key is
        the larger, or equal to that version's value (the pairs merge).
        """
        fabricated = self.model.fabricated_timestamp
        rank = _timestamp_rank(fabricated, timestamps)
        if (
            not self.model.forges_values
            or self.rule.signatures is not None
            or rank == len(timestamps)
            or timestamps[rank] != fabricated
        ):
            return rank, None, False, False
        from repro.protocol.selection import tiebreak_key

        forged_key = tiebreak_key(self.model.fabricated_value)
        honest_key = tiebreak_key(values[rank])
        return rank, rank, forged_key > honest_key, forged_key == honest_key

    def _reject_gray(self) -> None:
        """Refuse gray nodes on the version-history kernel, where the per-trial fold is inexact.

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
                "gray nodes draw drops per request, which the version-history kernel "
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

        The two membership matrices are drawn into per-thread reusable
        buffers (the hot loop's top repeated allocation), so consecutive
        equal-size chunks touch the same memory.
        """
        masks = self.model.sample_masks(self.system.n, size, generator)
        member_w = self._draw_membership(size, generator, "member_w")
        member_r = self._draw_membership(size, generator, "member_r")
        return member_w, member_r, masks

    def _forged_votes(self, member_r: np.ndarray, masks: BatchFailureMasks) -> np.ndarray:
        """Per-trial forger vote counts; zero where signatures filter them out."""
        if self.rule.signatures is not None:
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
        (benign, signature-checked or threshold-vote, per the rule).
        Concurrent writers and gossip rounds run through the
        version-history kernel (:meth:`_history_reads`); otherwise the
        chunks run on every usable CPU at once (:func:`_sum_chunks`), with
        the same report at every CPU count.
        """
        from repro.simulation.monte_carlo import ConsistencyReport

        if trials <= 0:
            raise ConfigurationError(f"trial count must be positive, got {trials}")
        if self.writers > 1 or (self.anti_entropy is not None and self.anti_entropy.gossips):
            return self._estimate_contention(trials)
        forgery = self._forgery([Timestamp(1, self.writer_id)], [self.written_value])
        fresh, stale, empty, fabricated = _sum_chunks(
            self.seed, trials, self.chunk_size, functools.partial(self._one_write, forgery=forgery)
        )
        return ConsistencyReport(
            trials=trials, fresh=fresh, stale=stale, empty=empty, fabricated=fabricated
        )

    def _one_write(
        self,
        generator: np.random.Generator,
        size: int,
        forgery: Tuple[int, Optional[int], bool, bool],
    ) -> Tuple[int, int, int, int]:
        """One chunk of one-write trials: its ``(fresh, stale, empty, fabricated)`` counts."""
        rank, tie, forged_key_wins, values_collide = forgery
        threshold = self.rule.threshold
        member_w, member_r, masks = self._sample_round(generator, size)
        vouchers = self._workspace.array("vouchers", (size, self.system.n), bool)
        np.logical_and(member_r, member_w, out=vouchers)
        np.logical_and(vouchers, masks.responsive_storers, out=vouchers)
        honest_votes = vouchers.sum(axis=1)
        forged_votes = self._forged_votes(member_r, masks)
        if tie is not None:
            outcomes = classify_tying_votes(
                honest_votes, forged_votes, threshold, forged_key_wins, values_collide
            )
        else:
            outcomes = classify_threshold_votes(honest_votes, forged_votes, threshold, rank >= 1)
        fresh, stale, empty, fabricated = (int(np.count_nonzero(mask)) for mask in outcomes)
        return fresh, stale, empty, fabricated

    def _estimate_contention(self, trials: int) -> "ConsistencyReport":
        """Concurrent writers (one, when only gossip is declared), gossip, one read.

        Writer ``w`` writes ``Timestamp(1, writer_id + w)`` and the value
        :func:`~repro.simulation.monte_carlo.multiwriter_values` gives it,
        in ascending writer order — the canonical interleaving the
        sequential oracle also uses — so a version is a writer index; the
        spec's gossip rounds run once after the writes.  The read is
        *fresh* only when the deterministic winner (the highest writer id)
        wins it; a read of a lower writer is *stale*, exactly how the shared
        classifier labels a concurrent-but-losing honest value.  A winning
        forgery is stale when its timestamp is below the winner's and
        fabricated when it outranks or ties it.
        """
        from repro.simulation.monte_carlo import ConsistencyReport, multiwriter_values

        writers = self.writers
        timestamps = [Timestamp(1, self.writer_id + index) for index in range(writers)]
        forgery = self._forgery(timestamps, multiwriter_values(self.written_value, writers))
        rank, tie, _, _ = forgery
        last = writers - 1
        forgery_fabricates = rank == writers or tie == last
        gossip = None
        if self.anti_entropy is not None and self.anti_entropy.gossips:
            gossip = (self.anti_entropy.fanout, self.anti_entropy.rounds)
        fresh = stale = empty = fabricated = 0
        for best, forged_wins in self._history_reads(trials, writers, forgery, gossip):
            honest_read = ~forged_wins
            fresh += int(((best == last) & honest_read).sum())
            stale += int(((best >= 0) & (best < last) & honest_read).sum())
            empty += int(((best < 0) & honest_read).sum())
            if forgery_fabricates:
                fabricated += int(forged_wins.sum())
            else:
                stale += int(forged_wins.sum())
        return ConsistencyReport(
            trials=trials, fresh=fresh, stale=stale, empty=empty, fabricated=fabricated
        )

    def _history_reads(
        self,
        trials: int,
        versions: int,
        forgery: Tuple[int, Optional[int], bool, bool],
        gossip: Optional[Tuple[int, int]],
        gossip_every_write: bool = False,
    ) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        """The version-history kernel: per chunk, write every version, gossip, read.

        Versions ``0..versions-1`` are written in ascending order, each to
        its own strategy-drawn write quorum through :func:`_record_write`;
        ``forgery`` is :meth:`_forgery` of their timestamps and values.
        ``gossip = (fanout, rounds)`` runs :func:`gossip_rounds_batch` over
        the correct servers (crashed neither push nor receive, Byzantine
        ignore gossip and their pushes are never trusted —
        :class:`~repro.simulation.diffusion.DiffusionEngine`'s rules) after
        every write, or once after the last.  Then one read
        quorum is drawn, and :meth:`_read_versions` yields, per chunk, the
        version each trial read and where a forgery won instead.
        """
        self._reject_gray()
        n = self.system.n
        workspace = self._workspace
        for generator, size in self._chunks(trials):
            masks = self.model.sample_masks(n, size, generator)
            correct = ~(masks.crashed | masks.byzantine)
            storers = masks.responsive_storers
            latest = np.full((size, n), -1, dtype=np.int32)
            first_seen = np.full((size, n), -1, dtype=np.int32)
            touched = workspace.array("touched", (size, n), bool)
            scratch = workspace.array("write", (size, n), np.int32)
            for version in range(versions):
                member_w = self._draw_membership(size, generator, "member_w")
                np.logical_and(member_w, storers, out=touched)
                _record_write(latest, first_seen, touched, version, scratch)
                if gossip is not None and (gossip_every_write or version == versions - 1):
                    latest = gossip_rounds_batch(latest, correct, *gossip, generator)
            member_r = self._draw_membership(size, generator, "member_r")
            yield self._read_versions(member_r, masks, latest, first_seen, versions, forgery)

    def _read_versions(
        self,
        member_r: np.ndarray,
        masks: BatchFailureMasks,
        latest: np.ndarray,
        first_seen: np.ndarray,
        versions: int,
        forgery: Tuple[int, Optional[int], bool, bool],
    ) -> Tuple[np.ndarray, np.ndarray]:
        """One read of the version matrices: ``(version read, forgery wins)`` per trial.

        The version read is the best credible one (``-1`` for none).  With
        ``forgery = (rank, tie, forged_key_wins, values_collide)`` from
        :meth:`_forgery`, a forgery with threshold votes wins where that
        version is below ``rank``.  When it ties version ``tie`` (then
        ``rank``), the two pairs compete as in :func:`classify_tying_votes`,
        and only then are the tied version's votes counted: where the best
        version is ``tie`` the forgery must be preferred over it, and where
        the values are equal the forged votes merge into the version's, so
        the read returns ``tie`` wherever the merged votes clear the
        threshold above a lower best version, and the forgery never wins.
        """
        rank, tie, forged_key_wins, values_collide = forgery
        threshold = self.rule.threshold
        best = self._best_credible_version(member_r, masks, latest, first_seen, versions)
        forged_votes = self._forged_votes(member_r, masks)
        if tie is None:
            return best, (forged_votes >= threshold) & (best < rank)
        tie_votes = _votes_for(*self._vouched_versions(member_r, masks, latest, first_seen), tie)
        if values_collide:
            merged = (best < tie) & (tie_votes + forged_votes >= threshold)
            return np.where(merged, tie, best), np.zeros(best.shape, dtype=bool)
        preferred = (best == tie) & _forgery_preferred(tie_votes, forged_votes, forged_key_wins)
        return best, (forged_votes >= threshold) & ((best < tie) | preferred)

    def _vouched_versions(
        self,
        member_r: np.ndarray,
        masks: BatchFailureMasks,
        latest: np.ndarray,
        first_seen: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The version each read-quorum server vouches for: ``(correct, replaying)``.

        Correct servers vouch for their (possibly gossip-updated) latest
        version, replay servers for the first version they accepted; a
        server that does not vote counts as version ``-1``, selected
        branch-free as ``v * e - ~e`` (every stored version is at least
        ``-1``).
        """
        correct = ~(masks.crashed | masks.byzantine)
        vouching = member_r & correct
        honest = latest * vouching
        honest -= ~vouching
        replaying = member_r & masks.replay
        replayed = first_seen * replaying
        replayed -= ~replaying
        return honest, replayed

    def _best_credible_version(
        self,
        member_r: np.ndarray,
        masks: BatchFailureMasks,
        latest: np.ndarray,
        first_seen: np.ndarray,
        writes: int,
    ) -> np.ndarray:
        """Highest write version that clears the vote threshold (-1 if none).

        The value attached to a version is the same at every honest holder,
        so per-version vote counting over the membership masks reproduces
        the sequential register's ``Counter`` over value/timestamp pairs.
        """
        honest, replayed = self._vouched_versions(member_r, masks, latest, first_seen)
        threshold = self.rule.threshold
        if threshold <= 1:
            return np.maximum(honest, replayed).max(axis=1)
        best = np.full(member_r.shape[0], -1, dtype=np.int64)
        for version in range(writes):
            best = np.where(_votes_for(honest, replayed, version) >= threshold, version, best)
        return best

    def estimate_staleness_distribution(
        self,
        trials: int,
        writes: int = 5,
        gossip_rounds_between_writes: int = 0,
        gossip_fanout: int = 2,
    ) -> "StalenessReport":
        """A write history followed by one read; measure the version lag.

        Write ``v`` carries ``Timestamp(v + 1, writer_id)`` and the value
        :func:`~repro.simulation.monte_carlo.history_values` gives it; a
        read of version ``v`` lags ``writes - 1 - v``, and ⊥ or a winning
        forgery lags ``writes``.
        """
        from repro.simulation.monte_carlo import StalenessReport, history_values

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
        timestamps = [Timestamp(version + 1, self.writer_id) for version in range(writes)]
        forgery = self._forgery(timestamps, history_values(writes))
        gossip = None
        if gossip_rounds_between_writes > 0:
            gossip = (gossip_fanout, gossip_rounds_between_writes)
        lags: List[np.ndarray] = []
        for best, forged_wins in self._history_reads(
            trials, writes, forgery, gossip, gossip_every_write=True
        ):
            lag = np.where(best >= 0, writes - 1 - best, writes)
            lag = np.where(forged_wins, writes, lag)
            lags.append(lag.astype(np.int64))
        versions_behind = np.concatenate(lags).tolist()
        return StalenessReport(trials=trials, versions_behind=versions_behind)
