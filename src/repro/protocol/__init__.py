"""Replicated-variable protocols built on probabilistic quorum systems.

Section 3.1 of the paper gives a single-writer, multi-reader access protocol
that approximates a *safe* variable; Sections 4 and 5 adapt the read side
for Byzantine environments with and without self-verifying data.  The three
differ only in the read rule, so this subpackage implements them as one
register with three rules, against the
:class:`~repro.simulation.cluster.Cluster` facade:

* :mod:`repro.protocol.quorum_op` — one quorum operation as a pure state
  machine (no event loop, no clock, no IO): who is asked, which replies
  count, and the top-up rule that sends the operation itself to as many
  not-yet-contacted servers as stayed silent.  The cluster's synchronous
  :meth:`~repro.simulation.cluster.Cluster.run` and the service's drivers
  all run it;
* :mod:`repro.protocol.timestamps` — writer-local monotone timestamps;
* :mod:`repro.protocol.signatures` — simulated self-verifying data (keyed
  hashes standing in for digital signatures);
* :mod:`repro.protocol.selection` — the one :class:`ReadRule` (vote
  threshold plus optional signature scheme) that every reader — these
  registers, the async service frontends, the gossip verifiers, the lock
  and the voting service — filters and selects replies through;
* :mod:`repro.protocol.register` — the register: :class:`RegisterClient`,
  the access protocol of §3.1 with no IO, reading through ``ReadRule()``
  (§3.1), a signed rule (§4, verifiable data) or a thresholded rule (§5,
  arbitrary data), and the outcomes it builds from a finished op;
* :mod:`repro.protocol.variable` — :class:`ProbabilisticRegister`, that
  register driven on the cluster;
* :mod:`repro.protocol.arbiter` — the quorum lock's pure halves: the
  replica's :class:`LockArbiter` and the client's :class:`LockOp`;
* :mod:`repro.protocol.lock` — :class:`QuorumLock`, that lock on the
  simulated cluster (the Phalanx-style building block of §1.1);
* :mod:`repro.protocol.write_back` — a read-repair register, the building
  block the paper points at for constructing atomic variables.
"""

from repro.protocol.timestamps import Timestamp, TimestampGenerator
from repro.protocol.quorum_op import MAX_TOP_UP_ROUNDS, QuorumOp
from repro.protocol.signatures import SignatureScheme, SignedPayload
from repro.protocol.register import ReadOutcome, RegisterClient, WriteOutcome
from repro.protocol.variable import ProbabilisticRegister
from repro.protocol.classification import OUTCOME_LABELS, classify_read_outcome
from repro.protocol.selection import (
    ReadRule,
    SelectedValue,
    select_credible_value,
    tiebreak_key,
)
from repro.protocol.arbiter import LockArbiter, LockAttempt, LockOp
from repro.protocol.lock import QuorumLock
from repro.protocol.write_back import WriteBackRegister

__all__ = [
    "QuorumOp",
    "MAX_TOP_UP_ROUNDS",
    "Timestamp",
    "TimestampGenerator",
    "SignatureScheme",
    "SignedPayload",
    "RegisterClient",
    "ProbabilisticRegister",
    "ReadOutcome",
    "WriteOutcome",
    "OUTCOME_LABELS",
    "classify_read_outcome",
    "ReadRule",
    "SelectedValue",
    "select_credible_value",
    "tiebreak_key",
    "LockArbiter",
    "LockOp",
    "QuorumLock",
    "LockAttempt",
    "WriteBackRegister",
]
