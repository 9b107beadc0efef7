"""Replica servers with pluggable failure behaviour.

Each server stores, per replicated variable, the last value/timestamp pair it
accepted (plus the signature when the protocol uses self-verifying data) and
answers read and write requests according to its *behaviour*:

* :class:`CorrectBehavior` — follows the protocol: accepts writes with newer
  timestamps, returns its stored copy on reads;
* :class:`CrashedBehavior` — answers nothing (a benign, fail-stop failure);
* :class:`ByzantineSilentBehavior` — acknowledges nothing and suppresses its
  state (the strongest attack possible against *self-verifying* data);
* :class:`ByzantineReplayBehavior` — returns the oldest value it ever
  accepted, i.e. serves stale but once-valid data;
* :class:`ByzantineForgeBehavior` — fabricates a value with a sky-high
  timestamp; colluding forgers can be given the same fabricated value so
  they have the best possible chance of defeating a masking threshold.

Timestamps are treated as opaque, totally ordered objects, so the same
server code serves the plain, dissemination and masking protocols.  Every
server also hosts a lock :class:`~repro.protocol.arbiter.LockArbiter`.
"""

from __future__ import annotations

import abc
import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional

from repro.exceptions import ProtocolError, SimulationError
from repro.types import ServerId

if TYPE_CHECKING:
    from repro.protocol.arbiter import LockArbiter


#: What :meth:`ReplicaServer.handle` returns for silence: no reply at all,
#: which a driver turns into a miss (the service, into the caller's timeout).
NO_REPLY = object()


@dataclass(frozen=True)
class StoredValue:
    """One replica's copy of a variable: value, timestamp and optional signature."""

    value: Any
    timestamp: Any
    signature: Optional[bytes] = None


class ServerBehavior(abc.ABC):
    """How a server responds to protocol messages."""

    #: Whether the behaviour models a Byzantine (arbitrary) failure.
    byzantine: bool = False
    #: Whether the behaviour models a crash (fail-stop: never replies).
    crashed: bool = False
    #: Whether the behaviour chooses silence: no ping or repair answers.
    silent: bool = False

    @abc.abstractmethod
    def on_write(
        self, server: "ReplicaServer", variable: str, stored: StoredValue
    ) -> bool:
        """Handle a write request; return ``True`` to acknowledge it."""

    @abc.abstractmethod
    def on_read(
        self, server: "ReplicaServer", variable: str
    ) -> Any:
        """Handle a read request: the stored copy, ``None`` ("I store
        nothing") or :data:`NO_REPLY` for silence."""

    def on_lock(self, server: "ReplicaServer", message: tuple) -> Any:
        """Handle a lock message (:data:`NO_REPLY` = silence).  A Byzantine server
        grants every request and names as holder what it serves on a read."""
        if self.byzantine:
            return server.arbiter.forged(self.on_read(server, message[1]))
        return server.arbiter.handle(*message)

    def for_trial(self) -> "ServerBehavior":
        """A behaviour instance safe to install for one independent trial.

        Stateless behaviours return themselves; stateful ones (replay's
        first-seen cache, a gray node's drop sequence) return a fresh copy so
        a :class:`~repro.simulation.failures.FailurePlan` reused across
        trials cannot leak one trial's state into the next.
        """
        return self


class CorrectBehavior(ServerBehavior):
    """A correct server: stores the freshest write, returns its copy on reads."""

    def on_write(self, server: "ReplicaServer", variable: str, stored: StoredValue) -> bool:
        current = server.storage.get(variable)
        if current is None or stored.timestamp > current.timestamp:
            server.storage[variable] = stored
        return True

    def on_read(self, server: "ReplicaServer", variable: str) -> Optional[StoredValue]:
        return server.storage.get(variable)


class CrashedBehavior(ServerBehavior):
    """A crashed server: never replies."""

    crashed = True

    def on_write(self, server: "ReplicaServer", variable: str, stored: StoredValue) -> bool:
        return False

    def on_read(self, server: "ReplicaServer", variable: str) -> Any:
        return NO_REPLY

    def on_lock(self, server: "ReplicaServer", message: tuple) -> Any:
        return NO_REPLY


class ByzantineSilentBehavior(ServerBehavior):
    """Accepts nothing and says nothing: suppression of self-verifying data."""

    byzantine = True
    silent = True

    def on_write(self, server: "ReplicaServer", variable: str, stored: StoredValue) -> bool:
        return False

    def on_read(self, server: "ReplicaServer", variable: str) -> Any:
        return NO_REPLY

    def on_lock(self, server: "ReplicaServer", message: tuple) -> Any:
        return NO_REPLY


class ByzantineReplayBehavior(ServerBehavior):
    """Serves the *first* value it ever accepted — stale but correctly signed data."""

    byzantine = True

    def __init__(self) -> None:
        self._first_seen: Dict[str, StoredValue] = {}

    def for_trial(self) -> "ByzantineReplayBehavior":
        return ByzantineReplayBehavior()

    def on_write(self, server: "ReplicaServer", variable: str, stored: StoredValue) -> bool:
        self._first_seen.setdefault(variable, stored)
        # It still updates its visible storage so that later replays are plausible.
        server.storage[variable] = stored
        return True

    def on_read(self, server: "ReplicaServer", variable: str) -> Optional[StoredValue]:
        return self._first_seen.get(variable, server.storage.get(variable))


class ByzantineForgeBehavior(ServerBehavior):
    """Fabricates values with a maximal timestamp (and no valid signature).

    Parameters
    ----------
    fabricated_value:
        The value the forger claims.  Give every colluding forger the same
        value to model the strongest attack against a masking threshold.
    fabricated_timestamp:
        The timestamp attached to the forgery.  It should compare greater
        than every honest timestamp; the protocol layer's
        ``Timestamp.forged_maximum()`` provides such a value.
    """

    byzantine = True

    def __init__(self, fabricated_value: Any, fabricated_timestamp: Any) -> None:
        self.fabricated_value = fabricated_value
        self.fabricated_timestamp = fabricated_timestamp

    def on_write(self, server: "ReplicaServer", variable: str, stored: StoredValue) -> bool:
        # Pretends to accept the write (so the writer's quorum completes) but
        # discards the data.
        return True

    def on_read(self, server: "ReplicaServer", variable: str) -> Optional[StoredValue]:
        return StoredValue(
            value=self.fabricated_value,
            timestamp=self.fabricated_timestamp,
            signature=b"forged",
        )


class GrayBehavior(ServerBehavior):
    """A *gray* (flaky / slow-to-the-point-of-timeout) but honest server.

    Each request is independently lost with probability ``drop_p``: a
    dropped write is never stored (and never acknowledged), a dropped read
    times out.  The requests that do get through are served correctly —
    gray nodes are benign (``byzantine = False``), they just erode
    availability, which is exactly the failure mode the ε-availability
    analysis of Section 3 must absorb without any fabrication risk.

    The drop sequence is drawn from a private seeded generator so a plan is
    reproducible; :meth:`for_trial` restarts the sequence, keeping trials
    that reuse one plan independent and identically distributed.
    """

    def __init__(self, drop_p: float, seed: int = 0) -> None:
        if not 0.0 <= drop_p <= 1.0:
            raise SimulationError(f"drop probability must lie in [0, 1], got {drop_p}")
        self.drop_p = float(drop_p)
        self.seed = int(seed)
        self._rng = random.Random(self.seed)

    def for_trial(self) -> "GrayBehavior":
        return GrayBehavior(self.drop_p, self.seed)

    def _delivered(self) -> bool:
        return self._rng.random() >= self.drop_p

    def on_write(self, server: "ReplicaServer", variable: str, stored: StoredValue) -> bool:
        if not self._delivered():
            return False
        current = server.storage.get(variable)
        if current is None or stored.timestamp > current.timestamp:
            server.storage[variable] = stored
        return True

    def on_read(self, server: "ReplicaServer", variable: str) -> Any:
        if not self._delivered():
            return NO_REPLY
        return server.storage.get(variable)

    def on_lock(self, server: "ReplicaServer", message: tuple) -> Any:
        return super().on_lock(server, message) if self._delivered() else NO_REPLY


class ReplicaServer:
    """A single replica server: storage plus a behaviour.

    The server itself is behaviour-agnostic; crash/recover toggles simply
    swap the behaviour, which keeps failure injection trivial for the test
    suite and the Monte-Carlo harness.
    """

    def __init__(
        self,
        server_id: ServerId,
        behavior: Optional[ServerBehavior] = None,
    ) -> None:
        if server_id < 0:
            raise SimulationError(f"server ids must be non-negative, got {server_id}")
        self.server_id = int(server_id)
        self.storage: Dict[str, StoredValue] = {}
        self._behavior: ServerBehavior = behavior or CorrectBehavior()
        self._saved_behavior: Optional[ServerBehavior] = None
        self._arbiter: Optional["LockArbiter"] = None
        self.writes_handled = 0
        self.reads_handled = 0

    # -- behaviour management ---------------------------------------------------

    @property
    def behavior(self) -> ServerBehavior:
        """The currently installed behaviour."""
        return self._behavior

    @behavior.setter
    def behavior(self, value: ServerBehavior) -> None:
        self._behavior = value

    @property
    def is_crashed(self) -> bool:
        """Whether the server currently runs a crashed behaviour."""
        return self._behavior.crashed

    @property
    def is_byzantine(self) -> bool:
        """Whether the server's behaviour is Byzantine."""
        return self._behavior.byzantine

    @property
    def arbiter(self) -> "LockArbiter":
        """The server's lock grant table, built on first use."""
        if self._arbiter is None:
            from repro.protocol.arbiter import LockArbiter  # it imports this module

            self._arbiter = LockArbiter()
        return self._arbiter

    def crash(self) -> None:
        """Crash the server (its storage survives; its grant table does not)."""
        if not self.is_crashed:
            self._saved_behavior = self._behavior
            self._behavior = CrashedBehavior()
            self._arbiter = None

    def recover(self) -> None:
        """Recover from a crash, restoring the pre-crash behaviour."""
        if self.is_crashed:
            self._behavior = self._saved_behavior or CorrectBehavior()
            self._saved_behavior = None

    @property
    def answers_pings(self) -> bool:
        """Whether a liveness probe (or a repair) gets an answer.

        Crashed servers cannot answer; a silent-Byzantine server *chooses*
        not to (total suppression is its defining attack).
        """
        return not (self._behavior.crashed or self._behavior.silent)

    # -- the protocol entry point -------------------------------------------------

    def handle(self, method: str, args: tuple = ()) -> Any:
        """Answer one RPC through the behaviour; :data:`NO_REPLY` is silence.

        ``args`` is the RPC's argument tuple: ``read`` takes ``(variable,)``
        and returns the stored copy (``None``: "I store nothing");
        ``write`` and ``repair`` take ``(variable, value, timestamp,
        signature)`` and return the ack / whether the merge adopted;
        ``lock`` takes the lock message and returns the arbiter's reply;
        ``ping`` takes nothing and returns ``True``.  Every driver — the
        synchronous :class:`~repro.simulation.cluster.Cluster`, the explorer
        and the service's nodes — asks through here.  The tuple is passed
        as it is, not spread: re-spreading a forwarded ``*args`` costs the
        service's node a ``CALL_FUNCTION_EX`` on every RPC.
        """
        if method == "read":
            # First: reads dominate every workload.
            self.reads_handled += 1
            (variable,) = args
            return self._behavior.on_read(self, variable)
        if method == "write":
            self.writes_handled += 1
            variable, value, timestamp, signature = args
            stored = StoredValue(value, timestamp, signature)
            # Only silence withholds an ack (crashed, silent, a gray drop).
            return True if self._behavior.on_write(self, variable, stored) else NO_REPLY
        if method == "repair":
            # Anti-entropy delivery (read-repair or a gossip push): adopt if
            # newer through the merge rule, which refuses on crashed and
            # Byzantine servers.  Senders are fire-and-forget.
            variable, value, timestamp, signature = args
            adopted = self.merge(variable, StoredValue(value, timestamp, signature))
            return adopted if self.answers_pings else NO_REPLY
        if method == "lock":
            return self._behavior.on_lock(self, args)
        if method == "ping":
            return True if self.answers_pings else NO_REPLY
        raise ProtocolError(f"unknown rpc method {method!r}")

    # -- gossip support -----------------------------------------------------------

    def merge(self, variable: str, incoming: StoredValue) -> bool:
        """Anti-entropy merge: adopt ``incoming`` if it is newer; only for correct servers.

        Returns whether the local copy changed.  Byzantine and crashed
        servers ignore gossip (a Byzantine server is free to do anything, and
        ignoring the update is the most adversarial choice for freshness).
        """
        if self.is_crashed or self.is_byzantine:
            return False
        current = self.storage.get(variable)
        if current is None or incoming.timestamp > current.timestamp:
            self.storage[variable] = incoming
            return True
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return f"ReplicaServer(id={self.server_id}, behavior={type(self._behavior).__name__})"
