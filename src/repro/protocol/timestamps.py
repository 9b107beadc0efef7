"""Writer-local monotone timestamps.

The access protocols of the paper attach to every written value a timestamp
"greater than any timestamp [the writer] has chosen in the past"; readers
pick the reply with the highest timestamp.  With a single writer a simple
counter suffices; the ``writer_id`` component makes timestamps from
different writers comparable (lexicographically) so that the applications in
:mod:`repro.apps`, which have many writers updating *different* variables,
can share one timestamp type.

Byzantine forgers need a timestamp that outranks every honest one;
:meth:`Timestamp.forged_maximum` provides it, which lets the simulation
model the strongest possible fabrication attack.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.exceptions import ProtocolError


@dataclass(frozen=True)
class Timestamp:
    """A totally ordered (counter, writer) pair.

    Ordering is by counter first and writer id second, which matches the
    usual Lamport-style construction and guarantees a total order even when
    multiple writers (of different variables) share the type.
    """

    counter: int
    writer_id: int = 0

    def __post_init__(self) -> None:
        if self.counter < 0:
            raise ProtocolError(f"timestamp counters must be non-negative, got {self.counter}")

    def _key(self) -> tuple:
        return (self.counter, self.writer_id)

    def __lt__(self, other: "Timestamp") -> bool:
        if not isinstance(other, Timestamp):
            return NotImplemented
        return (self.counter, self.writer_id) < (other.counter, other.writer_id)

    # Spelled out rather than derived by ``functools.total_ordering``: gossip,
    # selection and read-repair compare timestamps on every hot path, and the
    # derived methods cost an extra call plus an ``__eq__`` per comparison
    # (``object.__ne__`` would likewise call back into ``__eq__``).
    def __gt__(self, other: "Timestamp") -> bool:
        if not isinstance(other, Timestamp):
            return NotImplemented
        return (self.counter, self.writer_id) > (other.counter, other.writer_id)

    def __le__(self, other: "Timestamp") -> bool:
        if not isinstance(other, Timestamp):
            return NotImplemented
        return (self.counter, self.writer_id) <= (other.counter, other.writer_id)

    def __ge__(self, other: "Timestamp") -> bool:
        if not isinstance(other, Timestamp):
            return NotImplemented
        return (self.counter, self.writer_id) >= (other.counter, other.writer_id)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Timestamp):
            return NotImplemented
        return self.counter == other.counter and self.writer_id == other.writer_id

    def __ne__(self, other: object) -> bool:
        if not isinstance(other, Timestamp):
            return NotImplemented
        return self.counter != other.counter or self.writer_id != other.writer_id

    def __hash__(self) -> int:
        # Memoised: timestamps are dict keys on every hot path (reply
        # grouping, history lookups) and the instance is immutable.
        cached = self.__dict__.get("_hash")
        if cached is None:
            cached = hash((self.counter, self.writer_id))
            object.__setattr__(self, "_hash", cached)
        return cached

    def next(self) -> "Timestamp":
        """The immediately following timestamp for the same writer."""
        return Timestamp(self.counter + 1, self.writer_id)

    @classmethod
    def zero(cls, writer_id: int = 0) -> "Timestamp":
        """The initial timestamp of a writer."""
        return cls(0, writer_id)

    @classmethod
    def forged_maximum(cls) -> "Timestamp":
        """A timestamp larger than any honest one (used by Byzantine forgers)."""
        return cls(2**62, 2**30)

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return f"Timestamp({self.counter}, w={self.writer_id})"


class TimestampGenerator:
    """Generates strictly increasing timestamps for a single writer.

    The generator enforces the single-writer discipline the paper's protocol
    assumes: it never emits the same timestamp twice and
    :meth:`observe` lets a writer that restarts (or that cooperates with
    other writers on *different* variables) fast-forward past timestamps it
    has seen.
    """

    def __init__(self, writer_id: int = 0, start: int = 0) -> None:
        if start < 0:
            raise ProtocolError(f"timestamp counters must be non-negative, got {start}")
        self._writer_id = int(writer_id)
        self._counter = int(start)

    @property
    def writer_id(self) -> int:
        """The writer this generator belongs to."""
        return self._writer_id

    @property
    def last_issued(self) -> Optional[Timestamp]:
        """The most recently issued timestamp (``None`` before the first)."""
        if self._counter == 0:
            return None
        return Timestamp(self._counter, self._writer_id)

    def next(self) -> Timestamp:
        """Issue the next (strictly larger) timestamp."""
        self._counter += 1
        return Timestamp(self._counter, self._writer_id)

    def observe(self, timestamp: Timestamp) -> None:
        """Fast-forward past an externally observed timestamp."""
        if timestamp.counter > self._counter:
            self._counter = timestamp.counter
