"""Per-operation quorum traces and the sampling collector that gathers them.

A :class:`QuorumTrace` is the record of **one quorum operation** — a register
read or write, or a lock-arbiter round — from the moment the client samples
a quorum to the moment the operation's result is classified:

* which servers the quorum contained (after a degraded operation's top-up
  rounds: the answering servers it finally rests on; ``retried`` says a
  top-up ran, ``probes_used`` counts the spare servers it asked);
* one :class:`RpcSpan` per RPC actually attempted, with its wall-clock
  window and **disposition**: ``ok``, ``dropped`` (the transport lost it),
  ``timeout`` (the deadline expired), ``silent`` (the server answered
  nothing — crashed or silent-Byzantine), ``unsent`` (the op resolved or the
  connection failed before the request left the client), ``repair`` (a
  fire-and-forget read-repair payload piggybacked on a delivery the
  operation already paid for);
* the selection-rule inputs and verdict (rule name, vote threshold, replies
  considered, chosen timestamp) filled in by the register frontend;
* the final outcome classification (``fresh`` / ``stale`` / ``empty`` /
  ``fabricated``) stamped by the load harness after the shared classifier
  runs.

Traces cross the process boundary by **id**: the wire codecs carry the
64-bit ``trace_id`` as an optional sixth element of a request envelope
(:mod:`repro.service.wire`), so a server process can attribute the requests
it handles to the client-side trace without shipping the record itself.

The :class:`Tracer` is the sampling collector.  Its RNG stream is private
(derived from the seed it is given, never shared with workload or transport
RNGs), which is what makes the zero-divergence guarantee possible: enabling
tracing must not perturb a single draw of the seeded workload.  At rates
0.0 and 1.0 no draw happens at all.
"""

from __future__ import annotations

import random
import time
from typing import Any, Dict, List, Optional, Tuple

__all__ = ["DISPOSITIONS", "RpcSpan", "QuorumTrace", "Tracer"]

#: Every way an RPC attempt can end, as recorded in a span.  ``repair`` marks
#: a fire-and-forget read-repair payload piggybacked onto a delivery the
#: operation already paid for (anti-entropy; no reply is awaited).
DISPOSITIONS = ("ok", "dropped", "timeout", "silent", "unsent", "error", "repair")

#: XOR'd into the tracer's seed so its private stream never collides with a
#: harness RNG seeded from the same root.
_TRACER_SEED_SALT = 0x7ACE5EED


class RpcSpan:
    """One RPC attempt inside a quorum operation."""

    __slots__ = ("server_id", "method", "started_at", "ended_at", "disposition")

    def __init__(
        self,
        server_id: int,
        method: str,
        started_at: float,
        ended_at: float,
        disposition: str,
    ) -> None:
        self.server_id = server_id
        self.method = method
        self.started_at = started_at
        self.ended_at = ended_at
        self.disposition = disposition

    @property
    def elapsed(self) -> float:
        """The span's wall-clock (monotonic) duration in seconds."""
        return self.ended_at - self.started_at

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form (used by ``--trace-out`` JSON-lines dumps)."""
        return {
            "server": self.server_id,
            "method": self.method,
            "started_at": self.started_at,
            "ended_at": self.ended_at,
            "elapsed": self.elapsed,
            "disposition": self.disposition,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return (
            f"RpcSpan(server={self.server_id}, method={self.method!r}, "
            f"disposition={self.disposition!r}, elapsed={self.elapsed:.6f})"
        )


class QuorumTrace:
    """The full record of one traced quorum operation."""

    __slots__ = (
        "trace_id",
        "op",
        "client_id",
        "variable",
        "shard",
        "quorum",
        "spans",
        "selection",
        "classification",
        "context",
        "status",
        "retried",
        "probes_used",
        "started_at",
        "finished_at",
    )

    def __init__(
        self,
        trace_id: int,
        op: str,
        client_id: Optional[int] = None,
        variable: Optional[str] = None,
        shard: Optional[int] = None,
    ) -> None:
        self.trace_id = trace_id
        self.op = op
        self.client_id = client_id
        self.variable = variable
        self.shard = shard
        self.quorum: Tuple[int, ...] = ()
        self.spans: List[RpcSpan] = []
        #: Selection-rule inputs and verdict, stamped by the register
        #: frontend: ``{"signed", "threshold", "replies", "verdict", ...}``.
        self.selection: Optional[Dict[str, Any]] = None
        #: The harness's final outcome label (``fresh``/``stale``/...).
        self.classification: Optional[str] = None
        #: Free-form caller annotation (the lock protocol tags its rounds
        #: with ``{"lock": ..., "step": ...}``).
        self.context: Optional[Dict[str, Any]] = None
        self.status = "pending"
        self.retried = 0
        self.probes_used = 0
        self.started_at = time.monotonic()
        self.finished_at: Optional[float] = None

    def record(
        self,
        server_id: int,
        method: str,
        started_at: float,
        ended_at: float,
        disposition: str,
    ) -> None:
        """Append one RPC span (called from the dispatch/transport layers)."""
        self.spans.append(
            RpcSpan(server_id, method, started_at, ended_at, disposition)
        )

    def finish(self, status: str = "ok") -> None:
        """Close the trace with a terminal status (``ok``/``unavailable``)."""
        self.status = status
        self.finished_at = time.monotonic()

    @property
    def elapsed(self) -> Optional[float]:
        """End-to-end duration, or ``None`` while the op is still open."""
        if self.finished_at is None:
            return None
        return self.finished_at - self.started_at

    def span_dispositions(self) -> Dict[str, int]:
        """Span count per disposition (``{"ok": 17, "dropped": 1}``)."""
        counts: Dict[str, int] = {}
        for span in self.spans:
            counts[span.disposition] = counts.get(span.disposition, 0) + 1
        return counts

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form: one line of a ``--trace-out`` dump."""
        return {
            "trace_id": self.trace_id,
            "op": self.op,
            "client_id": self.client_id,
            "variable": self.variable,
            "shard": self.shard,
            "quorum": list(self.quorum),
            "spans": [span.to_dict() for span in self.spans],
            "selection": self.selection,
            "classification": self.classification,
            "context": self.context,
            "status": self.status,
            "retried": self.retried,
            "probes_used": self.probes_used,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "elapsed": self.elapsed,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return (
            f"QuorumTrace(id={self.trace_id}, op={self.op!r}, "
            f"variable={self.variable!r}, spans={len(self.spans)}, "
            f"status={self.status!r}, classification={self.classification!r})"
        )


class Tracer:
    """Sampling collector of :class:`QuorumTrace` records.

    Parameters
    ----------
    sample_rate:
        Fraction of operations traced, in ``[0, 1]``.  0 disables tracing
        (``begin`` always returns ``None``); 1 traces everything.  Both
        endpoints skip the sampling draw entirely.
    seed:
        Seed of the tracer's **private** sampling RNG.  It is salted so the
        stream differs from harness RNGs seeded with the same root, and it
        is never shared: turning sampling on cannot perturb the workload's
        own randomness.
    max_traces:
        Retention cap; beyond it traces are still *recorded by callers*
        (spans, status) but not kept, and ``overflowed`` counts them.
    """

    def __init__(
        self,
        sample_rate: float = 1.0,
        seed: int = 0,
        max_traces: int = 1_000_000,
    ) -> None:
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError(
                f"the trace sample rate must lie in [0, 1], got {sample_rate}"
            )
        if max_traces < 0:
            raise ValueError(f"max_traces must be non-negative, got {max_traces}")
        self.sample_rate = float(sample_rate)
        self._rng = random.Random(int(seed) ^ _TRACER_SEED_SALT)
        self._next_id = 0
        self.max_traces = int(max_traces)
        self.traces: List[QuorumTrace] = []
        self.started = 0
        self.sampled_out = 0
        self.overflowed = 0

    def begin(
        self,
        op: str,
        client_id: Optional[int] = None,
        variable: Optional[str] = None,
        shard: Optional[int] = None,
    ) -> Optional[QuorumTrace]:
        """Start a trace for one operation, or ``None`` when sampled out."""
        rate = self.sample_rate
        if rate <= 0.0:
            return None
        if rate < 1.0 and self._rng.random() >= rate:
            self.sampled_out += 1
            return None
        trace_id = self._next_id
        self._next_id += 1
        self.started += 1
        return QuorumTrace(
            trace_id, op, client_id=client_id, variable=variable, shard=shard
        )

    def finish(self, trace: QuorumTrace, status: str = "ok") -> None:
        """Close ``trace`` and retain it (subject to the retention cap)."""
        trace.finish(status)
        if len(self.traces) < self.max_traces:
            self.traces.append(trace)
        else:
            self.overflowed += 1

    def to_dicts(self) -> List[Dict[str, Any]]:
        """Every retained trace in JSON-ready form."""
        return [trace.to_dict() for trace in self.traces]

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return (
            f"Tracer(rate={self.sample_rate}, collected={len(self.traces)}, "
            f"sampled_out={self.sampled_out})"
        )
