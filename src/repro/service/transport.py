"""Asynchronous message transport with configurable latency, jitter and drops.

The Monte-Carlo engines evaluate the protocols over *sequentialised* trials;
the service layer instead runs genuinely concurrent clients on an asyncio
event loop, so the transport is where real interleaving (and its hazards)
enters the model.  Each RPC:

* may be dropped, independently per message, with ``drop_probability``
  (request *or* reply — either way the caller never hears back);
* is delayed by ``latency ± jitter`` seconds of event-loop time;
* is bounded by a per-call ``timeout``: a dropped message or a silent server
  costs the caller exactly the timeout before :class:`RpcTimeoutError` is
  raised, never an unbounded wait.

Because the transport *simulates* the network, it knows a message's fate at
send time: a lost or overdue reply sleeps ``timeout`` and raises, instead of
arming a timer per RPC.  That keeps the hot path cheap enough for the
throughput harness while preserving the semantics a caller would observe.
With zero latency the transport still yields to the event loop once per
call (``asyncio.sleep(0)``), so thousands of in-flight RPCs interleave
non-deterministically exactly as a real service's would.
"""

from __future__ import annotations

import asyncio
import random
from typing import Any, Optional

from repro.exceptions import ConfigurationError, RpcTimeoutError
from repro.service.node import ServiceNode
from repro.simulation.server import NO_REPLY


def check_conditions(latency: float, jitter: float, drop_probability: float) -> None:
    """Refuse conditions no transport can simulate (run by every transport
    and, before anything is bound or spawned, by every deployment shape)."""
    if latency < 0.0:
        raise ConfigurationError(f"latency must be non-negative, got {latency}")
    if jitter < 0.0 or jitter > latency:
        raise ConfigurationError(
            f"jitter must lie in [0, latency={latency}], got {jitter}"
        )
    if not 0.0 <= drop_probability < 1.0:
        raise ConfigurationError(
            f"drop probability must lie in [0, 1), got {drop_probability}"
        )


class AsyncTransport:
    """Client-to-replica message passing for the asyncio service layer.

    Parameters
    ----------
    latency:
        Mean one-way processing delay per RPC, in event-loop seconds (the
        request and reply legs are folded into one delay).
    jitter:
        Half-width of the uniform noise added to ``latency``.
    drop_probability:
        Probability that an RPC's request or reply is lost.
    seed:
        Seed of the transport's private random source (drops and jitter),
        making a single-transport run reproducible.
    """

    def __init__(
        self,
        latency: float = 0.0,
        jitter: float = 0.0,
        drop_probability: float = 0.0,
        seed: int = 0,
    ) -> None:
        check_conditions(latency, jitter, drop_probability)
        self.latency = float(latency)
        self.jitter = float(jitter)
        self.drop_probability = float(drop_probability)
        self.rng = random.Random(seed)
        self.calls = 0
        self.dropped = 0
        self.timed_out = 0

    def _delay(self) -> float:
        if self.jitter:
            return self.latency + self.rng.uniform(-self.jitter, self.jitter)
        return self.latency

    def draw_delay(self) -> float:
        """Draw one delivery delay (``latency ± jitter``) from the transport RNG.

        The batched dispatcher draws a delay per *(node, tick)* delivery
        event through this hook, so it and :meth:`call` take their timing
        noise from the same stream and configuration.
        """
        return self._delay()

    async def call(
        self,
        node: ServiceNode,
        method: str,
        *args: Any,
        timeout: Optional[float] = None,
    ) -> Any:
        """Invoke ``method`` on a replica node; raise on timeout.

        ``timeout=None`` disables the deadline (only safe on a loss-free
        transport against non-silent nodes).  Raises
        :class:`~repro.exceptions.RpcTimeoutError` when the RPC is dropped,
        the delay exceeds the deadline, or the node stays silent (crashed
        and silent-Byzantine behaviours never answer); the error carries a
        ``disposition`` attribute (``"dropped"``/``"timeout"``/``"silent"``)
        for trace spans.
        """
        self.calls += 1
        delay = self._delay()
        dropped = (
            self.drop_probability > 0.0 and self.rng.random() < self.drop_probability
        )
        if dropped:
            # The caller never hears back: it waits out its whole deadline
            # (or, with no deadline, learns of the loss after the delay).
            # Counted as a drop only, so the report's drop/timeout columns
            # partition the failures.
            self.dropped += 1
            await asyncio.sleep(delay if timeout is None else timeout)
            error = RpcTimeoutError(
                f"rpc {method!r} to server {node.server_id} was dropped"
            )
            error.disposition = "dropped"
            raise error
        if timeout is not None and delay > timeout:
            self.timed_out += 1
            await asyncio.sleep(timeout)
            error = RpcTimeoutError(
                f"rpc {method!r} to server {node.server_id} timed out"
            )
            error.disposition = "timeout"
            raise error
        await asyncio.sleep(delay)
        reply = node.handle(method, *args)
        if reply is NO_REPLY:
            # A silent server: the caller waits out the rest of its deadline.
            self.timed_out += 1
            if timeout is not None and timeout > delay:
                await asyncio.sleep(timeout - delay)
            error = RpcTimeoutError(
                f"rpc {method!r} to server {node.server_id} got no reply"
            )
            error.disposition = "silent"
            raise error
        return reply
