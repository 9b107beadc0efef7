"""Background anti-entropy gossip for live service deployments.

Section 1.1 observes that a probabilistic quorum system "can be strengthened
by a properly designed diffusion mechanism" propagating updates lazily,
outside the critical path of client operations.  The simulation layer
implements that mechanism as :class:`~repro.simulation.diffusion.
DiffusionEngine`; this module promotes the *same engine* to a per-shard
asyncio task so the live service layers (in-process, TCP, sharded and
cluster deployments) run push anti-entropy in the background while client
load is in flight:

* :class:`NodeClusterView` — a duck-typed cluster facade over a replica
  group's :class:`~repro.service.node.ServiceNode` objects, so the
  diffusion engine gossips over the very replicas the deployment serves
  (crashed nodes stay silent, Byzantine pushes are rejected exactly as in
  the simulation);
* :func:`scenario_verifier` — the scenario's read rule as a gossip
  verifier: dissemination scenarios re-verify every gossip payload with
  the same check their readers apply to replies, so a Byzantine replica
  cannot poison the diffusion;
* :class:`GossipService` — the background task: every ``interval``
  event-loop seconds it runs ``rounds`` gossip rounds at the configured
  fanout, counting rounds and adoptions for the metrics registry.

The point of running freshness in the background is measured by the load
harness: with gossip (and piggybacked read-repair) on, the top-up round
that dominates read tail latency under churn almost never fires.
"""

from __future__ import annotations

import asyncio
import random
from typing import Any, List, Optional, Sequence, Set

from repro.obs.metrics import MetricsRegistry
from repro.service.node import ServiceNode
from repro.simulation.diffusion import DiffusionEngine, Verifier
from repro.types import ServerId

#: XOR'd into a shard's transport seed to derive its gossip RNG: the gossip
#: peer-selection stream must never alias the transport's drop/delay stream.
GOSSIP_SEED_SALT = 0x60551B


class NodeClusterView:
    """Duck-typed cluster facade over a replica group's service nodes.

    :class:`~repro.simulation.diffusion.DiffusionEngine` gossips over a
    cluster-shaped object (``n``, ``servers``, ``server(id)``,
    ``correct_servers()``); this view exposes exactly that surface over the
    live :class:`~repro.service.node.ServiceNode` list a deployment owns,
    so gossip observes live fault injection the instant it happens — a node
    crashed mid-run stops pushing and receiving on the next round.
    """

    __slots__ = ("_nodes", "servers")

    def __init__(self, nodes: Sequence[ServiceNode]) -> None:
        self._nodes = list(nodes)
        #: The nodes' replica servers; a node keeps its server for life.
        self.servers: List[Any] = [node.server for node in self._nodes]

    @property
    def n(self) -> int:
        return len(self._nodes)

    def server(self, server_id: ServerId) -> Any:
        return self.servers[server_id]

    def correct_servers(self) -> Set[ServerId]:
        return {
            node.server_id
            for node in self._nodes
            if not (node.server.is_crashed or node.server.is_byzantine)
        }


def scenario_verifier(scenario: Any) -> Optional[Verifier]:
    """The gossip payload verifier of a scenario's read rule.

    Dissemination scenarios (self-verifying data) re-verify every pushed
    record with :meth:`~repro.protocol.selection.ReadRule.verifies` before
    adoption — the very check the read path applies to replies — so
    Byzantine pushes are never adopted.  Benign and masking rules are
    unsigned and give ``None``: the former has no signatures, and the
    latter's defence is vote counting at *read* time (gossip adoption of a
    forged record is exactly the storage state the masking threshold is
    sized to out-vote).
    """
    return scenario.read_rule().verifier


class GossipService:
    """One shard's background push anti-entropy task.

    Parameters
    ----------
    nodes:
        The shard's replica nodes (gossip runs server-side, over the same
        objects the deployment serves requests from).
    anti_entropy:
        The :class:`~repro.simulation.scenario.AntiEntropySpec` describing
        fanout, rounds per tick and the tick interval.
    rng:
        Peer-selection randomness (deterministic for a fixed seed).
    verify:
        Optional payload verifier (see :func:`scenario_verifier`).
    """

    def __init__(
        self,
        nodes: Sequence[ServiceNode],
        anti_entropy: Any,
        rng: Optional[random.Random] = None,
        verify: Optional[Verifier] = None,
    ) -> None:
        self.anti_entropy = anti_entropy
        self.engine = DiffusionEngine(
            NodeClusterView(nodes),
            fanout=anti_entropy.fanout,
            verify=verify,
            rng=rng,
        )
        self._task: Optional[asyncio.Task] = None
        #: Gossip rounds run so far (the ``gossip_rounds`` metric).
        self.gossip_rounds = 0
        #: Replica copies a gossip push moved forward.
        self.adoptions = 0

    @property
    def running(self) -> bool:
        """Whether the background task is currently scheduled."""
        return self._task is not None

    def run_once(self) -> int:
        """Run one tick's worth of gossip rounds synchronously.

        The background task calls this on its interval; tests call it
        directly to drive gossip deterministically without sleeping.
        """
        adopted = self.engine.run_rounds(self.anti_entropy.rounds)
        self.gossip_rounds += self.anti_entropy.rounds
        self.adoptions += adopted
        return adopted

    async def _run(self) -> None:
        interval = self.anti_entropy.interval
        while True:
            await asyncio.sleep(interval)
            self.run_once()

    def start(self) -> None:
        """Arm the background task on the running loop (idempotent)."""
        if self._task is None:
            self._task = asyncio.get_running_loop().create_task(self._run())

    async def aclose(self) -> None:
        """Cancel the background task and wait it out (idempotent)."""
        task, self._task = self._task, None
        if task is not None:
            task.cancel()
            try:
                await task
            except asyncio.CancelledError:
                pass

    def metrics_snapshot(self, labels: Optional[dict] = None) -> dict:
        """This gossip task's counters as a mergeable registry snapshot."""
        registry = MetricsRegistry(
            labels={"component": "gossip", **(labels or {})}
        )
        registry.counter("gossip_rounds").inc(self.gossip_rounds)
        registry.counter("gossip_adoptions").inc(self.adoptions)
        registry.counter("gossip_messages_pushed").inc(self.engine.messages_pushed)
        return registry.to_dict()

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return (
            f"GossipService(fanout={self.engine.fanout}, "
            f"rounds_run={self.gossip_rounds}, adoptions={self.adoptions})"
        )
