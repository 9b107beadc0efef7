"""One register write or read on an ``AsyncQuorumClient``, as ``AsyncRegister`` builds it.

Each helper takes a quorum from the client's pool, runs a topping-up
``QuorumOp`` through ``client.run`` and returns the finished op: its
``replies`` (every counted answer), ``final_quorum``, ``spares`` and
``fell_back`` are what the tests assert on.
"""

from __future__ import annotations

from repro.protocol.quorum_op import QuorumOp


async def write_op(client, variable, value, timestamp, signature=None):
    op = QuorumOp(client.next_quorum(), client.system, client.rng, repair=True)
    await client.run(op, "write", variable, (variable, value, timestamp, signature))
    return op


async def read_op(client, variable, threshold=1):
    lazy = threshold if client.lazy_fallback else None
    op = QuorumOp(client.next_quorum(), client.system, client.rng, repair=True, lazy=lazy)
    await client.run(op, "read", variable, (variable,))
    return op
