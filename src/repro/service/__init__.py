"""The asyncio quorum-replicated register service.

Everything below :mod:`repro.simulation` evaluates the paper's protocols in
*sequentialised* Monte-Carlo trials.  This subpackage is the repo's first
layer that services genuinely concurrent traffic: replica nodes on an
asyncio event loop, clients that fan RPCs out in parallel under per-RPC
deadlines, and a load harness measuring throughput, latency percentiles and
safety under live fault injection.

* :mod:`repro.service.node` — replica nodes: the simulation's
  :class:`~repro.simulation.server.ReplicaServer` (every RPC and every
  silence rule) in the ``("ok", payload)`` envelope, with live behaviour
  swapping for fault injection;
* :mod:`repro.service.transport` — message passing with latency, jitter,
  drops and deadline enforcement;
* :mod:`repro.service.client` — the concurrent quorum client: draws a
  quorum, has a driver run the op (the pure
  :class:`~repro.protocol.quorum_op.QuorumOp` the sequential oracle runs
  too), wraps the result;
* :mod:`repro.service.dispatch` — the driver loop and the in-process
  driver: one coalesced delivery event per (node, tick) and one shared
  deadline per round, instead of a coroutine + timer per RPC;
* :mod:`repro.service.register` — the async register frontend, reading
  through the plain (§3.1), signed (§4) or thresholded (§5)
  :class:`~repro.protocol.selection.ReadRule` and labelled through the same
  classifier as both Monte-Carlo engines;
* :mod:`repro.service.wire` — the socket transport's length-prefixed,
  type-tagged JSON frame codec (round-trip safe for every protocol payload,
  resilient to arbitrary chunk boundaries);
* :mod:`repro.service.net` — the *real* transport: per-shard
  :class:`TcpServiceServer` replica groups behind localhost sockets, a
  :class:`TcpTransport` implementing the same call/counter interface with
  wall-clock deadlines, per-connection writer tasks and reconnect-on-drop,
  and the op-level :class:`TcpDispatcher` driver;
* :mod:`repro.service.sharding` / :mod:`repro.service.cluster` — scale-out:
  :class:`DeploymentSpec` (the one checked description of a deployment),
  :func:`shard_for_key` routing and the one deployment spine
  (``ShardedClientAPI``) under :class:`ShardedDeployment` (servers on this
  loop) and ``ClusterDeployment`` (a server process per shard);
* :mod:`repro.service.load` — :class:`ServiceLoadSpec` and the one load
  driver behind the ``serve`` experiment: :func:`serve_load` deploys a
  scenario and ``drive_load`` runs the whole workload against it from this
  process, whichever shape the deployment has.
"""

from repro.service.client import AsyncQuorumClient, ReadRpcResult, WriteRpcResult
from repro.service.dispatch import BatchedDispatcher
from repro.service.load import (
    FaultInjectionSpec,
    ServiceLoadReport,
    ServiceLoadSpec,
    classify_service_read,
    key_names,
    key_weight_cdf,
    run_service_load,
    serve_load,
)
from repro.service.net import (
    RemoteNode,
    TcpDispatcher,
    TcpServiceServer,
    TcpTransport,
    remote_nodes,
)
from repro.service.sharding import (
    TRANSPORT_MODES,
    DeploymentSpec,
    ShardedAsyncRegisterClient,
    ShardedDeployment,
    shard_for_key,
)
from repro.service.wire import FrameDecoder, encode_frame, pack_value, unpack_value
from repro.service.node import ServiceNode
from repro.simulation.server import NO_REPLY
from repro.service.register import AsyncRegister, async_register_for
from repro.service.transport import AsyncTransport

__all__ = [
    "AsyncTransport",
    "TcpTransport",
    "TcpServiceServer",
    "TcpDispatcher",
    "RemoteNode",
    "remote_nodes",
    "FrameDecoder",
    "encode_frame",
    "pack_value",
    "unpack_value",
    "DeploymentSpec",
    "ShardedDeployment",
    "ShardedAsyncRegisterClient",
    "shard_for_key",
    "TRANSPORT_MODES",
    "key_names",
    "key_weight_cdf",
    "ServiceNode",
    "NO_REPLY",
    "AsyncQuorumClient",
    "BatchedDispatcher",
    "ReadRpcResult",
    "WriteRpcResult",
    "AsyncRegister",
    "async_register_for",
    "ServiceLoadSpec",
    "FaultInjectionSpec",
    "ServiceLoadReport",
    "classify_service_read",
    "run_service_load",
    "serve_load",
]
