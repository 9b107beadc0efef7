"""Observability for the live service layers: tracing, metrics, ε-monitoring.

Three dependency-free pieces, threaded through every deployment mode:

* :mod:`repro.obs.trace` — per-operation :class:`~repro.obs.trace.QuorumTrace`
  records (sampled quorum, per-node RPC spans with their disposition, the
  selection-rule verdict, the final read classification), collected by a
  sampling :class:`~repro.obs.trace.Tracer`;
* :mod:`repro.obs.metrics` — counter / gauge / fixed-bucket histogram
  primitives and a :class:`~repro.obs.metrics.MetricsRegistry` whose JSON
  snapshots merge across shards and shard-server processes;
* :mod:`repro.obs.monitor` — an online sliding-window
  :class:`~repro.obs.monitor.EpsilonMonitor` comparing the observed
  stale/fabricated-accepted fraction against the scenario's predicted ε.

The contract every instrumentation site honours is **zero-cost-when-off**:
harnesses pass ``tracer=None`` (the default everywhere) and the hot paths
never construct a trace, never draw from a sampling RNG, and never touch a
registry.  When sampling *is* on, the tracer draws from its own private RNG
stream, so a traced run and an untraced run of the same seeded workload
classify every read identically (CI asserts exactly that).
"""

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    merge_snapshots,
)
from repro.obs.monitor import EpsilonMonitor
from repro.obs.trace import RpcSpan, QuorumTrace, Tracer

__all__ = [
    "Counter",
    "EpsilonMonitor",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "QuorumTrace",
    "RpcSpan",
    "Tracer",
    "merge_snapshots",
]
