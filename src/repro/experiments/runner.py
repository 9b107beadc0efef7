"""Command line entry point for the experiment harness.

Usage::

    python -m repro.experiments.runner all
    python -m repro.experiments.runner table2
    python -m repro.experiments.runner figure3 --points 21
    python -m repro.experiments.runner consistency --engine batch --seed 7
    python -m repro.experiments.runner serve --clients 500

(The experiment can also be named with ``--experiment``, the original
spelling.)  Each experiment regenerates the corresponding table or figure
of the paper and prints it in plain text (see
:mod:`repro.experiments.report`).  Two experiments go beyond the tables:

* ``consistency`` runs the Monte-Carlo validation of Theorems 3.2/4.2/5.2
  on the engine selected with ``--engine`` (``batch`` is the vectorised
  fast path, ``sequential`` the protocol-stack oracle);
* ``serve`` deploys the masking scenario as a live asyncio service
  (:mod:`repro.service`) — ``--clients`` concurrent readers, Byzantine
  forgers, message drops and live crash churn — and reports throughput,
  latency percentiles and the zero-fabrication safety verdict.

``--seed`` seeds the chosen experiment *and* installs the shared sequential
RNG root (:func:`repro.rngs.seed_sequential`), so a run is reproducible end
to end from that one number.  The benchmark suite wraps the same
generators; this runner exists so that a user can reproduce the paper's
evaluation without pytest.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from typing import Callable, Dict, List

from repro.exceptions import ConfigurationError, ExperimentError
from repro.experiments.consistency import (
    render_consistency,
    run_consistency_scenarios,
    theorem_scenarios,
)
from repro.experiments.figures import (
    default_probability_grid,
    figure1_curves,
    figure2_curves,
    figure3_curves,
)
from repro.experiments.report import (
    render_figure,
    render_table1,
    render_table2,
    render_table3,
    render_table4,
)
from repro.experiments.tables import (
    paper_byzantine_threshold,
    table1_entries,
    table2_rows,
    table3_rows,
    table4_rows,
)
from repro.experiments.contention import DEFAULT_WRITERS, run_contention
from repro.experiments.serve import (
    DEFAULT_CLIENTS,
    DEFAULT_READS_PER_CLIENT,
    run_serve,
)
from repro.rngs import seed_sequential
from repro.service.sharding import TRANSPORT_MODES
from repro.service.wire import WIRE_CODECS
from repro.simulation.scenario import REGISTER_KINDS

EXPERIMENT_NAMES = (
    "table1",
    "table2",
    "table3",
    "table4",
    "figure1",
    "figure2",
    "figure3",
    "consistency",
    "contention",
    "serve",
    "explore",
    "all",
)

ENGINE_NAMES = ("sequential", "batch")

#: Default trial counts per engine for the consistency experiment: the batch
#: engine is ~two orders of magnitude faster, so it gets the tight estimate.
DEFAULT_TRIALS = {"sequential": 300, "batch": 20_000}


def run_table1(n: int = 100) -> str:
    """Regenerate Table 1 for a representative universe size."""
    b = paper_byzantine_threshold(n)
    return render_table1(table1_entries(n, b), n, b)


def run_table2() -> str:
    """Regenerate Table 2."""
    return render_table2(table2_rows())


def run_table3() -> str:
    """Regenerate Table 3."""
    return render_table3(table3_rows())


def run_table4() -> str:
    """Regenerate Table 4."""
    return render_table4(table4_rows())


def run_figure1(points: int = 41) -> str:
    """Regenerate Figure 1."""
    return render_figure(figure1_curves(ps=default_probability_grid(points)))


def run_figure2(points: int = 41) -> str:
    """Regenerate Figure 2."""
    return render_figure(figure2_curves(ps=default_probability_grid(points)))


def run_figure3(points: int = 41) -> str:
    """Regenerate Figure 3."""
    return render_figure(figure3_curves(ps=default_probability_grid(points)))


def run_consistency(
    engine: str = "batch",
    seed: int = 0,
    trials: int = None,
    register_kind: str = "auto",
) -> str:
    """Run the three theorem scenarios on the chosen Monte-Carlo engine.

    ``register_kind`` overrides the protocol every scenario deploys —
    e.g. ``"write-back"`` runs the read-repair oracle declaratively, and
    ``"plain"`` models a reader that ignores the protocol's filter (under
    the forger scenario both then measure the unprotected regime, where
    fabricated reads dominate).  A scenario that cannot host the forced
    kind (e.g. the masking protocol forced onto a thresholdless system)
    is skipped rather than mis-measured, and forcing a kind that no
    scenario survives is an error.
    """
    if engine not in ENGINE_NAMES:
        raise ExperimentError(
            f"unknown engine {engine!r}; choose from {', '.join(ENGINE_NAMES)}"
        )
    if register_kind not in REGISTER_KINDS:
        raise ExperimentError(
            f"unknown register kind {register_kind!r}; "
            f"choose from {', '.join(REGISTER_KINDS)}"
        )
    if trials is None:
        trials = DEFAULT_TRIALS[engine]
    if trials < 1:
        raise ExperimentError(f"trial count must be positive, got {trials}")
    scenarios = theorem_scenarios()
    if register_kind != "auto":
        forced = {}
        for label, spec in scenarios.items():
            try:
                forced[label] = dataclasses.replace(spec, register_kind=register_kind)
            except ConfigurationError:
                continue  # this scenario cannot host the forced protocol
        if not forced:
            raise ExperimentError(
                f"register kind {register_kind!r} fits none of the theorem "
                f"scenarios ({', '.join(scenarios)})"
            )
        scenarios = forced
    reports = run_consistency_scenarios(scenarios, trials=trials, seed=seed, engine=engine)
    return render_consistency(scenarios, reports, engine=engine, seed=seed)


def run_explore() -> str:
    """Exhaustively check the pinned small-config grid; fail on any violation.

    This is the CI ``explore-smoke`` entry point: every cell of
    :func:`repro.simulation.explore.small_config_grid` is enumerated
    completely, and a single violating schedule (a fabricated value
    accepted, or an evidence-regularity breach) fails the run with the
    minimised counterexample trace.
    """
    from repro.simulation.explore import explore_grid

    lines = [
        "Exhaustive small-config exploration (all delivery orders / crash points)",
        f"{'cell':<24} {'states':>8} {'schedules':>10}  verdict",
    ]
    failures = []
    for name, result in explore_grid().items():
        verdict = "SAFE" if result.safe else f"VIOLATION[{result.violation.property}]"
        lines.append(
            f"{name:<24} {result.states_explored:>8} {result.schedules:>10}  {verdict}"
        )
        if not result.safe:
            failures.append((name, result.violation))
    for name, violation in failures:
        lines.append("")
        lines.append(f"--- {name} ---")
        lines.append(violation.render())
    if failures:
        raise ExperimentError("\n".join(lines))
    return "\n".join(lines)


def run_experiment(
    name: str,
    points: int = 41,
    engine: str = "batch",
    seed: int = 0,
    trials: int = None,
    register_kind: str = "auto",
    clients: int = DEFAULT_CLIENTS,
    ops: int = DEFAULT_READS_PER_CLIENT,
    transport: str = "inproc",
    shards: int = 1,
    keys: int = 1,
    key_skew: float = 0.0,
    writers: int = None,
    contention: float = 0.0,
    codec: str = "json",
    processes: int = None,
    trace_sample: float = 0.0,
    trace_out: str = None,
    metrics_out: str = None,
    monitor_epsilon: bool = False,
    anti_entropy: bool = False,
    ae_fanout: int = 2,
    ae_interval: float = 0.002,
    ae_repair_budget: int = 4,
) -> List[str]:
    """Run one named experiment (or ``all``) and return the rendered reports.

    ``all`` covers the paper's tables and figures; the Monte-Carlo
    ``consistency`` experiment and the live-service ``serve`` experiment are
    run by name (their cost depends on the engine / client configuration).
    """
    runners: Dict[str, Callable[[], str]] = {
        "table1": run_table1,
        "table2": run_table2,
        "table3": run_table3,
        "table4": run_table4,
        "figure1": lambda: run_figure1(points),
        "figure2": lambda: run_figure2(points),
        "figure3": lambda: run_figure3(points),
    }
    if name == "consistency":
        return [
            run_consistency(
                engine=engine, seed=seed, trials=trials, register_kind=register_kind
            )
        ]
    if name == "contention":
        if engine not in ENGINE_NAMES:
            raise ExperimentError(
                f"unknown engine {engine!r}; choose from {', '.join(ENGINE_NAMES)}"
            )
        return [
            run_contention(
                writers=DEFAULT_WRITERS if writers is None else writers,
                trials=DEFAULT_TRIALS[engine] if trials is None else trials,
                seed=seed,
                engine=engine,
            )
        ]
    if name == "serve":
        return [
            run_serve(
                clients=clients,
                reads_per_client=ops,
                seed=seed,
                transport=transport,
                shards=shards,
                keys=keys,
                key_skew=key_skew,
                writers=writers,
                contention=contention,
                codec=codec,
                processes=processes,
                trace_sample=trace_sample,
                trace_out=trace_out,
                metrics_out=metrics_out,
                monitor_epsilon=monitor_epsilon,
                anti_entropy=anti_entropy,
                ae_fanout=ae_fanout,
                ae_interval=ae_interval,
                ae_repair_budget=ae_repair_budget,
            )
        ]
    if name == "explore":
        return [run_explore()]
    if name == "all":
        return [runners[key]() for key in sorted(runners)]
    if name not in runners:
        raise ExperimentError(
            f"unknown experiment {name!r}; choose from {', '.join(EXPERIMENT_NAMES)}"
        )
    return [runners[name]()]


def main(argv: List[str] = None) -> int:
    """CLI entry point."""
    parser = argparse.ArgumentParser(
        prog="repro.experiments.runner",
        description="Regenerate the tables and figures of 'Probabilistic Quorum Systems'.",
    )
    parser.add_argument(
        "experiment_name",
        nargs="?",
        default=None,
        metavar="experiment",
        choices=EXPERIMENT_NAMES,
        help="which experiment to run (positional spelling of --experiment)",
    )
    parser.add_argument(
        "--experiment",
        default=None,
        choices=EXPERIMENT_NAMES,
        help="which table/figure to regenerate (default: all)",
    )
    parser.add_argument(
        "--points",
        type=int,
        default=41,
        help="number of crash-probability grid points for the figures (default: 41)",
    )
    parser.add_argument(
        "--engine",
        default="batch",
        choices=ENGINE_NAMES,
        help="Monte-Carlo engine for the consistency experiment (default: batch)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=0,
        help="root seed: seeds the chosen engine and the shared sequential "
        "RNG streams (default: 0)",
    )
    parser.add_argument(
        "--trials",
        type=int,
        default=None,
        help="trial count for the consistency experiment "
        f"(default: {DEFAULT_TRIALS['batch']} batch / "
        f"{DEFAULT_TRIALS['sequential']} sequential)",
    )
    parser.add_argument(
        "--register-kind",
        default="auto",
        choices=REGISTER_KINDS,
        help="force every consistency scenario onto this read protocol "
        "('write-back' runs the read-repair oracle declaratively; scenarios "
        "that cannot host the forced kind are skipped; default: auto)",
    )
    parser.add_argument(
        "--clients",
        type=int,
        default=DEFAULT_CLIENTS,
        help="concurrent reader clients for the serve experiment "
        f"(default: {DEFAULT_CLIENTS})",
    )
    parser.add_argument(
        "--ops",
        type=int,
        default=DEFAULT_READS_PER_CLIENT,
        help="reads each serve client issues "
        f"(default: {DEFAULT_READS_PER_CLIENT})",
    )
    parser.add_argument(
        "--transport",
        default="inproc",
        choices=TRANSPORT_MODES,
        help="serve transport: simulated in-process message passing, or "
        "real localhost TCP sockets with wall-clock deadlines "
        "(default: inproc)",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=1,
        help="independent replica groups serve hashes register keys across "
        "(default: 1)",
    )
    parser.add_argument(
        "--keys",
        type=int,
        default=1,
        help="register keys the serve workload spreads over "
        "(default: 1, or one per shard when --shards > 1)",
    )
    parser.add_argument(
        "--key-skew",
        type=float,
        default=0.0,
        help="zipf exponent of the serve readers' key distribution "
        "(0 = uniform; default: 0)",
    )
    parser.add_argument(
        "--writers",
        type=int,
        default=None,
        help="concurrent writers: serve splits its writes across this many "
        "writer clients (each under its own writer identity), and the "
        "contention experiment races this many writers per trial "
        "(defaults: the scenario's writer count / "
        f"{DEFAULT_WRITERS})",
    )
    parser.add_argument(
        "--contention",
        type=float,
        default=0.0,
        help="probability a multi-key serve write is redirected to the "
        "hottest key, colliding the writers on one register "
        "(default: 0)",
    )
    parser.add_argument(
        "--codec",
        choices=WIRE_CODECS,
        default="json",
        help="serve wire codec over TCP: debug-friendly 'json' or the "
        "struct-packed 'binary' (the servers answer in it; implies "
        "--transport tcp; default: json)",
    )
    parser.add_argument(
        "--processes",
        type=int,
        nargs="?",
        const=0,
        default=None,
        help="serve multi-process mode: one server process per shard plus "
        "N load-worker processes (bare --processes auto-scales N to the "
        "machine's cores; implies --transport tcp and disables live "
        "churn; default: classic in-loop harness)",
    )
    parser.add_argument(
        "--trace-sample",
        type=float,
        default=0.0,
        metavar="RATE",
        help="serve observability: trace this fraction of quorum operations "
        "end to end (0 disables tracing and keeps the hot path untouched; "
        "default: 0)",
    )
    parser.add_argument(
        "--trace-out",
        default=None,
        metavar="FILE",
        help="write sampled serve traces to FILE as JSON lines (implies "
        "--trace-sample 1.0 when no rate is given)",
    )
    parser.add_argument(
        "--metrics-out",
        default=None,
        metavar="FILE",
        help="dump the serve run's metrics registry snapshots (per "
        "component plus a cluster-wide merge) to FILE as JSON",
    )
    parser.add_argument(
        "--monitor-epsilon",
        action="store_true",
        help="arm the online ε-monitor: compare the sliding-window "
        "stale/fabricated-accepted rate against the scenario's predicted ε "
        "and record structured alerts on the serve report",
    )
    parser.add_argument(
        "--anti-entropy",
        action="store_true",
        help="serve anti-entropy: piggyback read-repair on client deliveries "
        "and run background gossip per shard, moving freshness off the read "
        "path (the probe-fallback round all but disappears under churn)",
    )
    parser.add_argument(
        "--ae-fanout",
        type=int,
        default=2,
        help="peers each fresh server pushes to per gossip round "
        "(0 disables gossip, keeping only piggybacked repair; default: 2)",
    )
    parser.add_argument(
        "--ae-interval",
        type=float,
        default=0.002,
        help="event-loop seconds between background gossip ticks "
        "(default: 0.002)",
    )
    parser.add_argument(
        "--ae-repair-budget",
        type=int,
        default=4,
        help="lagging replicas one settled read may repair by piggybacking "
        "payloads onto the next coalesced delivery (default: 4)",
    )
    args = parser.parse_args(argv)
    if args.experiment_name is not None and args.experiment is not None:
        parser.error("name the experiment positionally or with --experiment, not both")
    experiment = args.experiment_name or args.experiment or "all"
    seed_sequential(args.seed)
    try:
        reports = run_experiment(
            experiment,
            points=args.points,
            engine=args.engine,
            seed=args.seed,
            trials=args.trials,
            register_kind=args.register_kind,
            clients=args.clients,
            ops=args.ops,
            transport=args.transport,
            shards=args.shards,
            keys=args.keys,
            key_skew=args.key_skew,
            writers=args.writers,
            contention=args.contention,
            codec=args.codec,
            processes=args.processes,
            trace_sample=args.trace_sample,
            trace_out=args.trace_out,
            metrics_out=args.metrics_out,
            monitor_epsilon=args.monitor_epsilon,
            anti_entropy=args.anti_entropy,
            ae_fanout=args.ae_fanout,
            ae_interval=args.ae_interval,
            ae_repair_budget=args.ae_repair_budget,
        )
    except ExperimentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        # Do not leak the root into programmatic callers (tests, notebooks).
        seed_sequential(None)
    print("\n\n".join(reports))
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI
    raise SystemExit(main())
