"""Shared configuration for the benchmark harness.

Each benchmark regenerates one table or figure of the paper (or an ablation
called out in DESIGN.md) and prints the regenerated rows/series so they can
be compared against the published numbers (see EXPERIMENTS.md).  Run with::

    pytest benchmarks/ --benchmark-only -s

Nothing here asserts an ops/s floor or writes a file: service
performance is measured by the repo benchmark under ``bench/``.
"""

from __future__ import annotations

import pytest


def pytest_configure(config):
    # Benchmarks print their regenerated tables; keep the output readable by
    # grouping benchmark results by name.
    config.option.benchmark_group_by = getattr(
        config.option, "benchmark_group_by", "group"
    )


@pytest.fixture
def report_sink(capsys):
    """Print a rendered report even when output capturing is enabled."""

    def emit(text: str) -> None:
        with capsys.disabled():
            print("\n" + text)

    return emit
